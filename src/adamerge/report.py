# CSV and SVG emission for the bench CLI. SVG is written by hand so
# reports stay dependency-free and diffable in tests.

import csv
import math

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

SURVIVED_COLOR = "#2ca02c"
MERGED_COLOR = "#d62728"


def write_run_csv(path: str, rows) -> None:
    """Per-layer run records: image_id, layer, N_before, r_l, sbar, z."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["image_id", "layer", "n_before", "r", "sbar", "z"])
        for image_id, trace in rows:
            for rec in trace.layers:
                w.writerow([image_id, rec.layer, rec.n_before, rec.r,
                            f"{rec.sbar:.9f}", f"{rec.z:.9f}"])


def write_compare_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["config", "method", "flops_g", "flops_reduction_pct",
                    "mean_merges", "accuracy", "wall_time_s"])
        for r in rows:
            w.writerow([r["config"], r["method"], f"{r['flops_g']:.6f}",
                        f"{r['flops_reduction_pct']:.3f}",
                        f"{r['mean_merges']:.3f}",
                        "n/a" if r["accuracy"] is None else f"{r['accuracy']:.4f}",
                        f"{r['wall_time_s']:.4f}"])


def line_chart_svg(path: str, series: dict, xlabel: str, ylabel: str,
                   title: str = "", width: int = 640, height: int = 440) -> None:
    """One polyline per series; series maps name -> list of (x, y)."""
    pad = 60
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    # axes
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
                 'stroke="black"/>')
    if title:
        parts.append(f'<text x="{width / 2}" y="24" text-anchor="middle" '
                     f'font-size="15">{title}</text>')
    parts.append(f'<text x="{width / 2}" y="{height - 16}" text-anchor="middle" '
                 f'font-size="12">{xlabel}</text>')
    parts.append(f'<text x="18" y="{height / 2}" font-size="12" '
                 f'transform="rotate(-90 18 {height / 2})" '
                 f'text-anchor="middle">{ylabel}</text>')
    for t in range(5):
        xv = x0 + (x1 - x0) * t / 4
        yv = y0 + (y1 - y0) * t / 4
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - pad + 16}" '
                     f'text-anchor="middle" font-size="10">{xv:.3g}</text>')
        parts.append(f'<text x="{pad - 6}" y="{sy(yv):.1f}" '
                     f'text-anchor="end" font-size="10">{yv:.3g}</text>')

    for idx, (name, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 16 * idx}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")


def _heat_color(v: float) -> str:
    """Cold-to-warm ramp for v in [0, 1]."""
    v = min(max(v, 0.0), 1.0)
    r = int(255 * v)
    b = int(255 * (1.0 - v))
    g = int(80 * (1.0 - abs(2 * v - 1.0)))
    return f"rgb({r},{g},{b})"


def merge_map_state(trace):
    """Per-layer survival/salience state of every original token.

    Returns (merged_at, salience_by_layer): merged_at maps original token
    index -> layer it was absorbed (absent = survived); salience_by_layer
    is, per layer, a dict original-token -> normalized salience of the
    token currently representing it.
    """
    merged_at = {}
    sal_layers = []
    for rec in trace.layers:
        for orig in rec.merged_reps:
            merged_at.setdefault(orig, rec.layer)
        layer_sal = {}
        if rec.rep_ids is not None and rec.rep_salience is not None:
            for orig, s in zip(rec.rep_ids, rec.rep_salience):
                layer_sal[orig] = s
        sal_layers.append(layer_sal)
    return merged_at, sal_layers


def write_merge_map_csv(path: str, trace, n_tokens: int) -> None:
    merged_at, sal_layers = merge_map_state(trace)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["layer", "token", "status", "merged_at_layer", "salience"])
        for rec in trace.layers:
            sal = sal_layers[rec.layer]
            for t in range(n_tokens):
                ml = merged_at.get(t)
                merged = ml is not None and ml <= rec.layer
                w.writerow([rec.layer, t,
                            "merged" if merged else "survived",
                            "" if ml is None else ml,
                            "" if t not in sal else f"{sal[t]:.6f}"])


def write_merge_map_svg(path: str, trace, n_tokens: int,
                        cell: int = 9, gap: int = 14) -> None:
    """One row per layer: survival grid (green/red) plus salience heat grid."""
    merged_at, sal_layers = merge_map_state(trace)
    g = math.ceil(math.sqrt(n_tokens))
    grid_w = g * cell
    width = 120 + 2 * grid_w + 3 * gap
    row_h = grid_w + gap
    height = 40 + row_h * len(trace.layers)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{120 + grid_w / 2}" y="20" text-anchor="middle" '
             'font-size="12">survived / merged</text>',
             f'<text x="{120 + grid_w + gap + grid_w / 2}" y="20" '
             'text-anchor="middle" font-size="12">salience</text>']
    for rec in trace.layers:
        y_off = 34 + rec.layer * row_h
        parts.append(f'<text x="8" y="{y_off + grid_w / 2}" font-size="11">'
                     f'layer {rec.layer} (n={rec.n_before - rec.r})</text>')
        sal = sal_layers[rec.layer]
        for t in range(n_tokens):
            row, col = divmod(t, g)
            ml = merged_at.get(t)
            merged = ml is not None and ml <= rec.layer
            color = MERGED_COLOR if merged else SURVIVED_COLOR
            parts.append(f'<rect x="{120 + col * cell}" y="{y_off + row * cell}" '
                         f'width="{cell - 1}" height="{cell - 1}" fill="{color}"/>')
            x2 = 120 + grid_w + gap + col * cell
            hcolor = _heat_color(sal[t]) if t in sal else "#cccccc"
            parts.append(f'<rect x="{x2}" y="{y_off + row * cell}" '
                         f'width="{cell - 1}" height="{cell - 1}" fill="{hcolor}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")
