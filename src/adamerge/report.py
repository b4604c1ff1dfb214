# CSV and SVG emission for the bench CLI. SVG is written by hand so
# reports stay dependency-free and diffable in tests.

import csv
import math

from .matcher import MergeDecision, partition

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

SURVIVED_COLOR = "#2ca02c"
MERGED_COLOR = "#d62728"

# the line chart's (width, height) in px and (x label, y label, title); the
# merge map's square per token and gap between its grids and layers, in px
CHART_SIZE = (640, 440)
CHART_LABELS = ("FLOPs (G)", "mean merges", "FLOPs vs merge budget")
MAP_CELL, MAP_GAP = 9, 14

# the merger's per-layer flags, in the order the run outputs show them
MERGER_FLAGS = ("r_clamped", "mean_fallback", "empty_b")


def _write_csv(path: str, header, rows) -> None:
    """Write a UTF-8 CSV of the header row, then `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_svg(path: str, width, height, parts) -> None:
    """Write the SVG elements `parts`, one per line, on a white canvas."""
    size = f'width="{width}" height="{height}"'
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join([f'<svg xmlns="http://www.w3.org/2000/svg" {size}>',
                           f'<rect {size} fill="white"/>', *parts, "</svg>"]) + "\n")


def write_run_csv(path: str, traces) -> None:
    """Per-layer run records: image_id (the trace's index), layer, N_before,
    r_l, sbar, z, then the flags r_clamped, mean_fallback, empty_b as 0/1."""
    _write_csv(path, ["image_id", "layer", "n_before", "r", "sbar", "z",
                      *MERGER_FLAGS],
               ([image_id, rec.layer, rec.n_before, rec.r,
                 f"{rec.sbar:.9f}", f"{rec.z:.9f}",
                 *(int(getattr(rec, k)) for k in MERGER_FLAGS)]
                for image_id, trace in enumerate(traces) for rec in trace.layers))


def write_compare_csv(path: str, rows) -> None:
    _write_csv(path, ["config", "method", "flops_g", "flops_reduction_pct",
                      "overhead_g", "mean_merges", "accuracy", "wall_time_s"],
               ([r["config"], r["method"], f"{r['flops_g']:.6f}",
                 f"{r['flops_reduction_pct']:.3f}",
                 f"{r['overhead_g']:.6f}",
                 f"{r['mean_merges']:.3f}",
                 "n/a" if r["accuracy"] is None else f"{r['accuracy']:.4f}",
                 f"{r['wall_time_s']:.4f}"] for r in rows))


def line_chart_svg(path: str, series: dict) -> None:
    """One polyline per series, labelled with CHART_LABELS; series maps
    name -> list of (x, y), with at least one point over all series."""
    width, height = CHART_SIZE
    xlabel, ylabel, title = CHART_LABELS
    pad = 60
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
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

    parts = [  # axes, title and axis labels
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<text x="{width / 2}" y="{height - 16}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="18" y="{height / 2}" font-size="12" '
        f'transform="rotate(-90 18 {height / 2})" '
        f'text-anchor="middle">{ylabel}</text>']
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
    _write_svg(path, width, height, parts)


def _heat_color(v: float) -> str:
    """Cold-to-warm ramp for v in [0, 1]."""
    v = min(max(v, 0.0), 1.0)
    r = int(255 * v)
    b = int(255 * (1.0 - v))
    g = int(80 * (1.0 - abs(2 * v - 1.0)))
    return f"rgb({r},{g},{b})"


def merge_map_cells(trace):
    """Per layer, (record, cells): for each token t entering layer 0, (the
    layer that absorbed t or None, whether that layer is at or before this
    one, the normalized salience of t's representative or None). Rebuilt
    by replaying each layer's edges through the matcher's partition and
    survivor order, which give the original token at each position."""
    tokens = range(trace.layers[0].n_before)
    merged_at, sal_layers, reps = {}, [], list(tokens)
    for rec in trace.layers:
        for src, _, _ in rec.edges:
            merged_at.setdefault(reps[src], rec.layer)
        reps = [reps[i] for i in
                MergeDecision(*partition(rec.n_before), rec.edges).survivors]
        sal_layers.append({} if rec.rep_salience is None
                          else dict(zip(reps, rec.rep_salience)))
    for rec, sal in zip(trace.layers, sal_layers):
        yield rec, [(merged_at.get(t), t in merged_at and merged_at[t] <= rec.layer,
                     sal.get(t)) for t in tokens]


def write_merge_map_csv(path: str, trace) -> None:
    _write_csv(path, ["layer", "token", "status", "merged_at_layer", "salience"],
               ([rec.layer, t, "merged" if merged else "survived",
                 "" if ml is None else ml, "" if sal is None else f"{sal:.6f}"]
                for rec, cells in merge_map_cells(trace)
                for t, (ml, merged, sal) in enumerate(cells)))


def write_merge_map_svg(path: str, trace) -> None:
    """One row per layer: survival grid (green/red) plus salience heat grid."""
    cell, gap = MAP_CELL, MAP_GAP
    g = math.ceil(math.sqrt(trace.layers[0].n_before))
    grid_w = g * cell
    width = 120 + 2 * grid_w + 3 * gap
    row_h = grid_w + gap
    height = 40 + row_h * len(trace.layers)

    parts = [f'<text x="{120 + grid_w / 2}" y="20" text-anchor="middle" '
             'font-size="12">survived / merged</text>',
             f'<text x="{120 + grid_w + gap + grid_w / 2}" y="20" '
             'text-anchor="middle" font-size="12">salience</text>']
    for rec, cells in merge_map_cells(trace):
        y_off = 34 + rec.layer * row_h
        parts.append(f'<text x="8" y="{y_off + grid_w / 2}" font-size="11">'
                     f'layer {rec.layer} (n={rec.n_before - rec.r})</text>')
        for t, (_, merged, sal) in enumerate(cells):
            row, col = divmod(t, g)
            color = MERGED_COLOR if merged else SURVIVED_COLOR
            parts.append(f'<rect x="{120 + col * cell}" y="{y_off + row * cell}" '
                         f'width="{cell - 1}" height="{cell - 1}" fill="{color}"/>')
            x2 = 120 + grid_w + gap + col * cell
            hcolor = "#cccccc" if sal is None else _heat_color(sal)
            parts.append(f'<rect x="{x2}" y="{y_off + row * cell}" '
                         f'width="{cell - 1}" height="{cell - 1}" fill="{hcolor}"/>')
    _write_svg(path, width, height, parts)
