# Bench front end: synthetic data generation, calibration, single runs,
# method comparisons and merge-map visualisation.
#
# Exit codes: 0 ok, 1 usage error, 2 data/runtime error.

import argparse
import json
import os
import sys
import time

import numpy as np

from . import calibration, data, flops, report
from .archive import ArchiveError
from .runtime import (METHOD_ALIASES, ModelDims, RunConfig, load_weights,
                      method_knobs, run_images, save_weights, synth_weights)
from .schedule import ScheduleConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed(args_seed):
    if args_seed is not None:
        return args_seed
    return int(os.environ.get("ADAMERGE_SEED", "0"))


def build_run_config(method: str, *, r: int | None = None,
                     r_max: int | None = None, alpha: float = 1.0,
                     temperature: float = 1.0, stats=None,
                     track_maps: bool = False) -> RunConfig:
    """Resolve a method alias and CLI-style options into a RunConfig.

    tome and sw-only run fixed schedules (want --r); adamerge and
    adp-only run adaptively (want --r-max and stats) unless --r forces a
    fixed schedule, so `adamerge --r k` is `sw-only --r k`.
    """
    salience, kind = method_knobs(method)
    if kind is None:
        return RunConfig(salience=salience, schedule=None)
    if r is not None:
        return RunConfig(salience=salience, schedule=r, track_maps=track_maps)
    if kind == "fixed":
        raise ValueError(f"method {method} needs --r (fixed merge count)")
    if r_max is None:
        raise ValueError(f"method {method} needs --r-max in adaptive mode")
    sched = ScheduleConfig(r_max=r_max, alpha=alpha, temperature=temperature)
    if stats is None:
        raise ValueError(
            f"method {method} needs calibrated stats; run `adamerge "
            "calibrate` first or pass --r for a fixed schedule")
    return RunConfig(salience=salience, schedule=sched, stats=stats,
                     track_maps=track_maps)


def _load_labels(path, n_images):
    with open(path, "r", encoding="utf-8") as f:
        labels = json.load(f)
    if not isinstance(labels, list) or len(labels) != n_images:
        raise ValueError(
            f"labels file must be a list of {n_images} class indices")
    return labels


def _accuracy(results, labels):
    if labels is None:
        return None
    hits = sum(1 for (logits, _), y in zip(results, labels)
               if int(np.argmax(logits)) == int(y))
    return hits / len(results)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    seed = _default_seed(args.seed)
    images = data.synth_images(args.images, args.tokens, args.dim,
                               args.redundancy, seed,
                               k_prototypes=args.prototypes)
    data.save_dataset(args.out, images,
                      meta={"redundancy": args.redundancy, "seed": seed,
                            "k_prototypes": args.prototypes})
    print(f"wrote {args.images} images ({args.tokens}x{args.dim}, "
          f"rho={args.redundancy}) to {args.out}")
    return EXIT_OK


def cmd_synth_weights(args) -> int:
    seed = _default_seed(args.seed)
    dims = ModelDims(d=args.dim, heads=args.heads, d_ff=args.d_ff,
                     layers=args.layers, n_classes=args.classes)
    save_weights(synth_weights(seed, dims), args.out)
    print(f"wrote synthetic ViT weights (d={dims.d}, heads={dims.heads}, "
          f"d_ff={dims.d_ff}, L={dims.layers}) to {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    weights = load_weights(args.weights)
    images, _ = data.load_dataset(args.dataset)
    stats = calibration.refine(weights, images, args.r_max, alpha=args.alpha,
                               temperature=args.temperature,
                               passes=args.passes, method=args.method,
                               threads=args.threads)
    calibration.save_stats(stats, args.out)
    print(f"calibrated {stats.num_layers} layers on {stats.calibration_size} "
          f"images ({stats.passes} passes) -> {args.out}")
    print(f"{'layer':>5} {'mu':>12} {'sigma':>12}")
    for l in range(stats.num_layers):
        print(f"{l:>5} {stats.mu[l]:>12.6f} {stats.sigma[l]:>12.6f}")
    return EXIT_OK


def _load_stats(path, weights):
    """Stats at `path` (None without a path), checked against the model."""
    if not path:
        return None
    stats = calibration.load_stats(path)
    if stats.model_id != weights.model_id:
        raise ValueError(
            f"{path}: stats were calibrated on model {stats.model_id!r}, "
            f"but the weights are model {weights.model_id!r}")
    return stats


def _cfg_from_args(args, weights, track_maps=False):
    stats = _load_stats(args.stats, weights)
    return build_run_config(args.method, r=args.r, r_max=args.r_max,
                            alpha=args.alpha, temperature=args.temperature,
                            stats=stats, track_maps=track_maps)


def _measure(weights, images, cfg, args, labels):
    """Forward every image; returns (results, summary row). FLOPs and
    merges are means over images, since adaptive r varies per image."""
    t0 = time.perf_counter()
    results = run_images(weights, images, cfg, threads=args.threads)
    wall = time.perf_counter() - t0
    traces = [tr for _, tr in results]
    reps = [flops.trace_flops(tr, weights.dims,
                              include_overhead=args.include_overhead)
            for tr in traces]
    return results, {
        "flops_g": float(np.mean([r.grand_total for r in reps])) / 1e9,
        "flops_reduction_pct": float(np.mean([r.reduction_pct for r in reps])),
        "mean_merges": float(np.mean([tr.total_merges for tr in traces])),
        "accuracy": _accuracy(results, labels), "wall_time_s": wall}


def cmd_run(args) -> int:
    weights = load_weights(args.weights)
    images, _ = data.load_dataset(args.dataset)
    if len(images) == 0:
        raise ValueError("dataset is empty")
    cfg = _cfg_from_args(args, weights)
    labels = _load_labels(args.labels, len(images)) if args.labels else None

    results, row = _measure(weights, images, cfg, args, labels)
    if args.out_csv:
        report.write_run_csv(args.out_csv,
                             [(i, tr) for i, (_, tr) in enumerate(results)])
    acc = row["accuracy"]
    print(f"method={args.method} images={len(images)}")
    print(f"mean total merges: {row['mean_merges']:.2f}")
    print(f"FLOPs (mean over images): {row['flops_g']:.4g} G "
          f"(reduction {row['flops_reduction_pct']:.1f}% vs merge-free)")
    print(f"accuracy: {'n/a' if acc is None else f'{acc:.4f}'}")
    print(f"wall time: {row['wall_time_s']:.3f} s")
    return EXIT_OK


def parse_config_spec(spec: str):
    """Parse 'method:key=val,key=val' comparison configs."""
    method, _, rest = spec.partition(":")
    if method not in METHOD_ALIASES:
        raise ValueError(f"unknown method in config {spec!r}")
    opts = {}
    if rest:
        for kv in rest.split(","):
            key, _, val = kv.partition("=")
            if key not in ("r", "r_max", "alpha", "temperature"):
                raise ValueError(f"unknown option {key!r} in config {spec!r}")
            opts[key] = float(val) if key in ("alpha", "temperature") else int(val)
    return method, opts


def cmd_compare(args) -> int:
    weights = load_weights(args.weights)
    images, _ = data.load_dataset(args.dataset)
    if len(images) == 0:
        raise ValueError("dataset is empty")
    labels = _load_labels(args.labels, len(images)) if args.labels else None
    stats = _load_stats(args.stats, weights)

    rows = []
    series = {}
    for spec in args.config:
        method, opts = parse_config_spec(spec)
        cfg = build_run_config(method, stats=stats,
                               alpha=opts.get("alpha", args.alpha),
                               temperature=opts.get("temperature", args.temperature),
                               r=opts.get("r"), r_max=opts.get("r_max"))
        _, row = _measure(weights, images, cfg, args, labels)
        rows.append({"config": spec, "method": method, **row})
        series.setdefault(method, []).append((row["flops_g"], row["mean_merges"]))

    hdr = (f"{'config':<28} {'FLOPs(G)':>10} {'FLOPs v':>8} "
           f"{'merges':>8} {'acc':>8} {'wall(s)':>8}")
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        acc = "n/a" if r["accuracy"] is None else f"{r['accuracy']:.4f}"
        print(f"{r['config']:<28} {r['flops_g']:>10.4g} "
              f"{r['flops_reduction_pct']:>7.1f}% {r['mean_merges']:>8.1f} "
              f"{acc:>8} {r['wall_time_s']:>8.3f}")
    if args.out_csv:
        report.write_compare_csv(args.out_csv, rows)
    if args.out_svg:
        report.line_chart_svg(args.out_svg, series, xlabel="FLOPs (G)",
                              ylabel="mean merges",
                              title="FLOPs vs merge budget")
    return EXIT_OK


def cmd_viz(args) -> int:
    weights = load_weights(args.weights)
    images, _ = data.load_dataset(args.dataset)
    if not 0 <= args.image_index < len(images):
        raise ValueError(
            f"image index {args.image_index} out of range (dataset has "
            f"{len(images)} images)")
    cfg = _cfg_from_args(args, weights, track_maps=True)
    [(_, trace)] = run_images(weights, [images[args.image_index]], cfg)
    n_tokens = images.shape[1]
    if args.out_svg:
        report.write_merge_map_svg(args.out_svg, trace, n_tokens)
    if args.out_csv:
        report.write_merge_map_csv(args.out_csv, trace, n_tokens)
    print(f"image {args.image_index}: {trace.total_merges} tokens merged "
          f"over {len(trace.layers)} layers")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_schedule_flags(p):
    p.add_argument("--method", choices=list(METHOD_ALIASES), default="adamerge")
    p.add_argument("--r", type=int, default=None,
                   help="fixed per-layer merge count")
    p.add_argument("--r-max", type=int, default=None,
                   help="adaptive-schedule budget")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--stats", default=None, help="stats.json path")


def make_parser() -> _Parser:
    parser = _Parser(prog="adamerge",
                     description="Token-merging bench tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic token dataset")
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--redundancy", type=float, default=0.5)
    p.add_argument("--prototypes", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("synth-weights", help="generate synthetic ViT weights")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--heads", type=int, required=True)
    p.add_argument("--d-ff", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--classes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_weights)

    p = sub.add_parser("calibrate", help="fit per-layer (mu, sigma) stats")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--passes", type=int, default=2)
    p.add_argument("--method", choices=list(METHOD_ALIASES), default="adamerge")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("run", help="run one method over a dataset")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset", required=True)
    _add_schedule_flags(p)
    p.add_argument("--labels", default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--include-overhead", action="store_true")
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="compare configurations")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", action="append", required=True,
                   help="e.g. tome:r=8 or adamerge:r_max=23")
    p.add_argument("--stats", default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--labels", default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--include-overhead", action="store_true")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("viz", help="emit a per-layer merge map")
    p.add_argument("--weights", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--image-index", type=int, default=0)
    _add_schedule_flags(p)
    p.add_argument("--out-svg", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_viz)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ArchiveError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
