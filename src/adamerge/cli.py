# Bench front end: synthetic data generation, calibration, single runs,
# method comparisons and merge-map visualisation.
#
# Exit codes: 0 ok, 1 usage error, 2 data/runtime error.

import argparse
import dataclasses
import shlex
import sys
import time

import numpy as np

from . import calibration, data, flops, report
from .archive import read_json
from .runtime import (ModelDims, NonFiniteError, RunConfig, load_weights,
                      run_images, save_weights, synth_weights)
from .schedule import _is_int

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# A method name sets the salience knob of a RunConfig (weighted scores
# and salience aggregation), known only here; "none" runs no merge step
# at all. The schedule is set apart from the name: the key r of a
# --config spec fixes it, --stats makes it adaptive.
METHOD_ALIASES = {"none": False, "tome": False, "adamerge": True}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def method_salience(method: str) -> bool:
    """The salience setting of a method name."""
    if method not in METHOD_ALIASES:
        raise ValueError(
            f"unknown method {method!r}; expected one of {tuple(METHOD_ALIASES)}")
    return METHOD_ALIASES[method]


def build_run_config(method: str, *, r: int | None = None,
                     r_max: int | None = None, stats=None) -> RunConfig:
    """Resolve a method name and CLI-style options into a RunConfig.

    A merging method runs a fixed schedule of r merges per layer when r
    is given, and otherwise the calibrated stats as an adaptive one;
    RunConfig rejects stats calibrated with another salience setting.
    An r_max left at None is the stats' own; a given one overrides it,
    with a warning when they differ, and is an error next to r. alpha
    is always the stats' own.
    """
    salience = method_salience(method)
    if method == "none":
        if r is not None or r_max is not None:
            raise ValueError(
                f"method {method} runs no merge step, so it takes neither r "
                f"nor r_max (got r={r}, r_max={r_max})")
        return RunConfig(salience=salience, schedule=None)
    if r is not None:
        if r_max is not None:
            raise ValueError(
                f"method {method} takes r for a fixed schedule or r_max for an "
                f"adaptive one, not both (got r={r}, r_max={r_max})")
        return RunConfig(salience=salience, schedule=r)
    if stats is None:
        raise ValueError(f"method {method} needs r for a fixed schedule or "
                         "stats for an adaptive one")
    sched = stats if r_max is None else dataclasses.replace(stats, r_max=r_max)
    if sched.r_max != stats.r_max:
        print(f"warning: r_max={r_max} differs from the stats' "
              f"r_max={stats.r_max}", file=sys.stderr)
    return RunConfig(salience=salience, schedule=sched)


def _load_inputs(args):
    """Weights, images and labels (None without --labels) of a command."""
    weights = load_weights(args.weights)
    images, _ = data.load_dataset(args.dataset)
    if len(images) == 0:
        raise ValueError(f"{args.dataset}: dataset is empty")
    if images.shape[1] == 0:
        raise ValueError(f"{args.dataset}: images have no patch tokens")
    if images.shape[2] != weights.dims.d:
        raise ValueError(
            f"{args.dataset}: tokens have dim {images.shape[2]}, but the "
            f"weights at {args.weights} have d={weights.dims.d}")
    path, labels = getattr(args, "labels", None), None
    if path:
        labels = read_json(path)
        if not isinstance(labels, list) or len(labels) != len(images):
            raise ValueError(
                f"{path}: labels must be a list of {len(images)} class indices")
        n_classes = weights.dims.n_classes
        for i, y in enumerate(labels):
            if not _is_int(y) or not 0 <= y < n_classes:
                raise ValueError(f"{path}: label {i} is {y!r}; each label must "
                                 f"be an integer in [0, {n_classes})")
    return weights, images, labels


def _accuracy(results, labels):
    if labels is None:
        return None
    hits = sum(1 for (logits, _), y in zip(results, labels)
               if int(np.argmax(logits)) == y)
    return hits / len(results)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    images = data.synth_images(args.images, args.tokens, args.dim,
                               args.redundancy, args.seed,
                               k_prototypes=args.prototypes)
    data.save_dataset(args.out, images,
                      meta={"redundancy": args.redundancy, "seed": args.seed,
                            "k_prototypes": args.prototypes})
    print(f"wrote {args.images} images ({args.tokens}x{args.dim}, "
          f"rho={args.redundancy}) to {args.out}")
    return EXIT_OK


def cmd_synth_weights(args) -> int:
    dims = ModelDims(d=args.dim, heads=args.heads, d_ff=args.d_ff,
                     layers=args.layers, n_classes=args.classes)
    save_weights(synth_weights(args.seed, dims), args.out)
    print(f"wrote synthetic ViT weights (d={dims.d}, heads={dims.heads}, "
          f"d_ff={dims.d_ff}, L={dims.layers}) to {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    spec = _one_config(args)
    method, opts = parse_config_spec(spec)
    if method == "none" or set(opts) != {"r_max"}:  # none has no merge step
        raise ValueError(f"config {spec!r}: calibrate fits the adaptive schedule "
                         "of tome or adamerge, so it takes method:r_max=N, no r")
    weights, images, _ = _load_inputs(args)
    try:
        stats = calibration.refine(weights, images, opts["r_max"],
                                   alpha=args.alpha, passes=args.passes,
                                   salience=method_salience(method))
    except calibration.TooFewTokensError as e:
        raise ValueError(f"{args.dataset}: {e}") from None
    calibration.save_stats(stats, args.out)
    print(f"calibrated {stats.num_layers} layers on {stats.calibration_size} "
          f"images ({stats.passes} passes) -> {args.out}")
    print(f"{'layer':>5} {'mu':>12} {'sigma':>12}")
    for l in range(stats.num_layers):
        print(f"{l:>5} {stats.mu[l]:>12.6f} {stats.sigma[l]:>12.6f}")
    return EXIT_OK


def _measure(weights, images, cfg, labels):
    """Forward every image; returns (results, summary row). FLOPs,
    merge overhead and merges are means over images, since adaptive r
    varies per image."""
    t0 = time.perf_counter()
    results = run_images(weights, images, cfg)
    wall = time.perf_counter() - t0
    traces = [tr for _, tr in results]
    reps = [flops.trace_flops(tr, weights.dims) for tr in traces]
    return results, {
        "flops_g": float(np.mean([r.total for r in reps])) / 1e9,
        "flops_reduction_pct": float(np.mean([r.reduction_pct for r in reps])),
        "overhead_g": float(np.mean([r.overhead for r in reps])) / 1e9,
        "overhead_pct": float(np.mean([100.0 * r.overhead / r.baseline
                                       for r in reps])),
        "mean_merges": float(np.mean([tr.total_merges for tr in traces])),
        "accuracy": _accuracy(results, labels), "wall_time_s": wall}


def cmd_run(args) -> int:
    _one_config(args)
    weights, images, labels = _load_inputs(args)
    [(_, method, cfg)] = _resolve_configs(args, weights)

    results, row = _measure(weights, images, cfg, labels)
    if args.out_csv:
        report.write_run_csv(args.out_csv,
                             [(i, tr) for i, (_, tr) in enumerate(results)])
    acc = row["accuracy"]
    print(f"method={method} images={len(images)}")
    print(f"mean total merges: {row['mean_merges']:.2f}")
    print(f"FLOPs (mean over images): {row['flops_g']:.4g} G "
          f"(reduction {row['flops_reduction_pct']:.1f}% vs merge-free)")
    print(f"merge overhead (mean over images): {row['overhead_g']:.4g} G "
          f"({row['overhead_pct']:.1f}% of merge-free)")
    print(f"accuracy: {'n/a' if acc is None else f'{acc:.4f}'}")
    recs = [rec for _, tr in results for rec in tr.layers]
    print(f"merger flags over {len(recs)} layer decisions: " + " ".join(
        f"{k}={sum(getattr(rec, k) for rec in recs)}"
        for k in report.MERGER_FLAGS))
    print(f"wall time: {row['wall_time_s']:.3f} s")
    return EXIT_OK


def parse_config_spec(spec: str):
    """Parse 'method:key=val,key=val' comparison configs."""
    method, _, rest = spec.partition(":")
    method_salience(method)
    opts = {}
    if rest:
        for kv in rest.split(","):
            key, _, val = kv.partition("=")
            if key not in ("r", "r_max"):
                raise ValueError(f"config {spec!r}: unknown option {key!r}")
            if key in opts:
                raise ValueError(f"config {spec!r}: {key} given twice")
            try:
                opts[key] = int(val)
            except ValueError:
                raise ValueError(f"config {spec!r}: {key} must be an integer, "
                                 f"got {val!r}") from None
    return method, opts


def _one_config(args):
    """The one --config spec of calibrate, run or viz."""
    if len(args.config) > 1:
        raise ValueError(f"{args.command} takes one --config, got "
                         + " and ".join(map(repr, args.config)))
    return args.config[0]


def _resolve_configs(args, weights):
    """(spec, method, RunConfig) of every --config of a command, all
    resolved before the first one runs. Each adaptive run reads the one
    --stats file calibrated with its method's salience; a file that no
    run reads is an error, since its schedule would silently not apply."""
    runs = [(spec, *parse_config_spec(spec)) for spec in args.config]
    given = {}  # salience -> (path, stats)
    for path in args.stats or ():
        stats = calibration.load_stats(path)
        if stats.model_id != weights.model_id:
            raise ValueError(
                f"{path}: stats were calibrated on model {stats.model_id!r}, "
                f"but the weights are model {weights.model_id!r}")
        if stats.salience in given:
            raise ValueError(f"{given[stats.salience][0]} and {path} were both "
                             f"calibrated with salience={stats.salience}; give "
                             "one --stats per salience setting")
        given[stats.salience] = (path, stats)

    resolved, read = [], set()
    for spec, method, opts in runs:
        adaptive = method != "none" and opts.get("r") is None
        salience = method_salience(method)
        if adaptive and salience not in given:
            why = (f"method {method} needs r for a fixed schedule or --stats "
                   "for an adaptive one")
            r_max = opts.get("r_max", "N")
            for path, stats in given.values():  # one file, the other's
                why = (f"{path}: stats were calibrated with salience="
                       f"{stats.salience}, but the run has salience={salience} "
                       f"(method {method})")
                r_max = opts.get("r_max", stats.r_max)
            raise ValueError(
                f"{why}; run `adamerge calibrate --weights "
                f"{shlex.quote(args.weights)} --dataset "
                f"{shlex.quote(args.dataset)} --config {method}:r_max={r_max} "
                f"--out {method}.json` for stats of this method")
        path, stats = given.get(salience, (None, None)) if adaptive else (None, None)
        resolved.append((spec, method, build_run_config(method, stats=stats, **opts)))
        read.add(path)
    for path, stats in given.values():
        if path not in read:
            why = (f"no adaptive run has their salience={stats.salience}"
                   if read - {None} else "a fixed r and method none read none")
            raise ValueError(f"{path}: no run reads these stats, since {why}; "
                             "leave this --stats out")
    return resolved


def cmd_compare(args) -> int:
    weights, images, labels = _load_inputs(args)
    rows = []
    series = {}
    for spec, method, cfg in _resolve_configs(args, weights):
        _, row = _measure(weights, images, cfg, labels)
        rows.append({"config": spec, "method": method, **row})
        series.setdefault(method, []).append((row["flops_g"], row["mean_merges"]))

    hdr = (f"{'config':<28} {'FLOPs(G)':>10} {'FLOPs v':>8} "
           f"{'ovhd(G)':>10} {'merges':>8} {'acc':>8} {'wall(s)':>8}")
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        acc = "n/a" if r["accuracy"] is None else f"{r['accuracy']:.4f}"
        print(f"{r['config']:<28} {r['flops_g']:>10.4g} "
              f"{r['flops_reduction_pct']:>7.1f}% {r['overhead_g']:>10.4g} "
              f"{r['mean_merges']:>8.1f} {acc:>8} {r['wall_time_s']:>8.3f}")
    if args.out_csv:
        report.write_compare_csv(args.out_csv, rows)
    if args.out_svg:
        report.line_chart_svg(args.out_svg, series, xlabel="FLOPs (G)",
                              ylabel="mean merges",
                              title="FLOPs vs merge budget")
    return EXIT_OK


def cmd_viz(args) -> int:
    _one_config(args)
    weights, images, _ = _load_inputs(args)
    if not 0 <= args.image_index < len(images):
        raise ValueError(
            f"image index {args.image_index} out of range (dataset has "
            f"{len(images)} images)")
    [(_, _, cfg)] = _resolve_configs(args, weights)
    cfg = dataclasses.replace(cfg, track_maps=True)
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

def make_parser() -> _Parser:
    parser = _Parser(prog="adamerge",
                     description="Token-merging bench tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_inputs(name, stats=True, **kw):  # reads weights and a dataset
        p = sub.add_parser(name, **kw)
        p.add_argument("--weights", required=True)
        p.add_argument("--dataset", required=True)
        p.add_argument("--config", action="append", required=True,
                       help="e.g. tome:r=8 or adamerge:r_max=16")
        if stats:
            p.add_argument("--stats", action="append",
                           help="stats.json of the adaptive configs; repeat "
                           "it to give each salience setting its own")
        return p

    p = sub.add_parser("synth", help="generate a synthetic token dataset")
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--redundancy", type=float, default=0.5)
    p.add_argument("--prototypes", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("synth-weights", help="generate synthetic ViT weights")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--heads", type=int, required=True)
    p.add_argument("--d-ff", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--classes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_weights)

    p = with_inputs("calibrate", stats=False,
                    help="fit per-layer (mu, sigma) stats for method:r_max=N")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--passes", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = with_inputs("run", help="run one config over a dataset")
    p.add_argument("--labels", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_run)

    p = with_inputs("compare", help="compare configurations")
    p.add_argument("--labels", default=None)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_compare)

    p = with_inputs("viz", help="emit a per-layer merge map")
    p.add_argument("--image-index", type=int, default=0)
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
    except NonFiniteError as e:  # only a command with --weights forwards
        print(f"error: archive at {args.weights}: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
