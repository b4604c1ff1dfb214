#!/usr/bin/env python3
"""Print a SHA-256 digest of every forward pass over a fixed grid of runs.

One line per (model, config, image): the digest of the logits' bytes and
the digest of the trace, which covers `RunTrace.merging` and every
`LayerRecord` field of every layer. Two checkouts that print the same
lines compute the same runs bit for bit:

    PYTHONPATH=<checkout A>/src python tools/digest.py > a.txt
    PYTHONPATH=<checkout B>/src python tools/digest.py > b.txt
    diff a.txt b.txt

`tools/digest.txt` holds the output at the default grid followed by the
`--cli` output, and a tier-1 test compares against it. A change that
moves a number regenerates it, and says why:

    PYTHONPATH=src python tools/digest.py > tools/digest.txt
    PYTHONPATH=src python tools/digest.py --cli >> tools/digest.txt

The grid: a d=16 model with zero biases and a d=64 model with non-zero
biases and LN betas; `none`, and `tome` and `adamerge` at fixed r = 0, 3
and an r above |A| and on the adaptive schedule of stats calibrated on
the same images with their own salience setting; each merging run with
track_maps off and on. `--skip FIELD` leaves a record field out of the
trace digest, for a change meant to alter only that field.

`--cli` prints instead one digest per output file of the `adamerge`
commands on a d=16 workspace built in a temporary directory: the
manifest.json and tensors.bin of `synth-weights` and `synth`, for the
workspace and for a d=8 model and a 3x8x4 dataset; the `calibrate`
stats.json of `tome` and `adamerge`, on the workspace and on a 6x20x16
calibration set; the stats.json that `save_stats` writes of hand-built
stats (the format alone); the `run` CSVs and stdout, the CSVs of
adaptive runs on stats calibrated with `--alpha 2` (a run takes alpha
only from its stats) and of `tome` on `tome` stats; the `compare` CSV
and SVG (its adaptive `tome` and `adamerge` configs each run on the
stats of their own salience, from two `--stats`); and the `viz` SVG and
CSV at images 1 and 0. Wall times are left out: the `run` stdout line
and the `compare` CSV column. No test pastes a digest of its own, so
`tools/digest.txt` is the one file that pins output bytes.
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import tempfile

import numpy as np

from adamerge import calibration, data
from adamerge.cli import METHOD_ALIASES, build_run_config, main as cli_main
from adamerge.runtime import ModelDims, run_images, synth_weights
from adamerge.schedule import LayerStats

# name -> (dims, tokens per image, seed, non-zero biases and LN betas)
MODELS = {
    "d16": (ModelDims(d=16, heads=2, d_ff=32, layers=4, n_classes=5), 24, 3, False),
    "d64": (ModelDims(d=64, heads=8, d_ff=256, layers=6, n_classes=10), 63, 9, True),
}
FIXED_R = (0, 3, 200)
R_MAX = 6


def make_model(name, n_images):
    dims, tokens, seed, biased = MODELS[name]
    weights = synth_weights(seed, dims)
    if biased:
        rng = np.random.default_rng(seed)
        for blk in weights.blocks:
            for fld in ("b_qkv", "b_proj", "b_fc1", "b_fc2", "ln1_beta", "ln2_beta"):
                v = getattr(blk, fld)
                v[:] = rng.normal(0.0, 0.05, size=v.shape).astype(v.dtype)
    images = data.synth_images(n_images, tokens, dims.d, 0.5, seed=seed)
    return weights, images


def configs(stats):
    """(label, RunConfig) for every method, schedule and track_maps;
    `stats` maps a salience setting to stats calibrated with it."""
    for method, salience in METHOD_ALIASES.items():
        if method == "none":
            yield method, build_run_config(method)
            continue
        for maps in (False, True):
            for r in FIXED_R:
                yield (f"{method}:r={r}:maps={int(maps)}", dataclasses.replace(
                    build_run_config(method, r=r), track_maps=maps))
            yield (f"{method}:r_max={R_MAX}:maps={int(maps)}", dataclasses.replace(
                build_run_config(method, r_max=R_MAX, stats=stats[salience]),
                track_maps=maps))


def trace_digest(trace, skip):
    h = hashlib.sha256(f"merging={trace.merging!r}".encode())
    for rec in trace.layers:
        for f in dataclasses.fields(rec):
            if f.name not in skip:
                h.update(f";{f.name}={getattr(rec, f.name)!r}".encode())
    return h.hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests():
    """(label, digest) of every CLI output on a d=16 workspace, and of
    save_stats of hand-built stats."""
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        def cli(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(list(argv))
            if code != 0:
                raise SystemExit(f"adamerge {' '.join(argv)} exited {code}")
            return out.getvalue()

        def read(name):
            with open(path(name), "rb") as f:
                return f.read()

        cli("synth-weights", "--dim", "16", "--heads", "2", "--d-ff", "32",
            "--layers", "4", "--classes", "5", "--seed", "3",
            "--out", path("weights"))
        cli("synth", "--images", "8", "--tokens", "24", "--dim", "16",
            "--redundancy", "0.5", "--seed", "4", "--out", path("data"))
        with open(path("labels.json"), "w", encoding="utf-8") as f:
            f.write(str([i % 5 for i in range(8)]))
        # a smaller model and dataset, and a second calibration set
        cli("synth-weights", "--dim", "8", "--heads", "2", "--d-ff", "16",
            "--layers", "2", "--classes", "3", "--seed", "9",
            "--out", path("weights-d8"))
        cli("synth", "--images", "3", "--tokens", "8", "--dim", "4",
            "--redundancy", "0.7", "--seed", "5", "--out", path("data-3x8x4"))
        cli("synth", "--images", "6", "--tokens", "20", "--dim", "16",
            "--redundancy", "0.5", "--seed", "21", "--out", path("data-6x20x16"))
        for label, name in (("synth-weights", "weights"), ("synth", "data"),
                            ("synth-weights:d8", "weights-d8"),
                            ("synth:3x8x4", "data-3x8x4")):
            for fname in ("manifest.json", "tensors.bin"):
                yield f"{label} {fname}", sha256(read(os.path.join(name, fname)))
        inputs = ("--weights", path("weights"), "--dataset", path("data"))

        for method in ("tome", "adamerge"):
            cli("calibrate", *inputs, "--config", f"{method}:r_max=6",
                "--out", path(f"{method}.json"))
            yield f"calibrate:{method} stats.json", sha256(read(f"{method}.json"))
        for method in ("tome", "adamerge"):
            cli("calibrate", "--weights", path("weights"),
                "--dataset", path("data-6x20x16"), "--config", f"{method}:r_max=6",
                "--out", path("stats-6x20x16.json"))
            yield (f"calibrate:{method} on 6x20x16 stats.json",
                   sha256(read("stats-6x20x16.json")))
        # the stats format alone, apart from any numerics
        calibration.save_stats(LayerStats(
            model_id="m", mu=np.linspace(0.2, 0.5, 12), sigma=np.full(12, 0.05),
            r_max=9, alpha=1.0, passes=2, calibration_size=64),
            path("saved.json"))
        yield "save_stats stats.json", sha256(read("saved.json"))
        stats = ("--stats", path("adamerge.json"))

        for label, argv in (("tome:r=3", ("--config", "tome:r=3",
                                          "--labels", path("labels.json"))),
                            ("adamerge:r_max=6", ("--config",
                                                  "adamerge:r_max=6", *stats))):
            out = cli("run", *inputs, *argv, "--out-csv", path("run.csv"))
            kept = "".join(line for line in out.splitlines(keepends=True)
                           if not line.startswith("wall time:"))
            yield f"run:{label} csv", sha256(read("run.csv"))
            yield f"run:{label} stdout", sha256(kept.encode())
        # an adaptive run on the stats' own alpha
        cli("calibrate", *inputs, "--config", "adamerge:r_max=6",
            "--alpha", "2", "--out", path("alpha2.json"))
        cli("run", *inputs, "--config", "adamerge:r_max=6",
            "--stats", path("alpha2.json"), "--out-csv", path("run.csv"))
        yield "run:adamerge:r_max=6 alpha2-stats csv", sha256(read("run.csv"))
        cli("run", *inputs, "--config", "tome", "--stats", path("tome.json"),
            "--out-csv", path("run.csv"))
        yield "run:tome tome-stats csv", sha256(read("run.csv"))

        configs = ("none", "tome:r=3", "adamerge:r=3", "adamerge:r_max=6",
                   "adamerge:r_max=4", "tome:r_max=6")
        cli("compare", *inputs, *stats, "--stats", path("tome.json"),
            "--labels", path("labels.json"),
            *(a for c in configs for a in ("--config", c)),
            "--out-csv", path("compare.csv"), "--out-svg", path("compare.svg"))
        with open(path("compare.csv"), newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        k = rows[0].index("wall_time_s")
        yield "compare csv", sha256(repr([r[:k] + r[k + 1:] for r in rows]).encode())
        yield "compare svg", sha256(read("compare.svg"))

        # image 1, then image 0 at the default index
        for index, tag in ((("--image-index", "1"), ""), ((), " image=0")):
            for label, argv in (("tome:r=2", ("--config", "tome:r=2")),
                                ("adamerge:r_max=6", ("--config",
                                                      "adamerge:r_max=6", *stats))):
                cli("viz", *inputs, *argv, *index,
                    "--out-svg", path("viz.svg"), "--out-csv", path("viz.csv"))
                yield f"viz:{label}{tag} svg", sha256(read("viz.svg"))
                yield f"viz:{label}{tag} csv", sha256(read("viz.csv"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--models", nargs="+", choices=list(MODELS),
                   default=list(MODELS))
    p.add_argument("--images", type=int, default=4)
    p.add_argument("--skip", action="append", default=[],
                   help="LayerRecord field to leave out of the trace digest")
    p.add_argument("--cli", action="store_true",
                   help="digest the CLI's output files instead of the runs")
    args = p.parse_args(argv)
    if args.cli:
        for label, digest in cli_digests():
            print(f"cli {label} sha256={digest}")
        return
    for name in args.models:
        weights, images = make_model(name, args.images)
        stats = {salience: calibration.refine(weights, images, r_max=R_MAX,
                                              passes=2, salience=salience)
                 for salience in (True, False)}
        for label, cfg in configs(stats):
            for i, (logits, trace) in enumerate(run_images(weights, images, cfg)):
                print(f"{name} {label} image={i} "
                      f"logits={sha256(logits.tobytes())} "
                      f"trace={trace_digest(trace, set(args.skip))}")


if __name__ == "__main__":
    main()
