#!/usr/bin/env python3
"""Print a SHA-256 digest of every forward pass over a fixed grid of runs.

One line per (model, config, image): the digest of the logits' bytes and
the digest of the trace, which covers `RunTrace.merging` and every
`LayerRecord` field of every layer. Two checkouts that print the same
lines compute the same runs bit for bit:

    PYTHONPATH=<checkout A>/src python tools/digest.py > a.txt
    PYTHONPATH=<checkout B>/src python tools/digest.py > b.txt
    diff a.txt b.txt

The grid: a d=16 model with zero biases and a d=64 model with non-zero
biases and LN betas; the five method aliases at fixed r = 0, 3 and an r
above |A|, and the two adaptive ones also against stats calibrated on
the same images; each with track_maps off and on. `--skip FIELD` leaves
a record field out of the trace digest, for a change meant to alter
only that field.
"""

import argparse
import dataclasses
import hashlib

import numpy as np

from adamerge import calibration, data
from adamerge.cli import METHOD_ALIASES, build_run_config
from adamerge.runtime import ModelDims, run_images, synth_weights

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
    """(label, RunConfig) for every alias, schedule and track_maps."""
    for method, (_, kind) in METHOD_ALIASES.items():
        if kind is None:
            yield method, build_run_config(method)
            continue
        for maps in (False, True):
            for r in FIXED_R:
                yield (f"{method}:r={r}:maps={int(maps)}",
                       build_run_config(method, r=r, track_maps=maps))
            if kind == "adaptive":
                yield (f"{method}:r_max={R_MAX}:maps={int(maps)}",
                       build_run_config(method, r_max=R_MAX, stats=stats,
                                        track_maps=maps))


def trace_digest(trace, skip):
    h = hashlib.sha256(f"merging={trace.merging!r}".encode())
    for rec in trace.layers:
        for f in dataclasses.fields(rec):
            if f.name not in skip:
                h.update(f";{f.name}={getattr(rec, f.name)!r}".encode())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--models", nargs="+", choices=list(MODELS),
                   default=list(MODELS))
    p.add_argument("--images", type=int, default=4)
    p.add_argument("--skip", action="append", default=[],
                   help="LayerRecord field to leave out of the trace digest")
    args = p.parse_args(argv)
    for name in args.models:
        weights, images = make_model(name, args.images)
        stats = calibration.refine(weights, images, r_max=R_MAX, passes=2)
        for label, cfg in configs(stats):
            for i, (logits, trace) in enumerate(run_images(weights, images, cfg)):
                print(f"{name} {label} image={i} "
                      f"logits={hashlib.sha256(logits.tobytes()).hexdigest()} "
                      f"trace={trace_digest(trace, set(args.skip))}")


if __name__ == "__main__":
    main()
