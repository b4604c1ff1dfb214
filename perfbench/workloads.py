# Workload definitions and seed-determined input generation.
#
# Every workload runs the same three phases: set-up (load weights, image
# pool and stats), calibration (calibration.refine over the pool plus the
# stats file round trip) and a closed-loop inference phase in which one
# caller forwards one image at a time, cycling through the pool and
# interleaving the three configs per image. The workloads differ in model
# scale, pool and how the measuring time is split, so that each stresses
# a different layer:
#
#   smoke-mixed  CLI smoke model (d=64). Small GEMMs, so the merge pipeline
#                and per-call numpy overhead carry the time; mixed
#                redundancy gives ragged adaptive merge counts.
#   vitb         ViT-B/16 dims (d=768). Block GEMMs dominate; a merge-side
#                change should not move it. The 328 MB weight archive
#                makes set-up time and memory visible.
#   calibrate    smoke model, most of the time spent in calibration.refine
#                (fixed r then adaptive pass) and the stats round trip.

import os
import sys
from dataclasses import dataclass

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402

N_TOKENS = 196
N_CLASSES = 1000
R_FIXED = 8
R_MAX = 16
CALIBRATION_PASSES = 2

# config name -> package method / CLI spec and the reference's view of it
CONFIGS = {
    "none": ("none", reference.RefConfig(merge=False)),
    "tome": (f"tome:r={R_FIXED}", reference.RefConfig(fixed_r=R_FIXED)),
    "adamerge": (f"adamerge:r_max={R_MAX}",
                 reference.RefConfig(weighted=True, r_max=R_MAX)),
}
CONFIG_NAMES = tuple(CONFIGS)


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    heads: int
    d_ff: int
    layers: int
    redundancies: tuple   # pool image i has redundancies[i % len]
    pool: int             # images served and calibrated on
    calib_share: float    # share of --seconds given to repeated calibration
    setup_min_s: float    # set-up repeats until this long (and >= 3 times)


SMOKE = dict(d=64, heads=8, d_ff=256, layers=12)
VITB = dict(d=768, heads=12, d_ff=3072, layers=12)

WORKLOADS = {
    "smoke-mixed": Workload("smoke-mixed", **SMOKE, redundancies=(0.2, 0.5, 0.8),
                            pool=12, calib_share=0.2, setup_min_s=1.0),
    "vitb": Workload("vitb", **VITB, redundancies=(0.5,), pool=3,
                     calib_share=0.2, setup_min_s=3.0),
    "calibrate": Workload("calibrate", **SMOKE, redundancies=(0.2, 0.5, 0.8),
                          pool=12, calib_share=0.7, setup_min_s=1.0),
}


def ref_model(weights) -> reference.RefModel:
    """View the package's weights object as the reference's plain arrays."""
    return reference.RefModel(
        blocks=[dict(vars(b)) for b in weights.blocks],
        final_gamma=weights.final_gamma, final_beta=weights.final_beta,
        w_head=weights.w_head, b_head=weights.b_head, heads=weights.dims.heads)


def generate(wl: Workload, seed: int, out: str) -> None:
    """Write weights/, pool/, stats.json and reference.npz under `out`.

    The weights, images and stats come only from `seed`; the stats and
    the reference outputs come from the benchmark's own reference
    implementation, so a change to the package cannot move its own oracle.
    """
    from adamerge import calibration, data, runtime
    from adamerge.schedule import LayerStats

    rng = np.random.default_rng(seed)
    model_seed, image_seed = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
    dims = runtime.ModelDims(d=wl.d, heads=wl.heads, d_ff=wl.d_ff,
                             layers=wl.layers, n_classes=N_CLASSES)
    weights = runtime.synth_weights(model_seed, dims)
    runtime.save_weights(weights, os.path.join(out, "weights"))

    levels = len(wl.redundancies)
    per_level = [data.synth_images(-(-wl.pool // levels), N_TOKENS, wl.d, rho,
                                   image_seed + k)
                 for k, rho in enumerate(wl.redundancies)]
    images = np.stack([per_level[i % levels][i // levels] for i in range(wl.pool)])
    data.save_dataset(os.path.join(out, "pool"), images,
                      meta={"redundancies": list(wl.redundancies), "seed": seed})

    model = ref_model(weights)
    del weights
    mu, sigma = reference.calibrate(model, images, R_MAX, passes=CALIBRATION_PASSES)
    calibration.save_stats(
        LayerStats(model_id=f"synth-{model_seed}", mu=mu, sigma=sigma, r_max=R_MAX,
                   alpha=1.0, temperature=1.0, passes=CALIBRATION_PASSES,
                   calibration_size=wl.pool),
        os.path.join(out, "stats.json"))

    logits = np.empty((wl.pool, len(CONFIGS), N_CLASSES), dtype=np.float32)
    r = np.empty((wl.pool, len(CONFIGS), wl.layers), dtype=np.int64)
    for i, img in enumerate(images):
        for c, (_, ref_cfg) in enumerate(CONFIGS.values()):
            logits[i, c], r[i, c], _ = reference.forward(model, img, ref_cfg, mu, sigma)
    np.savez(os.path.join(out, "reference.npz"), logits=logits, r=r, mu=mu, sigma=sigma)


if __name__ == "__main__":
    # python3 perfbench/workloads.py <workload> <seed> <out-dir>
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    generate(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
