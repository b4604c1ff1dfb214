# The benchmark's tracer reports a site whose name moved as absent and
# carries on, so a refactor could silently blind its per-layer metrics.
# These tests fail instead when a `perfbench/run.py` site stops resolving
# or its count hook no longer fits what the function returns.

import importlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from adamerge import calibration, data  # noqa: E402
from adamerge.cli import build_run_config  # noqa: E402
from adamerge.runtime import ModelDims, run_images, synth_weights  # noqa: E402

# calibration forwards through adamerge.runtime and no longer imports
# forward_model itself; the site is stale until the benchmark drops it
STALE = {"adamerge.calibration.forward_model"}


def test_every_site_resolves_to_the_function_it_names():
    for site in run.SITES:
        where = f"{site.module}.{site.attr}"
        if where in STALE:
            continue
        fn = getattr(importlib.import_module(site.module), site.attr, None)
        assert fn is not None, f"{where} is gone"
        module, _, attr = site.name.rpartition(".")
        assert fn is getattr(importlib.import_module(f"adamerge.{module}"), attr), \
            f"{where} is not adamerge.{site.name}"


def test_count_hooks_fit_a_traced_run():
    dims = ModelDims(d=16, heads=2, d_ff=32, layers=3, n_classes=4)
    weights = synth_weights(1, dims)
    images = data.synth_images(2, 20, 16, 0.5, seed=2)
    stats = calibration.refine(weights, images, r_max=4, passes=1)
    cfgs = [build_run_config("tome", r=2),
            build_run_config("adamerge", r_max=4, stats=stats)]
    tracer = Tracer(run.SITES)
    with tracer:
        for cfg in cfgs:
            run_images(weights, images, cfg)
    assert set(tracer.absent) <= STALE
    counts = {key: v for (_, key), v in tracer.counts.items()}
    assert counts["matcher.merges"] > 0
    assert counts["schedule.decisions"] == 2 * dims.layers
    assert counts["numeric.matmul.calls"] > 0
    assert "matcher.mean_fallbacks" in counts and "matcher.r_clamped" in counts
    assert np.isfinite(counts["schedule.saturated"])
