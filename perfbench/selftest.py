# Self-tests for the benchmark harness (not part of the package's test
# suite). Run from the checkout root:
#
#     python3 -m pytest -q perfbench/selftest.py

import json
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Site, Tracer  # noqa: E402

TINY = workloads.Workload("tiny", **workloads.SMOKE, redundancies=(0.2, 0.8),
                          pool=2, calib_share=0.5, setup_min_s=0.0)
COUNTS = ("matcher.merges", "numeric.matmul.macs", "numeric.matmul.calls",
          "numeric.matmul.bytes", "schedule.r_mean", "schedule.saturation_rate",
          "runtime.tokens_per_block", "salience.salience_of.calls.tome",
          "flops.reduction_pct.adamerge", "flops.executed_reduction_pct.adamerge")


@pytest.fixture(scope="module")
def inputs():
    os.makedirs(run.OUTPUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.OUTPUT_DIR)
    workloads.generate(TINY, 3, path)
    yield path
    shutil.rmtree(path)


def _bench(path, trace):
    bench = run.Bench(TINY, path, 0.1, trace)
    metrics, extra = bench.run()
    return bench, metrics, extra


def test_untraced_run_is_correct_and_reports_every_metric(inputs):
    bench, metrics, _ = _bench(inputs, trace=0)
    assert bench.errors == []
    assert bench.attempted == TINY.pool * len(workloads.CONFIGS) + 1
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())


def test_counts_repeat_exactly_across_traced_runs(inputs):
    runs = [_bench(inputs, trace=1) for _ in range(2)]
    for bench, metrics, _ in runs:
        assert bench.errors == []
        assert set(metrics) == set(run.PER_LAYER)
    for key in COUNTS:
        assert runs[0][1][key] == runs[1][1][key], key


def test_self_times_sum_to_at_most_traced_wall_time(inputs):
    bench, _, extra = _bench(inputs, trace=1)
    assert 0 < extra["self_time_sum_s"] <= extra["traced_wall_s"]
    # every span's self time is within its own duration
    assert all(0 <= s.self_s <= s.duration for s in bench.tracer.spans)


def test_counted_block_macs_match_executed_cost_model(inputs):
    _, _, extra = _bench(inputs, trace=1)
    assert extra["executed_block_macs_counted"] == extra["executed_block_macs_analytic"]


@pytest.mark.parametrize("field", ["logits", "r", "mu"])
def test_corrupted_reference_raises_error_rate(inputs, field):
    corrupt = tempfile.mkdtemp(prefix="selftest-corrupt-", dir=run.OUTPUT_DIR)
    try:
        shutil.copytree(inputs, corrupt, dirs_exist_ok=True)
        ref = dict(np.load(os.path.join(corrupt, "reference.npz")))
        if field == "logits":
            ref["logits"][0, 1, 7] += 1e-2
        elif field == "r":
            ref["r"][1, 2, 3] += 1
        else:
            ref["mu"][0] *= 1.001
        np.savez(os.path.join(corrupt, "reference.npz"), **ref)
        # one cycle forwards each (image, config) once and calibrates once,
        # so exactly one checked operation now fails
        bench, _, _ = _bench(corrupt, trace=0)
        assert len(bench.errors) == 1, bench.errors
    finally:
        shutil.rmtree(corrupt)


def test_moved_name_is_reported_absent_not_raised():
    tracer = Tracer([Site("adamerge.runtime", "no_such_function", "x"),
                     Site("adamerge.no_such_module", "f", "y")])
    with tracer:
        pass
    assert tracer.absent == ["adamerge.runtime.no_such_function",
                             "adamerge.no_such_module.f"]


def test_traced_run_survives_moved_names(inputs, monkeypatch):
    moved = {"forward_block", "matmul"}
    sites = [site._replace(attr=site.attr + "_moved") if site.attr in moved else site
             for site in run.SITES]
    monkeypatch.setattr(run, "SITES", sites)
    bench, metrics, extra = _bench(inputs, trace=1)
    assert bench.errors == []
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["numeric.matmul.macs"] == 0 and metrics["runtime.forward_block_s"] == 0
    assert "adamerge.runtime.forward_block_moved" in extra["absent_sites"]


def test_tracer_restores_wrapped_functions():
    from adamerge import runtime
    original = runtime.matmul
    with Tracer(run.SITES):
        assert runtime.matmul is not original
    assert runtime.matmul is original


def test_tail_keeps_ten_samples_beyond_and_never_drops_below_median():
    assert run.tail_latency(list(range(100))) == (89, 90.0, 10)
    value, pct, _ = run.tail_latency(list(range(12)))
    assert value == 6 and pct == pytest.approx(100 * 7 / 12)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
