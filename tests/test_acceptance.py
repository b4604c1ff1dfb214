# Acceptance suite. Each test covers one exit criterion and prints a
# single PASS line on success (run with -s to see them inline).

import csv
import dataclasses
import json
import time

import numpy as np
import pytest

import naive_reference as ref
from adamerge import calibration, data
from adamerge.cli import main, method_salience
from adamerge.flops import trace_flops
from adamerge.matcher import reconstruction_gap, select_merges
from adamerge.runtime import (ModelDims, RunConfig, TokenSequence,
                              forward_model, run_images, synth_weights)
from adamerge.schedule import LayerStats, r_from_z, zscore

from test_matcher import brute_force_select


def ok(n, msg):
    print(f"[criterion {n}] PASS: {msg}")


def fixed_cfg(method, r):
    return RunConfig(salience=method_salience(method),
                     schedule=None if method == "none" else r)


def test_criterion_1_table1_flops_reduction():
    """Fixed-r ToMe runs reproduce Table-1 FLOPs reductions +-1pp.

    A fixed-r run's token counts do not depend on the width, so a narrow
    12-layer model runs the schedules and trace_flops charges each trace
    at ViT-B/16 dims."""
    t0 = time.perf_counter()
    table = {3: 8.7, 4: 11.6, 5: 14.4, 6: 17.3, 7: 20.1, 8: 23.0}
    weights = synth_weights(0, ModelDims(d=16, heads=2, d_ff=32, layers=12,
                                         n_classes=4))
    image = data.synth_images(1, 196, 16, 0.5, seed=0)
    vitb = ModelDims(d=768, heads=12, d_ff=3072, layers=12, n_classes=1000)

    def charged(cfg):
        [(_, trace)] = run_images(weights, image, cfg)
        return trace_flops(trace, vitb)

    base = charged(fixed_cfg("none", 0)).total
    for r, want in table.items():
        rep = charged(fixed_cfg("tome", r))
        assert rep.baseline == base
        red = rep.reduction_pct
        assert abs(red - want) <= 1.0, f"r={r}: {red:.2f}% vs {want}%"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(1, f"r=3..8 reductions within 1pp of Table 1 ({elapsed:.3f}s)")


def test_criterion_2_proposition1_oracle():
    """Gap identity on 1e5 random draws, zero cases, leading-term case."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 100_000
    xi = rng.normal(size=(n, 4))
    xj = rng.normal(size=(n, 4))
    si = rng.uniform(1e-3, 2.0, n)
    sj = rng.uniform(1e-3, 2.0, n)
    d2 = ((xi - xj) ** 2).sum(axis=1)

    gaps = np.array([reconstruction_gap(xi[k], xj[k], si[k], sj[k])[0]
                     for k in range(n)])
    assert np.all(gaps >= 0)
    # numeric objective oracle, vectorized in extended precision; the
    # 1e-12 absolute floor covers draws with si ~= sj where the
    # subtraction l_uniform - l_weighted is pure cancellation (the exact
    # si = sj case is asserted separately below)
    xiL, xjL = xi.astype(np.longdouble), xj.astype(np.longdouble)
    siL, sjL = si.astype(np.longdouble), sj.astype(np.longdouble)
    xu = (xiL + xjL) / 2
    xw = (siL[:, None] * xiL + sjL[:, None] * xjL) / (siL + sjL)[:, None]
    lu = siL * ((xiL - xu) ** 2).sum(1) + sjL * ((xjL - xu) ** 2).sum(1)
    lw = siL * ((xiL - xw) ** 2).sum(1) + sjL * ((xjL - xw) ** 2).sum(1)
    numeric = (lu - lw).astype(np.float64)
    assert np.all(np.abs(gaps - numeric) <= 1e-9 * np.abs(numeric) + 1e-12)

    # zero iff si == sj or xi == xj
    nondegenerate = (np.abs(si - sj) > 1e-12) & (d2 > 1e-12)
    assert np.all(gaps[nondegenerate] > 0)
    g_eq, _ = reconstruction_gap(xi[0], xj[0], 0.37, 0.37)
    assert abs(g_eq) < 1e-12
    g_same, _ = reconstruction_gap(xi[0], xi[0], 0.9, 0.1)
    assert abs(g_same) < 1e-12

    # under si + sj = 2 the displayed leading term is exact
    si2 = rng.uniform(0.05, 1.95, 1000)
    for k in range(1000):
        g, lead = reconstruction_gap(xi[k], xj[k], si2[k], 2.0 - si2[k])
        assert g == pytest.approx(lead, rel=1e-9, abs=1e-300)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(2, f"1e5 draws: gap >= 0, matches numeric objective ({elapsed:.1f}s)")


def test_criterion_3_tome_degeneracy():
    """Uniform salience + sizes 1 + tome aggregation matches an
    independently coded ToMe reference on 20 random small models."""
    dims = ModelDims(d=16, heads=2, d_ff=32, layers=4, n_classes=8)
    rng = np.random.default_rng(3)
    for trial in range(20):
        w = synth_weights(1000 + trial, dims)
        patches = rng.normal(size=(32, 16)).astype(np.float32)
        cls = rng.normal(size=16).astype(np.float32)
        r = int(rng.integers(1, 9))
        logits, trace = forward_model(TokenSequence(cls=cls, patches=patches),
                                      w, fixed_cfg("tome", r))
        want_logits, want_patches = ref.ref_tome_forward(cls, patches, w, r)
        assert np.allclose(logits, want_logits, atol=1e-5), f"trial {trial}"
        # expected merge total with r clamped at |A| as the sequence shrinks
        n, expect = 32, 0
        for _ in range(4):
            step = min(r, (n + 1) // 2)
            expect += step
            n -= step
        assert trace.total_merges == expect
    ok(3, "20/20 models match the independent ToMe reference at 1e-5")


def _ledger_check(trace, n0, cfg, salience_calls):
    assert trace.config is cfg
    # a merge step computes salience exactly when the run reads it, and
    # its raw column sums total the step's token count
    salience_calls.check(trace)
    n = n0
    for rec in trace.layers:
        assert rec.n_before == n
        assert rec.n_after == rec.n_before - rec.r
        if trace.merging:
            assert rec.sizes_total == n0
            assert rec.cls_digest_pre == rec.cls_digest_post != ""
        n = rec.n_after


def test_criterion_4_conservation_ledger(forward_checking_cls, salience_calls):
    """Size conservation, length chain, CLS invariance and salience mass
    across methods and schedules."""
    dims = ModelDims(d=16, heads=2, d_ff=32, layers=6, n_classes=5)
    w = synth_weights(44, dims)
    images = data.synth_images(8, 30, 16, 0.5, seed=44)
    configs = [fixed_cfg("none", 0), fixed_cfg("tome", 3),
               fixed_cfg("adamerge", 3), fixed_cfg("adamerge", 2),
               *(RunConfig(salience=salience, schedule=calibration.refine(
                   w, images, r_max=6, passes=2, salience=salience))
                 for salience in (True, False)),
               # salience off, computed for the map only
               RunConfig(salience=False, schedule=3, track_maps=True)]
    runs = 0
    for cfg in configs:
        for img in images[:4]:
            seq = TokenSequence(cls=np.zeros(16, np.float32), patches=img)
            salience_calls.clear()
            # the CLS rows are checked byte for byte, digests aside
            _, trace = forward_checking_cls(seq, w, cfg)
            _ledger_check(trace, 30, cfg, salience_calls)
            runs += 1
    ok(4, f"ledger holds for {runs} runs across {len(configs)} configurations")


def test_criterion_5_adaptive_behavior():
    """After mixed-redundancy calibration, high-redundancy inputs merge
    at least 20% more tokens than low-redundancy ones."""
    dims = ModelDims(d=32, heads=4, d_ff=64, layers=8, n_classes=5)
    w = synth_weights(55, dims)
    rng = np.random.default_rng(55)
    cal = np.concatenate([
        data.synth_images(1, 64, 32, float(rng.uniform()), seed=5000 + i)
        for i in range(32)])
    stats = calibration.refine(w, cal, r_max=8, passes=2)
    cfg = RunConfig(salience=True, schedule=stats)

    def mean_merges(rho, seed):
        images = data.synth_images(64, 64, 32, rho, seed=seed)
        tot = 0
        for img in images:
            seq = TokenSequence(cls=np.zeros(32, np.float32), patches=img)
            _, trace = forward_model(seq, w, cfg)
            tot += trace.total_merges
        return tot / len(images)

    high = mean_merges(0.9, seed=9001)
    low = mean_merges(0.1, seed=9002)
    assert high >= 1.2 * low, f"high={high:.1f}, low={low:.1f}"
    ok(5, f"mean merges: rho=0.9 -> {high:.1f} vs rho=0.1 -> {low:.1f} "
          f"({100 * (high / low - 1):.0f}% margin)")


def test_criterion_6_schedule_arithmetic():
    """z = 0 gives floor(r_max/2) at the six operating points; monotone
    in sbar; clamped at |A|."""
    stats = LayerStats(model_id="t", mu=np.array([0.5]), sigma=np.array([0.1]),
                       r_max=23, alpha=1.0, passes=2, calibration_size=64)
    # r as the merge step computes it; select_merges then clamps it to |A|
    def schedule_r(sbar, stats):
        return r_from_z(zscore(sbar, stats, 0), stats)

    for r_max in (9, 11, 14, 17, 20, 23):
        assert schedule_r(0.5, dataclasses.replace(stats, r_max=r_max)) == r_max // 2
    rs = [schedule_r(s, stats) for s in np.linspace(-1, 2, 100)]
    assert all(a <= b for a, b in zip(rs, rs[1:]))
    decision = select_merges(np.ones((10, 10), np.float32), schedule_r(50.0, stats))
    assert decision.r == 10 and decision.r_clamped
    ok(6, "z=0 midpoints, monotonicity and clamping hold")


def test_criterion_7_calibration_determinism(tmp_path):
    """refine(passes=2) is byte-identical across executions; stats.json
    round-trips; malformed files are rejected."""
    dims = ModelDims(d=16, heads=2, d_ff=32, layers=4, n_classes=5)
    w = synth_weights(77, dims)
    images = data.synth_images(8, 24, 16, 0.5, seed=77)
    paths = []
    for k in range(2):
        stats = calibration.refine(w, images, r_max=6, passes=2)
        p = tmp_path / f"s{k}.json"
        calibration.save_stats(stats, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    back = calibration.load_stats(paths[0])
    p3 = tmp_path / "s3.json"
    calibration.save_stats(back, p3)
    assert p3.read_bytes() == paths[0].read_bytes()

    doc = json.loads(paths[0].read_text())
    doc["sigma"][0] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        calibration.load_stats(bad)
    doc = json.loads(paths[0].read_text())
    doc["mu"] = doc["mu"][:-1]
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        calibration.load_stats(bad)
    ok(7, "byte-identical refine, exact round trip, malformed rejected")


def test_criterion_8_matching_oracle():
    """select_merges equals the brute-force oracle on 1e3 random score
    matrices up to 16x16, including engineered ties."""
    rng = np.random.default_rng(88)
    checked = 0
    for trial in range(1000):
        n_a = int(rng.integers(1, 17))
        n_b = int(rng.integers(1, 17))
        r = int(rng.integers(0, n_a + 1))
        scores = rng.normal(size=(n_a, n_b)).astype(np.float32)
        if trial % 3 == 0:
            # quantize to force score ties within and across rows
            scores = np.round(scores).astype(np.float32)
        d = select_merges(scores, r)
        assert sorted((i, j) for i, j, _ in d.edges) == \
            brute_force_select(scores, r), f"trial {trial}"
        checked += 1
    assert checked == 1000
    ok(8, "1000/1000 matrices match the brute-force oracle")


def test_criterion_9_end_to_end_smoke(tmp_path):
    """synth -> calibrate -> run -> compare -> viz on a 64-image set with
    a synth ViT (d=64, L=12, N=196) in under 2 minutes."""
    t0 = time.perf_counter()
    weights = str(tmp_path / "weights")
    dataset = str(tmp_path / "data")
    stats = str(tmp_path / "stats.json")
    run_csv = str(tmp_path / "run.csv")
    cmp_csv = str(tmp_path / "cmp.csv")
    cmp_svg = str(tmp_path / "cmp.svg")
    viz_csv = str(tmp_path / "viz.csv")
    viz_svg = str(tmp_path / "viz.svg")

    assert main(["synth-weights", "--dim", "64", "--heads", "8", "--d-ff",
                 "256", "--layers", "12", "--classes", "10", "--seed", "9",
                 "--out", weights]) == 0
    assert main(["synth", "--images", "64", "--tokens", "196", "--dim", "64",
                 "--redundancy", "0.6", "--seed", "9", "--out", dataset]) == 0
    assert main(["calibrate", "--weights", weights, "--dataset", dataset,
                 "--config", "adamerge:r_max=16", "--out", stats]) == 0
    assert main(["run", "--weights", weights, "--dataset", dataset,
                 "--config", "adamerge:r_max=16", "--stats", stats,
                 "--out-csv", run_csv]) == 0
    assert main(["compare", "--weights", weights, "--dataset", dataset,
                 "--config", "tome:r=8", "--config", "adamerge:r_max=16",
                 "--stats", stats, "--out-csv", cmp_csv,
                 "--out-svg", cmp_svg]) == 0
    assert main(["viz", "--weights", weights, "--dataset", dataset,
                 "--config", "adamerge:r_max=16", "--stats", stats,
                 "--out-csv", viz_csv, "--out-svg", viz_svg]) == 0

    # schema checks
    doc = json.loads(open(stats).read())
    assert doc["num_layers"] == 12 and len(doc["mu"]) == 12
    rows = list(csv.DictReader(open(run_csv)))
    assert len(rows) == 64 * 12
    cmp_rows = list(csv.DictReader(open(cmp_csv)))
    assert len(cmp_rows) == 2
    assert open(cmp_svg).read().startswith("<svg")
    assert open(viz_svg).read().startswith("<svg")
    viz_rows = list(csv.DictReader(open(viz_csv)))
    assert len(viz_rows) == 12 * 196

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    ok(9, f"full CLI pipeline in {elapsed:.1f}s with schema-valid outputs")
