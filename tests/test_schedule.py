import dataclasses

import numpy as np
import pytest

from adamerge.matcher import select_merges
from adamerge.schedule import LayerStats, r_from_z, redundancy_proxy, zscore


def make_stats(layers=4, mu=0.5, sigma=0.1):
    return LayerStats(model_id="t", mu=np.full(layers, mu),
                      sigma=np.full(layers, sigma), r_max=8, alpha=1.0,
                      passes=2, calibration_size=16)


class TestRedundancyProxy:
    def test_constant_scores(self):
        assert redundancy_proxy(np.full((3, 4), 0.7, np.float32)) == \
            pytest.approx(0.7, abs=1e-6)

    def test_row_maxima(self):
        m = np.array([[0.2, 0.1], [0.4, 0.0], [0.3, 0.6]], dtype=np.float32)
        assert redundancy_proxy(m) == pytest.approx(0.4, abs=1e-6)

    def test_empty_is_zero(self):
        assert redundancy_proxy(np.zeros((0, 0), dtype=np.float32)) == 0.0

    def test_against_double_loop(self):
        m = np.random.default_rng(0).normal(size=(8, 8)).astype(np.float32)
        tot = 0.0
        for i in range(8):
            best = -np.inf
            for j in range(8):
                best = max(best, float(m[i, j]))
            tot += best
        assert redundancy_proxy(m) == pytest.approx(tot / 8, abs=1e-9)


def schedule_r(sbar, stats):
    """r as the merge step computes it at layer 0, before select_merges
    clamps it to |A|."""
    return r_from_z(zscore(sbar, stats, 0), stats)


def applied(r, a_size):
    """(r, r_clamped) that select_merges applies on an |A|-row score matrix."""
    decision = select_merges(np.ones((a_size, 4), np.float32), r)
    return decision.r, decision.r_clamped


class TestDecideR:
    def test_midpoint_at_mu(self):
        stats = dataclasses.replace(make_stats(), r_max=9)
        assert schedule_r(0.5, stats) == 4

    @pytest.mark.parametrize("r_max", [9, 11, 14, 17, 20, 23])
    def test_z_zero_floor_half(self, r_max):
        stats = dataclasses.replace(make_stats(), r_max=r_max)
        assert schedule_r(0.5, stats) == r_max // 2

    def test_saturates_high(self):
        stats = dataclasses.replace(make_stats(), r_max=9)
        r = schedule_r(100.0, stats)
        assert applied(r, a_size=100) == (9, False)
        assert applied(r, a_size=5) == (5, True)

    def test_saturates_low(self):
        stats = dataclasses.replace(make_stats(), r_max=9)
        assert applied(schedule_r(-100.0, stats), a_size=100) == (0, False)

    def test_r_from_z_leaves_the_a_clamp_to_the_merge_step(self):
        # select_merges clamps to |A| and flags it
        stats = dataclasses.replace(make_stats(), r_max=9)
        assert r_from_z(100.0, stats) == 9
        assert r_from_z(-100.0, stats) == 0

    def test_monotone_in_sbar(self):
        stats = dataclasses.replace(make_stats(), r_max=23)
        rs = [schedule_r(s, stats) for s in np.linspace(0.0, 1.0, 50)]
        assert all(a <= b for a, b in zip(rs, rs[1:]))

    def test_layer_out_of_range(self):
        with pytest.raises(ValueError):
            zscore(0.5, make_stats(layers=2), 5)


class TestAlpha:
    def test_larger_alpha_sharpens(self):
        # alpha is the schedule's one gain: for a fixed z != 0, a larger
        # alpha never moves r closer to the midpoint r_max // 2, and here
        # it moves r away at least once
        moved = False
        for r_max in (7, 8):
            stats = dataclasses.replace(make_stats(), r_max=r_max)
            for z in (-2.0, -0.4, 0.3, 1.5):
                for a1, a2 in ((0.5, 1.0), (1.0, 2.0), (0.25, 4.0)):
                    r1, r2 = (r_from_z(z, dataclasses.replace(stats, alpha=a))
                              for a in (a1, a2))
                    assert abs(r2 - r_max // 2) >= abs(r1 - r_max // 2), \
                        (r_max, z, a1, a2)
                    moved |= r2 != r1
        assert moved


class TestValidation:
    def test_temperature_defaults_to_one(self):
        # temperature is init-only: the old default 1.0 still constructs,
        # and the stats (and stats.json) hold no such field
        stats = LayerStats(model_id="t", mu=np.zeros(2), sigma=np.ones(2),
                           r_max=4, alpha=1.0, passes=1, calibration_size=4,
                           temperature=1.0)
        assert "temperature" not in {f.name for f in dataclasses.fields(stats)}
        assert dataclasses.replace(stats, r_max=5).r_max == 5
        assert zscore(0.7, stats, 0) == 0.7

    def test_bad_temperature(self):
        # any other value, a bool included, names the field and points at alpha
        for value in (0.5, 2, 0.0, True, "1.0"):
            with pytest.raises(ValueError, match=r"temperature is no longer a "
                               r"schedule setting: alpha is the one gain.*"
                               rf"got temperature={value!r}"):
                LayerStats(model_id="t", mu=np.zeros(2), sigma=np.ones(2),
                           r_max=4, alpha=1.0, passes=1, calibration_size=4,
                           temperature=value)

    def test_negative_r_max(self):
        with pytest.raises(ValueError):
            dataclasses.replace(make_stats(), r_max=-1)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            LayerStats(model_id="t", mu=np.zeros(2), sigma=np.array([1.0, 0.0]),
                       r_max=4, alpha=1.0, passes=1, calibration_size=4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LayerStats(model_id="t", mu=np.zeros(2), sigma=np.ones(3),
                       r_max=4, alpha=1.0, passes=1, calibration_size=4)
