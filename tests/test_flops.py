import numpy as np
import pytest

from adamerge import data
from adamerge.flops import (block_flops, fixed_schedule_lengths,
                            merge_overhead_flops, model_flops, trace_flops)
from adamerge.cli import method_salience
from adamerge.runtime import (ModelDims, RunConfig, TokenSequence,
                              forward_model, synth_weights)

TABLE1_REDUCTIONS = {3: 8.7, 4: 11.6, 5: 14.4, 6: 17.3, 7: 20.1, 8: 23.0}


class TestBlockFlops:
    def test_unit_dims(self):
        assert block_flops(1, 1, 1) == 8

    def test_vitb16_baseline_magnitude(self):
        total = model_flops([197] * 12, 768, 3072)
        assert 17.4e9 <= total <= 17.6e9

    def test_halving_n_quarters_attention_term(self):
        d, d_ff = 8, 16
        attn = lambda n: block_flops(n, d, d_ff) - 4 * n * d * d - 2 * n * d * d_ff
        assert attn(10) == 4 * attn(5)


class TestTable1Reductions:
    @pytest.mark.parametrize("r,want", sorted(TABLE1_REDUCTIONS.items()))
    def test_fixed_schedule_matches_table(self, r, want):
        base = model_flops([197] * 12, 768, 3072)
        total = model_flops(fixed_schedule_lengths(196, r, 12), 768, 3072)
        red = 100.0 * (1 - total / base)
        assert red == pytest.approx(want, abs=1.0)


class TestTraceFlops:
    def run_trace(self, method, r, layers=12, track_maps=False):
        dims = ModelDims(d=16, heads=2, d_ff=32, layers=layers, n_classes=4)
        w = synth_weights(1, dims)
        img = data.synth_images(1, 196, 16, 0.4, seed=3)[0]
        seq = TokenSequence(cls=np.zeros(16, np.float32), patches=img)
        cfg = RunConfig(salience=method_salience(method),
                        schedule=None if method == "none" else r,
                        track_maps=track_maps)
        _, trace = forward_model(seq, w, cfg)
        return trace, dims

    def test_no_merging_zero_reduction(self):
        trace, dims = self.run_trace("none", 0)
        rep = trace_flops(trace, dims)
        assert rep.reduction_pct == 0.0
        assert rep.overhead == 0

    def test_fixed_r_trace_matches_schedule_formula(self):
        trace, dims = self.run_trace("tome", 8)
        rep = trace_flops(trace, dims)
        want = model_flops(fixed_schedule_lengths(196, 8, 12),
                           dims.d, dims.d_ff)
        assert rep.total == want

    def test_overhead_counted_once_per_layer(self):
        # scoring on every layer; the affinity only where salience ran,
        # which track_maps makes it do on a salience-off run too
        for method, maps, salience in (("tome", False, False),
                                       ("tome", True, True),
                                       ("adamerge", False, True)):
            trace, dims = self.run_trace(method, 8, track_maps=maps)
            rep = trace_flops(trace, dims)
            want = sum(merge_overhead_flops(rec.n_before, dims.d, salience)
                       for rec in trace.layers)
            assert rep.overhead == want
            # the reduction is the core one; the overhead is reported apart
            assert rep.reduction_pct == 100.0 * (1.0 - rep.total / rep.baseline)

    def test_overhead_is_scoring_plus_affinity(self):
        # n = 5: |A| = 3, |B| = 2
        assert merge_overhead_flops(5, 4, salience=False) == 3 * 2 * 4
        assert merge_overhead_flops(5, 4, salience=True) == 3 * 2 * 4 + 5 * 5 * 4
        # an empty B scores nothing
        assert merge_overhead_flops(1, 4, salience=False) == 0
        assert merge_overhead_flops(1, 4, salience=True) == 4

    def test_monotone_in_r(self):
        prev = None
        for r in range(0, 9, 2):
            trace, dims = self.run_trace("tome", r)
            total = trace_flops(trace, dims).total
            if prev is not None:
                assert total <= prev
            prev = total

    def test_reduction_ratio_invariant_to_width_scaling(self):
        # with the MLP ratio fixed, the linear terms scale as d^2 and the
        # schedule-driven reduction of those terms is width-independent
        for r in (4, 8):
            reds = []
            for d in (64, 128):
                lengths = fixed_schedule_lengths(196, r, 12)
                base_lin = sum(4 * n * d * d + 2 * n * d * (4 * d)
                               for n in [197] * 12)
                lin = sum(4 * n * d * d + 2 * n * d * (4 * d)
                          for n in lengths)
                reds.append(1 - lin / base_lin)
            assert reds[0] == pytest.approx(reds[1], abs=1e-12)
