import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamerge.matcher import (MergeDecision, execute_merge, partition,
                              reconstruction_gap, select_merges,
                              weighted_scores)
from adamerge.numeric import cosine_matrix


def rnd(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def brute_force_select(scores, r):
    """Enumerate per-row argmax candidates, sort globally, take r."""
    n_a, n_b = scores.shape
    cand = []
    for i in range(n_a):
        best_j, best_s = 0, -np.inf
        for j in range(n_b):
            if scores[i, j] > best_s:
                best_j, best_s = j, scores[i, j]
        cand.append((float(best_s), i, best_j))
    order = sorted(range(n_a), key=lambda i: (-cand[i][0], i))
    return sorted((cand[i][1], cand[i][2]) for i in order[:min(r, n_a)])


class TestPartition:
    def test_vit_b16(self):
        assert partition(196) == (98, 98)

    def test_odd_gives_a_extra(self):
        assert partition(5) == (3, 2)

    def test_two_tokens(self):
        assert partition(2) == (1, 1)

    def test_below_two_forces_no_merge(self):
        assert partition(1) == (1, 0)
        assert partition(0) == (0, 0)
        d = select_merges(np.zeros(partition(1), dtype=np.float32), 3)
        assert d.r == 0


class TestWeightedScores:
    def test_uniform_equals_cosine(self):
        xa, xb = rnd((4, 6), 0), rnd((3, 6), 1)
        got = weighted_scores(xa, xb, None)
        assert np.array_equal(got, cosine_matrix(xa, xb))

    def test_all_ones_salience(self):
        xa, xb = rnd((4, 6), 2), rnd((3, 6), 3)
        got = weighted_scores(xa, xb, np.ones(4))
        assert np.allclose(got, cosine_matrix(xa, xb), atol=1e-7)

    def test_zero_salience_row(self):
        xa, xb = rnd((2, 4), 4), rnd((3, 4), 5)
        got = weighted_scores(xa, xb, np.array([0.0, 1.0]))
        assert np.allclose(got[0], 0.0)

    def test_scalar_case(self):
        xa = np.array([[1.0, 0.0]], dtype=np.float32)
        xb = np.array([[1.0, 0.0]], dtype=np.float32)
        got = weighted_scores(xa, xb, np.array([0.5]))
        assert got[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_scores(rnd((2, 4)), rnd((2, 4)), np.ones(3))


class TestSelectMerges:
    def test_r_zero(self):
        d = select_merges(rnd((3, 3), 0), 0)
        assert d.r == 0 and d.edges == []
        assert d.survivors == [0, 1, 2, 3, 4, 5]

    def test_r_full(self):
        scores = np.arange(9, dtype=np.float32).reshape(3, 3)
        d = select_merges(scores, 3)
        assert d.r == 3
        assert all(j == 2 for _, j, _ in d.edges)

    def test_clamp_flag(self):
        d = select_merges(rnd((2, 2), 1), 5)
        assert d.r == 2 and d.r_clamped
        assert MergeDecision(2, 2, d.edges, d.r_clamped) == d

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_a = int(rng.integers(1, 9))
            n_b = int(rng.integers(1, 9))
            r = int(rng.integers(0, n_a + 1))
            scores = rng.normal(size=(n_a, n_b)).astype(np.float32)
            d = select_merges(scores, r)
            assert sorted((i, j) for i, j, _ in d.edges) == \
                brute_force_select(scores, r)
            # everything else in the decision follows from its edges
            assert MergeDecision(n_a, n_b, d.edges, d.r_clamped) == d
            assert d.r == len(d.edges)

    def test_tie_breaking_by_index(self):
        scores = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.1]],
                          dtype=np.float32)
        d = select_merges(scores, 2)
        # rows 0 and 1 tie at 0.5 -> both chosen, dest = lower column
        assert [(i, j) for i, j, _ in d.edges] == [(0, 0), (1, 0)]

    def test_all_ties_go_to_lower_index(self):
        scores = np.zeros((6, 3), dtype=np.float32)  # all candidates tie
        # index tie-break picks the lowest sources deterministically
        d_idx = select_merges(scores, 3)
        assert [i for i, _, _ in d_idx.edges] == [0, 1, 2]

    def test_top_r_property(self):
        scores = rnd((8, 8), 7)
        d = select_merges(scores, 3)
        chosen = min(s for _, _, s in d.edges)
        best = scores.max(axis=1)
        unchosen = [best[i] for i in range(8)
                    if i not in {e[0] for e in d.edges}]
        assert all(chosen >= s for s in unchosen)


class TestExecuteMerge:
    def pair_decision(self):
        return MergeDecision(n_a=1, n_b=1, edges=[(0, 0, 1.0)])

    def test_equal_salience_averages(self):
        patches = rnd((2, 4), 0)
        sal_in = np.array([1.0, 1.0])
        out, sal, sizes, fb = execute_merge(
            patches, sal_in, np.array([1, 1]), self.pair_decision(), sal_in)
        assert out.shape == (1, 4)
        assert np.allclose(out[0], patches.astype(np.float64).mean(axis=0),
                           atol=1e-6)
        assert sal[0] == 1.0 and sizes[0] == 2 and not fb

    def test_full_weight_limit(self):
        patches = rnd((2, 4), 1)
        sal_in = np.array([1.0, 0.0])
        out, sal, _, _ = execute_merge(
            patches, sal_in, np.array([1, 1]), self.pair_decision(), sal_in)
        assert np.allclose(out[0], patches[0], atol=1e-7)
        assert sal[0] == 1.0

    def test_hand_weighted_pair(self):
        patches = np.array([[1, 0], [0, 1]], dtype=np.float32)
        sal_in = np.array([0.8, 0.2])
        out, sal, _, _ = execute_merge(
            patches, sal_in, np.array([1, 1]), self.pair_decision(), sal_in)
        assert np.allclose(out[0], [0.8, 0.2], atol=1e-6)
        assert sal[0] == pytest.approx(0.8)

    def test_tome_mode_size_weighted(self):
        patches = np.array([[2, 0], [0, 2]], dtype=np.float32)
        sizes_in = np.array([3, 1])
        out, _, sizes, _ = execute_merge(
            patches, np.array([0.9, 0.1]), sizes_in, self.pair_decision(),
            sizes_in)
        # weights by size: (3*src + 1*dst)/4
        assert np.allclose(out[0], [1.5, 0.5], atol=1e-6)
        assert sizes[0] == 4

    def test_zero_weight_falls_back_to_mean(self):
        patches = np.array([[2, 0], [0, 2]], dtype=np.float32)
        sal_in = np.array([0.0, 0.0])
        out, _, _, fb = execute_merge(
            patches, sal_in, np.array([1, 1]), self.pair_decision(), sal_in)
        assert fb
        assert np.allclose(out[0], [1.0, 1.0], atol=1e-6)

    def test_passthrough_bit_identical(self):
        patches = rnd((8, 5), 3)
        sal = np.random.default_rng(4).uniform(0.1, 1, 8)
        d = select_merges(weighted_scores(patches[:4], patches[4:], sal[:4]), 2)
        out, _, sizes, _ = execute_merge(patches, sal, np.ones(8, np.int64), d, sal)
        assert out.shape[0] == 6
        merged = {i for i, _, _ in d.edges}
        keep_a = [i for i in range(4) if i not in merged]
        # surviving A tokens first, in order, bit-identical
        for pos, i in enumerate(keep_a):
            assert np.array_equal(out[pos], patches[i])
        # untouched B tokens bit-identical
        touched_b = set(d.groups)
        for j in range(4):
            if j not in touched_b:
                assert np.array_equal(out[len(keep_a) + j], patches[4 + j])
        assert sizes.sum() == 8

    def test_count_bookkeeping(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(2, 14))
            patches = rng.normal(size=(n, 4)).astype(np.float32)
            n_a = (n + 1) // 2
            sal = rng.uniform(0.01, 1, n)
            r = int(rng.integers(0, n_a + 1))
            d = select_merges(
                weighted_scores(patches[:n_a], patches[n_a:], sal[:n_a]), r)
            out, _, sizes, _ = execute_merge(patches, sal,
                                             np.ones(n, np.int64), d, sal)
            assert out.shape[0] == n - d.r
            assert sizes.sum() == n


class TestReconstructionGap:
    def test_nonpositive_salience_rejected(self):
        with pytest.raises(ValueError):
            reconstruction_gap(np.zeros(2), np.ones(2), 0.0, 0.5)
        with pytest.raises(ValueError):
            reconstruction_gap(np.zeros(2), np.ones(2), 0.5, -1.0)

    def test_cumulative_gap_nondecreasing_in_r(self):
        rng = np.random.default_rng(13)
        n = 12
        patches = rng.normal(size=(n, 4)).astype(np.float32)
        sal = rng.uniform(0.05, 1.0, n)
        n_a = n // 2
        scores = weighted_scores(patches[:n_a], patches[n_a:], sal[:n_a])
        prev = -1.0
        for r in range(n_a + 1):
            d = select_merges(scores, r)
            total = sum(reconstruction_gap(patches[i], patches[n_a + j],
                                           sal[i], sal[n_a + j])[0]
                        for i, j, _ in d.edges)
            assert total >= prev - 1e-12
            prev = total


@st.composite
def token_sets(draw):
    """n in [0, 64] patch tokens with some duplicate and some zero rows,
    salience in [0, 1] and positive integer sizes."""
    n = draw(st.integers(0, 64))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)).astype(np.float32)
    if n > 1:
        dup = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))
        x[dup] = x[rng.integers(0, n, size=int(dup.sum()))]
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    sal = rng.uniform(0.0, 1.0, n)
    sizes = rng.integers(1, 5, n).astype(np.int64)
    return x, sal, sizes, draw(st.integers(0, 40))


def decide(x, sa, r):
    n_a, n_b = partition(x.shape[0])
    if n_b == 0:
        return select_merges(np.zeros((n_a, 0), dtype=np.float32), r)
    return select_merges(weighted_scores(x[:n_a], x[n_a:], sa), r)


class TestMergeProperties:
    @given(token_sets(), st.booleans())
    def test_ledger(self, tokens, salience):
        x, sal, sizes, r = tokens
        n = x.shape[0]
        n_a, _ = partition(n)
        d = decide(x, sal[:n_a] if salience else None, r)
        out, out_sal, out_sizes, fallback = execute_merge(
            x, sal, sizes, d, sal if salience else sizes)
        if not salience:
            # without salience only the salience slot changes: it is None
            bare = execute_merge(x, None, sizes, d, sizes)
            assert bare[1] is None
            assert bare[0].tobytes() == out.tobytes()
            assert bare[2].tobytes() == out_sizes.tobytes()
            assert bare[3] == fallback
        assert out_sizes.sum() == sizes.sum()
        assert out.shape[0] == out_sal.shape[0] == out_sizes.shape[0] == n - d.r
        keep = len(d.keep_a)
        for pos, i in enumerate(d.keep_a):
            assert out[pos].tobytes() == x[i].tobytes()
        for j in range(d.n_b):
            members = [n_a + j] + d.groups.get(j, [])
            if j not in d.groups:
                assert out[keep + j].tobytes() == x[n_a + j].tobytes()
            assert out_sal[keep + j] == sal[members].max()
            assert out_sizes[keep + j] == sizes[members].sum()

    @given(token_sets())
    def test_unit_weights_are_tome(self, tokens):
        x, _, _, r = tokens
        n = x.shape[0]
        n_a, _ = partition(n)
        ones, unit = np.ones(n), np.ones(n, dtype=np.int64)
        if n >= 2:
            assert weighted_scores(x[:n_a], x[n_a:], ones[:n_a]).tobytes() == \
                weighted_scores(x[:n_a], x[n_a:], None).tobytes()
        d = decide(x, None, r)
        got = execute_merge(x, ones, unit, d, ones)
        want = execute_merge(x, ones, unit, d, unit)
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got[3] == want[3]
