import numpy as np
import pytest

from adamerge.numeric import matmul, row_softmax
from adamerge.salience import compute_salience, minmax_normalize, salience_of


def rnd(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestComputeSalience:
    def test_identical_tokens(self):
        x = np.tile(rnd((1, 8), 0), (5, 1))
        assert np.allclose(compute_salience(x), 1.0, atol=1e-5)

    def test_single_token(self):
        assert np.allclose(compute_salience(rnd((1, 4), 1)), [1.0])

    def test_against_double_loop(self):
        x = rnd((3, 5), 2)
        ahat = row_softmax(matmul(x, x.T)).astype(np.float64)
        want = np.zeros(3)
        for i in range(3):
            for j in range(3):
                want[i] += ahat[j, i]
        assert np.allclose(compute_salience(x), want, atol=1e-6)

    def test_conservation(self):
        for seed in range(8):
            n = 4 + seed
            raw = compute_salience(rnd((n, 6), seed) * 2)
            assert abs(raw.sum() - n) <= 1e-5 * n
            assert np.all(raw > 0)

    def test_permutation_equivariance(self):
        x = rnd((7, 5), 3)
        perm = np.random.default_rng(4).permutation(7)
        assert np.allclose(compute_salience(x)[perm],
                           compute_salience(x[perm]), atol=1e-6)


class TestMinmaxNormalize:
    def test_hand_case(self):
        assert np.allclose(minmax_normalize(np.array([2.0, 4.0, 6.0])),
                           [0.0, 0.5, 1.0])

    def test_degenerate_all_ones(self):
        assert np.array_equal(minmax_normalize(np.ones(3)), np.ones(3))

    def test_endpoints(self):
        v = np.random.default_rng(5).normal(size=20)
        out = minmax_normalize(v)
        assert out[v.argmin()] == 0.0
        assert out[v.argmax()] == 1.0
        assert np.all((out >= 0.0) & (out <= 1.0))


def test_salience_of_bundles_both():
    x = rnd((6, 4), 6)
    raw, normalized = salience_of(x)
    assert raw.tobytes() == compute_salience(x).tobytes()
    assert normalized.tobytes() == minmax_normalize(raw).tobytes()
    assert len(raw) == 6
    assert np.all((normalized >= 0) & (normalized <= 1))
    assert raw.sum() == pytest.approx(6.0, abs=1e-4)
