import numpy as np
import pytest

from adamerge.numeric import cosine_matrix, gelu, layer_norm, matmul, row_softmax


def rnd(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


class TestMatmul:
    def test_identity(self):
        m = rnd((3, 3), 1)
        assert np.allclose(matmul(np.eye(3, dtype=np.float32), m), m)

    def test_hand_case(self):
        a = np.array([[1, 2], [3, 4]], dtype=np.float32)
        b = np.array([[0], [1]], dtype=np.float32)
        assert np.array_equal(matmul(a, b), np.array([[2], [4]], dtype=np.float32))

    def test_against_triple_loop(self):
        a, b = rnd((5, 7), 2), rnd((7, 3), 3)
        want = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                acc = 0.0
                for k in range(7):
                    acc += float(a[i, k]) * float(b[k, j])
                want[i, j] = acc
        got = matmul(a, b)
        assert np.allclose(got, want, rtol=1e-6)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(rnd((2, 3)), rnd((2, 2)))

    def test_operand_not_2d_names_shapes(self):
        with pytest.raises(ValueError, match=r"2-D operands, got \(3,\) and \(3, 2\)"):
            matmul(rnd((3,)), rnd((3, 2)))

    def test_transpose_relation(self):
        a, b = rnd((6, 6), 4), rnd((6, 6), 5)
        assert np.allclose(matmul(a, b).T, matmul(b.T.copy(), a.T.copy()),
                           atol=1e-6)


class TestRowSoftmax:
    def test_uniform_row(self):
        out = row_softmax(np.zeros((1, 3), dtype=np.float32))
        assert np.allclose(out, 1 / 3)

    def test_large_values_no_overflow(self):
        out = row_softmax(np.array([[1000.0, 0.0]], dtype=np.float32))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-30)

    def test_against_longdouble_oracle(self):
        m = rnd((4, 4), 6)
        ml = m.astype(np.longdouble)
        e = np.exp(ml - ml.max(axis=1, keepdims=True))
        want = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(row_softmax(m), want.astype(np.float64), atol=1e-7)

    def test_rows_sum_to_one(self):
        for seed in range(10):
            m = rnd((5, 8), seed) * 10
            assert np.allclose(row_softmax(m).sum(axis=1), 1.0, atol=1e-6)


class TestCosineMatrix:
    def test_self_similarity(self):
        a = rnd((4, 6), 7)
        out = cosine_matrix(a, a)
        assert np.allclose(np.diag(out), 1.0, atol=1e-6)

    def test_orthogonal(self):
        a = np.array([[1, 0]], dtype=np.float32)
        b = np.array([[0, 1]], dtype=np.float32)
        assert cosine_matrix(a, b)[0, 0] == pytest.approx(0.0)

    def test_hand_case(self):
        a = np.array([[1, 1]], dtype=np.float32)
        b = np.array([[1, 0]], dtype=np.float32)
        assert cosine_matrix(a, b)[0, 0] == pytest.approx(np.sqrt(2) / 2, abs=1e-6)

    def test_zero_norm_row(self):
        a = np.zeros((1, 3), dtype=np.float32)
        b = rnd((2, 3), 8)
        assert np.array_equal(cosine_matrix(a, b), np.zeros((1, 2), dtype=np.float32))

    def test_bounded(self):
        a, b = rnd((6, 5), 9) * 3, rnd((7, 5), 10) * 3
        out = cosine_matrix(a, b)
        assert np.all(out >= -1 - 1e-6) and np.all(out <= 1 + 1e-6)

    def test_dim_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) vs \(4, 5\)"):
            cosine_matrix(rnd((2, 3)), rnd((4, 5)))


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = np.full((1, 4), 3.0, dtype=np.float32)
        out = layer_norm(x, np.ones(4, np.float32), np.zeros(4, np.float32))
        assert np.allclose(out, 0.0, atol=1e-3)

    def test_already_normalized(self):
        x = np.array([[1.0, -1.0]], dtype=np.float32)
        out = layer_norm(x, np.ones(2, np.float32), np.zeros(2, np.float32))
        assert np.allclose(out, x, atol=1e-3)

    def test_statistics(self):
        x = rnd((1, 64), 11)
        out = layer_norm(x, np.ones(64, np.float32), np.zeros(64, np.float32))
        assert abs(out.mean()) < 1e-6
        assert abs(out.astype(np.float64).var() - 1.0) < 1e-4

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            layer_norm(rnd((2, 4)), np.ones(3, np.float32), np.zeros(3, np.float32))


class TestGelu:
    def test_zero(self):
        assert gelu(np.zeros((1, 1), dtype=np.float32))[0, 0] == 0.0

    def test_large_positive(self):
        x = np.array([[20.0]], dtype=np.float32)
        assert gelu(x)[0, 0] == pytest.approx(20.0)

    def test_at_one(self):
        x = np.array([[1.0]], dtype=np.float32)
        assert gelu(x)[0, 0] == pytest.approx(0.8413, abs=1e-4)
