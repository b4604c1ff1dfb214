# The in-place float64 kernels must produce the same bytes as the plain
# one-line formulas they replaced. The oracles below are those formulas,
# kept verbatim: a copy per operand, fresh temporaries, float32 rounding at
# the same points.

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erf

from adamerge.matcher import select_merges
from adamerge.numeric import gelu, layer_norm, matmul, row_softmax
from adamerge.runtime import BlockWeights, ModelDims, forward_block
from adamerge.salience import compute_salience

F32 = np.float32


def matmul_oracle(a, b):
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(F32)


def row_softmax_oracle(m):
    m64 = m.astype(np.float64)
    m64 = m64 - m64.max(axis=1, keepdims=True)
    e = np.exp(m64)
    return (e / e.sum(axis=1, keepdims=True)).astype(F32)


def layer_norm_oracle(x, gamma, beta, eps=1e-6):
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=1, keepdims=True)
    var = x64.var(axis=1, keepdims=True)
    normed = (x64 - mu) / np.sqrt(var + eps)
    out = normed * gamma.astype(np.float64) + beta.astype(np.float64)
    return out.astype(F32)


def gelu_oracle(x):
    x64 = x.astype(np.float64)
    return (0.5 * x64 * (1.0 + erf(x64 / np.sqrt(2.0)))).astype(F32)


def forward_block_oracle(tokens, block, dims):
    n, d = tokens.shape
    dh = dims.d // dims.heads
    scale = 1.0 / np.sqrt(dh)
    h = layer_norm_oracle(tokens, block.ln1_gamma, block.ln1_beta)
    qkv = matmul_oracle(h, block.w_qkv) + block.b_qkv.astype(F32)
    q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
    attn_out = np.empty((n, d), dtype=F32)
    for hd in range(dims.heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        logits = matmul_oracle(q[:, sl], k[:, sl].T) * F32(scale)
        attn_out[:, sl] = matmul_oracle(row_softmax_oracle(logits), v[:, sl])
    x = tokens + matmul_oracle(attn_out, block.w_proj) + block.b_proj.astype(F32)
    h2 = layer_norm_oracle(x, block.ln2_gamma, block.ln2_beta)
    mlp = matmul_oracle(
        gelu_oracle(matmul_oracle(h2, block.w_fc1) + block.b_fc1.astype(F32)),
        block.w_fc2) + block.b_fc2.astype(F32)
    return x + mlp


def select_edges_oracle(scores, r):
    n_a = scores.shape[0]
    r = max(min(r, n_a), 0)
    best_j = scores.argmax(axis=1)
    best_s = scores[np.arange(n_a), best_j].astype(np.float64)
    order = sorted(range(n_a), key=lambda i: (-best_s[i], i))
    return [(i, int(best_j[i]), float(best_s[i])) for i in sorted(order[:r])]


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def matrices(draw, max_n=200, max_d=96):
    """float32 [n, d] with magnitudes up to 1e3, some rows constant."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    scale = draw(st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-scale, scale, size=(n, d)).astype(F32)
    if draw(st.booleans()):
        rows = rng.random(n) < 0.3
        x[rows] = x[rows, :1]
    return x


class TestKernels:
    @given(matrices(), st.integers(1, 96), st.integers(0, 2**32 - 1))
    def test_matmul(self, a, m, seed):
        b = np.random.default_rng(seed).normal(size=(a.shape[1], m)).astype(F32)
        same_bytes(matmul(a, b), matmul_oracle(a, b))
        # float64 operands are used as they are: a strided and a
        # column-major view
        a64 = np.repeat(a.astype(np.float64), 2, axis=1)[:, ::2]
        b64 = np.asfortranarray(b.astype(np.float64))
        same_bytes(matmul(a64, b64), matmul_oracle(a, b))

    @given(matrices())
    def test_row_softmax(self, m):
        same_bytes(row_softmax(m), row_softmax_oracle(m))

    @given(matrices(), st.integers(0, 2**32 - 1))
    def test_layer_norm(self, x, seed):
        rng = np.random.default_rng(seed)
        gamma = (1 + rng.normal(size=x.shape[1])).astype(F32)
        beta = rng.normal(size=x.shape[1]).astype(F32)
        same_bytes(layer_norm(x, gamma, beta), layer_norm_oracle(x, gamma, beta))

    @given(matrices())
    def test_gelu(self, x):
        same_bytes(gelu(x), gelu_oracle(x))

    @given(matrices(max_n=260))
    def test_salience(self, x):
        affinity = row_softmax_oracle(matmul_oracle(x, x.T))
        same_bytes(compute_salience(x), affinity.astype(np.float64).sum(axis=0))

    def test_inputs_are_not_modified(self):
        x = np.random.default_rng(0).normal(size=(7, 5)).astype(F32)
        g, b = np.ones(5, F32), np.zeros(5, F32)
        for arr in (x, x.astype(np.float64)):
            before = arr.copy()
            row_softmax(arr)
            layer_norm(arr, g, b)
            gelu(arr)
            same_bytes(arr, before)


def biased_block(d, d_ff, seed):
    rng = np.random.default_rng(seed)

    def w(*shape, std=0.1):
        return rng.normal(0.0, std, size=shape).astype(F32)

    return BlockWeights(
        ln1_gamma=1 + w(d), ln1_beta=w(d), w_qkv=w(d, 3 * d), b_qkv=w(3 * d),
        w_proj=w(d, d), b_proj=w(d), ln2_gamma=1 + w(d), ln2_beta=w(d),
        w_fc1=w(d, d_ff), b_fc1=w(d_ff), w_fc2=w(d_ff, d), b_fc2=w(d))


@pytest.mark.parametrize("d,heads", [(16, 2), (64, 8)])
@pytest.mark.parametrize("n", [1, 2, 97, 197])
def test_forward_block(d, heads, n):
    dims = ModelDims(d=d, heads=heads, d_ff=4 * d, layers=1)
    block = biased_block(d, 4 * d, seed=d + n)
    x = np.random.default_rng(n).normal(size=(n, d)).astype(F32)
    same_bytes(forward_block(x, block, dims), forward_block_oracle(x, block, dims))


@given(st.integers(1, 90), st.integers(1, 90), st.integers(0, 95),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_select_merges_order(n_a, n_b, r, levels, seed):
    # few score levels, so most rows tie with others
    rng = np.random.default_rng(seed)
    scores = (rng.integers(-levels, levels + 1, size=(n_a, n_b)) / levels).astype(F32)
    got = select_merges(scores, r)
    want = select_edges_oracle(scores, r)
    assert got.edges == want
    assert all(type(i) is int and type(j) is int for i, j, _ in got.edges)
