# Dense kernels for the merging pipeline.
#
# Convention: float32 storage, float64 accumulation. Summation order is
# numpy's, which is fixed on a given platform, so repeated runs produce
# bit-identical results. The row-wise kernels make one float64 copy of
# their input, work on it in place and round to float32 once, on return.

import numpy as np
from scipy.special import erf

DTYPE = np.float32

_SQRT2 = np.sqrt(2.0)
LN_EPS = 1e-6  # added to the variance in layer_norm, as in ViT's LayerNorm


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation, returned as float32."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return (a.astype(np.float64, copy=False)
            @ b.astype(np.float64, copy=False)).astype(DTYPE)


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Softmax over each row, with per-row max subtraction for stability."""
    e = m.astype(np.float64)
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e.astype(DTYPE)


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between rows of a and rows of b.

    Zero-norm rows yield similarity 0 against everything.
    """
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"cosine_matrix dim mismatch: {a.shape} vs {b.shape}")
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    na = np.linalg.norm(a64, axis=1)
    nb = np.linalg.norm(b64, axis=1)
    dots = a64 @ b64.T
    denom = np.outer(na, nb)
    out = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    return out.astype(DTYPE)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-row normalization to zero mean / unit variance, then affine."""
    if gamma.shape[0] != x.shape[1] or beta.shape[0] != x.shape[1]:
        raise ValueError(
            f"layer_norm param mismatch: x has {x.shape[1]} cols, "
            f"gamma {gamma.shape[0]}, beta {beta.shape[0]}")
    # mean and population variance as np.mean / np.var compute them
    # (row sum over n), with the rows centred once and in place
    n = x.shape[1]
    xc = x.astype(np.float64)
    xc -= xc.sum(axis=1, keepdims=True) / n
    var = (xc * xc).sum(axis=1, keepdims=True) / n
    xc /= np.sqrt(var + LN_EPS)
    xc *= gamma.astype(np.float64)
    xc += beta.astype(np.float64)
    return xc.astype(DTYPE)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU (not the tanh approximation)."""
    x64 = x.astype(np.float64)
    t = x64 / _SQRT2
    erf(t, out=t)
    t += 1.0
    x64 *= 0.5
    x64 *= t
    return x64.astype(DTYPE)
