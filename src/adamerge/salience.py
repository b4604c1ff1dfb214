# Per-token salience as feature-affinity centrality: column sums of the
# row-softmaxed token affinity matrix, min-max normalized to [0, 1].

import numpy as np

from .numeric import matmul, row_softmax

DEGENERATE_RANGE = 1e-9


def compute_salience(x: np.ndarray) -> np.ndarray:
    """Raw salience of each token: column sum of softmax(x @ x.T).

    Expects patch tokens only (CLS stripped by the caller). The result
    sums to N because each softmax row carries total mass 1.
    """
    affinity = row_softmax(matmul(x, x.T))
    return affinity.sum(axis=0, dtype=np.float64)


def minmax_normalize(raw: np.ndarray) -> np.ndarray:
    """Rescale to [0, 1]. A (near-)constant vector maps to all ones.

    All-ones rather than all-zeros: zero salience would annihilate every
    weighted matching score, so the degenerate case instead falls back to
    plain cosine matching.
    """
    raw = np.asarray(raw, dtype=np.float64)
    lo = raw.min()
    hi = raw.max()
    if hi - lo < DEGENERATE_RANGE:
        return np.ones_like(raw)
    return np.clip((raw - lo) / (hi - lo), 0.0, 1.0)


def salience_of(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(raw, normalized): compute_salience and its minmax_normalize.

    No tokens give two empty arrays, whose raw sum is 0 = N.
    """
    if x.shape[0] == 0:
        return np.zeros(0), np.zeros(0)
    raw = compute_salience(x)
    return raw, minmax_normalize(raw)
