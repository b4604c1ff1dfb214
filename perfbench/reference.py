# Independent reference forward pass and calibration for the benchmark's
# correctness gate. It shares no code with the package: it follows the
# documented numerics (float32 storage, float64 accumulation, the same
# operation order) so that per-layer merge counts match the package
# exactly and logits match to the last bit on the platform it was
# written for. The gate itself allows a stated logits tolerance.

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

F32 = np.float32
F64 = np.float64
LN_EPS = 1e-6
SALIENCE_DEGENERATE = 1e-9
ZERO_WEIGHT_EPS = 1e-12
SIGMA_FLOOR = 1e-6


@dataclass
class RefModel:
    blocks: list          # per block: dict of the twelve block tensors
    final_gamma: np.ndarray
    final_beta: np.ndarray
    w_head: np.ndarray
    b_head: np.ndarray
    heads: int


@dataclass(frozen=True)
class RefConfig:
    """One benchmark config: merge weighting plus fixed or adaptive r."""
    merge: bool = True
    weighted: bool = False   # salience-weighted scores and aggregation
    fixed_r: int | None = None
    r_max: int = 0
    alpha: float = 1.0
    temperature: float = 1.0


def _mm(a, b):
    return (a.astype(F64) @ b.astype(F64)).astype(F32)


def _softmax(m):
    m64 = m.astype(F64)
    m64 = m64 - m64.max(axis=1, keepdims=True)
    e = np.exp(m64)
    return (e / e.sum(axis=1, keepdims=True)).astype(F32)


def _layer_norm(x, gamma, beta):
    x64 = x.astype(F64)
    mu = x64.mean(axis=1, keepdims=True)
    var = x64.var(axis=1, keepdims=True)
    out = (x64 - mu) / np.sqrt(var + LN_EPS) * gamma.astype(F64) + beta.astype(F64)
    return out.astype(F32)


def _gelu(x):
    x64 = x.astype(F64)
    return (0.5 * x64 * (1.0 + erf(x64 / np.sqrt(2.0)))).astype(F32)


def _cosine(a, b):
    a64, b64 = a.astype(F64), b.astype(F64)
    denom = np.outer(np.linalg.norm(a64, axis=1), np.linalg.norm(b64, axis=1))
    dots = a64 @ b64.T
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0).astype(F32)


def _block(t, w, heads):
    n, d = t.shape
    dh = d // heads
    h = _layer_norm(t, w["ln1_gamma"], w["ln1_beta"])
    qkv = _mm(h, w["w_qkv"]) + w["b_qkv"]
    q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
    attn = np.empty((n, d), dtype=F32)
    for hd in range(heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        attn[:, sl] = _mm(_softmax(_mm(q[:, sl], k[:, sl].T) * F32(1.0 / np.sqrt(dh))),
                          v[:, sl])
    x = t + _mm(attn, w["w_proj"]) + w["b_proj"]
    h2 = _layer_norm(x, w["ln2_gamma"], w["ln2_beta"])
    return x + (_mm(_gelu(_mm(h2, w["w_fc1"]) + w["b_fc1"]), w["w_fc2"]) + w["b_fc2"])


def _logistic(z):
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def _merge(patches, sizes, cfg, layer, mu, sigma):
    """One merge step; returns (patches, sizes, r, sbar)."""
    n = patches.shape[0]
    raw = _softmax(_mm(patches, patches.T)).astype(F64).sum(axis=0)
    lo, hi = raw.min(), raw.max()
    sal = (np.ones_like(raw) if hi - lo < SALIENCE_DEGENERATE
           else np.clip((raw - lo) / (hi - lo), 0.0, 1.0))
    if n < 2:
        return patches, sizes, 0, 0.0
    n_a = (n + 1) // 2
    scores = _cosine(patches[:n_a], patches[n_a:])
    if cfg.weighted:
        scores = (sal[:n_a].astype(F64)[:, None] * scores.astype(F64)).astype(F32)
    sbar = float(scores.astype(F64).max(axis=1).mean())
    if cfg.fixed_r is None:
        z = float((sbar - mu[layer]) / sigma[layer] / cfg.temperature)
        r = int(np.floor(cfg.r_max * _logistic(cfg.alpha * z)))
    else:
        r = cfg.fixed_r
    r = max(0, min(r, n_a))
    if r == 0:
        return patches, sizes, 0, sbar

    best_j = scores.argmax(axis=1)
    best_s = scores[np.arange(n_a), best_j].astype(F64)
    chosen = np.sort(np.argsort(-best_s, kind="stable")[:r])
    groups = {}
    for i in chosen:
        groups.setdefault(int(best_j[i]), []).append(int(i))
    weights = sal if cfg.weighted else sizes.astype(F64)
    new_b = patches[n_a:].copy()
    new_sizes = sizes[n_a:].copy()
    for j, sources in groups.items():
        members = [n_a + j] + sources
        feats = patches[members].astype(F64)
        w = weights[members]
        wsum = w.sum()
        merged = (feats.mean(axis=0) if wsum <= ZERO_WEIGHT_EPS
                  else (w[:, None] * feats).sum(axis=0) / wsum)
        new_b[j] = merged.astype(F32)
        new_sizes[j] = sizes[members].sum()
    keep = np.setdiff1d(np.arange(n_a), chosen)
    return (np.concatenate([patches[keep], new_b], axis=0),
            np.concatenate([sizes[keep], new_sizes]), r, sbar)


def forward(model: RefModel, patches, cfg: RefConfig, mu=None, sigma=None):
    """Returns (logits float32 [classes], r per layer, sbar per layer)."""
    d = patches.shape[1]
    cls = np.zeros(d, dtype=F32)
    patches = np.asarray(patches, dtype=F32).copy()
    sizes = np.ones(patches.shape[0], dtype=np.int64)
    rs, sbars = [], []
    for layer, w in enumerate(model.blocks):
        r, sbar = 0, 0.0
        if cfg.merge:
            patches, sizes, r, sbar = _merge(patches, sizes, cfg, layer, mu, sigma)
        rs.append(r)
        sbars.append(sbar)
        tokens = _block(np.concatenate([cls[None, :], patches], axis=0), w, model.heads)
        cls, patches = tokens[0], tokens[1:]
    final = _layer_norm(cls[None, :], model.final_gamma, model.final_beta)
    return _mm(final, model.w_head)[0] + model.b_head, rs, sbars


def calibrate(model: RefModel, images, r_max, passes=2, alpha=1.0, temperature=1.0):
    """Two-pass refinement: pass 0 at fixed r = r_max // 2, later passes
    adaptive against the previous pass. Returns (mu, sigma) per layer."""
    mu = sigma = None
    for p in range(passes):
        cfg = RefConfig(weighted=True, r_max=r_max, alpha=alpha,
                        temperature=temperature,
                        fixed_r=r_max // 2 if p == 0 else None)
        rows = [forward(model, img, cfg, mu, sigma)[2] for img in images]
        samples = np.asarray(rows, dtype=F64).T
        mu = samples.mean(axis=1)
        sigma = np.maximum(samples.std(axis=1), SIGMA_FLOOR)
    return mu, sigma
