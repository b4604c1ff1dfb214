# Bipartite soft matching over a sequential index split:
# score each A token against every B token, link each A token to its best
# B token, merge the top-r links. Scores and group means are weighted by
# the vectors the caller passes: salience for adamerge, none (plain
# cosine) and token sizes for the ToMe baseline.

from dataclasses import dataclass, field

import numpy as np

from .numeric import DTYPE, cosine_matrix

ZERO_WEIGHT_EPS = 1e-12


@dataclass(frozen=True)
class Partition:
    """Sequential split of n patch tokens: A = [0, n_a), B = [n_a, n)."""
    n_a: int
    n_b: int


def partition(n_patch_tokens: int) -> Partition:
    """Split tokens [0, n) into A = first half, B = second half.

    Odd n gives A the extra token. n < 2 yields an empty B, which forces
    r = 0 downstream (nothing to merge into).
    """
    if n_patch_tokens < 2:
        return Partition(n_a=n_patch_tokens, n_b=0)
    n_a = (n_patch_tokens + 1) // 2
    return Partition(n_a=n_a, n_b=n_patch_tokens - n_a)


@dataclass
class MergeDecision:
    """Chosen merges for one layer.

    edges: (source index in A, dest index in B, score), one per merged
    A token, sorted by source index. The rest follows from the edges:
    r = len(edges) tokens removed, groups maps each dest in B to its
    sources in A, keep_a lists the A tokens that survive, in order.
    """
    n_a: int
    n_b: int
    edges: list = field(default_factory=list)
    r_clamped: bool = False
    r: int = field(init=False)
    groups: dict = field(init=False)
    keep_a: list = field(init=False)

    def __post_init__(self):
        self.r = len(self.edges)
        self.groups = {}
        for src, dst, _ in self.edges:
            self.groups.setdefault(dst, []).append(src)
        merged = {src for src, _, _ in self.edges}
        self.keep_a = [i for i in range(self.n_a) if i not in merged]

    @property
    def survivors(self) -> list:
        """Retained token indices: surviving A tokens, then all of B."""
        return self.keep_a + list(range(self.n_a, self.n_a + self.n_b))


def weighted_scores(xa: np.ndarray, xb: np.ndarray,
                    sa: np.ndarray | None) -> np.ndarray:
    """Matching score S[i][j] = sa[i] * cos(xa_i, xb_j).

    sa=None gives the plain cosine scores of the ToMe baseline.
    """
    if sa is not None and len(sa) != xa.shape[0]:
        raise ValueError(
            f"salience length {len(sa)} != |A| = {xa.shape[0]}")
    cos = cosine_matrix(xa, xb)
    if sa is None:
        return cos
    return (sa.astype(np.float64)[:, None] * cos.astype(np.float64)).astype(DTYPE)


def select_merges(scores: np.ndarray, r: int) -> MergeDecision:
    """Pick the r best per-row-argmax edges.

    Each A row's candidate is its highest-scoring B column (ties to the
    lower column). The r candidates with the largest scores win; score
    ties go to the lower source index. r > |A| is clamped and flagged.
    """
    n_a, n_b = scores.shape
    if n_a == 0 or n_b == 0:
        return MergeDecision(n_a=n_a, n_b=n_b)
    r_clamped = r > n_a
    r = max(min(r, n_a), 0)

    best_j = scores.argmax(axis=1)  # first occurrence wins ties
    best_s = scores[np.arange(n_a), best_j].astype(np.float64)
    # score descending; the stable sort keeps tied rows in index order
    order = np.argsort(-best_s, kind="stable")

    edges = [(i, int(best_j[i]), float(best_s[i]))
             for i in sorted(order[:r].tolist())]
    return MergeDecision(n_a=n_a, n_b=n_b, edges=edges, r_clamped=r_clamped)


def execute_merge(patches: np.ndarray, salience: np.ndarray | None,
                  sizes: np.ndarray, decision: MergeDecision,
                  weights: np.ndarray):
    """Apply a MergeDecision to the token arrays.

    Group feature = `weights`-weighted mean over dest plus sources (the
    salience for adamerge, the sizes for ToMe), merged salience = group
    max, sizes add. Unmerged tokens pass through bit-identically; output
    order is surviving A tokens then B tokens (original order).

    Returns (patches, salience, sizes, mean_fallback) where mean_fallback
    reports that some group had zero total weight and fell back to the
    arithmetic mean. salience=None carries no salience through the merge
    and returns None in its place.
    """
    n_a = decision.n_a
    n = patches.shape[0]
    if n != n_a + decision.n_b:
        raise ValueError(
            f"decision built for {n_a + decision.n_b} tokens, got {n}")

    if salience is not None:
        salience = np.asarray(salience, dtype=np.float64).copy()
        new_b_sal = salience[n_a:].copy()
    sizes = np.asarray(sizes, dtype=np.int64).copy()
    weights = np.asarray(weights, dtype=np.float64)
    new_b = patches[n_a:].copy()
    new_b_sizes = sizes[n_a:].copy()

    mean_fallback = False
    for j, sources in decision.groups.items():
        members = [n_a + j] + list(sources)
        feats = patches[members].astype(np.float64)
        w = weights[members]
        wsum = w.sum()
        if wsum <= ZERO_WEIGHT_EPS:
            mean_fallback = True
            merged = feats.mean(axis=0)
        else:
            merged = (w[:, None] * feats).sum(axis=0) / wsum
        new_b[j] = merged.astype(DTYPE)
        if salience is not None:
            new_b_sal[j] = salience[members].max()
        new_b_sizes[j] = sizes[members].sum()

    keep_a = decision.keep_a
    out_patches = np.concatenate([patches[keep_a], new_b], axis=0)
    out_salience = (None if salience is None
                    else np.concatenate([salience[keep_a], new_b_sal]))
    out_sizes = np.concatenate([sizes[keep_a], new_b_sizes])
    return out_patches, out_salience, out_sizes, mean_fallback


def reconstruction_gap(xi: np.ndarray, xj: np.ndarray,
                       si: float, sj: float) -> tuple[float, float]:
    """Error reduction of salience-weighted over uniform averaging.

    Under the salience-weighted squared-error objective
    l(x) = si*||xi-x||^2 + sj*||xj-x||^2, the uniform mean incurs
    l = (si+sj)/4 * D and the weighted mean l = si*sj/(si+sj) * D with
    D = ||xi-xj||^2, so

        gap_exact   = (si-sj)^2 / (4*(si+sj))   * D
        gap_leading = (si-sj)^2 / (2*(si+sj)^2) * D

    gap_leading is the second-order term; the two coincide when
    si + sj = 2. Both are >= 0, zero iff si == sj or xi == xj.
    """
    if si <= 0 or sj <= 0:
        raise ValueError(f"saliences must be positive, got si={si}, sj={sj}")
    diff = np.asarray(xi, dtype=np.float64) - np.asarray(xj, dtype=np.float64)
    d2 = float(diff @ diff)
    gap_exact = (si - sj) ** 2 / (4.0 * (si + sj)) * d2
    gap_leading = (si - sj) ** 2 / (2.0 * (si + sj) ** 2) * d2
    return gap_exact, gap_leading
