# Analytic FLOPs accounting over a run trace, in MACs (1 MAC = 1 FLOP;
# double every figure for the multiply+add convention).
# Per block over n tokens: qkv + output projections 4*n*d^2, attention
# score + value 2*n^2*d, MLP 2*n*d*d_ff. The merge overhead is what the
# merge step runs, counted once per layer and reported separately: the
# n_a*n_b*d cosine scores whenever B is non-empty, plus the n_patch^2*d
# affinity matrix when the run computes salience.

from dataclasses import dataclass

from .matcher import partition


@dataclass
class FlopsReport:
    total: int            # core cost over the actual per-layer lengths
    overhead: int         # merge-step scoring + salience cost (0 when not merging)
    baseline: int         # merge-free model at the input length

    @property
    def reduction_pct(self) -> float:
        """Core reduction versus the baseline, overhead not counted."""
        return 100.0 * (1.0 - self.total / self.baseline)


def block_flops(n_tokens: int, d: int, d_ff: int) -> int:
    """Core MACs of one transformer block over n_tokens tokens."""
    n = n_tokens
    return 4 * n * d * d + 2 * n * n * d + 2 * n * d * d_ff


def merge_overhead_flops(n_patch: int, d: int, salience: bool) -> int:
    """Cost of one merge step over n_patch patch tokens: the |A| x |B|
    cosine scores, plus the n_patch x n_patch affinity matrix when the
    step computes salience."""
    n_a, n_b = partition(n_patch)
    cost = n_a * n_b * d
    if salience:
        cost += n_patch * n_patch * d
    return cost


def trace_flops(trace, dims) -> FlopsReport:
    """FLOPs of an actual run versus its merge-free baseline.

    Each layer is charged at the sequence length entering its merge step
    (patches + CLS), so a fixed-r run is charged N_l = 1 + n0 - r*l
    tokens at layer l: layer 0 at the full input length, the merges at
    layer l in the cost of layer l+1 onward. This is the reduction-table
    convention of ToMe-style accounting, where merging happens after a
    layer's attention. This runtime merges before each block, so block l
    executes on the n_after + 1 = 1 + n0 - r*(l+1) tokens that leave its
    merge step: for r=8 at N=196, L=12 the table claims a 27.6%
    reduction where the blocks execute 32.3% less at d=64, and 23.0%
    against 27.1% at ViT-B dims (d=768, d_ff=3072).
    """
    n0 = trace.layers[0].n_before if trace.layers else 0
    baseline = len(trace.layers) * block_flops(n0 + 1, dims.d, dims.d_ff)
    total = overhead = 0
    for rec in trace.layers:
        total += block_flops(rec.n_before + 1, dims.d, dims.d_ff)  # patches + CLS
        if trace.merging:
            overhead += merge_overhead_flops(
                rec.n_before, dims.d, trace.config.computes_salience)
    return FlopsReport(total=total, overhead=overhead, baseline=baseline)
