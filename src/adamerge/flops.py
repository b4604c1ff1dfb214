# Analytic FLOPs accounting over a run trace, in MACs (1 MAC = 1 FLOP;
# double every figure for the multiply+add convention).
# Per block over n tokens: qkv + output projections 4*n*d^2, attention
# score + value 2*n^2*d, MLP 2*n*d*d_ff. The merge overhead is what the
# merge step runs, counted once per layer and reported separately: the
# n_a*n_b*d cosine scores whenever B is non-empty, plus the n_patch^2*d
# affinity matrix on layers that computed salience.

from dataclasses import dataclass

from .matcher import partition


@dataclass
class FlopsReport:
    total: int            # core cost over the actual per-layer lengths
    overhead: int         # merge-step scoring + salience cost (0 when not merging)
    baseline: int         # merge-free model at the input length
    include_overhead: bool

    @property
    def grand_total(self) -> int:
        return self.total + (self.overhead if self.include_overhead else 0)

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.grand_total / self.baseline)


def block_flops(n_tokens: int, d: int, d_ff: int) -> int:
    """Core MACs of one transformer block over n_tokens tokens."""
    n = n_tokens
    return 4 * n * d * d + 2 * n * n * d + 2 * n * d * d_ff


def merge_overhead_flops(n_patch: int, d: int, salience: bool) -> int:
    """Cost of one merge step over n_patch patch tokens: the |A| x |B|
    cosine scores, plus the n_patch x n_patch affinity matrix when the
    step computes salience."""
    part = partition(n_patch)
    cost = part.n_a * part.n_b * d
    if salience:
        cost += n_patch * n_patch * d
    return cost


def model_flops(token_lengths, d: int, d_ff: int) -> int:
    """Sum of block costs for a per-layer token-length schedule."""
    return sum(block_flops(n, d, d_ff) for n in token_lengths)


def fixed_schedule_lengths(n_patch0: int, r: int, layers: int,
                           with_cls: bool = True) -> list:
    """Per-layer token counts of a fixed-r schedule, N_l = n0 - r*l.

    Layer 0 is charged at the full input length; merges at layer l show
    up in the cost of layer l+1 onward. This matches the reduction-table
    convention of ToMe-style accounting, where merging happens after a
    layer's attention.
    """
    extra = 1 if with_cls else 0
    return [max(n_patch0 - r * l, 0) + extra for l in range(layers)]


def trace_flops(trace, dims, include_overhead: bool = False) -> FlopsReport:
    """FLOPs of an actual run versus its merge-free baseline.

    Each layer is charged at the sequence length entering its merge step
    (patches + CLS), so a fixed-r run reproduces the
    N_l = 1 + n0 - r*l schedule of fixed_schedule_lengths.
    """
    total = 0
    overhead = 0
    baseline = 0
    n0 = trace.layers[0].n_before if trace.layers else 0
    for rec in trace.layers:
        n_block = rec.n_before + 1  # pre-merge patches + CLS
        total += block_flops(n_block, dims.d, dims.d_ff)
        baseline += block_flops(n0 + 1, dims.d, dims.d_ff)
        if trace.merging:
            overhead += merge_overhead_flops(
                rec.n_before, dims.d, rec.raw_salience_sum is not None)
    return FlopsReport(total=total, overhead=overhead, baseline=baseline,
                       include_overhead=include_overhead)
