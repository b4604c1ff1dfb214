# Minimal ViT forward runtime: L pre-norm transformer blocks over a token
# sequence, with the merge step inserted before each block. The CLS token
# attends with the patches but is stripped before every merge and
# reattached afterwards, untouched.

import ctypes
import functools
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, make_dataclass

import numpy as np

from . import archive
from .matcher import execute_merge, partition, select_merges, weighted_scores
from .numeric import DTYPE, gelu, layer_norm, matmul, row_softmax
from .salience import salience_of
from .schedule import LayerStats, ScheduleConfig, r_from_z, redundancy_proxy, zscore


@dataclass
class ModelDims:
    d: int
    heads: int
    d_ff: int
    layers: int
    n_classes: int = 1000

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")


VIT_B16 = ModelDims(d=768, heads=12, d_ff=3072, layers=12)

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's own ceiling for its dynamic mmap threshold on 64-bit hosts
_HEAP_BLOCK_MAX = 32 << 20


@functools.cache
def _keep_temporaries_on_heap() -> None:
    """Serve the forward pass's numpy temporaries from the malloc heap.

    glibc maps every block above its mmap threshold (128 KiB until the
    process frees a larger mapped block) with a fresh mmap, so each
    0.1-5 MB temporary of a block page-faults on first touch and is
    unmapped on free; at d=64, N=196 that cost ~25 ms of a ~45 ms forward
    on a 2-core x86 VM. Pin the threshold at glibc's dynamic ceiling and
    the trim threshold at twice it, the values its dynamic rule moves
    towards. Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_BLOCK_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_BLOCK_MAX)


# The weight layout, written once. One block's tensors by field name (its
# archive name after "blockLL."), in field and archive order, and the
# model-level tensors by archive name with their ModelWeights field. A
# shape names sizes of ModelDims; synth_weights draws the "w_" matrices
# in this order.
BLOCK_LAYOUT = {
    "ln1_gamma": ("d",), "ln1_beta": ("d",),
    "w_qkv": ("d", "3d"), "b_qkv": ("3d",),
    "w_proj": ("d", "d"), "b_proj": ("d",),
    "ln2_gamma": ("d",), "ln2_beta": ("d",),
    "w_fc1": ("d", "d_ff"), "b_fc1": ("d_ff",),
    "w_fc2": ("d_ff", "d"), "b_fc2": ("d",),
}
HEAD_LAYOUT = {
    "final.gamma": ("final_gamma", ("d",)),
    "final.beta": ("final_beta", ("d",)),
    "head.weight": ("w_head", ("d", "n_classes")),
    "head.bias": ("b_head", ("n_classes",)),
}

BlockWeights = make_dataclass(
    "BlockWeights", [(name, np.ndarray) for name in BLOCK_LAYOUT],
    namespace={"__module__": __name__})


@dataclass
class ModelWeights:
    dims: ModelDims
    blocks: list
    final_gamma: np.ndarray
    final_beta: np.ndarray
    w_head: np.ndarray  # [d, n_classes]
    b_head: np.ndarray
    model_id: str = "synth"


@dataclass
class TokenSequence:
    cls: np.ndarray       # [d]
    patches: np.ndarray   # [N, d]
    sizes: np.ndarray | None = None

    def __post_init__(self):
        if self.sizes is None:
            self.sizes = np.ones(self.patches.shape[0], dtype=np.int64)


@dataclass
class LayerRecord:
    layer: int
    n_before: int          # patch tokens entering the merge step
    n_after: int
    r: int
    sbar: float
    z: float
    raw_salience_sum: float | None = None   # None: the step computed no salience
    edges: list = field(default_factory=list)
    sizes_total: int = 0   # sum of token sizes after the merge step
    mean_fallback: bool = False
    r_clamped: bool = False
    empty_b: bool = False
    cls_digest_pre: str = ""
    cls_digest_post: str = ""
    rep_salience: list | None = None   # per surviving token, normalized salience


@dataclass
class RunTrace:
    merging: bool          # False when the run had no merge step
    layers: list = field(default_factory=list)

    @property
    def total_merges(self) -> int:
        return sum(rec.r for rec in self.layers)


@dataclass
class RunConfig:
    """salience: weight the matching scores and aggregate merges by
    salience (else plain cosine scores and size-weighted means).
    schedule: None runs no merge step; an int merges that many tokens per
    layer; a ScheduleConfig picks r per layer and input from `stats`."""
    salience: bool = True
    schedule: int | ScheduleConfig | None = 0
    stats: LayerStats | None = None
    track_maps: bool = False

    def __post_init__(self):
        if isinstance(self.schedule, (int, np.integer)) and self.schedule < 0:
            raise ValueError(
                f"fixed merge count r must be >= 0, got r={self.schedule}")


def _digest(v: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(v).tobytes()).hexdigest()


def forward_block(tokens: np.ndarray, block: BlockWeights, dims: ModelDims) -> np.ndarray:
    """Pre-norm block: x + MHSA(LN1(x)), then + MLP(LN2(.))."""
    n, d = tokens.shape
    if d != dims.d:
        raise ValueError(f"token dim {d} != model dim {dims.d}")
    dh = dims.d // dims.heads
    scale = DTYPE(1.0 / np.sqrt(dh))

    h = layer_norm(tokens, block.ln1_gamma, block.ln1_beta)
    qkv = matmul(h, block.w_qkv)
    qkv += block.b_qkv.astype(DTYPE, copy=False)
    # one float64 copy of the float32 qkv, laid out [3, heads, n, dh] so
    # that each head's q, k and v are contiguous, serves every head
    # (matmul uses float64 operands as they are)
    qkv = qkv.reshape(n, 3, dims.heads, dh).transpose(1, 2, 0, 3).astype(
        np.float64, order="C")
    q, k, v = qkv

    attn_out = np.empty((n, d), dtype=DTYPE)
    for hd in range(dims.heads):
        logits = matmul(q[hd], k[hd].T)
        logits *= scale
        attn_out[:, hd * dh:(hd + 1) * dh] = matmul(row_softmax(logits), v[hd])
    del qkv, q, k, v  # not kept alive through the MLP
    x = tokens + matmul(attn_out, block.w_proj)
    x += block.b_proj.astype(DTYPE, copy=False)

    h = layer_norm(x, block.ln2_gamma, block.ln2_beta)
    # fresh arrays for the MLP's bias adds and no name for the hidden
    # activations: adding in place, or keeping the pre-GELU array alive
    # through the second GEMM, raised ViT-B peak RSS by 2-6 MB
    mlp = matmul(gelu(matmul(h, block.w_fc1) + block.b_fc1.astype(DTYPE, copy=False)),
                 block.w_fc2) + block.b_fc2.astype(DTYPE, copy=False)
    return x + mlp


def _merge_step(patches: np.ndarray, sizes: np.ndarray, layer: int,
                cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, LayerRecord]:
    """Run partition/score/select/merge on the patch tokens, computing
    salience only when cfg.salience or cfg.track_maps reads it.

    Returns the merged (patches, sizes) and the layer's record; writes to
    none of its arguments.
    """
    n = patches.shape[0]
    part = partition(n)
    rec = LayerRecord(layer=layer, n_before=n, n_after=n, r=0, sbar=0.0,
                      z=0.0, sizes_total=int(sizes.sum()))
    # normalized salience, computed only where something reads it: the
    # weights of a salience run, or the per-token map of track_maps
    norm = None
    if cfg.salience or cfg.track_maps:
        sal = salience_of(patches)
        rec.raw_salience_sum = float(sal.raw.sum())
        norm = sal.normalized
    if part.n_b == 0:
        rec.empty_b = True
        return patches, sizes, rec

    # the only difference between the two settings: which vectors weight
    # the scores (salience or none) and the group means (salience or sizes)
    if cfg.salience:
        score_w, merge_w = norm[:part.n_a], norm
    else:
        score_w, merge_w = None, sizes
    scores = weighted_scores(patches[:part.n_a], patches[part.n_a:], score_w)
    rec.sbar = redundancy_proxy(scores)

    sched = cfg.schedule
    if isinstance(sched, ScheduleConfig):
        rec.z = zscore(rec.sbar, cfg.stats, layer, sched.temperature)
        r = r_from_z(rec.z, sched)
    else:
        r = sched

    decision = select_merges(scores, r)
    merged, sal_out, merged_sizes, rec.mean_fallback = execute_merge(
        patches, norm, sizes, decision, merge_w)
    rec.r = decision.r
    rec.r_clamped = decision.r_clamped
    rec.edges = decision.edges
    rec.n_after = merged.shape[0]
    rec.sizes_total = int(merged_sizes.sum())
    if cfg.track_maps:
        rec.rep_salience = [float(s) for s in sal_out]
    return merged, merged_sizes, rec


def forward_model(seq_in: TokenSequence, weights: ModelWeights,
                  cfg: RunConfig) -> tuple[np.ndarray, RunTrace]:
    """Full forward pass with the merge hook before each block.

    Returns (logits, trace); seq_in and its arrays are left as given.
    schedule=None skips merging entirely and is the vanilla ViT forward.
    """
    dims = weights.dims
    if isinstance(cfg.schedule, ScheduleConfig):
        if cfg.stats is None:
            raise ValueError(
                "adaptive schedule requires calibrated stats; "
                "run calibration first (stats.json)")
        if cfg.stats.num_layers != dims.layers:
            raise ValueError(
                f"stats cover {cfg.stats.num_layers} layers, model has {dims.layers}")

    _keep_temporaries_on_heap()
    cls, patches, sizes = seq_in.cls, seq_in.patches, seq_in.sizes
    trace = RunTrace(merging=cfg.schedule is not None)

    for l, block in enumerate(weights.blocks):
        if not trace.merging:
            rec = LayerRecord(layer=l, n_before=patches.shape[0],
                              n_after=patches.shape[0], r=0, sbar=0.0, z=0.0)
        else:
            pre = _digest(cls)
            patches, sizes, rec = _merge_step(patches, sizes, l, cfg)
            rec.cls_digest_pre = pre
            rec.cls_digest_post = _digest(cls)
        trace.layers.append(rec)

        tokens = forward_block(np.concatenate([cls[None, :], patches], axis=0),
                               block, dims)
        cls, patches = tokens[0], tokens[1:]

    final = layer_norm(cls[None, :], weights.final_gamma, weights.final_beta)
    logits = matmul(final, weights.w_head)[0] + weights.b_head.astype(DTYPE)
    return logits, trace


def run_images(weights: ModelWeights, images, cfg: RunConfig,
               threads: int = 1) -> list:
    """Forward each [N, d] image with a zero CLS token; returns one
    (logits, trace) per image, in image order whatever the thread count."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got threads={threads}")

    def one(patches):
        seq = TokenSequence(cls=np.zeros(weights.dims.d, dtype=np.float32),
                            patches=np.asarray(patches, dtype=np.float32))
        return forward_model(seq, weights, cfg)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, images))
    return [one(img) for img in images]


def _weight_shapes(dims: ModelDims) -> dict:
    """Archive name -> shape of every tensor of a model, in archive order."""
    size = {"d": dims.d, "3d": 3 * dims.d, "d_ff": dims.d_ff,
            "n_classes": dims.n_classes}
    shapes = {}
    for l in range(dims.layers):
        for name, dim_names in BLOCK_LAYOUT.items():
            shapes[f"block{l:02d}.{name}"] = tuple(size[k] for k in dim_names)
    for name, (_, dim_names) in HEAD_LAYOUT.items():
        shapes[name] = tuple(size[k] for k in dim_names)
    return shapes


def _assemble(dims: ModelDims, tensors: dict, model_id: str) -> ModelWeights:
    blocks = [BlockWeights(**{name: tensors[f"block{l:02d}.{name}"]
                              for name in BLOCK_LAYOUT})
              for l in range(dims.layers)]
    return ModelWeights(dims=dims, blocks=blocks, model_id=model_id,
                        **{fld: tensors[name] for name, (fld, _) in HEAD_LAYOUT.items()})


def synth_weights(seed: int, dims: ModelDims) -> ModelWeights:
    """Seed-deterministic gaussian init (std 0.02, zero biases, unit LN)."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _weight_shapes(dims).items():
        fld = HEAD_LAYOUT[name][0] if name in HEAD_LAYOUT else name.partition(".")[2]
        if fld.startswith("w_"):
            tensors[name] = rng.normal(0.0, 0.02, size=shape).astype(DTYPE)
        else:
            init = np.ones if fld.endswith("gamma") else np.zeros
            tensors[name] = init(shape, dtype=DTYPE)
    return _assemble(dims, tensors, f"synth-{seed}")


def save_weights(weights: ModelWeights, path: str) -> None:
    tensors = {}
    for l, blk in enumerate(weights.blocks):
        for name in BLOCK_LAYOUT:
            tensors[f"block{l:02d}.{name}"] = getattr(blk, name)
    for name, (fld, _) in HEAD_LAYOUT.items():
        tensors[name] = getattr(weights, fld)
    dims = weights.dims
    meta = {"kind": "vit-weights", "model_id": weights.model_id,
            "d": dims.d, "heads": dims.heads, "d_ff": dims.d_ff,
            "layers": dims.layers, "n_classes": dims.n_classes}
    archive.save_archive(path, tensors, meta)


def load_weights(path: str) -> ModelWeights:
    tensors, meta = archive.load_archive(path)
    if meta.get("kind") != "vit-weights":
        raise archive.ArchiveError(f"archive at {path} does not hold ViT weights")
    dims = ModelDims(d=meta["d"], heads=meta["heads"], d_ff=meta["d_ff"],
                     layers=meta["layers"], n_classes=meta["n_classes"])
    for name, shape in _weight_shapes(dims).items():
        if name not in tensors:
            raise archive.ArchiveError(f"missing tensor {name}")
        if tensors[name].shape != shape:
            raise archive.ArchiveError(
                f"tensor {name}: shape {tensors[name].shape}, expected {shape}")
    return _assemble(dims, tensors, meta.get("model_id", "unknown"))
