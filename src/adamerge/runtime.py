# Minimal ViT forward runtime: L pre-norm transformer blocks over a token
# sequence, with the merge step inserted before each block. The CLS token
# attends with the patches but is stripped before every merge and
# reattached afterwards, untouched.

import ctypes
import functools
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import archive
from .matcher import execute_merge, partition, select_merges, weighted_scores
from .numeric import DTYPE, gelu, layer_norm, matmul, row_softmax
from .salience import SalienceVector, salience_of
from .schedule import LayerStats, ScheduleConfig, r_from_z, redundancy_proxy, zscore

# Method names are aliases for the two knobs of a RunConfig: salience
# (weighted scores and salience aggregation) and the default schedule
# kind; "none" runs no merge step at all.
METHOD_ALIASES = {
    "none": (False, None),
    "tome": (False, "fixed"),
    "adamerge": (True, "adaptive"),
    "sw-only": (True, "fixed"),
    "adp-only": (False, "adaptive"),
}


def method_knobs(method: str) -> tuple:
    """(salience, schedule kind) of a method alias."""
    if method not in METHOD_ALIASES:
        raise ValueError(
            f"unknown method {method!r}; expected one of {tuple(METHOD_ALIASES)}")
    return METHOD_ALIASES[method]


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


@dataclass
class BlockWeights:
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    w_qkv: np.ndarray   # [d, 3d]
    b_qkv: np.ndarray
    w_proj: np.ndarray  # [d, d]
    b_proj: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    w_fc1: np.ndarray   # [d, d_ff]
    b_fc1: np.ndarray
    w_fc2: np.ndarray   # [d_ff, d]
    b_fc2: np.ndarray


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
    salience: SalienceVector | None = None
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
    raw_salience_sum: float
    edges: list = field(default_factory=list)
    merged_reps: list = field(default_factory=list)  # original ids absorbed here
    sizes_total: int = 0   # sum of token sizes after the merge step
    mean_fallback: bool = False
    r_clamped: bool = False
    empty_b: bool = False
    cls_digest_pre: str = ""
    cls_digest_post: str = ""
    rep_ids: list | None = None        # per surviving token, original id
    rep_salience: list | None = None   # matching normalized salience


@dataclass
class RunTrace:
    merging: bool          # False when the run had no merge step
    layers: list = field(default_factory=list)
    wall_time: float = 0.0

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
    use_raw_salience: bool = False
    tie_break_seed: int | None = None
    track_maps: bool = False


def _digest(v: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(v).tobytes()).hexdigest()


def forward_block(tokens: np.ndarray, block: BlockWeights, dims: ModelDims) -> np.ndarray:
    """Pre-norm block: x + MHSA(LN1(x)), then + MLP(LN2(.))."""
    n, d = tokens.shape
    if d != dims.d:
        raise ValueError(f"token dim {d} != model dim {dims.d}")
    dh = dims.d // dims.heads
    scale = 1.0 / np.sqrt(dh)

    h = layer_norm(tokens, block.ln1_gamma, block.ln1_beta)
    qkv = matmul(h, block.w_qkv) + block.b_qkv.astype(DTYPE)
    q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]

    attn_out = np.empty((n, d), dtype=DTYPE)
    for hd in range(dims.heads):
        sl = slice(hd * dh, (hd + 1) * dh)
        logits = matmul(q[:, sl], k[:, sl].T) * DTYPE(scale)
        attn_out[:, sl] = matmul(row_softmax(logits), v[:, sl])
    x = tokens + matmul(attn_out, block.w_proj) + block.b_proj.astype(DTYPE)

    h2 = layer_norm(x, block.ln2_gamma, block.ln2_beta)
    mlp = matmul(gelu(matmul(h2, block.w_fc1) + block.b_fc1.astype(DTYPE)),
                 block.w_fc2) + block.b_fc2.astype(DTYPE)
    return x + mlp


def _merge_step(seq: TokenSequence, layer: int, cfg: RunConfig,
                reps: list, rng) -> LayerRecord:
    """Run salience/partition/score/select/merge in place on seq."""
    n = seq.patches.shape[0]
    sal = salience_of(seq.patches)
    seq.salience = sal
    sal_vec = sal.raw if cfg.use_raw_salience else sal.normalized

    part = partition(n)
    rec = LayerRecord(layer=layer, n_before=n, n_after=n, r=0, sbar=0.0,
                      z=0.0, raw_salience_sum=float(sal.raw.sum()),
                      sizes_total=int(seq.sizes.sum()))
    if part.n_b == 0:
        rec.empty_b = True
        return rec

    xa = seq.patches[:part.n_a]
    xb = seq.patches[part.n_a:]
    scores = weighted_scores(xa, xb, sal_vec[:part.n_a], uniform=not cfg.salience)
    rec.sbar = redundancy_proxy(scores)

    sched = cfg.schedule
    if isinstance(sched, ScheduleConfig):
        rec.z = zscore(rec.sbar, cfg.stats, layer, sched.temperature)
        r = r_from_z(rec.z, sched, part.n_a)
    else:
        r = min(max(sched, 0), part.n_a)

    decision = select_merges(scores, r, rng=rng)
    rec.r = decision.r
    rec.r_clamped = decision.r_clamped
    rec.edges = list(decision.edges)

    patches, sal_out, sizes, fallback = execute_merge(
        seq.patches, sal_vec, seq.sizes, decision,
        mode="adamerge" if cfg.salience else "tome")
    rec.mean_fallback = fallback

    # original-token bookkeeping for merge maps
    rec.merged_reps = [reps[src] for src, _, _ in decision.edges]
    reps[:] = [reps[i] for i in decision.keep_a] + reps[part.n_a:]

    seq.patches = patches
    seq.salience = None  # stale after merging; recomputed at the next layer
    seq.sizes = sizes
    rec.n_after = patches.shape[0]
    rec.sizes_total = int(sizes.sum())
    if cfg.track_maps:
        rec.rep_ids = list(reps)
        rec.rep_salience = [float(s) for s in sal_out]
    return rec


def forward_model(seq_in: TokenSequence, weights: ModelWeights,
                  cfg: RunConfig) -> tuple[np.ndarray, RunTrace]:
    """Full forward pass with the merge hook before each block.

    Returns (logits, trace). schedule=None skips merging entirely and is
    the vanilla ViT forward.
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
    t0 = time.perf_counter()
    rng = (np.random.default_rng(cfg.tie_break_seed)
           if cfg.tie_break_seed is not None else None)
    seq = TokenSequence(cls=seq_in.cls.copy(),
                        patches=seq_in.patches.copy(),
                        sizes=seq_in.sizes.copy())
    reps = list(range(seq.patches.shape[0]))
    trace = RunTrace(merging=cfg.schedule is not None)

    for l, block in enumerate(weights.blocks):
        if not trace.merging:
            rec = LayerRecord(layer=l, n_before=seq.patches.shape[0],
                              n_after=seq.patches.shape[0], r=0,
                              sbar=0.0, z=0.0, raw_salience_sum=0.0)
        else:
            pre = _digest(seq.cls)
            rec = _merge_step(seq, l, cfg, reps, rng)
            rec.cls_digest_pre = pre
            rec.cls_digest_post = _digest(seq.cls)
        trace.layers.append(rec)

        tokens = np.concatenate([seq.cls[None, :], seq.patches], axis=0)
        tokens = forward_block(tokens, block, dims)
        seq.cls = tokens[0]
        seq.patches = tokens[1:]

    final = layer_norm(seq.cls[None, :], weights.final_gamma, weights.final_beta)
    logits = matmul(final, weights.w_head)[0] + weights.b_head.astype(DTYPE)
    trace.wall_time = time.perf_counter() - t0
    return logits, trace


def run_images(weights: ModelWeights, images, cfg: RunConfig,
               threads: int = 1) -> list:
    """Forward each [N, d] image with a zero CLS token; returns one
    (logits, trace) per image, in image order whatever the thread count."""
    def one(patches):
        seq = TokenSequence(cls=np.zeros(weights.dims.d, dtype=np.float32),
                            patches=np.asarray(patches, dtype=np.float32))
        return forward_model(seq, weights, cfg)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, images))
    return [one(img) for img in images]


def synth_weights(seed: int, dims: ModelDims) -> ModelWeights:
    """Seed-deterministic gaussian init (std 0.02, zero biases, unit LN)."""
    rng = np.random.default_rng(seed)

    def mat(*shape):
        return rng.normal(0.0, 0.02, size=shape).astype(DTYPE)

    blocks = []
    for _ in range(dims.layers):
        blocks.append(BlockWeights(
            ln1_gamma=np.ones(dims.d, dtype=DTYPE),
            ln1_beta=np.zeros(dims.d, dtype=DTYPE),
            w_qkv=mat(dims.d, 3 * dims.d),
            b_qkv=np.zeros(3 * dims.d, dtype=DTYPE),
            w_proj=mat(dims.d, dims.d),
            b_proj=np.zeros(dims.d, dtype=DTYPE),
            ln2_gamma=np.ones(dims.d, dtype=DTYPE),
            ln2_beta=np.zeros(dims.d, dtype=DTYPE),
            w_fc1=mat(dims.d, dims.d_ff),
            b_fc1=np.zeros(dims.d_ff, dtype=DTYPE),
            w_fc2=mat(dims.d_ff, dims.d),
            b_fc2=np.zeros(dims.d, dtype=DTYPE),
        ))
    return ModelWeights(
        dims=dims,
        blocks=blocks,
        final_gamma=np.ones(dims.d, dtype=DTYPE),
        final_beta=np.zeros(dims.d, dtype=DTYPE),
        w_head=mat(dims.d, dims.n_classes),
        b_head=np.zeros(dims.n_classes, dtype=DTYPE),
        model_id=f"synth-{seed}",
    )


_BLOCK_FIELDS = ("ln1_gamma", "ln1_beta", "w_qkv", "b_qkv", "w_proj", "b_proj",
                 "ln2_gamma", "ln2_beta", "w_fc1", "b_fc1", "w_fc2", "b_fc2")


def _expected_shapes(dims: ModelDims) -> dict:
    d, d_ff = dims.d, dims.d_ff
    per_block = {
        "ln1_gamma": (d,), "ln1_beta": (d,),
        "w_qkv": (d, 3 * d), "b_qkv": (3 * d,),
        "w_proj": (d, d), "b_proj": (d,),
        "ln2_gamma": (d,), "ln2_beta": (d,),
        "w_fc1": (d, d_ff), "b_fc1": (d_ff,),
        "w_fc2": (d_ff, d), "b_fc2": (d,),
    }
    shapes = {}
    for l in range(dims.layers):
        for name, shape in per_block.items():
            shapes[f"block{l:02d}.{name}"] = shape
    shapes["final.gamma"] = (d,)
    shapes["final.beta"] = (d,)
    shapes["head.weight"] = (d, dims.n_classes)
    shapes["head.bias"] = (dims.n_classes,)
    return shapes


def save_weights(weights: ModelWeights, path: str) -> None:
    tensors = {}
    for l, blk in enumerate(weights.blocks):
        for name in _BLOCK_FIELDS:
            tensors[f"block{l:02d}.{name}"] = getattr(blk, name)
    tensors["final.gamma"] = weights.final_gamma
    tensors["final.beta"] = weights.final_beta
    tensors["head.weight"] = weights.w_head
    tensors["head.bias"] = weights.b_head
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
    expected = _expected_shapes(dims)
    for name, shape in expected.items():
        if name not in tensors:
            raise archive.ArchiveError(f"missing tensor {name}")
        if tensors[name].shape != shape:
            raise archive.ArchiveError(
                f"tensor {name}: shape {tensors[name].shape}, expected {shape}")
    blocks = []
    for l in range(dims.layers):
        blocks.append(BlockWeights(**{
            name: tensors[f"block{l:02d}.{name}"] for name in _BLOCK_FIELDS}))
    return ModelWeights(
        dims=dims, blocks=blocks,
        final_gamma=tensors["final.gamma"],
        final_beta=tensors["final.beta"],
        w_head=tensors["head.weight"],
        b_head=tensors["head.bias"],
        model_id=meta.get("model_id", "unknown"),
    )
