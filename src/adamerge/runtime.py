# Minimal ViT forward runtime: L pre-norm transformer blocks over a token
# sequence, with the merge step inserted before each block. The CLS token
# attends with the patches but is stripped before every merge and
# reattached afterwards, untouched.

import ctypes
import functools
import hashlib
from dataclasses import asdict, dataclass, field, fields, make_dataclass

import numpy as np

from . import archive
from .matcher import execute_merge, partition, select_merges, weighted_scores
from .numeric import DTYPE, gelu, layer_norm, matmul, row_softmax
from .salience import salience_of
from .schedule import LayerStats, _is_int, r_from_z, redundancy_proxy, zscore


@dataclass
class ModelDims:
    d: int
    heads: int
    d_ff: int
    layers: int
    n_classes: int = 1000

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not _is_int(v) or v < 1:
                raise ValueError(f"{f.name} must be an integer >= 1, got {f.name}={v!r}")
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")

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


@dataclass
class LayerRecord:
    layer: int
    n_before: int          # patch tokens entering the merge step
    n_after: int
    r: int
    sbar: float
    z: float
    edges: list = field(default_factory=list)
    sizes_total: int = 0   # sum of token sizes after the merge step
    mean_fallback: bool = False
    r_clamped: bool = False
    empty_b: bool = False
    cls_digest_pre: str = ""
    cls_digest_post: str = ""
    rep_salience: list | None = None   # per surviving token, normalized salience


@dataclass
class RunConfig:
    """salience: weight the matching scores and aggregate merges by
    salience (else plain cosine scores and size-weighted means).
    schedule: None runs no merge step; an int merges that many tokens per
    layer; calibrated LayerStats, fitted under the same salience setting,
    pick r per layer and input."""
    salience: bool = True
    schedule: int | LayerStats | None = 0
    track_maps: bool = False

    def __post_init__(self):
        for name in ("salience", "track_maps"):
            v = getattr(self, name)
            if not isinstance(v, bool):
                raise ValueError(f"{name} must be true or false, got {name}={v!r}")
        sched = self.schedule
        if isinstance(sched, LayerStats):
            if sched.salience != self.salience:
                raise ValueError(
                    f"stats were calibrated with salience={sched.salience}, "
                    f"but the run has salience={self.salience}")
        elif sched is not None and not (_is_int(sched) and sched >= 0):
            raise ValueError(f"schedule must be None, LayerStats or a fixed "
                             f"merge count r >= 0, got r={sched!r}")

    @property
    def computes_salience(self) -> bool:
        """Whether each merge step computes salience: the weights of a
        salience run, or the per-token map of track_maps."""
        return self.schedule is not None and (self.salience or self.track_maps)


@dataclass
class RunTrace:
    config: RunConfig      # the config that ran it
    layers: list = field(default_factory=list)   # one LayerRecord per layer

    @property
    def merging(self) -> bool:  # False when the run had no merge step
        return self.config.schedule is not None

    @property
    def total_merges(self) -> int:
        return sum(rec.r for rec in self.layers)


class NonFiniteError(ValueError):
    """A forward pass produced a NaN or an infinity."""


def _check_finite(values: np.ndarray, where: str) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{where} is not finite")


def _check_shapes(seq: TokenSequence, d: int, where: str = "") -> None:
    """Name a wrongly shaped input field; np.concatenate names none."""
    if np.shape(seq.cls) != (d,):
        raise ValueError(f"{where}the input CLS token has shape "
                         f"{np.shape(seq.cls)}, expected ({d},) for d={d}")
    shape = np.shape(seq.patches)
    if len(shape) != 2 or shape[1] != d:
        raise ValueError(f"{where}the input patch tokens have shape {shape}, "
                         f"expected (N, {d}) for d={d}")


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
    """Run partition/score/select/merge on the patch tokens.

    Returns the merged (patches, sizes) and the layer's record; writes to
    none of its arguments.
    """
    n = patches.shape[0]
    n_a, n_b = partition(n)
    rec = LayerRecord(layer=layer, n_before=n, n_after=n, r=0, sbar=0.0,
                      z=0.0, sizes_total=int(sizes.sum()))
    norm = salience_of(patches) if cfg.computes_salience else None
    if n_b == 0:
        rec.empty_b = True
        return patches, sizes, rec

    # the only difference between the two settings: which vectors weight
    # the scores (salience or none) and the group means (salience or sizes)
    if cfg.salience:
        score_w, merge_w = norm[:n_a], norm
    else:
        score_w, merge_w = None, sizes
    scores = weighted_scores(patches[:n_a], patches[n_a:], score_w)
    rec.sbar = redundancy_proxy(scores)

    sched = cfg.schedule
    if isinstance(sched, LayerStats):
        rec.z = zscore(rec.sbar, sched, layer)
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


# numpy's invalid-value and overflow warnings would only precede the
# NonFiniteError that names the first non-finite block output
@np.errstate(all="ignore")
def forward_model(seq_in: TokenSequence, weights: ModelWeights,
                  cfg: RunConfig) -> tuple[np.ndarray, RunTrace]:
    """Full forward pass with the merge hook before each block.

    Returns (logits, trace); seq_in and its arrays are left as given.
    schedule=None skips merging entirely and is the vanilla ViT forward.
    Raises ValueError naming a wrongly shaped input field, and
    NonFiniteError when the input tokens, a block's output or the logits
    hold a NaN or an infinity.
    """
    dims = weights.dims
    stats = cfg.schedule
    if isinstance(stats, LayerStats) and stats.num_layers != dims.layers:
        raise ValueError(
            f"stats cover {stats.num_layers} layers, model has {dims.layers}")

    _check_shapes(seq_in, dims.d)
    cls, patches = seq_in.cls, seq_in.patches.view()  # made read-only below
    # unchecked, a bad input gives a NaN sbar or is blamed on layer 0
    _check_finite(cls, "the input CLS token")
    finite = np.isfinite(patches).all(axis=1)
    if not finite.all():
        raise NonFiniteError(
            f"the input patch token row {finite.argmin()} is not finite")

    _keep_temporaries_on_heap()
    sizes = np.ones(patches.shape[0], dtype=np.int64)
    trace = RunTrace(config=cfg)

    for l, block in enumerate(weights.blocks):
        if not trace.merging:
            rec = LayerRecord(layer=l, n_before=patches.shape[0],
                              n_after=patches.shape[0], r=0, sbar=0.0, z=0.0)
        else:
            # the merge step writes to none of its arguments, by construction
            patches.flags.writeable = sizes.flags.writeable = False
            pre = _digest(cls)
            patches, sizes, rec = _merge_step(patches, sizes, l, cfg)
            rec.cls_digest_pre = pre
            rec.cls_digest_post = _digest(cls)
        trace.layers.append(rec)

        tokens = forward_block(np.concatenate([cls[None, :], patches], axis=0),
                               block, dims)
        # n x d values, under 0.2% of a forward at d=64 and d=768: a NaN
        # stops here instead of zeroing the next merge step's scores
        _check_finite(tokens, f"the output of layer {l}")
        cls, patches = tokens[0], tokens[1:]

    final = layer_norm(cls[None, :], weights.final_gamma, weights.final_beta)
    logits = matmul(final, weights.w_head)[0] + weights.b_head.astype(DTYPE)
    _check_finite(logits, "the output of the head")
    return logits, trace


def run_images(weights: ModelWeights, images, cfg: RunConfig) -> list:
    """Forward each [N, d] image with a zero CLS token; returns one
    (logits, trace) per image, in image order.

    A wrongly shaped image raises ValueError naming the image and d.
    A non-finite image raises NonFiniteError naming the image and its
    first bad token row; a forward that turns non-finite, the first bad
    weight or, when every weight is finite, the image and the layer.
    """
    d = weights.dims.d
    results = []
    for i, img in enumerate(images):
        seq = TokenSequence(cls=np.zeros(d, dtype=np.float32),
                            patches=np.asarray(img, dtype=np.float32))
        _check_shapes(seq, d, f"on image {i} ")
        try:
            results.append(forward_model(seq, weights, cfg))
        except NonFiniteError as e:
            if not np.isfinite(seq.patches).all():  # no weight is to blame
                raise NonFiniteError(f"on image {i} {e}") from None
            raise NonFiniteError(_first_nonfinite_weight(weights) or
                                 f"every weight is finite, but on image {i} {e}") from None
    return results


def _first_nonfinite_weight(weights: ModelWeights) -> str | None:
    """Where the first NaN or infinity of the weights sits, in archive order."""
    for name, tensor in _weight_tensors(weights).items():
        if not np.isfinite(tensor).all():
            flat = np.flatnonzero(~np.isfinite(tensor))[0]
            index = tuple(int(k) for k in np.unravel_index(flat, tensor.shape))
            return f"tensor {name} holds {tensor[index]} at index {index}"
    return None


def _weight_shapes(dims: ModelDims):
    """(archive name, shape) of every tensor of a model, in archive order."""
    size = {"d": dims.d, "3d": 3 * dims.d, "d_ff": dims.d_ff,
            "n_classes": dims.n_classes}
    for l in range(dims.layers):
        for name, dim_names in BLOCK_LAYOUT.items():
            yield f"block{l:02d}.{name}", tuple(size[k] for k in dim_names)
    for name, (_, dim_names) in HEAD_LAYOUT.items():
        yield name, tuple(size[k] for k in dim_names)


def _assemble(dims: ModelDims, tensors: dict, model_id: str) -> ModelWeights:
    blocks = [BlockWeights(**{name: tensors[f"block{l:02d}.{name}"]
                              for name in BLOCK_LAYOUT})
              for l in range(dims.layers)]
    return ModelWeights(dims=dims, blocks=blocks, model_id=model_id,
                        **{fld: tensors[name] for name, (fld, _) in HEAD_LAYOUT.items()})


def synth_weights(seed: int, dims: ModelDims) -> ModelWeights:
    """Seed-deterministic gaussian init (std 0.02, zero biases, unit LN)."""
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got seed={seed!r}")
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _weight_shapes(dims):
        fld = HEAD_LAYOUT[name][0] if name in HEAD_LAYOUT else name.partition(".")[2]
        if fld.startswith("w_"):
            tensors[name] = rng.normal(0.0, 0.02, size=shape).astype(DTYPE)
        else:
            init = np.ones if fld.endswith("gamma") else np.zeros
            tensors[name] = init(shape, dtype=DTYPE)
    return _assemble(dims, tensors, f"synth-{seed}")


def _weight_tensors(weights: ModelWeights) -> dict:
    """archive name -> tensor of every weight, in archive order."""
    blocks = {f"block{l:02d}.{name}": getattr(blk, name)
              for l, blk in enumerate(weights.blocks) for name in BLOCK_LAYOUT}
    return blocks | {name: getattr(weights, fld)
                     for name, (fld, _) in HEAD_LAYOUT.items()}


def save_weights(weights: ModelWeights, path: str) -> None:
    meta = {"kind": "vit-weights", "model_id": weights.model_id,
            **asdict(weights.dims)}
    archive.save_archive(path, _weight_tensors(weights), meta)


def load_weights(path: str) -> ModelWeights:
    tensors, meta = archive.load_archive(path)
    if meta.get("kind") != "vit-weights":
        raise archive.ArchiveError(f"archive at {path} does not hold ViT weights")
    try:
        dims = ModelDims(**{f.name: meta[f.name] for f in fields(ModelDims)})
    except (KeyError, ValueError) as e:
        raise archive.ArchiveError(f"archive at {path}: bad model meta ({e})") from e
    # count before listing names: the listing of a meta that claims 10**6
    # layers would outgrow any manifest. Short of the count, the first
    # missing name is among the first len(tensors) + 1.
    want = len(BLOCK_LAYOUT) * dims.layers + len(HEAD_LAYOUT)
    if len(tensors) < want:
        missing = next(name for name, _ in _weight_shapes(dims)
                       if name not in tensors)
        raise archive.ArchiveError(
            f"archive at {path}: missing tensor {missing}; the meta describes "
            f"a {dims.layers}-layer model of {want} tensors, the manifest "
            f"holds {len(tensors)}")
    shapes = dict(_weight_shapes(dims))  # no longer than the manifest
    extra = next((name for name in tensors if name not in shapes), None)
    if extra is not None:
        raise archive.ArchiveError(f"archive at {path}: unexpected tensor {extra}; "
                                   f"the meta describes a {dims.layers}-layer model")
    for name, shape in shapes.items():  # each one is in `tensors`
        if tensors[name].shape != shape:
            raise archive.ArchiveError(f"archive at {path}: tensor {name}: shape "
                                       f"{tensors[name].shape}, expected {shape}")
    return _assemble(dims, tensors, meta.get("model_id", "unknown"))
