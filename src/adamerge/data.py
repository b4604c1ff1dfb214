# Synthetic token datasets with a controllable redundancy level, stored
# in the tensor-archive format as one [n_images, n_tokens, dim] tensor
# `images`. Each image is a post-embedding token matrix: ceil(rho * N)
# tokens are noisy copies of the image's PROTOTYPES gaussian prototypes
# (token t copies prototype t mod PROTOTYPES), the rest are i.i.d.
# gaussian.

import math

import numpy as np

from .archive import ArchiveError, load_archive, save_archive
from .schedule import _is_int

PROTOTYPE_NOISE = 0.05
PROTOTYPES = 4


def synth_images(n_images: int, n_tokens: int, dim: int, redundancy: float,
                 seed: int) -> np.ndarray:
    """Seed-deterministic [n_images, n_tokens, dim] float32 batch."""
    for name, v in (("n_images", n_images), ("n_tokens", n_tokens),
                    ("dim", dim)):
        if not _is_int(v) or v < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {name}={v!r}")
    if not 0.0 <= redundancy <= 1.0:
        raise ValueError(f"redundancy must be in [0, 1], got {redundancy}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got seed={seed!r}")
    rng = np.random.default_rng(seed)
    images = np.empty((n_images, n_tokens, dim), dtype=np.float32)
    for i in range(n_images):
        n_red = math.ceil(redundancy * n_tokens)
        protos = rng.normal(0.0, 1.0, size=(PROTOTYPES, dim))
        img = rng.normal(0.0, 1.0, size=(n_tokens, dim))
        for t in range(n_red):
            img[t] = protos[t % PROTOTYPES] + \
                rng.normal(0.0, PROTOTYPE_NOISE, size=dim)
        images[i] = img.astype(np.float32)
    return images


def save_dataset(path: str, images: np.ndarray, meta: dict | None = None) -> None:
    """Write [n_images, n_tokens, dim] images as the one tensor `images`."""
    save_archive(path, {"images": images}, {"kind": "token-dataset", **(meta or {})})


def load_dataset(path: str) -> tuple[np.ndarray, dict]:
    """Read a token dataset as one [n_images, n_tokens, dim] array."""
    tensors, meta = load_archive(path)
    if meta.get("kind") != "token-dataset":
        raise ArchiveError(f"archive at {path} does not hold a token dataset")
    images = tensors.get("images")
    if len(tensors) != 1 or images is None or images.ndim != 3:
        first = {n: list(t.shape) for n, t in list(tensors.items())[:3]}
        raise ArchiveError(
            f"archive at {path}: a token dataset holds one 3-D tensor 'images', "
            f"found {len(tensors)} tensors {first}; re-run `adamerge synth` to "
            "rewrite it")
    for i, img in enumerate(images):  # one image at a time keeps the peak
        finite = np.isfinite(img).all(axis=1)
        if not finite.all():
            raise ArchiveError(f"archive at {path}: image {i} has a "
                               f"non-finite value in token row {finite.argmin()}")
    return images, meta
