# Synthetic token datasets with a controllable redundancy level, stored
# in the tensor-archive format. Each image is a post-embedding token
# matrix: ceil(rho * N) tokens are noisy copies of up to K prototypes,
# the rest are i.i.d. gaussian.

import math

import numpy as np

from .archive import ArchiveError, load_archive, save_archive

PROTOTYPE_NOISE = 0.05
MAX_PROTOTYPES = 4


def synth_images(n_images: int, n_tokens: int, dim: int, redundancy: float,
                 seed: int, k_prototypes: int = MAX_PROTOTYPES) -> np.ndarray:
    """Seed-deterministic [n_images, n_tokens, dim] float32 batch."""
    if not 0.0 <= redundancy <= 1.0:
        raise ValueError(f"redundancy must be in [0, 1], got {redundancy}")
    if not 1 <= k_prototypes <= MAX_PROTOTYPES:
        raise ValueError(
            f"k_prototypes must be in [1, {MAX_PROTOTYPES}], got {k_prototypes}")
    rng = np.random.default_rng(seed)
    images = np.empty((n_images, n_tokens, dim), dtype=np.float32)
    for i in range(n_images):
        n_red = math.ceil(redundancy * n_tokens)
        protos = rng.normal(0.0, 1.0, size=(k_prototypes, dim))
        img = rng.normal(0.0, 1.0, size=(n_tokens, dim))
        for t in range(n_red):
            img[t] = protos[t % k_prototypes] + \
                rng.normal(0.0, PROTOTYPE_NOISE, size=dim)
        images[i] = img.astype(np.float32)
    return images


def save_dataset(path: str, images: np.ndarray, meta: dict | None = None) -> None:
    tensors = {f"image_{i:05d}": images[i] for i in range(images.shape[0])}
    full_meta = {"kind": "token-dataset",
                 "n_images": int(images.shape[0]),
                 "n_tokens": int(images.shape[1]),
                 "dim": int(images.shape[2])}
    full_meta.update(meta or {})
    save_archive(path, tensors, full_meta)


def load_dataset(path: str) -> tuple[np.ndarray, dict]:
    """Read a token dataset straight into one [n_images, n_tokens, dim] array."""
    images = None

    def image_rows(meta, shapes):
        nonlocal images
        if meta.get("kind") != "token-dataset":
            raise ArchiveError(f"archive at {path} does not hold a token dataset")
        try:
            images = np.empty((meta["n_images"], meta["n_tokens"], meta["dim"]),
                              dtype="<f4")
        except (KeyError, TypeError, ValueError) as e:
            raise ArchiveError(f"archive at {path}: bad dataset meta ({e})") from e
        return {f"image_{i:05d}": images[i] for i in range(len(images))}

    _, meta = load_archive(path, into=image_rows)
    for i, img in enumerate(images):  # one image at a time keeps the peak
        finite = np.isfinite(img).all(axis=1)
        if not finite.all():
            raise ArchiveError(f"archive at {path}: image_{i:05d} has a "
                               f"non-finite value in token row {finite.argmin()}")
    return images, meta
