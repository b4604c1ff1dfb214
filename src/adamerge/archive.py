# Tensor archive: a directory holding manifest.json plus one little-endian
# float32 blob. The manifest maps tensor names to {shape, dtype, offset,
# length}; offsets are relative to the end of the blob's magic header.
# Round trips are bit-exact.
#
# Each tensor's bytes cross memory once: a save writes every tensor from
# its own buffer, and a load validates the whole manifest against the
# blob's size before it reads a tensor byte, then reads each tensor
# straight into its own array. Peak memory of a load is therefore
# about one payload.

import json
import os

import numpy as np

MAGIC = b"ADMGTNS1"
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"
FORMAT_ID = "adamerge-tensor-archive-v1"


class ArchiveError(ValueError):
    pass


def save_archive(path: str, tensors: dict, meta: dict | None = None) -> None:
    """Write tensors (name -> float32 array) plus free-form meta."""
    os.makedirs(path, exist_ok=True)
    entries = {}
    offset = 0
    for name in tensors:
        # ascontiguousarray below stores a scalar as shape (1,)
        shape = [int(s) for s in np.shape(tensors[name])] or [1]
        length = 4 * int(np.prod(shape, dtype=np.int64))
        entries[name] = {"shape": shape, "dtype": "f32",
                         "offset": offset, "length": length}
        offset += length
    manifest = {
        "format": FORMAT_ID,
        "meta": meta or {},
        "tensors": entries,
    }
    with open(os.path.join(path, BLOB_NAME), "wb") as f:
        f.write(MAGIC)
        for name in tensors:
            # a no-op for float32 C-contiguous input; otherwise one
            # tensor-sized conversion, released before the next tensor
            f.write(np.ascontiguousarray(tensors[name], dtype="<f4").data)
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)


def _validated_entries(manifest: dict, payload_size: int) -> dict:
    """name -> (shape, offset, length), checked against the payload size."""
    table = manifest.get("tensors")
    if not isinstance(table, dict):
        raise ArchiveError("manifest has no tensor table")
    entries = {}
    for name, entry in table.items():
        if not isinstance(entry, dict):
            raise ArchiveError(f"tensor {name}: malformed manifest entry")
        if entry.get("dtype") != "f32":
            raise ArchiveError(
                f"tensor {name}: unsupported dtype {entry.get('dtype')}")
        off, length, shape = (entry.get("offset"), entry.get("length"),
                              entry.get("shape"))
        if not (_is_count(off) and _is_count(length)):
            raise ArchiveError(
                f"tensor {name}: offset {off!r} / length {length!r} must be "
                "non-negative integers")
        if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
            raise ArchiveError(f"tensor {name}: malformed shape {shape!r}")
        shape = tuple(shape)
        if 4 * int(np.prod(shape, dtype=np.int64)) != length:
            raise ArchiveError(f"tensor {name}: length {length} != shape {shape}")
        if off + length > payload_size:
            raise ArchiveError(
                f"tensor {name}: extent beyond blob (truncated file?)")
        entries[name] = (shape, off, length)

    # sweep by offset; empty extents cover no byte and overlap nothing
    reach, owner = 0, None
    for name, (_, off, length) in sorted(
            ((n, e) for n, e in entries.items() if e[2] > 0),
            key=lambda item: item[1][1]):
        if off < reach:
            raise ArchiveError(f"tensors {owner} and {name}: extents overlap")
        reach, owner = off + length, name
    return entries


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_archive(path: str) -> tuple[dict, dict]:
    """Read back (tensors, meta); validates magic, meta, dtypes and extents.

    Every check runs before any tensor byte is read. The result maps each
    tensor name to an owned, writable, C-contiguous float32 array.
    """
    manifest_path = os.path.join(path, MANIFEST_NAME)
    blob_path = os.path.join(path, BLOB_NAME)
    if not os.path.isfile(manifest_path) or not os.path.isfile(blob_path):
        raise ArchiveError(f"not a tensor archive: {path}")
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_ID:
        fmt = manifest.get("format") if isinstance(manifest, dict) else None
        raise ArchiveError(f"unsupported archive format: {fmt!r}")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ArchiveError(f"archive at {path}: meta must be a JSON object, "
                           f"got {json.dumps(meta)[:40]}")

    # unbuffered: readinto fills each array without a staging copy
    with open(blob_path, "rb", buffering=0) as f:
        payload_size = os.fstat(f.fileno()).st_size - len(MAGIC)
        if payload_size < 0 or f.read(len(MAGIC)) != MAGIC:
            raise ArchiveError(f"bad magic in {blob_path}")
        entries = _validated_entries(manifest, payload_size)
        tensors = {name: _read_exact(f, entries[name], name)
                   for name in sorted(entries, key=lambda n: entries[n][1])}
    return tensors, meta


def _read_exact(f, entry, name: str) -> np.ndarray:
    shape, off, length = entry
    arr = np.empty(shape, dtype="<f4")
    if length == 0:
        return arr
    f.seek(len(MAGIC) + off)
    view = memoryview(arr.reshape(-1).view(np.uint8))
    got = 0
    while got < length:
        n = f.readinto(view[got:])
        if not n:
            raise ArchiveError(
                f"tensor {name}: short read, {got} of {length} bytes "
                "(blob truncated?)")
        got += n
    return arr
