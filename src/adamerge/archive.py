# Tensor archive: a directory holding manifest.json plus one little-endian
# float32 blob. The manifest maps tensor names to {shape, dtype, offset,
# length}; offsets are relative to the end of the blob's magic header.
# Round trips are bit-exact.
#
# A save writes every tensor from its own buffer into temporary files
# that then replace the old ones, so a reader that has the old blob
# mapped keeps its bytes. A load validates the whole manifest against
# the blob's size, then maps the blob read-only and hands out each tensor
# as a view of that one mapping: it copies no tensor byte, and the page
# cache, not the process heap, holds the payload.

import contextlib
import json
import math
import os
import sys

import numpy as np

MAGIC = b"ADMGTNS1"
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"
FORMAT_ID = "adamerge-tensor-archive-v1"


class ArchiveError(ValueError):
    pass


def read_json(path, name=None):
    """Parse the UTF-8 JSON file at `path`. A file that does not decode
    or parse raises ValueError (json.JSONDecodeError for a parse error)
    whose message starts `<name>: not valid JSON: `; `name` defaults to
    `path`."""
    name = name or path
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise json.JSONDecodeError(f"{name}: not valid JSON: {e.msg}",
                                       e.doc, e.pos) from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{name}: not valid JSON: {e}") from None


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

    def write_blob(f):
        f.write(MAGIC)
        for name in tensors:
            # a no-op for float32 C-contiguous input; otherwise one
            # tensor-sized conversion, released before the next tensor
            f.write(np.ascontiguousarray(tensors[name], dtype="<f4").data)

    _replace(path, BLOB_NAME, write_blob)
    _replace(path, MANIFEST_NAME, lambda f: f.write(
        json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")))


def _replace(path: str, name: str, write) -> None:
    """Write file `name` of directory `path` under a temporary name, then
    rename it over the old one. Truncating the old file in place instead
    would turn a mapped reader's next page fault into SIGBUS."""
    final = os.path.join(path, name)
    tmp = f"{final}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, final)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


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
        if off % 4:
            raise ArchiveError(
                f"tensor {name}: offset {off} is not a multiple of 4")
        if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
            raise ArchiveError(f"tensor {name}: malformed shape {shape!r}")
        shape = tuple(shape)
        if 4 * math.prod(shape) != length:  # Python ints: no wrap-around
            raise ArchiveError(f"tensor {name}: length {length} != shape {shape}")
        # numpy's limits: 64 dimensions, and a byte size that fits in intp
        # even for the non-zero dimensions of an empty shape
        if len(shape) > 64 or 4 * math.prod(s for s in shape if s) > sys.maxsize:
            raise ArchiveError(f"tensor {name}: shape {shape} is too large for an array")
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

    Every check runs before the blob is mapped, and every error starts
    `archive at <path>: `. The result maps each tensor name, in blob
    order, to a read-only, C-contiguous float32 view of one read-only
    mapping of the blob; writing to it raises ValueError. The mapping
    lives as long as any of the views.
    """
    try:
        return _load(path)
    except ValueError as e:  # an ArchiveError or a read_json error
        raise ArchiveError(f"archive at {path}: {e}") from None


def _load(path: str) -> tuple[dict, dict]:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    blob_path = os.path.join(path, BLOB_NAME)
    if not os.path.isfile(manifest_path) or not os.path.isfile(blob_path):
        raise ArchiveError("not a tensor archive")
    manifest = read_json(manifest_path, MANIFEST_NAME)
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_ID:
        fmt = manifest.get("format") if isinstance(manifest, dict) else None
        raise ArchiveError(f"unsupported archive format: {fmt!r}")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ArchiveError(
            f"meta must be a JSON object, got {json.dumps(meta)[:40]}")

    with open(blob_path, "rb") as f:
        payload_size = os.fstat(f.fileno()).st_size - len(MAGIC)
        if payload_size < 0 or f.read(len(MAGIC)) != MAGIC:
            raise ArchiveError(f"bad magic in {BLOB_NAME}")
        entries = _validated_entries(manifest, payload_size)
        # empty tensors cover no byte: with only those there is nothing to map
        payload = (np.memmap(f, dtype=np.uint8, mode="r", offset=len(MAGIC))
                   if any(length for _, _, length in entries.values())
                   else None)
    return {name: _view(payload, entries[name], name)
            for name in sorted(entries, key=lambda n: entries[n][1])}, meta


def _view(payload: np.ndarray, entry, name: str) -> np.ndarray:
    shape, off, length = entry
    if length == 0:  # covers no byte of the mapping
        return np.frombuffer(b"", dtype="<f4").reshape(shape)
    if off + length > len(payload):  # the blob shrank after the size check
        raise ArchiveError(
            f"tensor {name}: extent beyond the {len(payload)} mapped payload "
            "bytes (blob truncated?)")
    return np.frombuffer(payload, dtype="<f4", count=length // 4,
                         offset=off).reshape(shape)
