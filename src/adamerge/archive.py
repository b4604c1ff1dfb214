# Tensor archive: a directory holding manifest.json plus one blob,
# tensors.bin: a magic header, then each tensor's little-endian float32
# bytes back to back. The manifest lists the tensors as [name, shape]
# pairs in blob order, so a tensor starts where the one before it ends
# and every payload byte belongs to exactly one tensor. Round trips are
# bit-exact.
#
# A save writes every tensor from its own buffer into temporary files
# that then replace the old ones, so a reader that has the old blob
# mapped keeps its bytes. A load checks the manifest and that the blob
# holds exactly the listed tensors' bytes, then maps the blob read-only
# and hands out each tensor as a view of that one mapping: it copies no
# tensor byte, and the page cache, not the process heap, holds the
# payload.

import contextlib
import json
import math
import os
import sys

import numpy as np

MAGIC = b"ADMGTNS1"
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"
FORMAT_ID = "adamerge-tensor-archive-v2"


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
    manifest = {
        "format": FORMAT_ID,
        "meta": meta or {},
        # ascontiguousarray below stores a scalar as shape (1,)
        "tensors": [[name, [int(s) for s in np.shape(t)] or [1]]
                    for name, t in tensors.items()],
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


def _shapes(manifest: dict) -> dict:
    """name -> shape of every tensor, in blob order."""
    table = manifest.get("tensors")
    if not isinstance(table, list):
        raise ArchiveError("manifest has no tensor list")
    shapes = {}
    for entry in table:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], list)):
            raise ArchiveError(f"malformed tensor entry {json.dumps(entry)[:60]}; "
                               "expected [name, shape]")
        name, shape = entry
        if name in shapes:
            raise ArchiveError(f"tensor {name} is listed twice")
        if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                   for s in shape):
            raise ArchiveError(f"tensor {name}: malformed shape {shape!r}")
        shape = tuple(shape)
        # numpy's limits: 64 dimensions, and a byte size that fits in intp
        # even for the non-zero dimensions of an empty shape (Python ints:
        # no wrap-around)
        if len(shape) > 64 or 4 * math.prod(s for s in shape if s) > sys.maxsize:
            raise ArchiveError(f"tensor {name}: shape {shape} is too large for an array")
        shapes[name] = shape
    return shapes


def load_archive(path: str) -> tuple[dict, dict]:
    """Read back (tensors, meta).

    Every check runs before the blob is mapped, and every error starts
    `archive at <path>: `. The blob must hold exactly 4 bytes per listed
    element after its magic. The result maps each tensor name, in blob
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
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != FORMAT_ID:
        raise ArchiveError(
            f"unsupported archive format {fmt!r} (this build reads "
            f"{FORMAT_ID!r}; re-run the adamerge synth-weights or synth "
            "command that wrote it)")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ArchiveError(
            f"meta must be a JSON object, got {json.dumps(meta)[:40]}")
    shapes = _shapes(manifest)
    total = sum(math.prod(shape) for shape in shapes.values())  # elements

    with open(blob_path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise ArchiveError(f"bad magic in {BLOB_NAME}")
        payload_size = os.fstat(f.fileno()).st_size - len(MAGIC)
        if payload_size != 4 * total:
            raise ArchiveError(
                f"{BLOB_NAME} holds {payload_size} bytes after its magic, but "
                f"the manifest's tensors take {4 * total} (truncated or "
                "extended file?)")
        # with only empty tensors there is nothing to map
        payload = (np.memmap(f, dtype=np.uint8, mode="r", offset=len(MAGIC))
                   if total else b"")
    if len(payload) < 4 * total:  # the blob shrank after the size check
        raise ArchiveError(
            f"only {len(payload)} of the {4 * total} payload bytes of "
            f"{BLOB_NAME} were mapped (blob truncated?)")
    flat = np.frombuffer(payload, dtype="<f4", count=total)
    tensors, start = {}, 0
    for name, shape in shapes.items():  # each starts where the last ended
        count = math.prod(shape)
        tensors[name] = flat[start:start + count].reshape(shape)
        start += count
    return tensors, meta
