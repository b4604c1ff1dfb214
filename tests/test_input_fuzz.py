# Every input file that differs from a valid one in one JSON leaf (a
# stats.json, a --labels file, or the manifest.json of the weights or of
# the dataset) or in the bytes of a tensors.bin must either run or exit 2
# with an error that names the file: never a traceback, never exit 1 (the
# code for a usage error).

import contextlib
import io
import json
import os
import shutil

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from adamerge.archive import MAGIC
from adamerge.cli import main

# what a leaf is replaced with: every JSON type, plus ints and floats
# that no float64 schedule value can take
VALUES = [None, True, False, 2**70, -2**70, 10**400, -10**400,
          float("nan"), float("inf"), float("-inf"), "x", [1.0], {"a": 1}]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {k: str(root / k) for k in ("weights", "data", "stats.json")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth-weights", "--dim", "16", "--heads", "2", "--d-ff",
                     "32", "--layers", "4", "--classes", "5", "--seed", "3",
                     "--out", paths["weights"]]) == 0
        assert main(["synth", "--images", "2", "--tokens", "24", "--dim",
                     "16", "--seed", "4", "--out", paths["data"]]) == 0
        assert main(["calibrate", "--weights", paths["weights"], "--dataset",
                     paths["data"], "--config", "adamerge:r_max=6",
                     "--out", paths["stats.json"]]) == 0
    paths["bad"] = str(root / "bad.json")
    return paths


def leaves(doc, path=()):
    """Path (keys and list indices) of every scalar in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def run_case(argv, name, must_fail, case):
    """Run the CLI on `argv`: it must exit 0 or 2 (2 when `must_fail`), and
    an error must start `error: ` and name `name`. Returns the exit code
    and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in ((2,) if must_fail else (0, 2)), (case, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("error: ") and \
            name in err.getvalue(), (case, err.getvalue())
    return code, err.getvalue()


def write_leaf(doc, bad, path, value):
    """Write `doc` with the leaf at `path` replaced by `value` to `bad`."""
    edited = json.loads(json.dumps(doc))
    parent = edited
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with open(bad, "w", encoding="utf-8") as f:
        json.dump(edited, f)


def fuzz(source, bad, argv, name, max_examples, must_fail=lambda path, v: False):
    """Run `argv` on the JSON file `bad`: `source` with one leaf replaced.
    An error must name `name`; a case where `must_fail` holds must exit 2."""
    with open(source, encoding="utf-8") as f:
        doc = json.load(f)

    @settings(max_examples=max_examples)
    @given(st.sampled_from(sorted(leaves(doc), key=str)),
           st.sampled_from(VALUES))
    def case(path, value):
        write_leaf(doc, bad, path, value)
        run_case(argv, name, must_fail(path, value), (path, value))

    case()


def write_blob(archive, data):
    """Replace the tensors.bin of `archive` by rename, so that a view of
    the old blob still held by an earlier run keeps its bytes."""
    tmp = os.path.join(archive, "tensors.bin.tmp")
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, os.path.join(archive, "tensors.bin"))


def float_at(blob, k, value):
    """`blob` with its k-th float32 after the magic set to `value`."""
    at = len(MAGIC) + 4 * k
    return blob[:at] + np.float32(value).tobytes() + blob[at + 4:]


def test_one_bad_stats_leaf_runs_or_names_the_file(workspace):
    # no replacement is the integer version 2, and the adamerge run needs
    # stats calibrated with salience true
    def must_fail(path, value):
        return path == ("version",) or (path == ("salience",) and value is not True)

    fuzz(workspace["stats.json"], workspace["bad"],
         ["run", "--weights", workspace["weights"], "--dataset",
          workspace["data"], "--config", "adamerge", "--stats",
          workspace["bad"]], workspace["bad"], 300, must_fail)


@pytest.mark.parametrize("which,max_examples", [("weights", 150), ("data", 60)])
def test_one_bad_manifest_leaf_runs_or_names_the_archive(workspace, tmp_path,
                                                         which, max_examples):
    paths = {k: workspace[k] for k in ("weights", "data")}
    paths[which] = str(shutil.copytree(workspace[which], tmp_path / which))
    fuzz(os.path.join(workspace[which], "manifest.json"),
         os.path.join(paths[which], "manifest.json"),
         ["run", "--weights", paths["weights"], "--dataset", paths["data"],
          "--config", "tome:r=2"], f"archive at {paths[which]}",
         max_examples)


def bad_archive(workspace, tmp_path, which):
    """Copy of the `which` archive, the `run` argv that reads it, and its
    original blob."""
    paths = {k: workspace[k] for k in ("weights", "data")}
    paths[which] = str(shutil.copytree(workspace[which], tmp_path / which))
    with open(os.path.join(paths[which], "tensors.bin"), "rb") as f:
        blob = f.read()
    argv = ["run", "--weights", paths["weights"], "--dataset", paths["data"],
            "--config", "adamerge", "--stats", workspace["stats.json"]]
    return paths[which], argv, blob


@pytest.mark.parametrize("which", ["weights", "data"])
def test_cut_extended_or_unmagic_blob_names_the_archive(workspace, tmp_path,
                                                        which):
    path, argv, blob = bad_archive(workspace, tmp_path, which)
    edits = {f"cut-{n}": blob[:n]
             for n in (0, 4, 7, 8, len(blob) // 2, len(blob) - 1)}
    edits.update({f"append-{n}": blob + b"\0" * n for n in (1, 4)})
    edits.update({f"flip-magic-{i}": blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:]
                  for i in range(len(MAGIC))})
    for case, data in edits.items():
        write_blob(path, data)
        run_case(argv, f"archive at {path}: ", True, case)


def test_non_finite_token_names_its_image_and_row(workspace, tmp_path):
    path, argv, blob = bad_archive(workspace, tmp_path, "data")

    # the dataset holds 2 images of 24 tokens of dim 16
    @settings(max_examples=30)
    @given(st.integers(0, 2 * 24 * 16 - 1),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def case(k, value):
        write_blob(path, float_at(blob, k, value))
        _, err = run_case(argv, path, True, (k, value))
        assert err == (f"error: archive at {path}: image {k // (24 * 16)} has "
                       f"a non-finite value in token row {k // 16 % 24}\n")

    case()


# plants whose effect vanishes before the logits (the run exits 0 with
# finite logits). A sweep of every element of every tensor of this model
# with each value found none: each NaN or infinity reaches a block output
# or the head's output, where the forward checks it.
VANISHING = []


def test_non_finite_weight_names_its_tensor(workspace, tmp_path):
    path, argv, blob = bad_archive(workspace, tmp_path, "weights")
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as f:
        entries = json.load(f)["tensors"]
    vanished, start = [], 0
    for name, shape in entries:
        size = int(np.prod(shape))
        for value in (np.nan, np.inf, -np.inf):
            # the middle element of every tensor
            write_blob(path, float_at(blob, start + size // 2, value))
            code, err = run_case(argv, f"archive at {path}: ", False,
                                 (name, value))
            if code == 0:
                vanished.append((name, value))
            else:
                index = np.unravel_index(size // 2, shape)
                assert err == (f"error: archive at {path}: tensor {name} holds "
                               f"{np.float32(value)} at index "
                               f"{tuple(int(i) for i in index)}\n")
        start += size
    assert vanished == VANISHING


def test_one_bad_labels_leaf_runs_or_names_the_file(workspace, tmp_path):
    # every leaf of a valid labels file (2 images, 5 classes), replaced
    # with every value
    bad = str(tmp_path / "labels.json")
    argv = ["run", "--weights", workspace["weights"], "--dataset",
            workspace["data"], "--config", "tome:r=2", "--labels", bad]
    for path in leaves([0, 4]):
        for value in VALUES:
            write_leaf([0, 4], bad, path, value)
            run_case(argv, bad, False, (path, value))
