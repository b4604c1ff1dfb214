# Every input file that differs from a valid one in one JSON leaf (a
# stats.json, or the manifest.json of the weights or of the dataset) must
# either run or exit 2 with an error that names the file: never a
# traceback, never exit 1 (the code for a usage error).

import contextlib
import io
import json
import os
import shutil

from hypothesis import given, settings, strategies as st
import pytest

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
                     paths["data"], "--r-max", "6", "--passes", "1",
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


def fuzz(source, bad, argv, name, max_examples, must_fail=lambda path, v: False):
    """Run `argv` on the JSON file `bad`: `source` with one leaf replaced.
    An error must name `name`; a case where `must_fail` holds must exit 2."""
    with open(source, encoding="utf-8") as f:
        doc = json.load(f)

    @settings(max_examples=max_examples)
    @given(st.sampled_from(sorted(leaves(doc), key=str)),
           st.sampled_from(VALUES))
    def case(path, value):
        edited = json.loads(json.dumps(doc))
        parent = edited
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with open(bad, "w", encoding="utf-8") as f:
            json.dump(edited, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in ((2,) if must_fail(path, value) else (0, 2)), \
            (path, value, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ") and \
                name in err.getvalue(), (path, value, err.getvalue())

    case()


def test_one_bad_stats_leaf_runs_or_names_the_file(workspace):
    # no replacement is the integer version 2, and the adamerge run needs
    # stats calibrated with salience true
    def must_fail(path, value):
        return path == ("version",) or (path == ("salience",) and value is not True)

    fuzz(workspace["stats.json"], workspace["bad"],
         ["run", "--weights", workspace["weights"], "--dataset",
          workspace["data"], "--method", "adamerge", "--stats",
          workspace["bad"]], workspace["bad"], 300, must_fail)


@pytest.mark.parametrize("which,max_examples", [("weights", 150), ("data", 60)])
def test_one_bad_manifest_leaf_runs_or_names_the_archive(workspace, tmp_path,
                                                         which, max_examples):
    paths = {k: workspace[k] for k in ("weights", "data")}
    paths[which] = str(shutil.copytree(workspace[which], tmp_path / which))
    fuzz(os.path.join(workspace[which], "manifest.json"),
         os.path.join(paths[which], "manifest.json"),
         ["run", "--weights", paths["weights"], "--dataset", paths["data"],
          "--method", "tome", "--r", "2"], f"archive at {paths[which]}",
         max_examples)
