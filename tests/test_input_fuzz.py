# Every stats.json that differs from a calibrated one in one leaf must
# either run or exit 2 with an error that names the file: never a
# traceback, never exit 1 (the code for a usage error).

import contextlib
import io
import json

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


def leaves(doc):
    """(key, index or None) of every scalar in a stats document."""
    for key, value in doc.items():
        if isinstance(value, list):
            yield from ((key, i) for i in range(len(value)))
        else:
            yield key, None


def test_one_bad_stats_leaf_runs_or_names_the_file(workspace):
    with open(workspace["stats.json"], encoding="utf-8") as f:
        doc = json.load(f)

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(leaves(doc), key=str)),
           st.sampled_from(VALUES))
    def case(leaf, value):
        bad = json.loads(json.dumps(doc))
        key, i = leaf
        if i is None:
            bad[key] = value
        else:
            bad[key][i] = value
        with open(workspace["bad"], "w", encoding="utf-8") as f:
            json.dump(bad, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["run", "--weights", workspace["weights"],
                         "--dataset", workspace["data"], "--method",
                         "adamerge", "--stats", workspace["bad"]])
        assert code in (0, 2), (leaf, value, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ") and \
                workspace["bad"] in err.getvalue(), (leaf, value, err.getvalue())

    case()
