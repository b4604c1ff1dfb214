# tools/digest.py proves bit identity between two checkouts by a diff of
# its output, so its output must repeat byte for byte across processes.
# tools/digest.txt pins that output at the default grid, and is the one
# file that pins output bytes: the runs' logits and traces, and with
# --cli every CLI output file (archives, stats, run and compare CSVs,
# viz maps) and save_stats of hand-built stats. The tests that pin one
# file's bytes read its `cli` line (tests/committed_digests.py). A change
# that moves a number regenerates the file, and says why.

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tool(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digest.py"), *args],
        env=env, check=True, capture_output=True).stdout


def digest(*args):
    return run_tool("--models", "d16", "--images", "2", *args)


@pytest.fixture(scope="module")
def fresh():
    """This process's output of `digest.py` and of `digest.py --cli`, and
    the committed lines that another process wrote: one run of each
    serves the three tests below."""
    with open(os.path.join(ROOT, "tools", "digest.txt"), "rb") as f:
        want = f.read().decode().splitlines()
    return (run_tool().decode().splitlines(),
            run_tool("--cli").decode().splitlines(), want)


def test_output_matches_the_committed_digests(fresh):
    # tools/digest.txt is `digest.py` followed by `digest.py --cli`
    grid, cli, want = fresh
    assert grid + cli == want


def test_output_repeats_byte_for_byte(fresh):
    grid, _, want = fresh
    committed = [line for line in want if not line.startswith("cli ")]
    assert grid == committed
    labels = [line.split(" logits=")[0] for line in committed]
    # per model and image: none, then tome and adamerge at 3 fixed r and
    # adaptive, x maps off/on
    assert len(labels) == len(set(labels)) == 2 * 4 * (1 + 2 * (2 * 4))


def test_cli_output_repeats_byte_for_byte(fresh):
    _, cli, want = fresh
    committed = want[len(want) - len(cli):]
    assert cli == committed
    labels = [line.split(" sha256=")[0] for line in committed]
    # manifest + blob of 4 synth archives; stats.json of the 2 merging
    # methods on 2 calibration sets; save_stats of hand-built stats; csv +
    # stdout of 2 runs; csv of 2 runs on the stats' schedule; compare csv
    # + svg, of configs on two --stats; svg + csv of 2 viz maps at 2 images
    assert len(labels) == len(set(labels)) == \
        4 * 2 + 2 * 2 + 1 + 2 * 2 + 2 + 2 + 2 * 2 * 2
    assert all(label.startswith("cli ") for label in labels)


def test_skip_leaves_fields_out_of_the_trace_digest():
    # with the two salience fields skipped, track_maps changes no line of
    # a salience-off run
    lines = digest("--skip", "raw_salience_sum",
                   "--skip", "rep_salience").decode().splitlines()
    by_label = {}
    for line in lines:
        model, label, image, rest = line.split(" ", 3)
        by_label[label, image] = rest
    for (label, image), rest in by_label.items():
        if label.startswith("tome:") and label.endswith(":maps=0"):
            assert by_label[label[:-1] + "1", image] == rest, label
