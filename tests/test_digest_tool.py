# tools/digest.py proves bit identity between two checkouts by a diff of
# its output, so its output must repeat byte for byte across processes.
# tools/digest.txt pins that output at the default grid: a change that
# moves a number regenerates the file, and says why.

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tool(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digest.py"), *args],
        env=env, check=True, capture_output=True).stdout


def digest(*args):
    return run_tool("--models", "d16", "--images", "2", *args)


def test_output_matches_the_committed_digests():
    # tools/digest.txt is `digest.py` followed by `digest.py --cli`
    with open(os.path.join(ROOT, "tools", "digest.txt"), "rb") as f:
        want = f.read().decode().splitlines()
    assert (run_tool() + run_tool("--cli")).decode().splitlines() == want


def test_cli_output_repeats_byte_for_byte():
    first = digest("--cli")
    assert first == digest("--cli")
    labels = [line.split(" sha256=")[0] for line in first.decode().splitlines()]
    # manifest + blob of 2 synth archives; stats.json of the 2 merging
    # methods; csv + stdout of 2 runs; csv of 1 run on the stats'
    # schedule; compare csv + svg, of configs on two --stats; svg + csv
    # of 2 viz maps
    assert len(labels) == len(set(labels)) == 2 * 2 + 2 + 2 * 2 + 1 + 2 + 2 * 2


def test_output_repeats_byte_for_byte():
    first = digest()
    assert first == digest()
    lines = first.decode().splitlines()
    # per image: none, then tome and adamerge at 3 fixed r and adaptive,
    # x maps off/on
    assert len(lines) == 2 * (1 + 2 * (2 * 4))


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
