# tools/digest.py proves bit identity between two checkouts by a diff of
# its output, so its output must repeat byte for byte across processes.

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digest.py"),
         "--models", "d16", "--images", "2", *args],
        env=env, check=True, capture_output=True).stdout


def test_output_repeats_byte_for_byte():
    first = digest()
    assert first == digest()
    lines = first.decode().splitlines()
    # none, then 3 fixed r (+ adaptive for adamerge/adp-only) x maps off/on
    assert len(lines) == 2 * (1 + 2 * 3 + 2 * 3 + 2 * 4 + 2 * 4)


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
        if label.startswith(("tome:", "adp-only:")) and label.endswith(":maps=0"):
            assert by_label[label[:-1] + "1", image] == rest, label
