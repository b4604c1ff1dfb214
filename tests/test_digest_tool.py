# tools/digest.py proves bit identity between two checkouts by a diff of
# its output, so its output must repeat byte for byte across processes.
# tools/digest.txt pins that output at the default grid, and is the one
# file that pins output bytes: the runs' logits and traces, and with
# --cli every CLI output file (archives, stats, run and compare CSVs,
# viz maps) and save_stats of hand-built stats. This file is its one
# reader, so a change that moves a number fails one test, which names
# every output that moved; the change regenerates the file, and says why.

import copy
import dataclasses
import os
import re
import subprocess
import sys

import pytest

from adamerge.runtime import LayerRecord, RunConfig, run_images

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import digest as digest_tool  # noqa: E402

REGENERATE = ("PYTHONPATH=src python tools/digest.py > tools/digest.txt\n"
              "PYTHONPATH=src python tools/digest.py --cli >> tools/digest.txt")


def run_tool(*args, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "digest.py"), *args],
        env=env, check=True, capture_output=True).stdout


def label(line):
    """A digest line's label: what precedes its first digest."""
    return re.split(r" (?:logits|sha256)=", line, maxsplit=1)[0]


def mismatch_report(committed, fresh):
    """What a fresh digest output changes of the committed lines: every
    label whose line moved, went missing or was added, with the count of
    each, then the commands that regenerate tools/digest.txt."""
    want = {label(line): line for line in committed}
    got = {label(line): line for line in fresh}
    parts = {
        "moved": [k for k in want if k in got and got[k] != want[k]],
        "missing": [k for k in want if k not in got],
        "added": [k for k in got if k not in want],
    }
    lines = ["tools/digest.txt does not match the output of tools/digest.py"]
    for kind, labels in parts.items():
        if labels:
            lines.append(f"{kind} ({len(labels)}):")
            lines.extend(f"  {k}" for k in labels)
    if not any(parts.values()):
        lines.append("the same lines, in another order or repeated")
    lines.append("a change meant to move these outputs regenerates the "
                 "file, and says why:")
    lines.append(REGENERATE)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fresh():
    """One run of `digest.py` and one of `digest.py --cli`, each in a
    process of its own, serves the three tests below."""
    return (run_tool().decode().splitlines(),
            run_tool("--cli").decode().splitlines())


def test_output_matches_the_committed_digests(fresh):
    # tools/digest.txt is `digest.py` followed by `digest.py --cli`; this
    # is the one test that a change of output bytes fails
    grid, cli = fresh
    with open(os.path.join(ROOT, "tools", "digest.txt"), "rb") as f:
        committed = f.read().decode().splitlines()
    if grid + cli != committed:
        pytest.fail(mismatch_report(committed, grid + cli), pytrace=False)


def test_output_repeats_byte_for_byte(fresh):
    # a second process, with another hash seed, prints the same bytes; a
    # change of the numbers moves both runs alike and passes here
    grid, _ = fresh
    assert run_tool(hash_seed="1").decode().splitlines() == grid
    labels = [label(line) for line in grid]
    # per model and image: none, then tome and adamerge at 3 fixed r and
    # adaptive
    assert len(labels) == len(set(labels)) == 2 * 4 * (1 + 2 * 4)


def test_cli_output_repeats_byte_for_byte(fresh):
    _, cli = fresh
    assert run_tool("--cli", hash_seed="1").decode().splitlines() == cli
    labels = [label(line) for line in cli]
    # manifest + blob of 4 synth archives; stats.json of the 2 merging
    # methods on 2 calibration sets; save_stats of hand-built stats; csv +
    # stdout of 2 runs; csv of 2 runs on the stats' schedule; compare csv
    # + svg, of configs on two --stats; svg + csv of 2 viz maps at 2 images
    assert len(labels) == len(set(labels)) == \
        4 * 2 + 2 * 2 + 1 + 2 * 2 + 2 + 2 + 2 * 2 * 2
    assert all(k.startswith("cli ") for k in labels)


def test_mismatch_report_names_each_label_that_changed():
    committed = ["d16 none image=0 logits=a trace=b",
                 "d16 none image=1 logits=c trace=d",
                 "cli synth tensors.bin sha256=e"]
    fresh = ["d16 none image=0 logits=a trace=x",
             "cli synth tensors.bin sha256=e",
             "cli save_stats stats.json sha256=f"]
    report = mismatch_report(committed, fresh).splitlines()
    assert report[1:7] == ["moved (1):", "  d16 none image=0",
                           "missing (1):", "  d16 none image=1",
                           "added (1):", "  cli save_stats stats.json"]
    assert report[-2:] == REGENERATE.splitlines()
    assert "another order" in mismatch_report(committed, committed[::-1])


def test_skip_leaves_fields_out_of_the_trace_digest():
    # a change of any record field moves the digest, except where that
    # field is skipped
    weights, images = digest_tool.make_model("d16")
    [(_, trace)] = run_images(weights, images[:1],
                              RunConfig(salience=False, schedule=3,
                                        track_maps=True))
    assert trace.total_merges > 0
    for f in dataclasses.fields(LayerRecord):
        changed = copy.deepcopy(trace)
        setattr(changed.layers[-1], f.name, "changed")
        assert digest_tool.trace_digest(changed, set()) != \
            digest_tool.trace_digest(trace, set()), f.name
        assert digest_tool.trace_digest(changed, {f.name}) == \
            digest_tool.trace_digest(trace, {f.name}), f.name


def test_skip_of_an_unknown_field_fails_before_any_run(monkeypatch, capsys):
    # --skip takes only LayerRecord field names; a typo used to print the
    # lines of no skip
    def no_model(*args):
        raise AssertionError("the tool built a model")

    monkeypatch.setattr(digest_tool, "make_model", no_model)
    with pytest.raises(SystemExit) as exit_:
        digest_tool.main(["--skip", "no_such_field"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --skip: invalid choice: 'no_such_field'" in err
