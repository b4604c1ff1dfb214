"""The `cli` lines of tools/digest.txt, the one file that pins output
bytes. A test that pins a file's bytes checks them against the line that
`tools/digest.py --cli` writes for the same inputs, and pastes no digest
of its own: a change that moves a number regenerates tools/digest.txt,
and these tests follow it."""

import functools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from digest import sha256  # noqa: E402,F401  (the tool's own hashing)


@functools.lru_cache(maxsize=None)
def _cli_lines():
    with open(os.path.join(ROOT, "tools", "digest.txt"), encoding="utf-8") as f:
        pairs = (line.rstrip("\n").rsplit(" sha256=", 1) for line in f
                 if line.startswith("cli "))
        return {label[len("cli "):]: digest for label, digest in pairs}


def committed(label):
    """The sha256 that tools/digest.txt pins for `cli LABEL`."""
    return _cli_lines()[label]
