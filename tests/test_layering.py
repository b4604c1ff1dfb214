# Method names ("tome", "adamerge", ...) belong to the command line. The
# library modules take the two knobs of a RunConfig (salience on/off and
# a schedule), so none of them may import the CLI, hold an alias table
# or spell a method name. No module starts a thread or a process.

import ast
import glob
import os

import pytest

import adamerge
from adamerge.cli import METHOD_ALIASES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "adamerge")
LIBRARY = ("runtime", "calibration", "schedule", "matcher", "salience",
           "numeric", "flops")


def imported_modules(node):
    """Absolute names a (from-)import statement may bind in adamerge."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    base = ".".join(p for p in ("adamerge" if node.level else "",
                                node.module or "") if p)
    return [base] + [f"{base}.{a.name}" for a in node.names]


@pytest.mark.parametrize("module", LIBRARY)
def test_library_module_knows_no_method_name(module):
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in imported_modules(node):
                assert not (name == "adamerge.cli" or
                            name.startswith("adamerge.cli.")), \
                    f"{module} imports {name} (line {node.lineno})"
        elif isinstance(node, (ast.Name, ast.alias)):
            name = node.id if isinstance(node, ast.Name) else node.asname or node.name
            assert name != "METHOD_ALIASES", \
                f"{module} names METHOD_ALIASES (line {getattr(node, 'lineno', '?')})"
        elif isinstance(node, ast.Constant):
            assert node.value not in METHOD_ALIASES, \
                f"{module} spells method name {node.value!r} (line {node.lineno})"


def test_every_exported_name_exists():
    # a deleted class or constant must not linger in the package's exports
    missing = [name for name in adamerge.__all__ if not hasattr(adamerge, name)]
    assert not missing, missing
    assert len(set(adamerge.__all__)) == len(adamerge.__all__)


def test_no_module_starts_threads_or_processes():
    # images run one at a time; BLAS's own threads parallelize the GEMMs
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in imported_modules(node):
                    assert name.partition(".")[0] not in (
                        "threading", "_thread", "concurrent", "multiprocessing"), \
                        f"{os.path.basename(path)} imports {name} (line {node.lineno})"
