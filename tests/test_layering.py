# Method names ("tome", "adamerge", ...) belong to the command line. The
# library modules take the two knobs of a RunConfig (salience on/off and
# a schedule), so none of them may import the CLI, hold an alias table
# or spell a method name. No module starts a thread or a process. Every
# definition has a caller outside the tests. The CLI opens files in main
# only.

import ast
import glob
import os

import pytest

import adamerge
from adamerge.cli import METHOD_ALIASES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "adamerge")
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


def parsed(*dirs):
    """(path, tree) of every .py file under the repo directories dirs."""
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(ROOT, d, "**", "*.py"),
                                     recursive=True)):
            with open(path, encoding="utf-8") as f:
                yield path, ast.parse(f.read())


def test_every_definition_has_a_caller_outside_the_tests():
    # a function, class or method that only the tests reach is code that
    # nothing runs; an export of adamerge/__init__.py is public API, and a
    # method of a subclass may be called by its base (as _Parser.error is)
    used = set(adamerge.__all__)
    for _, tree in parsed("src", "tools", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path, tree in parsed(os.path.join("src", "adamerge")):
        for node in tree.body:
            if isinstance(node, defs) and node.name not in used:
                unused.append(f"{os.path.basename(path)}:{node.name}")
            if isinstance(node, ast.ClassDef) and not node.bases:
                unused += [f"{os.path.basename(path)}:{node.name}.{m.name}"
                           for m in node.body if isinstance(m, defs)
                           and not m.name.startswith("__")
                           and m.name not in used]
    assert not unused, unused


def test_cli_opens_files_in_main_only():
    # main opens a command's outputs before any work and removes the new
    # ones if the command fails; the commands write through the library
    with open(os.path.join(SRC, "cli.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    writers = set()
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            if name.rpartition(".")[2] == "open":
                assert owner == "main", \
                    f"{owner or 'cli.py'} calls {name} (line {node.lineno})"
            elif name.rpartition(".")[2].startswith(("write", "save", "dump")):
                writers.add(name)
    assert writers and all(
        name.startswith("report.") or name in (
            "calibration.save_stats", "data.save_dataset", "save_weights")
        for name in writers), sorted(writers)
