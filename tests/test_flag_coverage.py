# Every flag of every subcommand is exercised somewhere, so a flag that
# nothing turns on cannot linger. A flag of subcommand S counts as used
# when one test function (its parametrize decorators included) spells
# both S and the flag as string literals, or when one simple statement
# or `for` loop of tools/digest.py does; that tool runs every subcommand
# from a single function, so the whole function would prove nothing.
# Every command the README or an error message shows must parse, so a
# removed flag cannot linger in a hint or a doc either.

import ast
import glob
import os
import re
import shlex

from adamerge.cli import main, make_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def help_text(capsys, *argv):
    assert main([*argv, "--help"]) == 0
    return capsys.readouterr().out


def strings(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read())


def literal_sets():
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.FunctionDef):
                yield strings(node)
    for node in ast.walk(parse(os.path.join(ROOT, "tools", "digest.py"))):
        if isinstance(node, ast.For) or (isinstance(node, ast.stmt)
                                         and not hasattr(node, "body")):
            yield strings(node)


def options(capsys):
    """(subcommand, flag) of every option that a subcommand's --help lists."""
    commands = re.search(r"\{([\w,-]+)\}", help_text(capsys)).group(1)
    return sorted({(command, flag) for command in commands.split(",")
                   for flag in re.findall(r"--[a-z][a-z-]*",
                                          help_text(capsys, command))
                   if flag != "--help"})


def test_every_flag_of_every_subcommand_is_exercised(capsys):
    units = list(literal_sets())
    unused = [(command, flag) for command, flag in options(capsys)
              if not any(command in unit and flag in unit for unit in units)]
    assert unused == []


def test_option_count(capsys):
    # A ratchet on the CLI's size: a change that adds an option moves this
    # number and justifies the option under the Options rule of
    # ROADMAP.md aim 2 (a caller outside the tests sets a second value,
    # or it is an input, a path or a method hyperparameter); one that
    # removes an option lowers it.
    opts = options(capsys)
    assert len({command for command, _ in opts}) == 6
    assert len(opts) == 38


def readme_commands():
    """Each `adamerge ...` command of the README's CLI block, with its
    continuation lines joined."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    block = text.split("\n## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("adamerge ")]


def quoted_commands():
    """Each `adamerge ...` command quoted in a string of cli.py; every
    replacement field of an f-string reads as 1."""
    for node in ast.walk(parse(os.path.join(ROOT, "src", "adamerge", "cli.py"))):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "1"
                           for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        yield from re.findall(r"`(adamerge [^`]*)`", text)


def test_every_shown_command_parses(capsys):
    readme, quoted = readme_commands(), list(quoted_commands())
    commands = re.search(r"\{([\w,-]+)\}", help_text(capsys)).group(1)
    assert {cmd.split()[1] for cmd in readme} == set(commands.split(","))
    assert quoted  # the calibrate command of a run without its stats
    unparsed = []
    for cmd in readme + quoted:
        try:
            make_parser().parse_args(shlex.split(cmd)[1:])
        except SystemExit:
            unparsed.append(cmd)
    assert unparsed == []
