"""README.md is checked against the code, so that what it promises holds.

- Each ```python block runs in a fresh interpreter, and the lines it prints
  are its `# ` comments, in order.
- Each `$ rxfront ...  # exit N` line runs from the repository root, exits
  N, and prints the lines shown under it (stdout, then stderr).
- The scenario field reference lists exactly the keys of the code's field
  tables, each with its table default.
"""

import functools
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rxfront import cli, scenario

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
COMMAND = re.compile(r"\$ rxfront (.*?) +# exit (\d)")

PYTHON = [body for language, body in BLOCKS if language == "python"]


def _comment(line: str):
    match = re.search(r"(?:^|\s)# (.*)$", line)
    return match and match[1]


@pytest.mark.parametrize("block", PYTHON, ids=[f"block{i}" for i in range(len(PYTHON))])
def test_python_example_prints_its_comments(block):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [c for c in map(_comment, block.splitlines()) if c is not None]


def _commands() -> list:
    """(arguments, exit code, lines shown) of each `$ rxfront` line of the
    console blocks; the lines shown run to the next `$` line or the fence."""
    commands = []
    for language, body in BLOCKS:
        for line in body.splitlines() if language == "console" else ():
            if line.startswith("$ "):
                match = COMMAND.fullmatch(line)
                assert match, f"a command line without its exit code: {line}"
                commands.append((match[1], int(match[2]), []))
            else:
                commands[-1][2].append(line)
    return commands


COMMANDS = _commands()


def test_every_command_line_is_in_a_console_block():
    assert len(COMMANDS) == len(re.findall(r"^\$ rxfront ", README, re.M)) > 0


@pytest.mark.parametrize("arguments,code,shown", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_command_line_exits_as_stated(monkeypatch, capsys, arguments, code, shown):
    monkeypatch.chdir(ROOT)
    try:
        got = cli.main(shlex.split(arguments))
    except SystemExit as exc:  # a malformed command line, as argparse exits
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert (captured.out + captured.err).splitlines() == shown


def _table_defaults() -> dict:
    """key -> its defaults, over every module-level field table of
    rxfront.scenario and the command modules, and each inline table that
    such a table reaches through an _obj checker."""
    defaults = {}

    def walk(table):
        for key, (check, default) in table.items():
            defaults.setdefault(key, []).append(default)
            if isinstance(check, functools.partial) and check.func is scenario._walk:
                walk(check.args[0])

    modules = [scenario, *(importlib.import_module(f"rxfront.commands.{name}") for name in scenario.SUBCOMMANDS)]
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, dict) and value and all(
                    isinstance(item, tuple) and len(item) == 2 and callable(item[0]) for item in value.values()):
                walk(value)
    return defaults


ENTRY = re.compile(r"`(?P<key>\w+)`: (?P<type>.+?)(?: = (?P<default>.+)| \(optional\))?")


def _reference_entries() -> list:
    """(key, default) of each entry of the field reference; the default is
    REQUIRED, OPTIONAL, a JSON value, or the text of a default that no
    table holds."""
    section = README.partition("### Scenario field reference")[2].partition("\n#")[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")][2:]  # past the header
    entries = []
    for row in rows:
        for entry in row.strip("| ").split(" | ")[1].split("; "):
            match = ENTRY.fullmatch(entry)
            assert match, f"an entry not of the form `key`: type [= default | (optional)]: {entry}"
            default = match["default"]
            if default is None:
                default = scenario.OPTIONAL if entry.endswith(" (optional)") else scenario.REQUIRED
            elif default.startswith("`") and default.endswith("`"):
                default = json.loads(default[1:-1])
            entries.append((match["key"], default))
    return entries


def test_field_reference_lists_every_table_key_with_its_default():
    defaults = _table_defaults()
    entries = _reference_entries()
    # "name" is read by parse_scenario itself, beside each subcommand's FIELDS
    assert {key for key, _ in entries} == {*defaults, "name"}
    for key, default in entries:
        if key != "name":
            assert any(d is default or d == default for d in defaults[key]), (key, default, defaults[key])
