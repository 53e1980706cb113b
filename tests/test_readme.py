"""The README's Python code and command-line examples run against the package as it stands."""

import re
import shlex
from pathlib import Path

import pytest

from ptrsim import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
CIRCUIT = re.search(r"^```json\n(.*?)^```", TEXT, flags=re.M | re.S).group(1)
COMMANDS = [
    shlex.split(line, comments=True)
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.M | re.S)
    for line in block.splitlines()
    if line.startswith("ptrsim ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, f"{README.name} python block", "exec"), {"__name__": "readme"})


def test_readme_quick_start_prints_the_values_its_comments_give(capsys):
    (quick_start,) = [block for block in BLOCKS if "verify_duality" in block]
    exec(compile(quick_start, f"{README.name} quick start", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1] for line in quick_start.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 4
    assert printed[1] == "70" and comments[1].split()[0] == "70"
    assert printed[3] == "((1, 0, 1), (0, 1, 1))" and comments[3].endswith(": ((1, 0, 1), (0, 1, 1))")


def test_readme_has_cli_examples():
    assert len(COMMANDS) >= 9


@pytest.mark.parametrize("argv", COMMANDS, ids=[shlex.join(argv[1:]) for argv in COMMANDS])
def test_readme_cli_example_passes(tmp_path, monkeypatch, capsys, argv):
    """Each ``ptrsim`` line, on the README's circuit document written where the line looks for it."""
    (tmp_path / "circuit.json").write_text(CIRCUIT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err
