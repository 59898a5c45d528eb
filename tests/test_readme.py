"""Every ```python block of README.md runs, and every line of its command
block exits as its comment says, so a stale snippet fails."""

import json
import pathlib
import re
import shlex

import pytest

from nilkaehler import catalog, cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
COMMANDS = re.search(r"^## Command line\n\n```\n(.*?)^```", README.read_text(),
                     re.M | re.S).group(1).splitlines()


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {})


def test_readme_has_a_command_block():
    assert len(COMMANDS) >= 9


@pytest.mark.parametrize("line", COMMANDS, ids=[c.partition("#")[0].strip() for c in COMMANDS])
def test_readme_command_exits_as_its_comment_says(line, tmp_path, monkeypatch):
    # the input files the block names: g21's algebra and its form w2
    stored = json.loads((pathlib.Path(catalog.__file__).parent / "data/g21.json").read_text())
    (tmp_path / "algebra.json").write_text(json.dumps(stored["algebra"]))
    (tmp_path / "form.json").write_text(json.dumps(stored["forms"][1]["form"]))  # w2
    monkeypatch.chdir(tmp_path)
    command, _, comment = line.partition("#")
    program, *argv = shlex.split(command)
    code = re.search(r"\bexit (\d+)", comment)
    assert program == "nilkaehler"
    assert cli.run(argv) == (int(code.group(1)) if code else 0)
