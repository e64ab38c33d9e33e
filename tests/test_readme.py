"""The README's quick-start block and CLI examples run as written."""

import contextlib
import io
import re
from pathlib import Path

from infogeo.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"{README.name} quick start", "exec"), {})
    # one line per print, and the 2 x 2 unitary prints on two
    assert len(out.getvalue().splitlines()) == 5


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    lines = [line.split()[1:] for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines() if line.startswith("infogeo ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert (tmp_path / "report.csv").read_text(encoding="utf-8").startswith("command,")
