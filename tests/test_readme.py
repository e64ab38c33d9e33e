"""The README's quick-start block runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"{README.name} quick start", "exec"), {})
    # one line per print, and the 2 x 2 unitary prints on two
    assert len(out.getvalue().splitlines()) == 5
