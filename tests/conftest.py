"""Shared test fixtures and the acceptance-summary terminal hook."""

from __future__ import annotations

# One human-readable line per acceptance criterion, collected while the
# acceptance tests run and replayed after the capture ends so they are
# always visible in plain `pytest -v` output.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number} ({title}): {status} -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
