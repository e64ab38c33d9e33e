"""Report data model and deterministic JSON/CSV serialization.

Reports are plain trees of dicts, lists, strings, bools and numbers.  Floats
are printed with 17 significant digits so every value round-trips double
precision exactly, and key order is fixed by construction, making two reports
from the same configuration byte-identical apart from the duration field.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError

# comparison kinds for a check row
WITHIN = "within"  # pass iff |value - target| <= tolerance
LE = "le"          # pass iff value <= tolerance  (target is 0)
GE = "ge"          # pass iff value >= target     (tolerance unused)


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    target: float
    tolerance: float
    comparison: str
    passed: bool


def _finite(x) -> float:
    v = float(x)
    if not np.isfinite(v):
        raise ValidationError(f"check values must be finite, got {v!r}")
    return v


def check_within(name: str, value, target, tolerance, overrides=None) -> CheckResult:
    tolerance = float(_lookup(overrides, name, tolerance))
    value, target = _finite(value), float(target)
    return CheckResult(name, value, target, tolerance, WITHIN,
                       abs(value - target) <= tolerance)


def check_le(name: str, value, bound, overrides=None) -> CheckResult:
    bound = float(_lookup(overrides, name, bound))
    value = _finite(value)
    return CheckResult(name, value, 0.0, bound, LE, value <= bound)


def check_ge(name: str, value, floor, overrides=None) -> CheckResult:
    floor = float(_lookup(overrides, name, floor))
    value = _finite(value)
    return CheckResult(name, value, floor, 0.0, GE, value >= floor)


def _lookup(overrides, name: str, default):
    if overrides and name in overrides:
        return overrides[name]
    return default


@dataclass
class Report:
    command: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    duration_seconds: float = 0.0

    @property
    def overall_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def _write_json(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _write_json(val, out, indent + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for k, val in enumerate(obj):
            out.append(pad + "  ")
            _write_json(val, out, indent + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append("true" if obj is True else "false" if obj is False else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} into a report")


def json_text(tree: dict) -> str:
    out: list[str] = []
    _write_json(tree, out, 0)
    out.append("\n")
    return "".join(out)


def array_to_json(arr) -> dict:
    """Row-major array payload with a dimension header; complex arrays carry
    separate real and imaginary parts."""
    a = np.asarray(arr)
    if np.iscomplexobj(a):
        return {
            "shape": list(a.shape),
            "dtype": "complex",
            "data_re": [float(x) for x in a.real.ravel()],
            "data_im": [float(x) for x in a.imag.ravel()],
        }
    return {
        "shape": list(a.shape),
        "dtype": "float",
        "data": [float(x) for x in a.astype(float).ravel()],
    }


def array_from_json(payload: dict) -> np.ndarray:
    shape = tuple(payload["shape"])
    if payload["dtype"] == "complex":
        re = np.asarray(payload["data_re"], dtype=float).reshape(shape)
        im = np.asarray(payload["data_im"], dtype=float).reshape(shape)
        return re + 1j * im
    return np.asarray(payload["data"], dtype=float).reshape(shape)


def report_tree(report: Report) -> dict:
    return {
        "command": report.command,
        "config": report.config,
        "checks": [asdict(c) for c in report.checks],
        "notes": list(report.notes),
        "details": report.details,
        "overall_passed": report.overall_passed,
        "duration_seconds": report.duration_seconds,
    }


def report_json(report: Report) -> str:
    return json_text(report_tree(report))


_CSV_CONFIG_COLUMNS = ("n", "seed", "trials", "shots", "budget")


def report_csv(report: Report) -> str:
    """Flat check rows; the configuration scalars ride along on every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["command", *_CSV_CONFIG_COLUMNS, "check", "value", "target",
         "tolerance", "comparison", "passed"]
    )
    cfg = report.config
    cfg_cells = ["" if cfg.get(k) is None else str(cfg.get(k)) for k in _CSV_CONFIG_COLUMNS]
    for c in report.checks:
        writer.writerow(
            [report.command, *cfg_cells, c.name, format_float(c.value),
             format_float(c.target), format_float(c.tolerance), c.comparison,
             str(c.passed).lower()]
        )
    return buf.getvalue()


def render_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return report_json(report)
    if fmt == "csv":
        return report_csv(report)
    raise ValidationError(f"unknown report format {fmt!r}")
