import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infogeo import ValidationError
from infogeo.reporting import (
    CheckResult,
    Report,
    array_from_json,
    array_to_json,
    check_ge,
    check_le,
    check_within,
    format_float,
    json_text,
    render_report,
    report_csv,
    report_json,
    report_tree,
)


# ---------------------------------------------------------------------------
# checks


def test_check_within():
    ok = check_within("x", 1.0005, 1.0, 1e-3)
    assert ok.passed and ok.comparison == "within"
    assert not check_within("x", 1.002, 1.0, 1e-3).passed
    assert check_within("x", 1.0, 1.0, 0.0).passed


def test_check_le_and_ge():
    assert check_le("err", 1e-13, 1e-12).passed
    assert not check_le("err", 1e-11, 1e-12).passed
    le = check_le("err", 0.5, 1.0)
    assert le.target == 0.0 and le.tolerance == 1.0
    assert check_ge("order", 3.0, 2.7).passed
    assert not check_ge("order", 2.5, 2.7).passed
    ge = check_ge("order", 3.0, 2.7)
    assert ge.target == 2.7 and ge.tolerance == 0.0


def _three_checks(report):
    report.within("x", 1.5, 1.0, 1e-3)
    report.le("err", 1e-11, 1e-12)
    report.ge("order", 2.5, 2.7)
    return report.checks


def test_check_overrides_replace_the_governing_threshold():
    # an override replaces within's tolerance, le's bound and ge's floor, and
    # only for the name it gives
    overrides = {"x": 1.0, "err": 1e-10, "order": 2.0}
    assert _three_checks(Report("demo", {"tol_overrides": overrides})) == [
        CheckResult("x", 1.5, 1.0, 1.0, "within", True),
        CheckResult("err", 1e-11, 0.0, 1e-10, "le", True),
        CheckResult("order", 2.5, 2.0, 0.0, "ge", True),
    ]
    r = Report("demo", {"tol_overrides": {"other": 1e-10}})
    r.le("err", 1e-11, 1e-12)
    assert r.checks == [CheckResult("err", 1e-11, 0.0, 1e-12, "le", False)]


def test_report_checks_without_overrides_use_the_defaults():
    defaults = [
        CheckResult("x", 1.5, 1.0, 1e-3, "within", False),
        CheckResult("err", 1e-11, 0.0, 1e-12, "le", False),
        CheckResult("order", 2.5, 2.7, 0.0, "ge", False),
    ]
    # the row builders give the same rows as the methods' defaults
    assert [check_within("x", 1.5, 1.0, 1e-3), check_le("err", 1e-11, 1e-12),
            check_ge("order", 2.5, 2.7)] == defaults
    # a config without the key, or with no overrides in it
    assert _three_checks(Report("demo", {"n": 2})) == defaults
    assert _three_checks(Report("demo", {"tol_overrides": {}})) == defaults


def test_checks_reject_non_finite_values():
    with pytest.raises(ValidationError):
        check_le("err", math.nan, 1e-12)
    with pytest.raises(ValidationError):
        check_within("x", math.inf, 1.0, 1e-3)


def test_report_overall_passed():
    r = Report("demo", {"n": 2})
    assert r.overall_passed  # vacuous
    r.checks.append(check_le("a", 0.0, 1.0))
    assert r.overall_passed
    r.checks.append(check_le("b", 2.0, 1.0))
    assert not r.overall_passed


# ---------------------------------------------------------------------------
# float formatting


def test_format_float_frozen():
    assert format_float(0.1) == "0.1"
    assert format_float(1.0) == "1.0"
    assert format_float(2.5e-5) == "2.5e-05"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


# ---------------------------------------------------------------------------
# JSON writer


def test_json_text_is_valid_json_and_ordered():
    tree = {
        "b_first": [1, 2.5, "it says \"hi\"", True, None],
        "a_second": {"nested": {"deep": -0.25}, "empty_list": [], "empty": {}},
    }
    text = json_text(tree)
    parsed = json.loads(text)
    assert parsed["b_first"] == [1, 2.5, 'it says "hi"', True, None]
    assert parsed["a_second"]["nested"]["deep"] == -0.25
    # insertion order is preserved, not sorted
    assert text.index("b_first") < text.index("a_second")


def test_json_text_escapes_keys_and_strings():
    nasty = 'say "hi" \\ then\nmore\ttab'
    tree = {nasty: nasty, "list": [nasty]}
    assert json.loads(json_text(tree)) == tree


def test_json_text_handles_numpy_scalars():
    tree = {"i": np.int64(3), "x": np.float64(0.5)}
    assert json.loads(json_text(tree)) == {"i": 3, "x": 0.5}


def test_json_text_rejects_unknown_types():
    with pytest.raises(ValidationError):
        json_text({"bad": object()})


def test_json_text_deterministic():
    tree = {"x": [0.1, 0.2, 0.30000000000000004]}
    assert json_text(tree) == json_text(tree)
    assert json.loads(json_text(tree))["x"][2] == 0.30000000000000004


# ---------------------------------------------------------------------------
# array payloads


def test_array_round_trip_real():
    arr = np.array([[0.1, -2.0], [3.5, 0.0]])
    payload = array_to_json(arr)
    assert payload["shape"] == [2, 2] and payload["dtype"] == "float"
    np.testing.assert_array_equal(array_from_json(payload), arr)


def test_array_round_trip_complex():
    arr = np.array([1.0 + 2.0j, -0.5j, 3.0])
    payload = array_to_json(arr)
    assert payload["dtype"] == "complex"
    np.testing.assert_array_equal(array_from_json(payload), arr)


def test_array_payload_survives_json_writer():
    arr = np.linspace(0.0, 1.0, 7).reshape(7)
    text = json_text({"arr": array_to_json(arr)})
    np.testing.assert_array_equal(array_from_json(json.loads(text)["arr"]), arr)


# ---------------------------------------------------------------------------
# full reports


def _demo_report() -> Report:
    r = Report("demo", {"command": "demo", "n": 2, "seed": 11, "trials": 5, "shots": 6,
                        "budget": 7, "delta": 0.005, "out": None, "tol_overrides": {}})
    r.checks.append(check_within("alpha", 1.0, 1.0, 1e-3))
    r.checks.append(check_le("beta", 2.0, 1.0))
    r.notes.append("a note")
    r.details = {"k": [1.5]}
    r.duration_seconds = 0.125
    return r


def test_report_tree_and_json():
    tree = report_tree(_demo_report())
    assert tree["command"] == "demo"
    assert tree["overall_passed"] is False
    assert [c["name"] for c in tree["checks"]] == ["alpha", "beta"]
    parsed = json.loads(report_json(_demo_report()))
    assert parsed["config"]["seed"] == 11
    assert parsed["checks"][1]["passed"] is False
    assert parsed["duration_seconds"] == 0.125


def test_report_json_keeps_a_whole_float_a_float():
    r = Report("demo", {})
    r.within("fraction", 1.0, 1.0, 0.0)
    value = json.loads(report_json(r))["checks"][0]["value"]
    assert type(value) is float and value == 1.0


def test_report_csv_layout():
    # every scalar of the config in config order; the command once, no dicts
    lines = report_csv(_demo_report()).splitlines()
    assert lines[0] == (
        "command,n,seed,trials,shots,budget,delta,out,check,value,target,tolerance,"
        "comparison,passed"
    )
    assert lines[1] == "demo,2,11,5,6,7,0.005,,alpha,1.0,1.0,0.001,within,true"
    assert lines[2].endswith("le,false")
    assert len(lines) == 3


def test_report_csv_blank_for_missing_config():
    r = Report("demo", {"n": 2, "seed": None})
    r.checks.append(check_le("a", 0.0, 1.0))
    header, row = report_csv(r).splitlines()
    assert header.startswith("command,n,seed,check,")
    assert row == "demo,2,,a,0.0,0.0,1.0,le,true"
    r.config = {}
    assert report_csv(r).splitlines()[1] == "demo,a,0.0,0.0,1.0,le,true"


def test_render_report_dispatch():
    r = _demo_report()
    assert render_report(r, "json") == report_json(r)
    assert render_report(r, "csv") == report_csv(r)
    with pytest.raises(ValidationError):
        render_report(r, "yaml")
