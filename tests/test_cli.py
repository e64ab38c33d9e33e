import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo import (
    GaugeConvention,
    Measurement,
    PolarState,
    ProbDist,
    RealState,
    TangentVec,
    TransformKind,
    classify,
    coarse_grain,
    fisher_quadratic,
    from_antiunitary,
    from_polar,
    from_unitary,
    gauge_invariance_probe,
    gauge_shift,
    hilbert_distance,
    outcome_distribution,
    polar_metric_quadratic,
    polar_pushforward,
    random_complex_state,
    random_orthogonal,
    random_real_state,
    random_unitary,
    state_event_probs,
    statistical_distance,
    to_antiunitary,
    to_complex,
    to_polar,
    to_unitary,
)
from infogeo.cli import (
    _RUNNERS,
    SIZE_CAPS,
    RunConfig,
    _centered_direction,
    _check_constructed,
    _closure_violations,
    _distance_identities,
    _envelope_distances,
    _haar_draws,
    _interior_dist,
    _kl_fisher_errors,
    _polar_consistency,
    _worst_pullback,
    build_parser,
    main,
    run_all,
    run_correspondence,
    run_wootters,
)
from infogeo import cli, distmax, simplex, statespace, transforms
from infogeo.errors import NotOrthogonal, NotUnitary, ValidationError
from infogeo.reporting import Report, array_from_json, array_to_json, render_report
from conftest import decimal_ray_angle, haar_columns_distance

# small, fast battery sizes, each command's slice holding the options it reads
FAST = {
    "coin-distinguish": ["--trials", "500"],
    "metric-check": ["--tangents", "50"],
    "correspondence": ["--draws", "50"],
    "born-check": ["--shots", "2000"],
    "wootters": ["--pairs", "2", "--draws", "50"],
    "all": ["--trials", "500", "--shots", "2000", "--draws", "50", "--pairs", "2",
            "--tangents", "50"],
}

# a valid value of every option
EVERY_OPTION = {
    "--n": "3", "--seed": "5", "--trials": "10", "--shots": "20", "--budget": "3",
    "--delta": "0.01", "--pairs": "4", "--draws": "6", "--tangents": "7",
    "--format": "csv", "--out": "x.csv", "--tol-override": "max_gap=0.1",
}

# the options each battery does not read, and so does not accept
UNREAD = {
    "coin-distinguish": ["--shots", "--budget", "--pairs", "--draws", "--tangents"],
    "metric-check": ["--trials", "--delta", "--shots", "--budget", "--pairs", "--draws"],
    "correspondence": ["--trials", "--delta", "--shots", "--budget", "--pairs", "--tangents"],
    "born-check": ["--trials", "--delta", "--budget", "--pairs", "--draws", "--tangents"],
    "wootters": ["--trials", "--delta", "--shots", "--tangents"],
}
UNREAD_PAIRS = [(command, opt) for command, opts in UNREAD.items() for opt in opts]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config validation


def test_config_validation_rules():
    RunConfig("metric-check", seed=1).validate()
    with pytest.raises(ValidationError):
        RunConfig("metric-check", n=1, seed=1).validate()
    with pytest.raises(ValidationError):
        RunConfig("metric-check", seed=1, delta=0.5).validate()  # >= 1/n
    with pytest.raises(ValidationError):
        RunConfig("metric-check", seed=1, delta=1e-17).validate()  # 1/n + delta == 1/n
    with pytest.raises(ValidationError):
        RunConfig("metric-check", seed=1, format="yaml").validate()
    with pytest.raises(ValidationError):
        RunConfig("metric-check", seed=1, budget=0).validate()
    with pytest.raises(ValidationError):
        RunConfig("metric-check", seed=1, trials=-1).validate()
    with pytest.raises(ValidationError, match="--seed"):
        RunConfig("metric-check", seed=-1).validate()


@pytest.mark.parametrize("name", sorted(SIZE_CAPS))
def test_size_caps_exit_two_before_allocating(name, monkeypatch, capsys):
    def never(cfg):
        pytest.fail("a battery ran")

    cap = SIZE_CAPS[name]
    RunConfig("all", seed=1, **{name: cap}).validate()
    with pytest.raises(ValidationError, match=f"--{name} must be at most {cap}"):
        RunConfig("all", seed=1, **{name: cap + 1}).validate()
    # validation runs before any battery, so this allocates nothing
    for battery in _RUNNERS:
        monkeypatch.setitem(_RUNNERS, battery, never)
    code, out, err = run(["all", "--seed", "1", f"--{name}", str(10**30)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: --{name} must be at most {cap}")


def test_single_monte_carlo_trial_is_a_config_error(capsys):
    # one trial has no standard error, so the Monte Carlo check could not pass
    RunConfig("coin-distinguish", seed=1, trials=2).validate()
    with pytest.raises(ValidationError, match="--trials must be 0 or at least 2"):
        RunConfig("coin-distinguish", seed=1, trials=1).validate()
    code, out, err = run(["coin-distinguish", "--seed", "7", "--trials", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error: --trials must be 0 or at least 2")


def test_zero_shots_is_a_config_error(capsys):
    # born-check's count rows over zero samples would pass and show nothing
    RunConfig("born-check", seed=1, shots=1).validate()
    for shots in (0, -1):
        with pytest.raises(ValidationError, match="--shots must be positive"):
            RunConfig("born-check", seed=1, shots=shots).validate()
    for command in ("born-check", "all"):
        code, out, err = run([command, "--seed", "7", "--shots", "0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: --shots must be positive")


def test_seed_requirement():
    with pytest.raises(ValidationError):
        RunConfig("metric-check").validate()
    with pytest.raises(ValidationError):
        RunConfig("coin-distinguish", trials=10).validate()
    RunConfig("coin-distinguish", trials=0).validate()  # deterministic run


def test_all_accepts_every_option():
    args = build_parser().parse_args(["all", *(x for kv in EVERY_OPTION.items() for x in kv)])
    assert vars(args) == {
        "command": "all", "n": 3, "seed": 5, "trials": 10, "shots": 20, "budget": 3,
        "delta": 0.01, "pairs": 4, "draws": 6, "tangents": 7, "format": "csv",
        "out": "x.csv", "tol_override": [("max_gap", 0.1)],
    }


def test_each_battery_accepts_the_options_it_reads():
    accepted = len(EVERY_OPTION)  # all's
    for command, unread in UNREAD.items():
        read = [x for kv in EVERY_OPTION.items() if kv[0] not in unread for x in kv]
        args = vars(build_parser().parse_args([command, *read]))
        assert len(args) - 1 == len(EVERY_OPTION) - len(unread)
        accepted += len(args) - 1
    assert (accepted, len(UNREAD_PAIRS)) == (45, 27)


@pytest.mark.parametrize("command, option", UNREAD_PAIRS)
def test_unread_option_is_a_usage_error(command, option, capsys):
    # argparse exits before main builds a config or runs a battery
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1", option, EVERY_OPTION[option]])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: {option} {EVERY_OPTION[option]}" in captured.err


def test_parser_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["metric-check", "--tol-override", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["metric-check", "--tol-override", "x=abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 2
    for value in ("inf", "-inf", "nan"):  # a report could not hold it as JSON
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["coin-distinguish", "--tol-override", f"equal_coins_exact_gain={value}"]
            )
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exit codes


def test_missing_seed_exits_two(capsys):
    code, _, err = run(["metric-check"], capsys)
    assert code == 2
    assert "--seed is required" in err


def test_deterministic_coin_run_needs_no_seed(capsys):
    code, out, _ = run(["coin-distinguish", "--trials", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    assert "monte_carlo" not in report["details"]


def test_bad_n_exits_two(capsys):
    code, _, err = run(["born-check", "--seed", "1", "--n", "1"], capsys)
    assert code == 2 and "--n" in err


def test_passing_battery_exits_zero(capsys):
    code, out, err = run(["metric-check", "--seed", "1", *FAST["metric-check"]], capsys)
    assert code == 0
    assert json.loads(out)["overall_passed"] is True
    assert "PASS metric-check" in err


def test_forced_failure_exits_one(capsys):
    code, out, err = run(
        ["metric-check", "--seed", "1", *FAST["metric-check"],
         "--tol-override", "embed_distance_identity_max=0"],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["overall_passed"] is False
    failing = {c["name"]: c for c in report["checks"]}["embed_distance_identity_max"]
    assert failing["passed"] is False and failing["tolerance"] == 0.0
    assert "FAIL embed_distance_identity_max" in err


def test_unknown_override_name_exits_two_without_report(capsys):
    code, out, err = run(
        ["coin-distinguish", "--trials", "0", "--tol-override", "no_such_check=1",
         "--tol-override", "equal_coins_exact_gain=1"], capsys
    )
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and "no_such_check" in err
    assert "equal_coins_exact_gain" not in err


@pytest.mark.parametrize("command", ["all", "wootters", "coin-distinguish"])
def test_unknown_override_name_exits_two_before_any_battery(command, monkeypatch, capsys):
    def never(cfg):
        pytest.fail("a battery ran")

    for name in _RUNNERS:
        monkeypatch.setitem(_RUNNERS, name, never)
    code, out, err = run([command, "--seed", "7", "--tol-override", "typo=1"], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: --tol-override names no check of this run: typo\n"


def test_override_of_a_check_outside_the_run_exits_two(capsys):
    # coin-distinguish reports its Monte Carlo check only when --trials > 0,
    # and metric-check reports no wootters check
    for argv in (["coin-distinguish", "--trials", "0", "--tol-override",
                  "monte_carlo_gain_abs_error=1"],
                 ["metric-check", "--seed", "1", "--tol-override", "max_gap=1"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: --tol-override names no check of this run")


@pytest.mark.parametrize("command, trials", [("all", 500), ("coin-distinguish", 0)])
def test_check_names_are_the_checks_each_battery_reports(command, trials):
    # all runs every battery in _RUNNERS order, so its rows are each
    # battery's rows in turn
    cfg = RunConfig(command, seed=3, trials=trials, shots=2000, draws=50, pairs=2,
                    tangents=50)
    runner = run_all if command == "all" else _RUNNERS[command]
    assert [c.name for c in runner(cfg).checks] == cfg.check_names()


def test_override_moves_only_its_own_row(capsys):
    base_code, base_out, _ = run(["coin-distinguish", "--trials", "0"], capsys)
    code, out, _ = run(
        ["coin-distinguish", "--trials", "0", "--tol-override", "worked_point_exact_gain=0"],
        capsys,
    )
    assert (base_code, code) == (0, 1)
    expected, moved = json.loads(base_out), json.loads(out)
    expected["config"]["tol_overrides"] = {"worked_point_exact_gain": 0.0}
    row = {c["name"]: c for c in expected["checks"]}["worked_point_exact_gain"]
    row["tolerance"], row["passed"] = 0.0, False
    expected["overall_passed"] = False
    expected["duration_seconds"] = moved["duration_seconds"]
    assert moved == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["metric-check", "--s", "5"],
        ["correspondence", "--d", "5"],
        ["coin-distinguish", "--tol", "x=1"],
        ["wootters", "--pa", "1", "--bud", "1", "--dr", "2"],
        ["all", "--seed", "1", "--tan", "5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_option_prefixes_are_usage_errors(argv, capsys):
    # option names are exact: argparse would otherwise take a prefix
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --" in captured.err


def test_exact_option_names_take_attached_values():
    args = build_parser().parse_args(["coin-distinguish", "--seed=5", "--tol-override=a=1"])
    assert vars(args) == {"command": "coin-distinguish", "seed": 5, "tol_override": [("a", 1.0)]}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--delta", "1e-150"], 2),  # 1/n + delta == 1/n: the coins coincide
        (["--delta", "1e-11", "--trials", "10"], 2),  # Monte Carlo needs 2e20 tosses
        (["--delta", "1e-12", "--trials", "0"], 0),  # no Monte Carlo, no sampler limit
    ],
    ids=["delta-1e-150", "delta-1e-11", "delta-1e-12-no-trials"],
)
def test_tiny_coin_offset_exit_codes(argv, expected, capsys):
    code, out, err = run(["coin-distinguish", "--seed", "1", *argv], capsys)
    assert code == expected
    if expected == 2:
        assert out == "" and err.startswith("config error:")
    else:
        assert json.loads(out)["overall_passed"] is True


def assert_exit_contract(argv):
    """main(argv) exits 0 or 1 with a JSON report of argv's command, or 2 with
    only a config error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("config error:")
    else:
        assert json.loads(out.getvalue())["command"] == argv[0]


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["coin-distinguish", "born-check"]),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1) | st.integers(-(2**63), -1),
    f=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    | st.sampled_from([5e-324, 1e-300, 1e-150, 1e-17]),
    trials=st.integers(0, 40),
    shots=st.integers(0, 1000) | st.just(2**63),
)
def test_fast_commands_end_in_an_exit_code(command, n, seed, f, trials, shots):
    reads = {
        "coin-distinguish": ["--delta", repr(f / n), "--trials", str(trials)],
        "born-check": ["--shots", str(shots)],
    }
    assert_exit_contract([command, "--n", str(n), "--seed", str(seed), *reads[command]])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    tangents=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1) | st.integers(-(2**63), -1),
)
def test_metric_check_ends_in_an_exit_code(n, tangents, seed):
    assert_exit_contract(["metric-check", "--n", str(n), "--tangents", str(tangents),
                          "--seed", str(seed)])


@pytest.mark.parametrize("command", ["correspondence", "wootters"])
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    pairs=st.integers(1, 3),
    draws=st.integers(1, 3),
    budget=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1) | st.integers(-(2**63), -1),
)
def test_state_commands_end_in_an_exit_code(command, n, pairs, draws, budget, seed):
    reads = {
        "correspondence": ["--draws", str(draws)],
        "wootters": ["--pairs", str(pairs), "--draws", str(draws), "--budget", str(budget)],
    }
    assert_exit_contract([command, "--n", str(n), *reads[command], "--seed", str(seed)])


def test_parser_leaves_defaults_to_run_config():
    args = build_parser().parse_args(["born-check"])
    assert vars(args) == {"command": "born-check"}


def test_main_builds_its_parser_once(monkeypatch, capsys):
    # main reuses one parser per process, and a call leaves nothing in it
    # for the next: one call's --tol-override is not read by the next
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        argv = ["coin-distinguish", "--trials", "0"]
        run([*argv, "--tol-override", "worked_point_exact_gain=0.5"], capsys)
        code, out, _ = run(argv, capsys)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert code == 0 and json.loads(out)["config"]["tol_overrides"] == {}


# ---------------------------------------------------------------------------
# report content


def test_report_echoes_full_config(capsys):
    code, out, _ = run(
        ["born-check", "--seed", "9", "--n", "3", *FAST["born-check"]], capsys
    )
    assert code == 0
    cfg = json.loads(out)["config"]
    assert cfg["command"] == "born-check"
    assert cfg["n"] == 3 and cfg["seed"] == 9
    # options the battery does not read are echoed at their defaults
    assert cfg["shots"] == 2000 and cfg["trials"] == RunConfig.trials
    assert cfg["tol_overrides"] == {}


def test_identical_configs_are_byte_identical_apart_from_duration(capsys):
    argv = ["correspondence", "--seed", "4", *FAST["correspondence"]]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)

    def strip(text):
        return [l for l in text.splitlines() if "duration_seconds" not in l]

    assert out1 != out2  # duration differs
    assert strip(out1) == strip(out2)


def test_csv_format(capsys):
    code, out, _ = run(
        ["wootters", "--seed", "3", "--format", "csv", *FAST["wootters"]], capsys
    )
    assert code == 0
    lines = out.splitlines()
    # every scalar option, set or default, rides along on every row
    assert lines[0].startswith(
        "command,n,seed,trials,shots,budget,delta,pairs,draws,tangents,format,out,check,"
    )
    assert all(line.startswith("wootters,2,3,10000,100000,10,0.005,2,50,1000,csv,,")
               for line in lines[1:])
    assert len(lines) == 5  # header + four checks


def test_json_csv_and_check_lines_spell_the_same_numbers(capsys):
    argv = ["born-check", "--seed", "7", *FAST["born-check"]]
    code, out, err = run(argv, capsys)
    csv_code, csv_out, _ = run([*argv, "--format", "csv"], capsys)
    assert code == csv_code == 0
    fields = ("value", "target", "tolerance")
    from_json = {c["name"]: tuple(float(c[f]) for f in fields)
                 for c in json.loads(out)["checks"]}
    from_csv = {row["check"]: tuple(float(row[f]) for f in fields)
                for row in csv.DictReader(io.StringIO(csv_out))}
    from_err = {}
    for line in err.splitlines()[:-1]:
        status, name, value, target, tol, _ = line.split()
        assert status == "PASS"
        from_err[name.rstrip(":")] = tuple(
            float(cell.partition("=")[2]) for cell in (value, target, tol)
        )
    assert len(from_json) == 11
    assert from_json == from_csv == from_err


def test_wootters_reports_worst_pair_measurement_at_zero_gap(capsys):
    # several of these seeds optimize their one pair to a gap of exactly 0.0
    missing = []
    for seed in range(12):
        code, out, _ = run(
            ["wootters", "--pairs", "1", "--budget", "2", "--draws", "1",
             "--seed", str(seed)], capsys,
        )
        assert code == 0
        details = json.loads(out)["details"]
        assert set(details["pair_table"][0]) == {"hilbert", "max_ds", "gap", "certified"}
        if details["worst_pair_measurement"].get("unitary", {}).get("shape") != [2, 2]:
            missing.append(seed)
    assert missing == []


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, err = run(
        ["coin-distinguish", "--seed", "2", *FAST["coin-distinguish"], "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert out == ""  # report goes to the file, not stdout
    assert "PASS coin-distinguish" in err
    report = json.loads(path.read_text())
    assert report["command"] == "coin-distinguish"


def test_unwritable_out_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run(["born-check", "--seed", "1", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "config error: cannot write report" in err
    assert not path.exists()


def test_all_aggregates_every_battery(capsys):
    code, out, _ = run(["all", "--seed", "6", *FAST["all"]], capsys)
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    # one representative check from each battery
    assert "worked_point_exact_gain" in names
    assert "kl_fisher_order_n2" in names
    assert "haar_neither_fraction" in names
    assert "born_rule_max_error" in names
    assert "max_gap" in names
    assert set(report["details"]) == {
        "coin-distinguish", "metric-check", "correspondence",
        "born-check", "wootters",
    }


def test_correspondence_reports_haar_witness_and_degenerate_note(capsys):
    code, out, _ = run(["correspondence", "--seed", "8", *FAST["correspondence"]], capsys)
    assert code == 0
    report = json.loads(out)
    witness = report["details"]["first_haar_witness"]
    assert witness["witness_state"]["shape"] == [4]
    assert witness["deviation"] > 1e-6
    # replay the reported witness: the shift moves the outcome probabilities
    # of the mapped state by the reported deviation
    m = array_from_json(witness["matrix"])
    state = RealState(array_from_json(witness["witness_state"]))
    before = coarse_grain(state_event_probs(RealState(m @ state.q))).probs
    shifted = from_polar(gauge_shift(to_polar(state), witness["witness_shift"]))
    after = coarse_grain(state_event_probs(RealState(m @ shifted.q))).probs
    assert float(np.abs(after - before).max()) == pytest.approx(
        witness["deviation"], rel=1e-9
    )
    assert any("2x2" in note for note in report["notes"])


def test_born_check_phase_term_sees_the_basis_phases(monkeypatch, capsys):
    # a basis that turns its first two columns by the second phase: the phase
    # convention now moves the probabilities, and the phase-invariance row must
    # say so (the columns stay unit vectors, so every state can still be built)
    basis = Measurement.basis

    def turned(meas):
        c, s = np.cos(meas.phases[1]), np.sin(meas.phases[1])
        rot = np.eye(meas.n)
        rot[:2, :2] = [[c, -s], [s, c]]
        return basis(meas) @ rot

    monkeypatch.setattr(Measurement, "basis", turned)
    code, out, _ = run(["born-check", "--seed", "7", *FAST["born-check"]], capsys)
    assert code == 1
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert rows["phase_invariance_max"]["passed"] is False


def test_correspondence_runner_seeded_identically():
    # the whole report: every row, the notes, the Haar counts and witness
    cfg = RunConfig("correspondence", seed=12, draws=10)
    cfg.validate()
    a = run_correspondence(cfg)
    b = run_correspondence(cfg)
    assert a.details["first_haar_witness"] and a.details["haar_counts"]["neither"] == 10
    assert render_report(a, "json") == render_report(b, "json")


@pytest.mark.parametrize("n", [2, 3])
def test_correspondence_report_does_not_depend_on_the_pass_size(n, monkeypatch):
    # each kind of object comes from its own stream, so one map per pass
    # draws the same objects as the default passes
    cfg = RunConfig("correspondence", n=n, seed=5, draws=40)
    reports = []
    for pass_bytes in (transforms._PASS_BYTES, 1):
        monkeypatch.setattr(transforms, "_PASS_BYTES", pass_bytes)
        reports.append(render_report(run_correspondence(cfg), "json"))
    assert transforms._per_pass(8) == 1
    assert reports[0] == reports[1]


def test_coin_distinguish_monte_carlo_details(capsys):
    code, out, _ = run(
        ["coin-distinguish", "--seed", "5", "--trials", "300"], capsys
    )
    assert code == 0
    mc = json.loads(out)["details"]["monte_carlo"]
    assert mc["trials"] == 300
    assert mc["tosses"] == 800  # signal 0.02 at delta 0.005
    assert mc["stderr_gain_at_mean_posterior"] > 0.0


# ---------------------------------------------------------------------------
# metric-check's array passes against a per-object reference loop


def _per_object_metric_rows(seed, n, tangents):
    """The KL-Fisher errors and the worst pullback gap computed one
    ProbDist/TangentVec at a time, with the KL and quadratic-form arithmetic
    written out (not the row kernels)."""
    rng = np.random.default_rng(seed)

    def kl(p, p2):
        support = p.probs > 0.0
        a, b = p.probs[support], p2.probs[support]
        return float(np.sum(a * np.log(a / b)))

    def fisher(p, dp):
        terms = np.zeros_like(p.probs)
        np.divide(dp.deltas**2, p.probs, out=terms, where=dp.deltas != 0.0)
        return 0.25 * float(terms.sum())

    errs = np.zeros(3)
    for _ in range(tangents):
        w = rng.uniform(0.1, 1.0, size=n)
        p = ProbDist(w / w.sum())
        d = rng.uniform(-1.0, 1.0, size=n)
        d -= d.mean()
        direction = d / np.abs(d).max()
        for k, eps in enumerate((1e-2, 5e-3, 2.5e-3)):
            dp = TangentVec(eps * direction)
            p2 = ProbDist(p.probs + eps * direction)
            errs[k] += abs(kl(p, p2) - 2.0 * fisher(p, dp))
    errs /= tangents

    # every point, then every step as one block
    states = [random_real_state(2 * n, rng) for _ in range(tangents)]
    steps = rng.uniform(-1.0, 1.0, size=(tangents, 2 * n))
    worst = 0.0
    for state, dq in zip(states, steps):
        dq = dq - (dq @ state.q) * state.q
        dq *= 1e-3
        events = ProbDist(state_event_probs(state).event_probs)
        gap = abs(fisher(events, TangentVec(2.0 * state.q * dq)) - float(dq @ dq))
        worst = max(worst, gap)
    return errs, worst, rng.random()


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_metric_rows_match_per_object_loop(n, seed):
    tangents = 400
    ref_errs, ref_worst, ref_next = _per_object_metric_rows(seed, n, tangents)
    rng = np.random.default_rng(seed)
    errs = _kl_fisher_errors(rng, n, tangents, (1e-2, 5e-3, 2.5e-3))
    worst = _worst_pullback(rng, n, tangents)
    assert errs.tolist() == ref_errs.tolist()
    assert worst == ref_worst and worst > 0.0
    assert rng.random() == ref_next  # both consumed the same stream


def test_kl_fisher_errors_traced_peak_does_not_grow_with_epsilons():
    import tracemalloc

    peaks = []
    for epsilons in ((1e-2, 5e-3), (1e-2, 5e-3, 2.5e-3, 1e-3, 5e-4, 2.5e-4)):
        _kl_fisher_errors(np.random.default_rng(1), 8, 2000, epsilons)
        tracemalloc.start()
        try:
            _kl_fisher_errors(np.random.default_rng(1), 8, 2000, epsilons)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one eps at a time: one more eps's (tangents, n) rows alone take 128 kB
    assert peaks[1] <= peaks[0] + 16 * 1024


def _per_round_identities(rng, n):
    """metric-check's 200 rounds of distance identities through the public
    constructors and functions, one round at a time, each distance against
    the battery's chord reference on one row."""
    worst_embed = worst_triangle = worst_scaling = 0.0
    for _ in range(200):
        a = ProbDist.renormalized(rng.uniform(0, 1, n))
        b = ProbDist.renormalized(rng.uniform(0, 1, n))
        c = ProbDist.renormalized(rng.uniform(0, 1, n))
        worst_triangle = max(
            worst_triangle,
            statistical_distance(a, c) - statistical_distance(a, b) - statistical_distance(b, c),
        )
        p_in = ProbDist(_interior_dist(rng.random(n)))
        direction = _centered_direction(rng.random(n))
        close = ProbDist(p_in.probs + 1e-9 * direction)
        for x, y in ((a, b), (p_in, close)):
            exact = cli._chord_distances(x.probs[None], y.probs[None])[0]
            worst_embed = max(worst_embed, abs(statistical_distance(x, y) - exact))
        d1 = TangentVec(direction * 1e-3)
        d2 = TangentVec(2.0 * d1.deltas)
        worst_scaling = max(
            worst_scaling, abs(fisher_quadratic(p_in, d2) - 4.0 * fisher_quadratic(p_in, d1))
        )
    return worst_embed, worst_triangle, worst_scaling


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_distance_identities_equal_per_round_public_calls(n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _distance_identities(rng, n)
    assert got == _per_round_identities(ref_rng, n)
    assert got[0] > 0.0
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 16])
def test_embed_identity_holds_at_close_pairs(n):
    # the close pairs (p, p + 1e-9 d) keep the 1e-12 bound against the
    # decimal oracle; acos of the root dot, an old reference, reads them
    # as 0.0 or an ulp of 1 away, ~1e-9 from the distance
    assert _distance_identities(np.random.default_rng(n), n)[0] <= 1e-12
    u = np.random.default_rng(n).random((200, 5, n))
    p = _interior_dist(u[:, 3])
    close = p + 1e-9 * _centered_direction(u[:, 4])
    exact = np.array([decimal_ray_angle(x, y, sqrt=True) for x, y in zip(p, close)])
    via_acos = np.arccos(np.minimum(1.0, simplex._row_dots(np.sqrt(p), np.sqrt(close))))
    assert np.abs(simplex._distance_rows(p, close) - exact).max() <= 1e-12
    assert np.abs(via_acos - exact).max() > 1e-10
    # the FOUND's pair: acos reads 0.0 at a distance of 1.09e-9
    pair = np.array([[0.3, 0.7]]), np.array([[0.3 + 1e-9, 0.7 - 1e-9]])
    exact = decimal_ray_angle(*pair[0], *pair[1], sqrt=True)
    assert exact == pytest.approx(1.0910894e-9, rel=1e-7)
    assert abs(cli._chord_distances(*pair)[0] - exact) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_chord_distances_match_decimal_oracle(n):
    # the battery's float64 reference stays within 1e-14 of the 60-digit
    # angle, far below the embedding row's 1e-12 bound
    rng = np.random.default_rng(n)
    far = rng.random((2, 50, n))
    far /= far.sum(axis=-1, keepdims=True)
    u = rng.random((2, 50, n))
    p = _interior_dist(u[0])
    close = p + 1e-9 * _centered_direction(u[1])
    sparse = rng.random((2, 50, n)) * (rng.random((2, 50, n)) < 0.5)
    sparse[..., 0] += sparse.sum(axis=-1) == 0.0
    sparse /= sparse.sum(axis=-1, keepdims=True)
    pairs = [(far[0], far[1]), (p, close), (sparse[0], sparse[1]), (sparse[0], far[0])]
    for x, y in pairs:
        exact = [decimal_ray_angle(a, b, sqrt=True) for a, b in zip(x, y)]
        assert np.abs(cli._chord_distances(x, y) - exact).max() <= 1e-14
    # disjoint supports are pi/2 apart, identical rows exactly 0
    k = max(1, n // 2)
    left, right = np.zeros((2, n)), np.zeros((2, n))
    left[0, :k], right[0, k:] = 1.0 / k, 1.0 / (n - k)
    left[1, 0], right[1, -1] = 1.0, 1.0
    chords = cli._chord_distances(left, right)
    exact = [decimal_ray_angle(a, b, sqrt=True) for a, b in zip(left, right)]
    assert np.abs(chords - exact).max() <= 1e-14
    assert chords.tolist() == pytest.approx([0.5 * math.pi] * 2, abs=1e-14)
    assert cli._chord_distances(far[0], far[0]).tolist() == [0.0] * 50
    assert cli._chord_distances(sparse[0], sparse[0]).tolist() == [0.0] * 50


def test_centered_direction_maps_all_equal_row_to_edge():
    u = np.array([[0.3, 0.3, 0.3, 0.3], [0.1, 0.9, 0.4, 0.2], [0.6, 0.6, 0.6, 0.6]])
    rows = _centered_direction(u)
    assert rows[0].tolist() == rows[2].tolist() == [1.0, 0.0, 0.0, -1.0]
    d = -1.0 + 2.0 * u[1]
    d -= d.mean()
    assert rows[1].tolist() == (d / np.abs(d).max()).tolist()
    assert _centered_direction(np.full(3, 0.7)).tolist() == [1.0, 0.0, -1.0]


def _per_round_polar(rng, n):
    """metric-check's 200 polar-chart rounds through the public objects and
    functions, one round at a time, on the battery's blocks of draws (each
    input for all rounds in turn)."""
    slope, sign = rng.uniform(0.5, 2.0, size=200), rng.choice([-1.0, 1.0], size=200)
    offset, p_draw = rng.uniform(0.0, 2.0 * math.pi, size=200), rng.random((200, n))
    theta, dp_draw = rng.uniform(0.0, 2.0 * math.pi, size=(200, n)), rng.random((200, n))
    dtheta, dchi = rng.uniform(-1.0, 1.0, size=(200, n)), rng.uniform(-1.0, 1.0, size=(200, n))
    worst = 0.0
    for r in range(200):
        gauge = GaugeConvention(a=float(slope[r] * sign[r]), b=float(offset[r]))
        ps = PolarState(ProbDist(_interior_dist(p_draw[r])), theta[r])
        dp = TangentVec(_centered_direction(dp_draw[r]))
        quad = polar_metric_quadratic(ps, dp, dtheta[r], gauge, dchi[r])
        dq = polar_pushforward(ps, dp, dtheta[r] + gauge.a * dchi[r])
        worst = max(worst, abs(quad - float(dq @ dq)))
    return worst


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_polar_rounds_equal_per_round_public_calls(n, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _polar_consistency(rng, n)
    assert got == _per_round_polar(ref_rng, n) and got > 0.0
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class _Draws:
    """A Generator whose named method draws as usual but gives `value` in
    place of every entry of its first result."""

    def __init__(self, seed, method, value):
        self._rng, self._method, self._value = np.random.default_rng(seed), method, value

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        if name != self._method:
            return draw

        def first(*args, **kwargs):
            self._method = None
            result = np.asarray(draw(*args, **kwargs))
            result[...] = self._value
            return result[()]

        return first


@pytest.mark.parametrize(
    "method, value, error",
    [
        ("choice", 0.0, "gauge slope"),
        ("uniform", math.inf, "gauge slope"),
        ("random", math.nan, "non-finite"),
    ],
)
def test_polar_rounds_keep_the_per_round_checks(method, value, error):
    # the exception types GaugeConvention, PolarState, ProbDist and TangentVec
    # raise in the round whose draw is bad
    with pytest.raises(ValidationError, match=error):
        _per_round_polar(_Draws(3, method, value), 3)
    with pytest.raises(ValidationError, match=error):
        _polar_consistency(_Draws(3, method, value), 3)


def _direction_reference(rng, dim):
    # random_real_state's draw one state at a time: standard normals until
    # np.linalg.norm exceeds 1e-8, scaled to unit norm
    while True:
        z = rng.standard_normal(dim)
        norm = np.linalg.norm(z)
        if norm > 1e-8:
            return z / norm


def _per_tangent_pullback(rng, n, tangents):
    """_worst_pullback through RealState and fisher_quadratic one tangent at
    a time, on the same draws: every point drawn on its own, then every
    step as one block."""
    states = [RealState(_direction_reference(rng, 2 * n)) for _ in range(tangents)]
    steps = rng.uniform(-1.0, 1.0, size=(tangents, 2 * n))
    worst = 0.0
    for state, dq in zip(states, steps):
        dq = 1e-3 * (dq - (dq @ state.q) * state.q)
        events = ProbDist(state_event_probs(state).event_probs)
        worst = max(worst, abs(fisher_quadratic(events, TangentVec(2.0 * state.q * dq)) - dq @ dq))
    return worst


class _ZeroNormals:
    """A Generator whose standard normals at stream positions [start, stop)
    read 0, however many each call draws; its other draws are the seed's."""

    def __init__(self, seed, start, stop):
        self._rng, self._drawn, self._zeros = np.random.default_rng(seed), 0, (start, stop)
        self.bit_generator = self._rng.bit_generator

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, size):
        z = self._rng.standard_normal(size)
        at = np.arange(self._drawn, self._drawn + z.size).reshape(z.shape)
        z[(at >= self._zeros[0]) & (at < self._zeros[1])] = 0.0
        self._drawn += z.size
        return z


@pytest.mark.parametrize("n", [2, 3, 32])
def test_worst_pullback_equals_per_tangent_reference(n):
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    assert _worst_pullback(rng, n, 300) == _per_tangent_pullback(ref_rng, n, 300)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the first point's draw and a later one have norm 0, below 1e-8: each is
    # drawn again, and the points after it draw what follows
    for row in (0, 7):
        rng, ref_rng = (_ZeroNormals(n, 2 * n * row, 2 * n * (row + 1)) for _ in range(2))
        assert _worst_pullback(rng, n, 50) == _per_tangent_pullback(ref_rng, n, 50)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("dim", [4, 6, 128])
def test_real_states_seeded_equal_per_seed_reference(dim):
    # per seed, one block of draws for count states is the public sampler's
    # calls in turn on the same stream
    for seed, count in ((0, 1), (2**40, 2), (10**30, 299)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = statespace._real_states(rng, count, dim)
        assert got.tolist() == [random_real_state(dim, ref_rng).q.tolist() for _ in range(count)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    # a draw of norm 0, below 1e-8, first and inside a block: that call
    # draws again, and the calls after it draw what follows
    for row in (0, 3):
        rng, ref_rng = (_ZeroNormals(5, row * dim, (row + 1) * dim) for _ in range(2))
        got = statespace._real_states(rng, 6, dim)
        assert got.tolist() == [_direction_reference(ref_rng, dim).tolist() for _ in range(6)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# the wootters envelope's array pass against a per-draw reference loop


# each draw's d_S against that of the full Haar unitary its columns complete
# to, through the public objects: the same measurement up to rounding, fixed
# at 1e-13 before measuring
ENVELOPE_TOL = 1e-13


def _per_draw_envelope(rng, n, draws):
    """Each draw's d_S and d_H through the public constructors: two random
    states, a Haar measurement and two outcome distributions per draw."""
    rows = []
    for _ in range(draws):
        u = random_complex_state(n, rng)
        v = random_complex_state(n, rng)
        g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        rows.append((haar_columns_distance(g, np.stack((u.v, v.v)), u, v), hilbert_distance(u, v)))
    return np.array(rows)


def _assert_envelope_rows(ds, dh, ref):
    assert np.abs(ds - ref[:, 0]).max() <= ENVELOPE_TOL
    assert dh.tolist() == ref[:, 1].tolist()


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_envelope_matches_per_draw_loop(n, seed, monkeypatch):
    ref = _per_draw_envelope(np.random.default_rng(seed), n, 500)
    # at the pass budget and in passes of 7 draws, the same values bit for bit
    values = []
    for pass_bytes in (transforms._PASS_BYTES, 7 * 64 * n):
        monkeypatch.setattr(transforms, "_PASS_BYTES", pass_bytes)
        rng = np.random.default_rng(seed)
        # two calls, so the second starts where the first left the stream
        passes = [*_envelope_distances(rng, n, 300), *_envelope_distances(rng, n, 200)]
        ds, dh = (np.concatenate(arrays) for arrays in zip(*passes))
        _assert_envelope_rows(ds, dh, ref)
        values.append([ds.tolist(), dh.tolist()])
    assert values[0] == values[1]


def test_envelope_traced_peak_does_not_grow_with_draws():
    import tracemalloc

    def envelope(draws):
        # run_wootters' reduction over the passes
        rng = np.random.default_rng(1)
        return max(float(np.max(ds - dh)) for ds, dh in _envelope_distances(rng, 64, draws))

    envelope(80)
    peaks = []
    # one pass of 34 draws at n = 64, then 30 passes: no pass may draw while
    # the last one's arrays are still held
    for draws in (34, 1020):
        tracemalloc.start()
        try:
            envelope(draws)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one more draw's Gaussians alone would take 4 kB
    assert peaks[1] <= peaks[0] + 16 * 1024


def test_wootters_traced_peak_at_the_dimension_cap():
    import tracemalloc

    # one pair and one restart at n = 64: the search's n x n arrays and the
    # passes of the certifier and the envelope (the bound was fixed before
    # measuring, against 66.9 MB when every Haar draw was an n x n matrix)
    tracemalloc.start()
    try:
        cfg = RunConfig("wootters", n=64, seed=1, pairs=1, budget=1)
        assert run_wootters(cfg).overall_passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_envelope_checks_unitarity_and_normalization(monkeypatch):
    # the same exception types as a Measurement and a ComplexState per draw
    from infogeo import statespace, transforms

    haar = transforms._haar_from_gaussian
    monkeypatch.setattr(transforms, "_haar_from_gaussian", lambda z: 1.001 * haar(z))
    with pytest.raises(NotUnitary):
        list(_envelope_distances(np.random.default_rng(7), 3, 20))
    monkeypatch.setattr(transforms, "_haar_from_gaussian", haar)
    unit_rows = statespace._unit_rows
    monkeypatch.setattr(statespace, "_unit_rows", lambda z: 1.001 * unit_rows(z))
    with pytest.raises(ValidationError, match="probs sum to"):
        list(_envelope_distances(np.random.default_rng(7), 3, 20))


@pytest.mark.parametrize("n", [2, 3, 8])
def test_envelope_equals_per_draw_draws_around_a_pass(n):
    # a pass takes 8n standard normals per draw from the battery's stream
    per_pass = transforms._per_pass(64 * n)
    for draws in (per_pass - 1, per_pass, per_pass + 1):
        rng, ref_rng = np.random.default_rng(draws), np.random.default_rng(draws)
        got = list(_envelope_distances(rng, n, draws))
        ref = _per_draw_envelope(ref_rng, n, draws)
        assert [len(ds) for ds, _ in got] == ([per_pass, 1] if draws > per_pass else [draws])
        _assert_envelope_rows(*(np.concatenate(arrays) for arrays in zip(*got)), ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# the correspondence battery's array passes against per-map public calls


def _probe_pass(dim):
    # maps per correspondence pass: the probe's (maps, 32, 17, dim) floats
    return transforms._per_pass(transforms.PROBE_STATES * (transforms.PROBE_SHIFTS + 1) * dim * 8)


def _per_kind(seed):
    # a Generator per kind of object: maps, states, probe states, probe shifts
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


def _states(gens):
    return [g.bit_generator.state for g in gens]


def _next_probe(m, probe_states, probe_shifts):
    """gauge_invariance_probe of m with the next default samples of the
    probe-state and probe-shift Generators: 32 random_real_state calls and
    one _probe_shifts draw."""
    states = [random_real_state(len(m), probe_states) for _ in range(transforms.PROBE_STATES)]
    chi0s = transforms._probe_shifts(probe_shifts, transforms.PROBE_SHIFTS)
    return gauge_invariance_probe(m, states=states, chi0s=chi0s)


def _per_draw_haar(per_kind, draws, dim):
    """The Haar draws through the public functions, one draw at a time, each
    object the next of its kind."""
    maps, states, probe_states, probe_shifts = per_kind
    neither = failures = 0
    witness = None
    metric_dev = 0.0
    for d in range(draws):
        m = random_orthogonal(dim, maps)
        neither += classify(m).kind is TransformKind.NEITHER
        probe = _next_probe(m, probe_states, probe_shifts)
        failures += not probe.passed
        if witness is None and not probe.passed:
            witness = {
                "draw_index": d,
                "matrix": array_to_json(m),
                "witness_state": array_to_json(probe.witness_state),
                "witness_shift": probe.witness_shift,
                "deviation": probe.max_deviation,
            }
        qa = random_real_state(dim, states).q
        qb = random_real_state(dim, states).q
        metric_dev = max(
            metric_dev,
            abs(float(np.linalg.norm(m @ qa - m @ qb)) - float(np.linalg.norm(qa - qb))),
        )
    return neither, failures, witness, metric_dev


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("draws", ["1", "pass-1", "pass+1", "1000"])
def test_haar_draws_equal_per_draw_public_calls(n, draws):
    dim = 2 * n
    draws = {"1": 1, "pass-1": _probe_pass(dim) - 1, "pass+1": _probe_pass(dim) + 1,
             "1000": 1000}[draws]
    per_kind, ref_kinds = _per_kind(n), _per_kind(n)
    got = _haar_draws(per_kind, draws, dim)
    assert got == _per_draw_haar(ref_kinds, draws, dim)
    assert got[2] is not None and got[0] == got[1] == draws
    assert _states(per_kind) == _states(ref_kinds)


def _per_map_constructed(per_kind, n, constructed):
    """The constructed maps' row values and their Type1 and Type2 maps
    through the public functions, one map at a time, each object the next
    of its kind."""
    maps, states, probe_states, probe_shifts = per_kind
    dim = 2 * n
    type1_hits = type2_hits = 0
    unitarity = roundtrip = equivariance = 0.0
    probes = [0.0, 0.0]
    identity = math.inf
    type1_maps, type2_maps = [], []
    for _ in range(constructed):
        u = random_unitary(n, maps)
        qs = [random_real_state(dim, states).q for _ in range(2)]
        m1, m2 = from_unitary(u), from_antiunitary(u)
        type1_maps.append(m1)
        type2_maps.append(m2)
        c1, c2 = classify(m1), classify(m2)
        type1_hits += c1.kind is TransformKind.TYPE1
        type2_hits += c2.kind is TransformKind.TYPE2
        if c1.kind is TransformKind.TYPE1:
            u_back = to_unitary(m1)
            unitarity = max(unitarity, float(np.linalg.norm(u_back.conj().T @ u_back - np.eye(n))))
            roundtrip = max(
                roundtrip,
                float(np.linalg.norm(from_unitary(u_back) - m1)),
                float(np.linalg.norm(u_back - u)),
            )
        if c2.kind is TransformKind.TYPE2:
            w_back = to_antiunitary(m2)
            roundtrip = max(roundtrip, float(np.linalg.norm(from_antiunitary(w_back) - m2)))
        identity = min(identity, float(np.linalg.norm(m2 - np.eye(dim))))
        for q in qs:
            v = to_complex(RealState(q)).v
            img1 = to_complex(RealState(m1 @ q)).v
            img2 = to_complex(RealState(m2 @ q)).v
            equivariance = max(
                equivariance,
                float(np.linalg.norm(img1 - u @ v)),
                float(np.linalg.norm(img2 - u @ np.conj(v))),
            )
        for m, k in ((m1, 0), (m2, 1)):
            probe = _next_probe(m, probe_states, probe_shifts)
            probes[k] = max(probes[k], probe.max_deviation)
    values = [type1_hits / constructed, type2_hits / constructed, unitarity, roundtrip,
              equivariance, *probes, identity]
    return values, type1_maps, type2_maps


def _per_round_closure(rng, type1_maps, type2_maps):
    """The closure rounds through classify, one product at a time."""
    constructed = len(type1_maps)
    violations = 0
    for _ in range(25):
        a1 = type1_maps[rng.integers(constructed)]
        b1 = type1_maps[rng.integers(constructed)]
        a2 = type2_maps[rng.integers(constructed)]
        b2 = type2_maps[rng.integers(constructed)]
        expected = [
            (a1 @ b1, TransformKind.TYPE1),
            (a1 @ a2, TransformKind.TYPE2),
            (a2 @ a1, TransformKind.TYPE2),
            (a2 @ b2, TransformKind.TYPE1),
        ]
        violations += sum(classify(prod).kind is not kind for prod, kind in expected)
    return violations


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("count", ["1", "pass-1", "pass+1", "100"])
def test_constructed_maps_and_closure_equal_per_map_public_calls(n, count):
    dim = 2 * n
    constructed = {"1": 1, "pass-1": _probe_pass(dim) - 1, "pass+1": _probe_pass(dim) + 1,
                   "100": 100}[count]
    per_kind, ref_kinds = _per_kind(n), _per_kind(n)
    rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    report = Report("correspondence", {})
    maps = _check_constructed(report, per_kind, n, constructed)
    violations = _closure_violations(rng, maps)
    values, type1_maps, type2_maps = _per_map_constructed(ref_kinds, n, constructed)
    assert [c.value for c in report.checks] == values
    assert np.array_equal(maps, np.stack((type1_maps, type2_maps)))
    assert violations == _per_round_closure(ref_rng, type1_maps, type2_maps) == 0
    assert _states([rng, *per_kind]) == _states([ref_rng, *ref_kinds])
    # every other Type2 map swapped for a Type1 one: which products break the
    # sign rule depends on the maps each round draws
    mixed = [m2 if k % 2 else m1 for k, (m1, m2) in enumerate(zip(type1_maps, type2_maps))]
    got = _closure_violations(np.random.default_rng(5), np.stack((type1_maps, mixed)))
    assert got == _per_round_closure(np.random.default_rng(5), type1_maps, mixed) > 0


def test_constructed_pass_and_closure_keep_their_exception_types(monkeypatch):
    # the same exception types as from_unitary, RealState and classify per map
    from infogeo import statespace, transforms

    def run():
        return _check_constructed(Report("correspondence", {}), _per_kind(7), 3, 10)

    haar = transforms._haar_from_gaussian
    monkeypatch.setattr(transforms, "_haar_from_gaussian", lambda z: 1.001 * haar(z))
    with pytest.raises(NotUnitary):
        run()
    monkeypatch.setattr(transforms, "_haar_from_gaussian", haar)
    # states that passed their own check, scaled: their images fail RealState's
    states = statespace._real_states
    monkeypatch.setattr(statespace, "_real_states", lambda *args: 1.001 * states(*args))
    with pytest.raises(ValidationError, match="unit norm"):
        run()
    monkeypatch.setattr(statespace, "_real_states", states)
    with pytest.raises(NotOrthogonal):
        _closure_violations(np.random.default_rng(7), 1.001 * run())


@pytest.mark.parametrize("n", [2, 3, 8])
def test_closure_in_passes_equals_one_stack(n, monkeypatch):
    # Type1 maps against Type1 and Type2 maps alternating, so that some
    # products break the sign rule
    us = [random_unitary(n, seed) for seed in range(10)]
    type1 = [from_unitary(u) for u in us]
    mixed = [from_antiunitary(u) if k % 2 else from_unitary(u) for k, u in enumerate(us)]
    maps = np.stack((type1, mixed))

    def closure(per_pass):
        monkeypatch.setattr(transforms, "_PASS_BYTES", per_pass * 8 * (2 * n) ** 2)
        rng = np.random.default_rng(5)
        return _closure_violations(rng, maps), rng.bit_generator.state

    whole = closure(100)
    assert whole[0] == _per_round_closure(np.random.default_rng(5), type1, mixed) > 0
    for per_pass in (1, 7):
        assert closure(per_pass) == whole


@pytest.mark.parametrize("n", [2, 8, 64])
def test_every_pass_stays_within_the_pass_budget(n, monkeypatch):
    # per call of a pass's kernels: its items and its largest array's bytes
    passes = []
    probe, commutation, haar = (
        transforms._probe_stack, transforms._commutation, transforms._haar_from_gaussian
    )

    def probe_stack(ms, qs, chi0s, g):
        # the probe's (maps, dim, states, shifts + 1) work array
        passes.append(("probe", len(ms), len(ms) * qs[0].size * (chi0s.shape[1] + 1) * 8))
        return probe(ms, qs, chi0s, g)

    def commutation_test(ms):
        passes.append(("commutation", len(ms), ms.nbytes))
        return commutation(ms)

    def haar_from_gaussian(z):
        passes.append(("haar", len(z), z.nbytes))
        return haar(z)

    def line_search_trials(*args):
        # a line-search product's (restarts, trials, 2, n) outputs
        trials, overlaps = line_search(*args)
        passes.append(("descent", len(trials), trials.nbytes))
        return trials, overlaps

    def measurements(ab, xy):
        # the (restarts, n, n) measurements built from the outputs
        w = measure(ab, xy)
        passes.append(("descent", len(w), w.nbytes))
        return w

    line_search, measure = distmax._trials, distmax._measurements
    monkeypatch.setattr(transforms, "_probe_stack", probe_stack)
    monkeypatch.setattr(transforms, "_commutation", commutation_test)
    monkeypatch.setattr(transforms, "_haar_from_gaussian", haar_from_gaussian)
    monkeypatch.setattr(distmax, "_haar_from_gaussian", haar_from_gaussian)
    monkeypatch.setattr(distmax, "_trials", line_search_trials)
    monkeypatch.setattr(distmax, "_measurements", measurements)
    assert run_correspondence(RunConfig("correspondence", n=n, seed=1, draws=3)).overall_passed
    cfg = RunConfig("wootters", n=n, seed=1, pairs=1, budget=3, draws=300)
    assert run_wootters(cfg).overall_passed
    assert {kind for kind, _, _ in passes} == {"probe", "commutation", "haar", "descent"}
    assert max(items for kind, items, _ in passes if kind == "descent") > 1
    for kind, items, largest in passes:
        assert items == 1 or largest <= transforms._PASS_BYTES, (kind, items, largest)


def test_correspondence_traced_peak_does_not_grow_with_draws():
    import tracemalloc

    peaks = []
    for draws in (64, 64, 1024, 4096):
        tracemalloc.start()
        run_correspondence(RunConfig("correspondence", n=2, seed=1, draws=draws))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # the first run also holds what NumPy allocates once per process; after
    # it the peak stays flat, as every pass draws its objects afresh
    assert peaks[2] <= peaks[1] + 64 * 1024
    assert peaks[3] <= 1.01 * peaks[2]
