import json

import pytest

from infogeo.cli import RunConfig, build_parser, main, run_correspondence
from infogeo.errors import ValidationError

# small, fast battery sizes shared by most invocations
FAST = [
    "--trials", "500",
    "--shots", "2000",
    "--draws", "50",
    "--pairs", "2",
    "--tangents", "50",
]


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
        RunConfig("metric-check", seed=1, format="yaml").validate()
    with pytest.raises(ValidationError):
        RunConfig("metric-check", seed=1, budget=0).validate()
    with pytest.raises(ValidationError):
        RunConfig("metric-check", seed=1, trials=-1).validate()


def test_seed_requirement():
    with pytest.raises(ValidationError):
        RunConfig("metric-check").validate()
    with pytest.raises(ValidationError):
        RunConfig("coin-distinguish", trials=10).validate()
    RunConfig("coin-distinguish", trials=0).validate()  # deterministic run


def test_parser_accepts_all_flags():
    args = build_parser().parse_args(
        [
            "wootters", "--n", "3", "--seed", "5", "--trials", "10", "--shots",
            "20", "--budget", "3", "--delta", "0.01", "--pairs", "4", "--draws",
            "6", "--tangents", "7", "--format", "csv", "--out", "x.csv",
            "--tol-override", "max_gap=0.1",
        ]
    )
    assert args.command == "wootters" and args.n == 3 and args.seed == 5
    assert args.tol_override == [("max_gap", 0.1)]


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
    code, out, err = run(["metric-check", "--seed", "1"] + FAST, capsys)
    assert code == 0
    assert json.loads(out)["overall_passed"] is True
    assert "PASS metric-check" in err


def test_forced_failure_exits_one(capsys):
    code, out, err = run(
        ["metric-check", "--seed", "1", *FAST,
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


def test_parser_leaves_defaults_to_run_config():
    args = build_parser().parse_args(["born-check"])
    assert vars(args) == {"command": "born-check"}


# ---------------------------------------------------------------------------
# report content


def test_report_echoes_full_config(capsys):
    code, out, _ = run(
        ["born-check", "--seed", "9", "--n", "3", *FAST], capsys
    )
    assert code == 0
    cfg = json.loads(out)["config"]
    assert cfg["command"] == "born-check"
    assert cfg["n"] == 3 and cfg["seed"] == 9
    assert cfg["shots"] == 2000 and cfg["trials"] == 500
    assert cfg["tol_overrides"] == {}


def test_identical_configs_are_byte_identical_apart_from_duration(capsys):
    argv = ["correspondence", "--seed", "4", *FAST]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)

    def strip(text):
        return [l for l in text.splitlines() if "duration_seconds" not in l]

    assert out1 != out2  # duration differs
    assert strip(out1) == strip(out2)


def test_csv_format(capsys):
    code, out, _ = run(
        ["wootters", "--seed", "3", "--format", "csv", *FAST], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("command,n,seed,trials,shots,budget,check,")
    assert all(line.startswith("wootters,2,3,") for line in lines[1:])
    assert len(lines) == 5  # header + four checks


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
        ["coin-distinguish", "--seed", "2", *FAST, "--out", str(path)], capsys
    )
    assert code == 0
    assert out == ""  # report goes to the file, not stdout
    assert "PASS coin-distinguish" in err
    report = json.loads(path.read_text())
    assert report["command"] == "coin-distinguish"


def test_all_aggregates_every_battery(capsys):
    code, out, _ = run(["all", "--seed", "6", *FAST], capsys)
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
    code, out, _ = run(["correspondence", "--seed", "8", *FAST], capsys)
    assert code == 0
    report = json.loads(out)
    witness = report["details"]["first_haar_witness"]
    assert witness["witness_state"]["shape"] == [4]
    assert witness["deviation"] > 1e-6
    assert any("2x2" in note for note in report["notes"])


def test_correspondence_runner_seeded_identically():
    cfg = RunConfig("correspondence", seed=12, draws=10)
    cfg.validate()
    a = run_correspondence(cfg)
    b = run_correspondence(cfg)
    assert [(c.name, c.value) for c in a.checks] == [
        (c.name, c.value) for c in b.checks
    ]


def test_coin_distinguish_monte_carlo_details(capsys):
    code, out, _ = run(
        ["coin-distinguish", "--seed", "5", "--trials", "300"], capsys
    )
    assert code == 0
    mc = json.loads(out)["details"]["monte_carlo"]
    assert mc["trials"] == 300
    assert mc["tosses"] == 800  # signal 0.02 at delta 0.005
    assert mc["stderr_gain_at_mean_posterior"] > 0.0
