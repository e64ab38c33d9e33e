import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo import (
    Measurement,
    ProbDist,
    RealState,
    TangentVec,
    coarse_grain,
    from_polar,
    gauge_shift,
    hilbert_distance,
    outcome_distribution,
    random_complex_state,
    random_real_state,
    random_unitary,
    state_event_probs,
    statistical_distance,
    to_polar,
)
from infogeo.cli import (
    SIZE_CAPS,
    RunConfig,
    _centered_direction,
    _envelope_distances,
    _kl_fisher_errors,
    _worst_pullback,
    build_parser,
    main,
    run_correspondence,
)
from infogeo.errors import NotUnitary, ValidationError
from infogeo.reporting import array_from_json

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
def test_size_caps_exit_two_before_allocating(name, capsys):
    cap = SIZE_CAPS[name]
    RunConfig("all", seed=1, **{name: cap}).validate()
    with pytest.raises(ValidationError, match=f"--{name} must be at most {cap}"):
        RunConfig("all", seed=1, **{name: cap + 1}).validate()
    # validation runs before any battery, so this allocates nothing
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
    assert_exit_contract([command, "--n", str(n), "--seed", str(seed), "--delta", repr(f / n),
                          "--trials", str(trials), "--shots", str(shots)])


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
    assert_exit_contract([command, "--n", str(n), "--pairs", str(pairs), "--draws", str(draws),
                          "--budget", str(budget), "--seed", str(seed)])


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


def test_unwritable_out_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run(["born-check", "--seed", "1", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "config error: cannot write report" in err
    assert not path.exists()


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

    worst = 0.0
    for _ in range(tangents):
        state = random_real_state(2 * n, rng)
        dq = rng.uniform(-1.0, 1.0, size=2 * n)
        dq -= (dq @ state.q) * state.q
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


def test_centered_direction_maps_all_equal_row_to_edge():
    u = np.array([[0.3, 0.3, 0.3, 0.3], [0.1, 0.9, 0.4, 0.2], [0.6, 0.6, 0.6, 0.6]])
    rows = _centered_direction(u)
    assert rows[0].tolist() == rows[2].tolist() == [1.0, 0.0, 0.0, -1.0]
    d = -1.0 + 2.0 * u[1]
    d -= d.mean()
    assert rows[1].tolist() == (d / np.abs(d).max()).tolist()
    assert _centered_direction(np.full(3, 0.7)).tolist() == [1.0, 0.0, -1.0]


# ---------------------------------------------------------------------------
# the wootters envelope's array pass against a per-draw reference loop


def _per_draw_envelope(rng, n, draws):
    """Each draw's d_S and d_H through the public constructors: two random
    states, a Haar measurement and two outcome distributions per draw."""
    rows = []
    for _ in range(draws):
        u = random_complex_state(n, rng)
        v = random_complex_state(n, rng)
        meas = Measurement(random_unitary(n, rng.integers(2**62)))
        ds = statistical_distance(outcome_distribution(meas, u), outcome_distribution(meas, v))
        rows.append((ds, hilbert_distance(u, v)))
    return np.array(rows)


@pytest.mark.parametrize("seed", [7, 42])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_envelope_matches_per_draw_loop(n, seed):
    ref = _per_draw_envelope(np.random.default_rng(seed), n, 500)
    rng = np.random.default_rng(seed)
    # two passes, so the second starts where the first left the stream
    first, second = _envelope_distances(rng, n, 300), _envelope_distances(rng, n, 200)
    ds = np.concatenate((first[0], second[0]))
    dh = np.concatenate((first[1], second[1]))
    assert ds.tolist() == ref[:, 0].tolist()
    assert dh.tolist() == ref[:, 1].tolist()
    assert np.max(ds - dh) == np.max(ref[:, 0] - ref[:, 1])


def test_envelope_checks_unitarity_and_normalization(monkeypatch):
    # the same exception types as a Measurement and a ComplexState per draw
    from infogeo import statespace, transforms

    haar = transforms._haar_from_gaussian
    monkeypatch.setattr(transforms, "_haar_from_gaussian", lambda z: 1.001 * haar(z))
    with pytest.raises(NotUnitary):
        _envelope_distances(np.random.default_rng(7), 3, 20)
    monkeypatch.setattr(transforms, "_haar_from_gaussian", haar)
    amplitudes = statespace._random_amplitudes
    monkeypatch.setattr(statespace, "_random_amplitudes", lambda rng, n: 1.001 * amplitudes(rng, n))
    with pytest.raises(ValidationError, match="probs sum to"):
        _envelope_distances(np.random.default_rng(7), 3, 20)
