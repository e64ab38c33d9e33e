"""End-to-end acceptance battery.

Each test exercises one acceptance criterion at its stated tolerance and
emits a single human-readable pass/fail line (replayed after the run by the
terminal-summary hook in conftest).  Stochastic criteria run at fixed,
recorded seeds.  Criteria 1, 2, 3 and 8 read the check rows of the CLI
batteries that define them, run once at their default configuration.
"""

import functools
import math
import time

import numpy as np

import infogeo as ig
from infogeo import cli
from conftest import record_criterion

SEED = 20260814


def _run(number: int, title: str, body) -> None:
    try:
        ok, detail = body()
    except Exception as exc:
        record_criterion(number, title, False, f"unexpected error: {exc!r}")
        raise
    record_criterion(number, title, ok, detail)


@functools.cache
def _battery(command: str):
    """Check rows by name, details and wall time of one default-config run."""
    started = time.perf_counter()
    report = cli._RUNNERS[command](cli.RunConfig(command, seed=SEED))
    elapsed = time.perf_counter() - started
    return {c.name: c.value for c in report.checks}, report.details, elapsed


# ---------------------------------------------------------------------------


def test_criterion_1_kl_quadratic_cubic_order():
    def body():
        checks, _, elapsed = _battery("metric-check")
        orders = {n: checks[f"kl_fisher_order_n{n}"] for n in (2, 4, 8)}
        ok = all(order >= 2.7 for order in orders.values()) and elapsed < 5.0
        detail = (
            "KL vs quadratic form on 1000 pairs per dimension: observed orders "
            + ", ".join(f"n={n}: {o:.3f}" for n, o in orders.items())
            + f" (need >= 2.7); metric battery {elapsed:.2f} s (limit 5 s)"
        )
        return ok, detail

    _run(1, "KL agrees with the metric to cubic order", body)


def test_criterion_2_information_gain_law():
    def body():
        # default coin pair [0.5, 0.5] vs [0.505, 0.495]: ds^2 per toss 2.5e-5
        checks, details, _ = _battery("coin-distinguish")
        # at signal s the ratio band is s itself
        ratios = [
            (row["signal"], checks[f"gain_ratio_at_{band:g}"], band)
            for row, band in zip(details["gain_table"], (0.05, 0.02, 0.01))
        ]
        exact = checks["worked_point_exact_gain"]  # signal 0.1
        approx = checks["worked_point_approx_gain"]
        worked_ok = abs(exact - 0.00498) <= 1e-5 and abs(approx - 0.005) <= 1e-5
        ok = all(abs(r - 1.0) <= b for _, r, b in ratios) and worked_ok
        detail = (
            "exact/approx gain ratios "
            + ", ".join(f"{r:.5f} at signal {s:g} (band {b:.0%})" for s, r, b in ratios)
            + f"; worked point exact={exact:.6f} (target 0.00498 +- 1e-5), "
            + f"approx={approx:.6f} (target 0.005 +- 1e-5)"
        )
        return ok, detail

    _run(2, "information gain matches the squared-signal law", body)


def test_criterion_3_monte_carlo_distinguishability():
    def body():
        checks, details, elapsed = _battery("coin-distinguish")
        mc = details["monte_carlo"]  # 800 tosses: signal 0.02 <= 0.05
        err = checks["monte_carlo_gain_abs_error"]
        bound = 3.0 * mc["stderr_gain_at_mean_posterior"]
        ok = err <= bound and elapsed < 60.0
        detail = (
            f"10^4 trials at seed {SEED}: entropy drop at the mean posterior "
            f"{mc['gain_at_mean_posterior']:.4e} vs exact {mc['exact_gain']:.4e}, "
            f"|diff| {err:.2e} <= {bound:.2e} (3 standard errors); "
            f"coin battery {elapsed:.1f} s (limit 60 s)"
        )
        return ok, detail

    _run(3, "Monte Carlo posterior matches the closed-form gain", body)


def test_criterion_4_metric_pullback():
    def body():
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for k in range(1000):
            dim = (4, 6, 8)[k % 3]
            state = ig.random_real_state(dim, rng)
            dq = rng.uniform(-1.0, 1.0, size=dim)
            dq -= (dq @ state.q) * state.q  # tangent to the sphere
            dq *= 1e-3
            events = ig.state_event_probs(state)
            d_events = ig.TangentVec(2.0 * state.q * dq)
            fisher = ig.fisher_quadratic(
                ig.ProbDist(events.event_probs), d_events
            )
            worst = max(worst, abs(fisher - float(dq @ dq)))
        ok = worst <= 1e-10
        detail = (
            "information metric on squared coordinates vs Euclidean form on "
            f"1000 random sphere tangents: max |difference| {worst:.3e} "
            "(limit 1e-10)"
        )
        return ok, detail

    _run(4, "metric pullback is Euclidean on the sphere chart", body)


def test_criterion_5_correspondence():
    def body():
        rng = np.random.default_rng(SEED)
        unitarity = 0.0
        roundtrip = 0.0
        equivariance = 0.0
        classified = 0
        for k in range(100):
            n = (2, 3)[k % 2]
            u = ig.random_unitary(n, int(rng.integers(2**62)))
            m1 = ig.from_unitary(u)
            m2 = ig.from_antiunitary(u)
            if ig.classify(m1).kind is ig.TransformKind.TYPE1:
                classified += 1
            u_back = ig.to_unitary(m1)
            unitarity = max(
                unitarity,
                float(np.linalg.norm(u_back.conj().T @ u_back - np.eye(n))),
            )
            roundtrip = max(
                roundtrip,
                float(np.linalg.norm(u_back - u)),
                float(np.linalg.norm(ig.from_unitary(u_back) - m1)),
                float(np.linalg.norm(ig.from_antiunitary(ig.to_antiunitary(m2)) - m2)),
            )
            state = ig.random_real_state(2 * n, rng)
            v = ig.to_complex(state).v
            img1 = ig.to_complex(ig.RealState(m1 @ state.q)).v
            img2 = ig.to_complex(ig.RealState(m2 @ state.q)).v
            equivariance = max(
                equivariance,
                float(np.linalg.norm(img1 - u @ v)),
                float(np.linalg.norm(img2 - u @ np.conj(v))),
            )

        neither = 0
        probe_failures = 0
        witnesses = 0
        for _ in range(1000):
            m = ig.random_orthogonal(4, int(rng.integers(2**62)))
            if ig.classify(m).kind is ig.TransformKind.NEITHER:
                neither += 1
            probe = ig.gauge_invariance_probe(m, seed=int(rng.integers(2**62)))
            if not probe.passed:
                probe_failures += 1
                if probe.witness_state is not None and probe.witness_shift is not None:
                    witnesses += 1

        ok = (
            classified == 100
            and unitarity <= 1e-10
            and roundtrip <= 1e-12
            and equivariance <= 1e-10
            and neither == 1000
            and probe_failures == 1000
            and witnesses == 1000
        )
        detail = (
            f"100 constructed maps: {classified}/100 classified, unitarity defect "
            f"{unitarity:.2e} (limit 1e-10), round-trip {roundtrip:.2e} (limit 1e-12), "
            f"equivariance {equivariance:.2e} (limit 1e-10); 1000 Haar orthogonal: "
            f"{neither}/1000 neither, {probe_failures}/1000 fail the probe, "
            f"{witnesses}/1000 with recorded witness"
        )
        return ok, detail

    _run(5, "orthogonal maps correspond to (anti)unitaries", body)


def test_criterion_6_gauge_invariance_probe():
    def body():
        rng = np.random.default_rng(SEED)
        worst = 0.0
        all_passed = True
        count = 0
        for k in range(30):
            n = (2, 3)[k % 2]
            u = ig.random_unitary(n, int(rng.integers(2**62)))
            for m in (ig.from_unitary(u), ig.from_antiunitary(u)):
                res = ig.gauge_invariance_probe(
                    m, n_states=32, n_shifts=16, seed=int(rng.integers(2**62))
                )
                worst = max(worst, res.max_deviation)
                all_passed = all_passed and res.passed
                count += 1
        ok = all_passed and worst <= 1e-10
        detail = (
            f"{count} structured maps probed over 32 states x 16 shifts: "
            f"max outcome-probability deviation {worst:.3e} (limit 1e-10)"
        )
        return ok, detail

    _run(6, "structured maps preserve outcome probabilities under shifts", body)


def test_criterion_7_born_statistics():
    def body():
        rng = np.random.default_rng(SEED)
        born_err = 0.0
        repeat_defect = 0.0
        for k in range(50):
            n = (2, 3, 4)[k % 3]
            meas = ig.Measurement(
                ig.random_unitary(n, int(rng.integers(2**62))),
                phases=rng.uniform(0.0, 2.0 * math.pi, size=n),
            )
            for _ in range(2):
                v = ig.random_complex_state(n, rng)
                via_stage = ig.outcome_distribution(meas, v).probs
                via_basis = np.abs(meas.basis().conj().T @ v.v) ** 2
                born_err = max(born_err, float(np.abs(via_stage - via_basis).max()))
            audit = ig.simulability_roundtrip(meas)
            repeat_defect = max(repeat_defect, audit.repeat_defect)

        shots = 100_000
        meas_s = ig.Measurement(
            ig.random_unitary(3, 314), phases=rng.uniform(0.0, 2.0 * math.pi, size=3)
        )
        v_s = ig.random_complex_state(3, rng)
        probs = ig.outcome_distribution(meas_s, v_s).probs
        counts = ig.sample_outcomes(meas_s, v_s, shots, seed=271828)
        zmax = max(
            abs(counts[i] - shots * probs[i])
            / math.sqrt(shots * probs[i] * (1.0 - probs[i]))
            for i in range(3)
        )
        ok = born_err <= 1e-12 and repeat_defect <= 1e-12 and zmax <= 3.0
        detail = (
            f"probability rule two-route max error {born_err:.2e} (limit 1e-12); "
            f"repeat-measurement defect {repeat_defect:.2e} (limit 1e-12); "
            f"10^5-shot frequencies max z {zmax:.2f} (limit 3)"
        )
        return ok, detail

    _run(7, "outcome statistics follow the squared-amplitude rule", body)


def test_criterion_8_measure_invariance():
    def body():
        checks, _, _ = _battery("metric-check")
        deviation = checks["measure_quadratic_deviation"]  # theta = chi^2
        ok = (
            checks["measure_affine_passes"] == 1.0
            and checks["measure_quadratic_flagged"] == 1.0
            and abs(deviation - 2.0) <= 1e-12
        )
        detail = (
            "affine angle map passes; quadratic angle map on [0, 1] fails with "
            f"deviation {deviation:.12f} (expected 2.0)"
        )
        return ok, detail

    _run(8, "only affine angle maps keep the outcome measure uniform", body)


def test_criterion_9_distance_envelope_and_maximum():
    def body():
        rng = np.random.default_rng(SEED)
        worst_gap = {2: 0.0, 3: 0.0}
        slowest = 0.0
        for n, bound in ((2, 1e-3), (3, 5e-3)):
            for _ in range(20):
                u = ig.random_complex_state(n, rng)
                v = ig.random_complex_state(n, rng)
                started = time.perf_counter()
                res = ig.maximize_statistical_distance(
                    u, v, budget=10, seed=int(rng.integers(2**62))
                )
                slowest = max(slowest, time.perf_counter() - started)
                worst_gap[n] = max(worst_gap[n], res.gap)

        envelope = -math.inf
        for k in range(1000):
            n = (2, 3)[k % 2]
            u = ig.random_complex_state(n, rng)
            v = ig.random_complex_state(n, rng)
            meas = ig.Measurement(ig.random_unitary(n, int(rng.integers(2**62))))
            ds = ig.statistical_distance(
                ig.outcome_distribution(meas, u), ig.outcome_distribution(meas, v)
            )
            envelope = max(envelope, ds - ig.hilbert_distance(u, v))

        ok = (
            worst_gap[2] <= 1e-3
            and worst_gap[3] <= 5e-3
            and slowest < 10.0
            and envelope <= 1e-9
        )
        detail = (
            f"20 pairs per dimension: max |max distance - state angle| "
            f"{worst_gap[2]:.2e} at N=2 (limit 1e-3), {worst_gap[3]:.2e} at N=3 "
            f"(limit 5e-3); slowest pair {slowest:.2f} s (limit 10 s); "
            f"envelope excess over 1000 triples {envelope:.2e} (limit 1e-9)"
        )
        return ok, detail

    _run(9, "statistical distance is capped by and attains the state angle", body)
