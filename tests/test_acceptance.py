"""End-to-end acceptance battery.

Each test exercises one acceptance criterion at its stated tolerance and
emits a single human-readable pass/fail line (replayed after the run by the
terminal-summary hook in conftest).  Stochastic criteria run at fixed,
recorded seeds.  Every criterion reads the check rows of the CLI batteries
that define it, each run once at seed SEED and an outcome dimension n named
by the criterion, with the other options at their defaults; the criteria
assert their own bounds on those rows.  Criterion 9 also times every
optimized pair of its `wootters` runs, because its per-pair limit of 10 s
is not a value the battery reports.
"""

import functools
import time

from infogeo import cli, distmax
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
def _battery(command: str, n: int):
    """Check rows by name, details and wall time of one run at dimension n."""
    started = time.perf_counter()
    report = cli._RUNNERS[command](cli.RunConfig(command, n=n, seed=SEED))
    elapsed = time.perf_counter() - started
    return {c.name: c.value for c in report.checks}, report.details, elapsed


# ---------------------------------------------------------------------------


def test_criterion_1_kl_quadratic_cubic_order():
    def body():
        checks, _, elapsed = _battery("metric-check", 2)
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
        checks, details, _ = _battery("coin-distinguish", 2)
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
        checks, details, elapsed = _battery("coin-distinguish", 2)
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
        # outcome dimension n puts the sphere chart in dimension 2n
        worst = {
            2 * n: _battery("metric-check", n)[0]["event_metric_pullback_max"]
            for n in (2, 3, 4)
        }
        ok = all(w <= 1e-10 for w in worst.values())
        detail = (
            "information metric on event probabilities vs Euclidean form in "
            "square-root coordinates, 1000 tangents per dimension: max |difference| "
            + ", ".join(f"{w:.3e} at dim {d}" for d, w in worst.items())
            + " (limit 1e-10)"
        )
        return ok, detail

    _run(4, "metric pullback is Euclidean on the sphere chart", body)


def test_criterion_5_correspondence():
    def body():
        rows = {n: _battery("correspondence", n) for n in (2, 3)}
        ok = all(
            checks["constructed_type1_classified_fraction"] == 1.0
            and checks["constructed_type2_classified_fraction"] == 1.0
            and checks["type1_unitarity_max_defect"] <= 1e-10
            and checks["conversion_roundtrip_max"] <= 1e-12
            and checks["equivariance_max_defect"] <= 1e-10
            and checks["haar_neither_fraction"] == 1.0
            and checks["haar_probe_failure_fraction"] == 1.0
            and details["first_haar_witness"]
            for checks, details, _ in rows.values()
        )
        detail = "; ".join(
            f"N={n}: 100 constructed maps per branch, classified "
            f"{c['constructed_type1_classified_fraction']:.0%} / "
            f"{c['constructed_type2_classified_fraction']:.0%}, unitarity defect "
            f"{c['type1_unitarity_max_defect']:.2e} (limit 1e-10), round-trip "
            f"{c['conversion_roundtrip_max']:.2e} (limit 1e-12), equivariance "
            f"{c['equivariance_max_defect']:.2e} (limit 1e-10); 1000 Haar orthogonal: "
            f"{c['haar_neither_fraction']:.0%} neither, "
            f"{c['haar_probe_failure_fraction']:.0%} fail the probe, witness "
            f"{'recorded' if d['first_haar_witness'] else 'missing'}"
            for n, (c, d, _) in rows.items()
        )
        return ok, detail

    _run(5, "orthogonal maps correspond to (anti)unitaries", body)


def test_criterion_6_gauge_invariance_probe():
    def body():
        rows = {n: _battery("correspondence", n)[0] for n in (2, 3)}
        worst = {
            n: max(c["gauge_probe_type1_max_dev"], c["gauge_probe_type2_max_dev"])
            for n, c in rows.items()
        }
        ok = all(w <= 1e-10 for w in worst.values())
        detail = (
            "100 Type1 and 100 Type2 maps per dimension probed over 32 states x "
            "16 shifts: max outcome-probability deviation "
            + ", ".join(f"{w:.3e} at N={n}" for n, w in worst.items())
            + " (limit 1e-10)"
        )
        return ok, detail

    _run(6, "structured maps preserve outcome probabilities under shifts", body)


def test_criterion_7_born_statistics():
    def body():
        rows = {n: _battery("born-check", n)[0] for n in (2, 3, 4)}
        ok = all(
            c["born_rule_max_error"] <= 1e-12
            and c["reproducibility_max_defect"] <= 1e-12
            and c["count_zscore_max"] <= 3.0
            for c in rows.values()
        )
        detail = "; ".join(
            f"N={n}: probability rule two-route max error "
            f"{c['born_rule_max_error']:.2e} (limit 1e-12), repeat-measurement "
            f"defect {c['reproducibility_max_defect']:.2e} (limit 1e-12), "
            f"10^5-shot frequencies max z {c['count_zscore_max']:.2f} (limit 3)"
            for n, c in rows.items()
        )
        return ok, detail

    _run(7, "outcome statistics follow the squared-amplitude rule", body)


def test_criterion_8_measure_invariance():
    def body():
        checks, _, _ = _battery("metric-check", 2)
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


def test_criterion_9_distance_envelope_and_maximum(monkeypatch):
    pair_seconds = []
    maximize_pairs = distmax._maximize_pairs

    def timed(*args, **kwargs):
        # each pair's time runs from the start of the battery's stacked search
        # to the yield of the pair's result, at least the pair's own time
        started = time.perf_counter()
        for result in maximize_pairs(*args, **kwargs):
            pair_seconds.append(time.perf_counter() - started)
            yield result

    def body():
        # uncached, so every optimized pair of these two runs is timed
        monkeypatch.setattr(distmax, "_maximize_pairs", timed)
        rows = {n: _battery.__wrapped__("wootters", n)[0] for n in (2, 3)}
        gaps = {n: c["max_gap"] for n, c in rows.items()}
        envelope = max(c["envelope_max_violation"] for c in rows.values())
        slowest = max(pair_seconds)
        ok = (
            gaps[2] <= 1e-3
            and gaps[3] <= 5e-3
            and len(pair_seconds) == 40
            and slowest < 10.0
            and envelope <= 1e-9
        )
        detail = (
            f"20 pairs per dimension: max |max distance - state angle| "
            f"{gaps[2]:.2e} at N=2 (limit 1e-3), {gaps[3]:.2e} at N=3 "
            f"(limit 5e-3); slowest of {len(pair_seconds)} pairs {slowest:.2f} s "
            f"(limit 10 s); envelope excess over 1000 triples per dimension "
            f"{envelope:.2e} (limit 1e-9)"
        )
        return ok, detail

    _run(9, "statistical distance is capped by and attains the state angle", body)
