"""Seeded verification batteries with JSON/CSV reports.

Subcommands: coin-distinguish, metric-check, correspondence, born-check,
wootters, all.  Exit codes: 0 all checks pass, 1 at least one check failed,
2 usage or configuration error.  Reports for identical configurations are
byte-identical apart from the duration field.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bayes, distmax, measurement, simplex, statespace, transforms
from .errors import InfoGeoError, NotOrthogonal, ValidationError
from .reporting import (
    Report,
    array_to_json,
    check_ge,
    check_le,
    check_within,
    format_float,
    render_report,
)

_STOCHASTIC_ALWAYS = {"metric-check", "correspondence", "born-check", "wootters", "all"}


@dataclass
class RunConfig:
    command: str
    n: int = 2
    seed: int | None = None
    trials: int = 10_000
    shots: int = 100_000
    budget: int = 10
    delta: float = 0.005
    pairs: int = 20
    draws: int = 1000
    tangents: int = 1000
    format: str = "json"
    out: str | None = None
    tol_overrides: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        if self.n < 2:
            raise ValidationError("--n must be at least 2")
        if self.trials < 0 or self.shots < 0:
            raise ValidationError("--trials and --shots must be nonnegative")
        if self.budget < 1 or self.pairs < 1 or self.draws < 1 or self.tangents < 1:
            raise ValidationError("--budget, --pairs, --draws, --tangents must be positive")
        if not 0.0 < self.delta < 1.0 / self.n:
            raise ValidationError("--delta must lie in (0, 1/n)")
        if self.format not in ("json", "csv"):
            raise ValidationError("--format must be json or csv")
        needs_seed = self.command in _STOCHASTIC_ALWAYS or (
            self.command == "coin-distinguish" and self.trials > 0
        )
        if needs_seed and self.seed is None:
            raise ValidationError(
                f"--seed is required for stochastic runs of {self.command!r}"
            )

    def echo(self) -> dict:
        d = asdict(self)
        d["tol_overrides"] = {k: self.tol_overrides[k] for k in sorted(self.tol_overrides)}
        return d


def _uniform_coin_pair(n: int, delta: float):
    p = simplex.ProbDist(np.full(n, 1.0 / n))
    pattern = np.zeros(n)
    pattern[0], pattern[-1] = 1.0, -1.0
    p2 = simplex.ProbDist(p.probs + delta * pattern)
    dp = simplex.TangentVec(delta * pattern)
    return p, p2, dp


def _tosses_for_signal(target: float, ds2: float) -> int:
    return max(1, round(target / ds2))


def run_coin_distinguish(cfg: RunConfig) -> Report:
    ov = cfg.tol_overrides
    report = Report("coin-distinguish", cfg.echo())
    p, p2, dp = _uniform_coin_pair(cfg.n, cfg.delta)
    ds2 = simplex.fisher_quadratic(p, dp)

    table = []
    for target, band in ((0.05, 0.05), (0.02, 0.02), (0.01, 0.01)):
        tosses = _tosses_for_signal(target, ds2)
        exp = bayes.CoinExperiment(p, p2, tosses)
        exact = bayes.info_gain_exact(exp)
        approx = bayes.info_gain_approx(exp)
        ratio = exact / approx
        table.append(
            {"signal": tosses * ds2, "tosses": tosses, "exact": exact,
             "approx": approx, "ratio": ratio}
        )
        report.checks.append(
            check_within(f"gain_ratio_at_{target:g}", ratio, 1.0, band, ov)
        )

    tosses_w = _tosses_for_signal(0.1, ds2)
    exp_w = bayes.CoinExperiment(p, p2, tosses_w)
    report.checks.append(
        check_within("worked_point_exact_gain", bayes.info_gain_exact(exp_w),
                     0.00498, 1e-5, ov)
    )
    report.checks.append(
        check_within("worked_point_approx_gain", bayes.info_gain_approx(exp_w),
                     0.005, 1e-5, ov)
    )

    exp_same = bayes.CoinExperiment(p, p, tosses_w)
    report.checks.append(
        check_le("equal_coins_exact_gain", bayes.info_gain_exact(exp_same), 0.0, ov)
    )

    details: dict = {
        "ds2_per_toss": ds2,
        "coin_p": array_to_json(p.probs),
        "coin_p2": array_to_json(p2.probs),
        "gain_table": table,
    }
    if cfg.trials > 0:
        tosses_mc = _tosses_for_signal(0.02, ds2)
        exp_mc = bayes.CoinExperiment(p, p2, tosses_mc)
        summary = bayes.monte_carlo_gain(exp_mc, cfg.trials, cfg.seed)
        exact_mc = bayes.info_gain_exact(exp_mc)
        diff = abs(summary.gain_at_mean_posterior - exact_mc)
        report.checks.append(
            check_le("monte_carlo_gain_abs_error", diff,
                     3.0 * summary.stderr_gain_at_mean_posterior, ov)
        )
        details["monte_carlo"] = dict(asdict(summary), tosses=tosses_mc,
                                      exact_gain=exact_mc)
    report.details = details
    return report


def _interior_dist(rng: np.random.Generator, n: int) -> np.ndarray:
    # entries bounded away from 0 so epsilon-steps up to 1e-2 stay inside
    w = rng.uniform(0.1, 1.0, size=n)
    return w / w.sum()


def _centered_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    d = rng.uniform(-1.0, 1.0, size=n)
    d -= d.mean()
    scale = np.abs(d).max()
    if scale == 0.0:
        d[0], d[-1] = 1.0, -1.0
        scale = 1.0
    return d / scale


def run_metric_check(cfg: RunConfig) -> Report:
    ov = cfg.tol_overrides
    report = Report("metric-check", cfg.echo())
    rng = np.random.default_rng(cfg.seed)
    epsilons = (1e-2, 5e-3, 2.5e-3)

    orders = {}
    for n in (2, 4, 8):
        errs = np.zeros(len(epsilons))
        for _ in range(cfg.tangents):
            p = simplex.ProbDist(_interior_dist(rng, n))
            direction = _centered_direction(rng, n)
            for k, eps in enumerate(epsilons):
                dp = simplex.TangentVec(eps * direction)
                p2 = simplex.ProbDist(p.probs + eps * direction)
                errs[k] += abs(
                    simplex.kl_divergence(p, p2) - 2.0 * simplex.fisher_quadratic(p, dp)
                )
        errs /= cfg.tangents
        order = min(
            math.log2(errs[k] / errs[k + 1]) for k in range(len(epsilons) - 1)
        )
        orders[n] = order
        report.checks.append(check_ge(f"kl_fisher_order_n{n}", order, 2.7, ov))

    dim = 2 * cfg.n
    worst_pullback = 0.0
    for _ in range(cfg.tangents):
        big_p = _interior_dist(rng, dim)
        d_raw = _centered_direction(rng, dim) * 1e-3
        fisher_form = simplex.fisher_quadratic(
            simplex.ProbDist(big_p), simplex.TangentVec(d_raw)
        )
        dq = d_raw / (2.0 * np.sqrt(big_p))
        worst_pullback = max(worst_pullback, abs(fisher_form - float(dq @ dq)))
    report.checks.append(check_le("event_metric_pullback_max", worst_pullback, 1e-10, ov))

    worst_embed = 0.0
    worst_triangle = 0.0
    worst_scaling = 0.0
    for _ in range(200):
        a = simplex.ProbDist.renormalized(rng.uniform(0, 1, cfg.n))
        b = simplex.ProbDist.renormalized(rng.uniform(0, 1, cfg.n))
        c = simplex.ProbDist.renormalized(rng.uniform(0, 1, cfg.n))
        via_embed = math.acos(
            min(1.0, float(simplex.sqrt_embed(a) @ simplex.sqrt_embed(b)))
        )
        worst_embed = max(
            worst_embed, abs(via_embed - simplex.statistical_distance(a, b))
        )
        worst_triangle = max(
            worst_triangle,
            simplex.statistical_distance(a, c)
            - simplex.statistical_distance(a, b)
            - simplex.statistical_distance(b, c),
        )
        p_in = simplex.ProbDist(_interior_dist(rng, cfg.n))
        d1 = simplex.TangentVec(_centered_direction(rng, cfg.n) * 1e-3)
        d2 = simplex.TangentVec(2.0 * d1.deltas)
        worst_scaling = max(
            worst_scaling,
            abs(simplex.fisher_quadratic(p_in, d2) - 4.0 * simplex.fisher_quadratic(p_in, d1)),
        )
    report.checks.append(check_le("embed_distance_identity_max", worst_embed, 1e-12, ov))
    report.checks.append(check_le("triangle_inequality_max_violation", worst_triangle, 1e-12, ov))
    report.checks.append(check_le("quadratic_scaling_max_error", worst_scaling, 1e-15, ov))

    worst_polar = 0.0
    for _ in range(200):
        gauge = statespace.GaugeConvention(
            a=float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])),
            b=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        ps = statespace.PolarState(
            simplex.ProbDist(_interior_dist(rng, cfg.n)),
            rng.uniform(0.0, 2.0 * math.pi, size=cfg.n),
        )
        dp = simplex.TangentVec(_centered_direction(rng, cfg.n))
        dtheta = rng.uniform(-1.0, 1.0, size=cfg.n)
        dchi = rng.uniform(-1.0, 1.0, size=cfg.n)
        quad = statespace.polar_metric_quadratic(ps, dp, dtheta, gauge, dchi)
        dq = statespace.polar_pushforward(ps, dp, dtheta + gauge.a * dchi)
        worst_polar = max(worst_polar, abs(quad - float(dq @ dq)))
    report.checks.append(check_le("polar_metric_consistency_max", worst_polar, 1e-10, ov))

    grid = np.linspace(0.0, 1.0, 101)
    slope = float(rng.uniform(0.5, 3.0))
    affine = statespace.measure_invariance_check(np.full(grid.size, slope))
    report.checks.append(
        check_within("measure_affine_passes", float(affine.passed), 1.0, 0.0, ov)
    )
    quadratic = statespace.measure_invariance_check(2.0 * grid)
    report.checks.append(
        check_within("measure_quadratic_flagged", float(not quadratic.passed), 1.0, 0.0, ov)
    )
    report.checks.append(
        check_within("measure_quadratic_deviation", quadratic.deviation, 2.0, 1e-12, ov)
    )

    report.details = {
        "kl_fisher_orders": {f"n{k}": v for k, v in orders.items()},
        "epsilons": list(epsilons),
        "measure_quadratic": {
            "deviation": quadratic.deviation,
            "mean_abs_slope": quadratic.mean_abs_slope,
        },
    }
    return report


def run_correspondence(cfg: RunConfig) -> Report:
    ov = cfg.tol_overrides
    report = Report("correspondence", cfg.echo())
    n = cfg.n
    dim = 2 * n
    ss = np.random.SeedSequence(cfg.seed)
    rng = np.random.default_rng(ss.spawn(1)[0])

    constructed = 100
    type1_hits = type2_hits = 0
    unitarity_defect = 0.0
    roundtrip_defect = 0.0
    equivariance_defect = 0.0
    probe_dev_t1 = probe_dev_t2 = 0.0
    identity_distance = math.inf
    type1_maps = []
    type2_maps = []
    for k in range(constructed):
        u = transforms.random_unitary(n, rng.integers(2**62))
        m1 = transforms.from_unitary(u)
        m2 = transforms.from_antiunitary(u)
        type1_maps.append(m1)
        type2_maps.append(m2)
        c1, c2 = transforms.classify(m1), transforms.classify(m2)
        type1_hits += c1.kind is transforms.TransformKind.TYPE1
        type2_hits += c2.kind is transforms.TransformKind.TYPE2
        if c1.kind is transforms.TransformKind.TYPE1:
            u_back = transforms.to_unitary(m1)
            unitarity_defect = max(
                unitarity_defect,
                float(np.linalg.norm(u_back.conj().T @ u_back - np.eye(n))),
            )
            roundtrip_defect = max(
                roundtrip_defect,
                float(np.linalg.norm(transforms.from_unitary(u_back) - m1)),
                float(np.linalg.norm(u_back - u)),
            )
        if c2.kind is transforms.TransformKind.TYPE2:
            w_back = transforms.to_antiunitary(m2)
            roundtrip_defect = max(
                roundtrip_defect,
                float(np.linalg.norm(transforms.from_antiunitary(w_back) - m2)),
            )
        identity_distance = min(
            identity_distance, float(np.linalg.norm(m2 - np.eye(dim)))
        )
        for _ in range(2):
            state = statespace.random_real_state(dim, rng.integers(2**62))
            v = statespace.to_complex(state).v
            img1 = statespace.to_complex(statespace.RealState(m1 @ state.q)).v
            img2 = statespace.to_complex(statespace.RealState(m2 @ state.q)).v
            equivariance_defect = max(
                equivariance_defect,
                float(np.linalg.norm(img1 - u @ v)),
                float(np.linalg.norm(img2 - u @ np.conj(v))),
            )
        probe1 = transforms.gauge_invariance_probe(m1, seed=int(rng.integers(2**62)))
        probe2 = transforms.gauge_invariance_probe(m2, seed=int(rng.integers(2**62)))
        probe_dev_t1 = max(probe_dev_t1, probe1.max_deviation)
        probe_dev_t2 = max(probe_dev_t2, probe2.max_deviation)

    report.checks.append(
        check_within("constructed_type1_classified_fraction",
                     type1_hits / constructed, 1.0, 0.0, ov)
    )
    report.checks.append(
        check_within("constructed_type2_classified_fraction",
                     type2_hits / constructed, 1.0, 0.0, ov)
    )
    report.checks.append(check_le("type1_unitarity_max_defect", unitarity_defect, 1e-10, ov))
    report.checks.append(check_le("conversion_roundtrip_max", roundtrip_defect, 1e-12, ov))
    report.checks.append(check_le("equivariance_max_defect", equivariance_defect, 1e-10, ov))
    report.checks.append(check_le("gauge_probe_type1_max_dev", probe_dev_t1, 1e-10, ov))
    report.checks.append(check_le("gauge_probe_type2_max_dev", probe_dev_t2, 1e-10, ov))
    report.checks.append(check_ge("type2_identity_distance_min", identity_distance, 1e-6, ov))

    closure_violations = 0
    for _ in range(25):
        a1 = type1_maps[rng.integers(constructed)]
        b1 = type1_maps[rng.integers(constructed)]
        a2 = type2_maps[rng.integers(constructed)]
        b2 = type2_maps[rng.integers(constructed)]
        expected = [
            (a1 @ b1, transforms.TransformKind.TYPE1),
            (a1 @ a2, transforms.TransformKind.TYPE2),
            (a2 @ a1, transforms.TransformKind.TYPE2),
            (a2 @ b2, transforms.TransformKind.TYPE1),
        ]
        for prod, kind in expected:
            if transforms.classify(prod).kind is not kind:
                closure_violations += 1
    report.checks.append(
        check_within("closure_sign_rule_violations", float(closure_violations), 0.0, 0.0, ov)
    )

    # flip beta on block (0, 0) only; sign-flipping part of one column breaks
    # orthogonality for any dense unitary
    u_mix = transforms.random_unitary(n, rng.integers(2**62))
    mixed = transforms.from_unitary(u_mix)
    mixed[0, 1] = u_mix[0, 0].imag
    mixed[1, 1] = -u_mix[0, 0].real
    try:
        transforms.classify(mixed)
        mixed_rejected = 0.0
    except NotOrthogonal:
        mixed_rejected = 1.0
    report.checks.append(
        check_within("mixed_beta_rejected", mixed_rejected, 1.0, 0.0, ov)
    )

    neither_hits = 0
    probe_failures = 0
    first_witness = None
    metric_dev = 0.0
    for d in range(cfg.draws):
        m = transforms.random_orthogonal(dim, rng.integers(2**62))
        c = transforms.classify(m)
        neither_hits += c.kind is transforms.TransformKind.NEITHER
        probe = transforms.gauge_invariance_probe(m, seed=int(rng.integers(2**62)))
        probe_failures += not probe.passed
        if first_witness is None and not probe.passed:
            first_witness = {
                "draw_index": d,
                "matrix": array_to_json(m),
                "witness_state": array_to_json(probe.witness_state),
                "witness_shift": probe.witness_shift,
                "deviation": probe.max_deviation,
            }
        qa = statespace.random_real_state(dim, rng.integers(2**62)).q
        qb = statespace.random_real_state(dim, rng.integers(2**62)).q
        metric_dev = max(
            metric_dev,
            abs(float(np.linalg.norm(m @ qa - m @ qb)) - float(np.linalg.norm(qa - qb))),
        )
    report.checks.append(
        check_within("haar_neither_fraction", neither_hits / cfg.draws, 1.0, 0.0, ov)
    )
    report.checks.append(
        check_within("haar_probe_failure_fraction", probe_failures / cfg.draws, 1.0, 0.0, ov)
    )
    report.checks.append(check_le("metric_invariance_max_dev", metric_dev, 1e-12, ov))

    small = sum(
        transforms.classify(transforms.random_orthogonal(2, rng.integers(2**62))).kind
        is not transforms.TransformKind.NEITHER
        for _ in range(64)
    )
    report.checks.append(
        check_within("two_by_two_all_classified", small / 64.0, 1.0, 0.0, ov)
    )
    report.notes.append(
        "2x2 maps are degenerate: every orthogonal map on a single outcome pair "
        "is a rotation (Type1) or a reflection (Type2); Neither requires 2N >= 4."
    )

    report.details = {
        "constructed_per_branch": constructed,
        "haar_draws": cfg.draws,
        "haar_counts": {
            "neither": neither_hits,
            "other": cfg.draws - neither_hits,
        },
        "first_haar_witness": first_witness if first_witness is not None else {},
    }
    return report


def run_born_check(cfg: RunConfig) -> Report:
    ov = cfg.tol_overrides
    report = Report("born-check", cfg.echo())
    n = cfg.n
    rng = np.random.default_rng(cfg.seed)

    born_err = 0.0
    completeness_err = 0.0
    phase_err = 0.0
    repeat_defect = 0.0
    simulable = 0
    measurements = []
    for _ in range(50):
        u = transforms.random_unitary(n, rng.integers(2**62))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
        meas = measurement.Measurement(u, phases)
        measurements.append(meas)
        for _ in range(2):
            v = statespace.random_complex_state(n, rng)
            dist = measurement.outcome_distribution(meas, v)
            via_basis = np.abs(meas.basis().conj().T @ v.v) ** 2
            born_err = max(born_err, float(np.abs(dist.probs - via_basis).max()))
            completeness_err = max(completeness_err, abs(float(dist.probs.sum()) - 1.0))
            other = measurement.Measurement(u, rng.uniform(0.0, 2.0 * math.pi, size=n))
            global_phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            v_rot = statespace.ComplexState(global_phase * v.v)
            phase_err = max(
                phase_err,
                float(np.abs(measurement.outcome_distribution(other, v).probs - dist.probs).max()),
                float(np.abs(measurement.outcome_distribution(meas, v_rot).probs - dist.probs).max()),
            )
        audit = measurement.simulability_roundtrip(meas)
        repeat_defect = max(repeat_defect, audit.repeat_defect)
        simulable += audit.passed
    report.checks.append(check_le("born_rule_max_error", born_err, 1e-12, ov))
    report.checks.append(check_le("completeness_max_error", completeness_err, 1e-12, ov))
    report.checks.append(check_le("phase_invariance_max", phase_err, 1e-14, ov))
    report.checks.append(check_le("reproducibility_max_defect", repeat_defect, 1e-12, ov))
    report.checks.append(
        check_within("simulability_pass_fraction", simulable / 50.0, 1.0, 0.0, ov)
    )

    tampered = measurement.simulability_roundtrip(
        measurements[0], interaction=np.eye(n, dtype=complex)
    )
    report.checks.append(
        check_within("wrong_stage_detected", float(not tampered.passed), 1.0, 0.0, ov)
    )

    meas_s = measurements[0]
    eig = statespace.ComplexState(meas_s.basis()[:, 1])
    eig_dist = measurement.outcome_distribution(meas_s, eig)
    report.checks.append(
        check_le("eigenstate_probability_error", abs(float(eig_dist.probs[1]) - 1.0), 1e-12, ov)
    )
    eig_counts = measurement.sample_outcomes(meas_s, eig, 1000, int(rng.integers(2**62)))
    report.checks.append(
        check_within("eigenstate_counts_off_target", float(1000 - eig_counts[1]), 0.0, 0.0, ov)
    )

    v_s = statespace.random_complex_state(n, rng)
    dist_s = measurement.outcome_distribution(meas_s, v_s)
    counts = measurement.sample_outcomes(meas_s, v_s, cfg.shots, int(rng.integers(2**62)))
    zmax = 0.0
    for i in range(n):
        spread = cfg.shots * dist_s.probs[i] * (1.0 - dist_s.probs[i])
        if spread > 0.0:
            zmax = max(zmax, abs(counts[i] - cfg.shots * dist_s.probs[i]) / math.sqrt(spread))
    report.checks.append(check_le("count_zscore_max", zmax, 3.0, ov))
    report.checks.append(
        check_within("counts_sum_error", float(int(counts.sum()) - cfg.shots), 0.0, 0.0, ov)
    )

    try:
        measurement.apply_measurement(meas_s, eig, forced_outcome=0)
        impossible_raised = 0.0
    except measurement.ImpossibleOutcome:
        impossible_raised = 1.0
    report.checks.append(
        check_within("impossible_outcome_raises", impossible_raised, 1.0, 0.0, ov)
    )

    record = measurement.apply_measurement(meas_s, v_s, seed=int(rng.integers(2**62)))
    report.details = {
        "counts": [int(c) for c in counts],
        "expected_probs": array_to_json(dist_s.probs),
        "shots": cfg.shots,
        "sample_record": {
            "outcome": record.outcome,
            "probability": record.probability,
            "output_state": array_to_json(record.output_state.v),
        },
    }
    return report


def run_wootters(cfg: RunConfig) -> Report:
    ov = cfg.tol_overrides
    report = Report("wootters", cfg.echo())
    n = cfg.n
    rng = np.random.default_rng(cfg.seed)
    gap_bound = 1e-3 if n == 2 else 5e-3

    max_gap = 0.0
    worst_pair = None
    cert_minus_max = -math.inf
    cert_minus_hilbert = -math.inf
    pair_table = []
    for _ in range(cfg.pairs):
        u = statespace.random_complex_state(n, rng)
        v = statespace.random_complex_state(n, rng)
        res = distmax.maximize_statistical_distance(
            u, v, budget=cfg.budget, seed=int(rng.integers(2**62))
        )
        cert = distmax.certify_upper_bound(u, v, samples=2000, seed=int(rng.integers(2**62)))
        cert_minus_max = max(cert_minus_max, cert - res.max_ds)
        cert_minus_hilbert = max(cert_minus_hilbert, cert - res.hilbert_distance)
        pair_table.append(
            {"hilbert": res.hilbert_distance, "max_ds": res.max_ds,
             "gap": res.gap, "certified": cert}
        )
        if worst_pair is None or res.gap > max_gap:
            max_gap = res.gap
            worst_pair = res
    report.checks.append(check_le("max_gap", max_gap, gap_bound, ov))
    report.checks.append(check_le("certified_minus_max_ds", cert_minus_max, 1e-9, ov))
    report.checks.append(check_le("certified_minus_hilbert", cert_minus_hilbert, 1e-9, ov))

    envelope = -math.inf
    for _ in range(cfg.draws):
        u = statespace.random_complex_state(n, rng)
        v = statespace.random_complex_state(n, rng)
        w = transforms.random_unitary(n, rng.integers(2**62))
        meas = measurement.Measurement(w)
        ds = simplex.statistical_distance(
            measurement.outcome_distribution(meas, u),
            measurement.outcome_distribution(meas, v),
        )
        envelope = max(envelope, ds - distmax.hilbert_distance(u, v))
    report.checks.append(check_le("envelope_max_violation", envelope, 1e-9, ov))

    report.details = {
        "pair_table": pair_table,
        "worst_pair_measurement": {
            "unitary": array_to_json(worst_pair.argmax_measurement.u),
            "phases": array_to_json(worst_pair.argmax_measurement.phases),
        } if worst_pair is not None else {},
    }
    return report


_RUNNERS = {
    "coin-distinguish": run_coin_distinguish,
    "metric-check": run_metric_check,
    "correspondence": run_correspondence,
    "born-check": run_born_check,
    "wootters": run_wootters,
}


def run_all(cfg: RunConfig) -> Report:
    combined = Report("all", cfg.echo())
    for name, runner in _RUNNERS.items():
        sub = runner(cfg)
        combined.checks.extend(sub.checks)
        combined.notes.extend(sub.notes)
        combined.details[name] = sub.details
    return combined


def _tol_override(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE for --tol-override, got {text!r}"
        )
    try:
        return name, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"tolerance value in {text!r} is not a number"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogeo",
        description="Seeded verification batteries for information-geometric "
        "state spaces; reports are written as JSON or CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "coin-distinguish": "two-coin posterior, information gain laws, Monte Carlo",
        "metric-check": "simplex and hypersphere metric identities",
        "correspondence": "orthogonal map classification and unitary conversion",
        "born-check": "Born statistics, reproducibility, sampling",
        "wootters": "maximal statistical distance vs Hilbert angle",
        "all": "run every battery",
    }
    # option -> (add_argument keywords, help); every default lives in RunConfig
    options = {
        "n": ({"type": int}, "outcome dimension"),
        "seed": ({"type": int}, "RNG seed; required for stochastic runs"),
        "trials": ({"type": int}, "Monte Carlo trials (coin-distinguish)"),
        "shots": ({"type": int}, "sampling shots (born-check)"),
        "budget": ({"type": int}, "optimizer restarts (wootters)"),
        "delta": ({"type": float}, "coin offset (coin-distinguish)"),
        "pairs": ({"type": int}, "state pairs to optimize (wootters)"),
        "draws": ({"type": int}, "random draws for batteries (correspondence, wootters)"),
        "tangents": ({"type": int}, "random tangents per metric battery (metric-check)"),
        "out": ({"type": str}, "report file path"),
        "format": ({"choices": ("json", "csv")}, "report format"),
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc,
                           argument_default=argparse.SUPPRESS)
        for opt, (kw, text) in options.items():
            p.add_argument(f"--{opt}", **kw,
                           help=f"{text} (default {getattr(RunConfig, opt)})")
        p.add_argument("--tol-override", type=_tol_override, action="append",
                       metavar="NAME=VALUE",
                       help="override the governing threshold of a named check")
    return parser


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    overrides = dict(opts.pop("tol_override", []))
    cfg = RunConfig(**opts, tol_overrides=overrides)
    runner = run_all if cfg.command == "all" else _RUNNERS[cfg.command]
    started = time.perf_counter()
    try:
        cfg.validate()
        report = runner(cfg)
        unknown = sorted(set(cfg.tol_overrides) - {c.name for c in report.checks})
        if unknown:
            raise ValidationError(
                f"--tol-override names no check of this run: {', '.join(unknown)}"
            )
    except InfoGeoError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report.duration_seconds = time.perf_counter() - started

    rendered = render_report(report, cfg.format)
    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)

    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"{status} {c.name}: value={format_float(c.value)} "
            f"target={format_float(c.target)} tol={format_float(c.tolerance)} "
            f"[{c.comparison}]",
            file=sys.stderr,
        )
    overall = "PASS" if report.overall_passed else "FAIL"
    print(
        f"{overall} {report.command}: {len(report.checks)} checks in "
        f"{report.duration_seconds:.2f} s",
        file=sys.stderr,
    )
    return 0 if report.overall_passed else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
