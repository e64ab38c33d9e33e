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
from ._streams import substreams
from .errors import InfoGeoError, NotOrthogonal, NotUnitary, ValidationError
from .reporting import Report, array_to_json, format_float, render_report

# Size caps, checked before a battery allocates anything, so a huge value exits
# 2 instead of ending in a MemoryError.  Each keeps the largest run it allows
# under ~0.5 GB of traced allocations, with the other options at their caps:
# per-unit peaks were measured with tracemalloc (NumPy 2.4, x86-64) at 2000-
# 20000 tangents or trials and 200 pairs, and scaled linearly.
SIZE_CAPS = {
    # correspondence keeps 200 maps of (2n)^2 floats: ~7 kB * n^2, 30 MB at 64
    "n": 64,
    # (trials, n) counts and the posterior pass's temporaries: ~1.6 kB per
    # trial at n = 64, ~0.4 GB at the cap
    "trials": 250_000,
    # metric-check's rows: ~7 kB per tangent at n = 64, ~0.35 GB at the cap
    "tangents": 50_000,
    # wootters keeps one table row per pair: ~4.7 kB each, ~0.24 GB at the cap
    "pairs": 50_000,
    # restarts reset one Generator, so memory stays flat (289 and 301 kB traced
    # at 1000 and 4000 restarts, n = 2); the cap bounds the time, ~1.5 min for
    # one n = 2 pair at ~0.9 ms per restart
    "budget": 100_000,
    # correspondence takes one draw per loop step (0.7 MB traced at n = 8) and
    # wootters' envelope 1000 draws per array pass (4.8 MB traced at n = 8,
    # 2000 and 5000 draws, below the certifier's 8.8 MB Haar batch), so memory
    # stays flat; the cap bounds the time, ~10 min at ~0.6 ms per
    # correspondence draw and ~1.5 min at ~0.1 ms per envelope draw (n = 8)
    "draws": 1_000_000,
}


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
        if self.seed is not None and self.seed < 0:
            raise ValidationError("--seed must be nonnegative")
        if self.trials < 0 or self.shots < 0:
            raise ValidationError("--trials and --shots must be nonnegative")
        if self.trials == 1:
            # one trial has no standard error, so the Monte Carlo check's
            # 3-stderr tolerance would be 0
            raise ValidationError("--trials must be 0 or at least 2")
        if self.budget < 1 or self.pairs < 1 or self.draws < 1 or self.tangents < 1:
            raise ValidationError("--budget, --pairs, --draws, --tangents must be positive")
        for name, cap in SIZE_CAPS.items():
            if getattr(self, name) > cap:
                raise ValidationError(f"--{name} must be at most {cap}")
        if not 0.0 < self.delta < 1.0 / self.n:
            raise ValidationError("--delta must lie in (0, 1/n)")
        if 1.0 / self.n + self.delta == 1.0 / self.n:
            raise ValidationError("--delta is too small to move 1/n: the two coins coincide")
        if self.format not in ("json", "csv"):
            raise ValidationError("--format must be json or csv")
        needs_seed = self.command != "coin-distinguish" or self.trials > 0
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
        report.within(f"gain_ratio_at_{target:g}", ratio, 1.0, band)

    tosses_w = _tosses_for_signal(0.1, ds2)
    exp_w = bayes.CoinExperiment(p, p2, tosses_w)
    report.within("worked_point_exact_gain", bayes.info_gain_exact(exp_w), 0.00498, 1e-5)
    report.within("worked_point_approx_gain", bayes.info_gain_approx(exp_w), 0.005, 1e-5)

    exp_same = bayes.CoinExperiment(p, p, tosses_w)
    report.le("equal_coins_exact_gain", bayes.info_gain_exact(exp_same), 0.0)

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
        report.le("monte_carlo_gain_abs_error", diff,
                  3.0 * summary.stderr_gain_at_mean_posterior)
        details["monte_carlo"] = dict(asdict(summary), tosses=tosses_mc,
                                      exact_gain=exact_mc)
    report.details = details
    return report


def _interior_dist(u: np.ndarray) -> np.ndarray:
    # rows of rng.uniform(0.1, 1.0) weights made from rng.random() draws, then
    # normalized: entries bounded away from 0 so epsilon-steps up to 1e-2 stay inside
    w = 0.1 + 0.9 * u
    return w / w.sum(axis=-1, keepdims=True)


def _centered_direction(u: np.ndarray) -> np.ndarray:
    # rows of rng.uniform(-1, 1) draws made from rng.random() draws, centered
    # and scaled to max |entry| 1; an all-equal row becomes [1, 0, ..., 0, -1]
    d = -1.0 + 2.0 * u
    d -= d.mean(axis=-1, keepdims=True)
    scale = np.abs(d).max(axis=-1, keepdims=True)
    out = np.zeros(d.shape)
    out[..., 0], out[..., -1] = 1.0, -1.0
    return np.divide(d, scale, out=out, where=scale != 0.0)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a[t] @ b[t] per row: matmul's vector case is the same dot as 1-D `@`
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _kl_fisher_errors(rng: np.random.Generator, n: int, tangents: int, epsilons) -> np.ndarray:
    """Mean |KL(p, p + eps d) - 2 ds^2(eps d)| over random interior points p
    and directions d, one entry per eps."""
    # one row per tangent: n draws for the point, then n for the direction
    u = rng.random((tangents, 2 * n))
    p = _interior_dist(u[:, :n])
    deltas = np.multiply.outer(epsilons, _centered_direction(u[:, n:]))
    p2 = p + deltas
    for rows, kind in ((p, "probs"), (deltas, "deltas"), (p2, "probs")):
        simplex._check_rows(rows, kind)
    err = np.abs(simplex._kl_rows(p, p2) - 2.0 * simplex._fisher_rows(p, deltas))
    # summed tangent by tangent in draw order (cumsum), not pairwise (np.sum)
    return np.cumsum(err, axis=1)[:, -1] / tangents


def _worst_pullback(rng: np.random.Generator, n: int, tangents: int) -> float:
    """Largest |ds^2 - |dq|^2| over random sphere points q in 2n dimensions and
    tangents dq: a sphere tangent dq at q moves the events P = q^2 by 2 q dq,
    and the information metric there must equal the Euclidean form."""
    q, dq = np.empty((2, tangents, 2 * n))
    for t in range(tangents):
        q[t] = statespace.random_real_state(2 * n, rng).q
        dq[t] = rng.uniform(-1.0, 1.0, size=2 * n)
    dq = 1e-3 * (dq - _row_dots(dq, q)[:, None] * q)
    events, moved = q**2, 2.0 * q * dq
    simplex._check_rows(events, "probs")
    simplex._check_rows(moved, "deltas")
    return float(np.abs(simplex._fisher_rows(events, moved) - _row_dots(dq, dq)).max())


def run_metric_check(cfg: RunConfig) -> Report:
    report = Report("metric-check", cfg.echo())
    rng = np.random.default_rng(cfg.seed)
    epsilons = (1e-2, 5e-3, 2.5e-3)

    orders = {}
    for n in (2, 4, 8):
        errs = _kl_fisher_errors(rng, n, cfg.tangents, epsilons)
        order = min(
            math.log2(errs[k] / errs[k + 1]) for k in range(len(epsilons) - 1)
        )
        orders[n] = order
        report.ge(f"kl_fisher_order_n{n}", order, 2.7)

    worst_pullback = _worst_pullback(rng, cfg.n, cfg.tangents)
    report.le("event_metric_pullback_max", worst_pullback, 1e-10)

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
        p_in = simplex.ProbDist(_interior_dist(rng.random(cfg.n)))
        d1 = simplex.TangentVec(_centered_direction(rng.random(cfg.n)) * 1e-3)
        d2 = simplex.TangentVec(2.0 * d1.deltas)
        worst_scaling = max(
            worst_scaling,
            abs(simplex.fisher_quadratic(p_in, d2) - 4.0 * simplex.fisher_quadratic(p_in, d1)),
        )
    report.le("embed_distance_identity_max", worst_embed, 1e-12)
    report.le("triangle_inequality_max_violation", worst_triangle, 1e-12)
    report.le("quadratic_scaling_max_error", worst_scaling, 1e-15)

    worst_polar = 0.0
    for _ in range(200):
        gauge = statespace.GaugeConvention(
            a=float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])),
            b=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        ps = statespace.PolarState(
            simplex.ProbDist(_interior_dist(rng.random(cfg.n))),
            rng.uniform(0.0, 2.0 * math.pi, size=cfg.n),
        )
        dp = simplex.TangentVec(_centered_direction(rng.random(cfg.n)))
        dtheta = rng.uniform(-1.0, 1.0, size=cfg.n)
        dchi = rng.uniform(-1.0, 1.0, size=cfg.n)
        quad = statespace.polar_metric_quadratic(ps, dp, dtheta, gauge, dchi)
        dq = statespace.polar_pushforward(ps, dp, dtheta + gauge.a * dchi)
        worst_polar = max(worst_polar, abs(quad - float(dq @ dq)))
    report.le("polar_metric_consistency_max", worst_polar, 1e-10)

    grid = np.linspace(0.0, 1.0, 101)
    slope = float(rng.uniform(0.5, 3.0))
    affine = statespace.measure_invariance_check(np.full(grid.size, slope))
    report.within("measure_affine_passes", float(affine.passed), 1.0, 0.0)
    quadratic = statespace.measure_invariance_check(2.0 * grid)
    report.within("measure_quadratic_flagged", float(not quadratic.passed), 1.0, 0.0)
    report.within("measure_quadratic_deviation", quadratic.deviation, 2.0, 1e-12)

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
    report = Report("correspondence", cfg.echo())
    n = cfg.n
    dim = 2 * n
    rng = next(substreams(cfg.seed, range(1)))

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

    report.within("constructed_type1_classified_fraction", type1_hits / constructed, 1.0, 0.0)
    report.within("constructed_type2_classified_fraction", type2_hits / constructed, 1.0, 0.0)
    report.le("type1_unitarity_max_defect", unitarity_defect, 1e-10)
    report.le("conversion_roundtrip_max", roundtrip_defect, 1e-12)
    report.le("equivariance_max_defect", equivariance_defect, 1e-10)
    report.le("gauge_probe_type1_max_dev", probe_dev_t1, 1e-10)
    report.le("gauge_probe_type2_max_dev", probe_dev_t2, 1e-10)
    report.ge("type2_identity_distance_min", identity_distance, 1e-6)

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
    report.within("closure_sign_rule_violations", float(closure_violations), 0.0, 0.0)

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
    report.within("mixed_beta_rejected", mixed_rejected, 1.0, 0.0)

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
    report.within("haar_neither_fraction", neither_hits / cfg.draws, 1.0, 0.0)
    report.within("haar_probe_failure_fraction", probe_failures / cfg.draws, 1.0, 0.0)
    report.le("metric_invariance_max_dev", metric_dev, 1e-12)

    small = sum(
        transforms.classify(transforms.random_orthogonal(2, rng.integers(2**62))).kind
        is not transforms.TransformKind.NEITHER
        for _ in range(64)
    )
    report.within("two_by_two_all_classified", small / 64.0, 1.0, 0.0)
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
    report.le("born_rule_max_error", born_err, 1e-12)
    report.le("completeness_max_error", completeness_err, 1e-12)
    report.le("phase_invariance_max", phase_err, 1e-14)
    report.le("reproducibility_max_defect", repeat_defect, 1e-12)
    report.within("simulability_pass_fraction", simulable / 50.0, 1.0, 0.0)

    tampered = measurement.simulability_roundtrip(
        measurements[0], interaction=np.eye(n, dtype=complex)
    )
    report.within("wrong_stage_detected", float(not tampered.passed), 1.0, 0.0)

    meas_s = measurements[0]
    eig = statespace.ComplexState(meas_s.basis()[:, 1])
    eig_dist = measurement.outcome_distribution(meas_s, eig)
    report.le("eigenstate_probability_error", abs(float(eig_dist.probs[1]) - 1.0), 1e-12)
    eig_counts = measurement.sample_outcomes(meas_s, eig, 1000, int(rng.integers(2**62)))
    report.within("eigenstate_counts_off_target", float(1000 - eig_counts[1]), 0.0, 0.0)

    v_s = statespace.random_complex_state(n, rng)
    dist_s = measurement.outcome_distribution(meas_s, v_s)
    counts = measurement.sample_outcomes(meas_s, v_s, cfg.shots, int(rng.integers(2**62)))
    zmax = 0.0
    for i in range(n):
        spread = cfg.shots * dist_s.probs[i] * (1.0 - dist_s.probs[i])
        if spread > 0.0:
            zmax = max(zmax, abs(counts[i] - cfg.shots * dist_s.probs[i]) / math.sqrt(spread))
    report.le("count_zscore_max", zmax, 3.0)
    report.within("counts_sum_error", float(int(counts.sum()) - cfg.shots), 0.0, 0.0)

    try:
        measurement.apply_measurement(meas_s, eig, forced_outcome=0)
        impossible_raised = 0.0
    except measurement.ImpossibleOutcome:
        impossible_raised = 1.0
    report.within("impossible_outcome_raises", impossible_raised, 1.0, 0.0)

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


# draws per envelope pass: below the certifier's 2000-unitary batch, which
# stays the battery's memory high-water
_ENVELOPE_CHUNK = 1000


def _envelope_distances(rng: np.random.Generator, n: int, size: int):
    """(d_S, d_H) arrays of `size` envelope draws.

    Draw k takes u and v as random_complex_state does, then the seed of its
    Haar measurement W, from rng.  d_S is statistical_distance of the outcome
    distributions |W u|^2 and |W v|^2 and d_H is hilbert_distance(u, v); the
    QR, the matrix-vector products and the elementwise terms run over the
    whole stack and only the final norms run per draw, the same arithmetic as
    building a Measurement and two ProbDist objects per draw.
    """
    ab = np.empty((2, size, n), dtype=complex)
    z = np.empty((size, n, n), dtype=complex)
    for k in range(size):
        ab[0, k] = statespace._random_amplitudes(rng, n)
        ab[1, k] = statespace._random_amplitudes(rng, n)
        z[k] = transforms._gaussian(np.random.default_rng(rng.integers(2**62)), (n, n), True)
    w = transforms._haar_from_gaussian(z)
    transforms._require_isometries(w, NotUnitary, "W^dagger @ W of a Haar measurement")
    # |u|^2, |v|^2 (the states) and |W u|^2, |W v|^2 (the outcome distributions)
    sq = np.abs(np.stack((ab, np.matmul(w, ab[..., None])[..., 0]))) ** 2
    simplex._check_rows(sq, "probs")
    ds = simplex._distance_rows(*sq[1])
    dh = np.array([distmax._hilbert_angle(ab[0, k], ab[1, k]) for k in range(size)])
    return ds, dh


def run_wootters(cfg: RunConfig) -> Report:
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
    report.le("max_gap", max_gap, gap_bound)
    report.le("certified_minus_max_ds", cert_minus_max, 1e-9)
    report.le("certified_minus_hilbert", cert_minus_hilbert, 1e-9)

    envelope = -math.inf
    for start in range(0, cfg.draws, _ENVELOPE_CHUNK):
        ds, dh = _envelope_distances(rng, n, min(_ENVELOPE_CHUNK, cfg.draws - start))
        envelope = max(envelope, float(np.max(ds - dh)))
    report.le("envelope_max_violation", envelope, 1e-9)

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
        tol = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"tolerance value in {text!r} is not a number"
        ) from exc
    if not math.isfinite(tol):
        raise argparse.ArgumentTypeError(f"tolerance value in {text!r} is not finite")
    return name, tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogeo",
        allow_abbrev=False,
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
    # option -> (add_argument keywords, help, the batteries that read it); `all`
    # reads every option, and every default lives in RunConfig
    options = {
        "n": ({"type": int}, "outcome dimension", _RUNNERS),
        "seed": ({"type": int}, "RNG seed; required for stochastic runs", _RUNNERS),
        "trials": ({"type": int}, "Monte Carlo trials", ("coin-distinguish",)),
        "shots": ({"type": int}, "sampling shots", ("born-check",)),
        "budget": ({"type": int}, "optimizer restarts", ("wootters",)),
        "delta": ({"type": float}, "coin offset", ("coin-distinguish",)),
        "pairs": ({"type": int}, "state pairs to optimize", ("wootters",)),
        "draws": ({"type": int}, "random draws", ("correspondence", "wootters")),
        "tangents": ({"type": int}, "random tangents per metric battery", ("metric-check",)),
        "out": ({"type": str}, "report file path", _RUNNERS),
        "format": ({"choices": ("json", "csv")}, "report format", _RUNNERS),
        "tol-override": ({"type": _tol_override, "action": "append", "metavar": "NAME=VALUE"},
                         "override the governing threshold of a named check", _RUNNERS),
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc,
                           argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for opt, (kw, text, readers) in options.items():
            if name == "all" or name in readers:
                if hasattr(RunConfig, opt):  # tol-override is no RunConfig field
                    text += f" (default {getattr(RunConfig, opt)})"
                p.add_argument(f"--{opt}", **kw, help=text)
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
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"config error: cannot write report to {cfg.out!r}: {exc}", file=sys.stderr)
            return 2
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
