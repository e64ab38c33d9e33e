"""Seeded verification batteries with JSON/CSV reports.

Subcommands: coin-distinguish, metric-check, correspondence, born-check,
wootters, all.  Exit codes: 0 all checks pass, 1 at least one check failed,
2 usage or configuration error.  Reports for identical configurations are
byte-identical apart from the duration field.  The batteries run their
random objects as stacks through the library's row and stack kernels, with
the values, checks and exception types of one public call per object.  The
correspondence battery draws each kind of object (maps, states, probe
states, probe shifts) from its own stream, spawned from the seed, so a
stack's block of draws is that kind's public calls in turn, at any pass
size.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bayes, distmax, measurement, simplex, statespace, transforms
from .errors import InfoGeoError, NotOrthogonal, NotUnitary, ValidationError
from .reporting import Report, array_to_json, format_float, render_report

# Size caps, checked before a battery allocates anything, so a huge value exits
# 2 instead of ending in a MemoryError.  Each keeps the largest run it allows
# under ~0.5 GB of traced allocations, with the other options at their caps:
# per-unit peaks were measured with tracemalloc (NumPy 2.4, x86-64) at 2000-
# 20000 tangents or trials and 200 pairs, and scaled linearly.
SIZE_CAPS = {
    # correspondence keeps 200 maps of (2n)^2 floats (~7 kB * n^2): 28.4 MB
    # traced at 64; wootters peaks at 0.93 MB traced at 64 (one pair, budget
    # 1), most of it the certifier's or the envelope's passes (0.70, 0.56 MB
    # alone)
    "n": 64,
    # (trials, n) counts and the posterior pass's temporaries: ~1.6 kB per
    # trial at n = 64, ~0.4 GB at the cap
    "trials": 250_000,
    # metric-check's rows: ~7 kB per tangent at n = 64, ~0.35 GB at the cap
    "tangents": 50_000,
    # wootters keeps one table row per pair, ~0.7 kB each (~35 MB at the cap);
    # the rest stays flat, as the optimizer runs pairs x restarts in passes
    # (budget 10: 1.48 and 1.51 MB traced at 100 and 400 pairs, n = 2; 1.35
    # and 1.52 MB at 20 and 80, n = 8)
    "pairs": 50_000,
    # the optimizer runs restarts in passes of transforms._PASS_BYTES of their
    # largest arrays (437 restarts at n = 2, 109 at n = 8, 2 at n = 64), so
    # memory stays flat (1.48 and 1.43 MB traced at 1000 and 4000 restarts of
    # one pair, n = 2; 1.22 and 1.51 MB at 100 and 400, n = 8); the cap bounds
    # the time, ~6-15 s for one n = 2 pair at ~0.06-0.15 ms per restart and
    # ~3-14 h for one n = 64 pair at ~0.1-0.5 s per restart (kicks included)
    "budget": 100_000,
    # correspondence takes draws in passes of at most 8 (0.99 MB traced at
    # n = 8 for 1000 and 4000 draws; 28.4 MB at n = 64 for 40 and 160, nearly
    # all of it the constructed maps) and wootters' envelope in passes of
    # transforms._PASS_BYTES of Gaussians (0.79 MB traced at n = 8 for 2000
    # and 5000 draws, 0.77 MB at n = 64 for 80, 1000 and 5000), so memory
    # stays flat; the cap bounds the time, ~40-45 s at ~0.04 ms per
    # correspondence draw at n = 2 (~1 h at ~3.6-3.9 ms, n = 64) and
    # ~5-6 s at ~5-6 us per envelope draw at n = 8 (~20-23 s at ~20-23 us,
    # n = 64)
    "draws": 1_000_000,
}


# The checks each battery reports, in report order; coin-distinguish reports
# monte_carlo_gain_abs_error only when --trials > 0.  RunConfig.validate
# rejects a --tol-override name outside them before any battery runs.
CHECK_NAMES = {
    "coin-distinguish": (
        "gain_ratio_at_0.05", "gain_ratio_at_0.02", "gain_ratio_at_0.01",
        "worked_point_exact_gain", "worked_point_approx_gain", "equal_coins_exact_gain",
        "monte_carlo_gain_abs_error",
    ),
    "metric-check": (
        "kl_fisher_order_n2", "kl_fisher_order_n4", "kl_fisher_order_n8",
        "event_metric_pullback_max", "embed_distance_identity_max",
        "triangle_inequality_max_violation", "quadratic_scaling_max_error",
        "polar_metric_consistency_max", "measure_affine_passes",
        "measure_quadratic_flagged", "measure_quadratic_deviation",
    ),
    "correspondence": (
        "constructed_type1_classified_fraction", "constructed_type2_classified_fraction",
        "type1_unitarity_max_defect", "conversion_roundtrip_max", "equivariance_max_defect",
        "gauge_probe_type1_max_dev", "gauge_probe_type2_max_dev",
        "type2_identity_distance_min", "closure_sign_rule_violations", "mixed_beta_rejected",
        "haar_neither_fraction", "haar_probe_failure_fraction", "metric_invariance_max_dev",
        "two_by_two_all_classified",
    ),
    "born-check": (
        "born_rule_max_error", "completeness_max_error", "phase_invariance_max",
        "reproducibility_max_defect", "simulability_pass_fraction", "wrong_stage_detected",
        "eigenstate_probability_error", "eigenstate_counts_off_target", "count_zscore_max",
        "counts_sum_error", "impossible_outcome_raises",
    ),
    "wootters": (
        "max_gap", "certified_minus_max_ds", "certified_minus_hilbert",
        "envelope_max_violation",
    ),
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
        if self.trials < 0:
            raise ValidationError("--trials must be nonnegative")
        if self.shots < 1:
            # born-check's count rows would pass over no samples
            raise ValidationError("--shots must be positive")
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
        unknown = sorted(set(self.tol_overrides) - set(self.check_names()))
        if unknown:
            raise ValidationError(
                f"--tol-override names no check of this run: {', '.join(unknown)}"
            )

    def check_names(self) -> list[str]:
        """The names of the checks this run reports, in report order."""
        batteries = CHECK_NAMES if self.command == "all" else (self.command,)
        return [
            name for battery in batteries for name in CHECK_NAMES[battery]
            if self.trials > 0 or name != "monte_carlo_gain_abs_error"
        ]

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


def _kl_fisher_errors(rng: np.random.Generator, n: int, tangents: int, epsilons) -> np.ndarray:
    """Mean |KL(p, p + eps d) - 2 ds^2(eps d)| over random interior points p
    and directions d, one entry per eps."""
    # one row per tangent: n draws for the point, then n for the direction
    u = rng.random((tangents, 2 * n))
    p, direction = _interior_dist(u[:, :n]), _centered_direction(u[:, n:])
    del u  # not held through the passes
    simplex._check_rows(p, "probs")
    # one eps at a time: a pass holds (tangents, n) arrays, not (eps, tangents, n)
    errs = []
    for eps in epsilons:
        deltas = eps * direction
        p2 = p + deltas
        simplex._check_rows(deltas, "deltas")
        simplex._check_rows(p2, "probs")
        err = np.abs(simplex._kl_rows(p, p2) - 2.0 * simplex._fisher_rows(p, deltas))
        # summed tangent by tangent in draw order (cumsum), not pairwise (np.sum)
        errs.append(np.cumsum(err)[-1] / tangents)
    return np.array(errs)


def _worst_pullback(rng: np.random.Generator, n: int, tangents: int) -> float:
    """Largest |ds^2 - |dq|^2| over random sphere points q in 2n dimensions and
    tangents dq: a sphere tangent dq at q moves the events P = q^2 by 2 q dq,
    and the information metric there must equal the Euclidean form.  The
    points are drawn first, as one stack, then the steps as one block."""
    q = statespace._real_states(rng, tangents, 2 * n)
    dq = rng.uniform(-1.0, 1.0, size=q.shape)
    dq = 1e-3 * (dq - simplex._row_dots(dq, q)[:, None] * q)
    events, moved = q**2, 2.0 * q * dq
    simplex._check_rows(events, "probs")
    simplex._check_rows(moved, "deltas")
    return float(np.abs(simplex._fisher_rows(events, moved) - simplex._row_dots(dq, dq)).max())


def _decimal_distances(probs: np.ndarray, probs2: np.ndarray) -> np.ndarray:
    """statistical_distance of each row pair, as the angle between the rays
    of the exact square roots of the stored floats: 2 asin of half the chord
    between the normalized roots, in 60-digit decimal arithmetic.  Unlike
    acos of the root dot, which reads 0.0 at a distance of 1.09e-9, it keeps
    its precision as the distance tends to 0."""
    # imported here, not with the module: it adds ~1.5 ms to every CLI start
    import decimal

    angles = []
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for p, q in zip(probs.tolist(), probs2.tolist()):
            xs = [decimal.Decimal(x).sqrt() for x in p]
            ys = [decimal.Decimal(y).sqrt() for y in q]
            nx, ny = sum(x * x for x in xs).sqrt(), sum(y * y for y in ys).sqrt()
            half = sum((x / nx - y / ny) ** 2 for x, y in zip(xs, ys)).sqrt() / 2
            angles.append(2.0 * math.asin(float(half)))
    return np.array(angles)


def _distance_identities(rng: np.random.Generator, n: int) -> tuple[float, float, float]:
    """Over 200 rounds of rng.uniform(0, 1) weights of a, b, c
    (rng.random() draws bit for bit), an interior point p and a direction d
    with max |d_i| = 1, in that draw order: the largest |d_S - reference|
    (_decimal_distances) over the pairs (a, b) and the close pairs
    (p, p + 1e-9 d), the largest d_S(a, c) - d_S(a, b) - d_S(b, c), and the
    largest |ds^2(2e-3 d) - 4 ds^2(1e-3 d)| at p, each at least 0."""
    u = rng.random((200, 5, n))
    probs = u[:, :3] / u[:, :3].sum(axis=-1, keepdims=True)
    simplex._check_rows(probs, "probs")
    a, b, c = probs[:, 0], probs[:, 1], probs[:, 2]
    p_in = _interior_dist(u[:, 3])
    direction = _centered_direction(u[:, 4])
    close = p_in + 1e-9 * direction
    d1 = direction * 1e-3
    d2 = 2.0 * d1
    for rows, kind in ((p_in, "probs"), (close, "probs"), (d1, "deltas"), (d2, "deltas")):
        simplex._check_rows(rows, kind)
    pairs = np.concatenate((a, p_in)), np.concatenate((b, close))
    embed = np.abs(simplex._distance_rows(*pairs) - _decimal_distances(*pairs))
    d_ab, d_ac, d_bc = (simplex._distance_rows(x, y) for x, y in ((a, b), (a, c), (b, c)))
    scaling = simplex._fisher_rows(p_in, d2) - 4.0 * simplex._fisher_rows(p_in, d1)
    return tuple(
        max(0.0, float(x.max())) for x in (embed, d_ac - d_ab - d_bc, np.abs(scaling))
    )


def _polar_consistency(rng: np.random.Generator, n: int) -> float:
    """The largest |polar_metric_quadratic - |polar_pushforward|^2| over 200
    rounds of a gauge (slope a of random sign, offset b), a polar state, a
    direction dp and perturbations dtheta, dchi, each input drawn for all
    rounds as one block in that order (slope, sign, offset, p, theta, dp,
    dtheta, dchi) and scored as one stack, with the checks of the objects a
    round would build."""
    a = rng.uniform(0.5, 2.0, size=(200, 1)) * rng.choice([-1.0, 1.0], size=(200, 1))
    b = rng.uniform(0.0, 2.0 * math.pi, size=200)
    p_draw, theta = rng.random((200, n)), rng.uniform(0.0, 2.0 * math.pi, size=(200, n))
    dp_draw = rng.random((200, n))
    dtheta = rng.uniform(-1.0, 1.0, size=(200, n))
    dchi = rng.uniform(-1.0, 1.0, size=(200, n))
    if not (np.isfinite(a).all() and np.isfinite(b).all() and (a != 0.0).all()):
        raise ValidationError("gauge slope a must be finite and nonzero")
    if not (np.isfinite(theta).all() and np.isfinite(dtheta).all() and np.isfinite(dchi).all()):
        raise ValidationError("theta, dtheta and dchi must be finite")
    probs, deltas = _interior_dist(p_draw), _centered_direction(dp_draw)
    simplex._check_rows(probs, "probs")
    simplex._check_rows(deltas, "deltas")
    dth = dtheta + a * dchi
    quad = statespace._polar_quadratic_rows(probs, deltas, dth)
    dq = statespace._pushforward_rows(probs, statespace._reduced_angles(theta), deltas, dth)
    return max(0.0, float(np.abs(quad - simplex._row_dots(dq, dq)).max()))


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

    worst_embed, worst_triangle, worst_scaling = _distance_identities(rng, cfg.n)
    report.le("embed_distance_identity_max", worst_embed, 1e-12)
    report.le("triangle_inequality_max_violation", worst_triangle, 1e-12)
    report.le("quadratic_scaling_max_error", worst_scaling, 1e-15)

    report.le("polar_metric_consistency_max", _polar_consistency(rng, cfg.n), 1e-10)

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


# the kind of each branch of the constructed maps, beta 0 and 1
_BRANCHES = (transforms.TransformKind.TYPE1, transforms.TransformKind.TYPE2)


def _passes(count: int, dim: int):
    """Start and size of each of the transforms._per_pass passes of the
    probe's (maps, dim, states, shifts + 1) floats over count items."""
    per_pass = transforms._per_pass(
        transforms.PROBE_STATES * (transforms.PROBE_SHIFTS + 1) * dim * 8
    )
    for start in range(0, count, per_pass):
        yield start, min(per_pass, count - start)


def _haar_kinds(rng: np.random.Generator, count: int, dim: int):
    """count random_orthogonal(dim, rng) maps in turn, as one stack, and
    classify's kind of each, with one orthogonality check for the stack."""
    ms = transforms._haar(rng, dim, (count,))
    transforms._require_isometries(ms, NotOrthogonal, "m.T @ m of a Haar draw")
    return ms, transforms._commutation(ms)[0]


def _haar_draws(per_kind, draws: int, dim: int):
    """The correspondence battery's Haar draws: per draw a random_orthogonal
    map, classified and probed, and two random_real_state states whose
    distance it must keep.  Each object is the next of its kind: per_kind
    holds a Generator for maps, states, probe states and probe shifts.
    Returns the number of Neither maps and of maps failing the probe, the
    first failing draw's witness (None if none fails), and the largest
    change of a state distance."""
    maps, states, probe_states, probe_shifts = per_kind
    neither_hits = probe_failures = 0
    first_witness = None
    metric_dev = 0.0
    for start, count in _passes(draws, dim):
        ms, kinds = _haar_kinds(maps, count, dim)
        neither_hits += int(np.count_nonzero(kinds == transforms.TransformKind.NEITHER))
        qs = statespace._real_states(probe_states, count * transforms.PROBE_STATES, dim)
        qs = qs.reshape(count, transforms.PROBE_STATES, dim)
        chi0s = transforms._probe_shifts(probe_shifts, (count, transforms.PROBE_SHIFTS))
        passed, worst, i, j = transforms._probe_stack(ms, qs, chi0s, statespace.DEFAULT_GAUGE)
        probe_failures += int(np.count_nonzero(~passed))
        if first_witness is None and not passed.all():
            k = int(np.argmin(passed))
            first_witness = {
                "draw_index": start + k,
                "matrix": array_to_json(ms[k]),
                "witness_state": array_to_json(qs[k, i[k]]),
                "witness_shift": float(chi0s[k, j[k]]),
                "deviation": float(worst[k]),
            }
        # each draw's two states, its images m @ q as (draws, 2, dim, 1)
        q = statespace._real_states(states, 2 * count, dim).reshape(count, 2, dim)
        images = np.matmul(ms[:, None], q[..., None])
        d_img, d_q = images[:, 0] - images[:, 1], (q[:, 0] - q[:, 1])[..., None]
        metric_dev = max(metric_dev, float(np.abs(
            transforms._frobenius(d_img) - transforms._frobenius(d_q)
        ).max()))
    return neither_hits, probe_failures, first_witness, metric_dev


def _check_constructed(report: Report, per_kind, n: int, constructed: int):
    """The correspondence battery's constructed maps: per map a random_unitary
    u on n amplitudes, its Type1 and Type2 maps, classified, converted back
    and probed, and two random_real_state states they must carry as u and
    its antiunitary do, as stacks per pass.  Each object is the next of its
    kind, as in _haar_draws; a map's Type1 probe comes before its Type2
    probe.  Appends the rows to report and returns the Type1 and Type2
    maps."""
    maps_rng, states, probe_states, probe_shifts = per_kind
    dim = 2 * n
    maps = np.empty((2, constructed, dim, dim))
    hits = [0, 0]
    worst = dict.fromkeys(("unitarity", "roundtrip", "equivariance", "probe0", "probe1"), 0.0)
    identity_distance = math.inf

    def note(name, values):
        worst[name] = max(worst[name], float(np.max(values, initial=0.0)))

    for start, count in _passes(constructed, dim):
        us = transforms._haar(maps_rng, n, (count,), complex_=True)
        # (map, state) stacks: two states and a probe per branch for each map
        qs = statespace._real_states(states, 2 * count, dim).reshape(count, 2, dim)
        probe_qs = statespace._real_states(probe_states, count * 2 * transforms.PROBE_STATES, dim)
        probe_qs = probe_qs.reshape(count, 2, transforms.PROBE_STATES, dim)
        probe_chi0s = transforms._probe_shifts(probe_shifts, (count, 2, transforms.PROBE_SHIFTS))
        transforms._require_isometries(us, NotUnitary, "u^dagger @ u")
        ms = maps[:, start : start + count]
        for beta, kind in enumerate(_BRANCHES):
            ms[beta] = transforms._real_layout(us, beta)
            transforms._require_isometries(ms[beta], NotOrthogonal, "m.T @ m")
            is_kind = transforms._commutation(ms[beta])[0] == kind
            hits[beta] += int(np.count_nonzero(is_kind))
            # to_unitary / to_antiunitary of the maps of the kind, and back:
            # from_unitary / from_antiunitary check those as unitaries
            back = transforms._complex_blocks(ms[beta][is_kind])
            defects = transforms._require_isometries(back, NotUnitary, "u^dagger @ u")
            note("roundtrip", transforms._frobenius(
                transforms._real_layout(back, beta) - ms[beta][is_kind]
            ))
            if beta == 0:
                note("unitarity", defects)
                note("roundtrip", transforms._frobenius(back - us[is_kind]))
            note(f"probe{beta}", transforms._probe_stack(
                ms[beta], probe_qs[:, beta], probe_chi0s[:, beta], statespace.DEFAULT_GAUGE
            )[1])
        identity_distance = min(
            identity_distance, float(transforms._frobenius(ms[1] - np.eye(dim)).min())
        )
        # the (branch, map, state) images m @ q, checked as RealState checks
        # them, against u @ v and u @ conj(v), v the state's amplitudes
        images = np.matmul(ms[:, :, None], qs[..., None])[..., 0]
        statespace._check_unit_rows(images)
        v = qs[..., 0::2] + 1j * qs[..., 1::2]
        carried = np.matmul(us[:, None], np.stack((v, v.conj()))[..., None])
        images = (images[..., 0::2] + 1j * images[..., 1::2])[..., None]
        note("equivariance", transforms._frobenius(images - carried))

    report.within("constructed_type1_classified_fraction", hits[0] / constructed, 1.0, 0.0)
    report.within("constructed_type2_classified_fraction", hits[1] / constructed, 1.0, 0.0)
    report.le("type1_unitarity_max_defect", worst["unitarity"], 1e-10)
    report.le("conversion_roundtrip_max", worst["roundtrip"], 1e-12)
    report.le("equivariance_max_defect", worst["equivariance"], 1e-10)
    report.le("gauge_probe_type1_max_dev", worst["probe0"], 1e-10)
    report.le("gauge_probe_type2_max_dev", worst["probe1"], 1e-10)
    report.ge("type2_identity_distance_min", identity_distance, 1e-6)
    return maps


def _closure_violations(rng: np.random.Generator, maps: np.ndarray) -> int:
    """Over 25 rounds of Type1 maps a1, b1 and Type2 maps a2, b2 of
    maps[0] and maps[1], drawn by rng.integers in that order, the products
    a1 b1, a1 a2, a2 a1, a2 b2 not of kind Type1, Type2, Type2, Type1; the
    100 products run in transforms._per_pass stacks."""
    pick = rng.integers(maps.shape[1], size=(25, 4))
    # per product in round order, each factor's branch and map index
    beta_a, beta_b = np.tile([0, 0, 1, 1], 25), np.tile([0, 1, 0, 1], 25)
    index_a, index_b = pick[:, [0, 0, 2, 2]].ravel(), pick[:, [1, 2, 0, 3]].ravel()
    kinds = np.array(_BRANCHES)[beta_a ^ beta_b]  # the kind of each product
    per_pass = transforms._per_pass(8 * maps.shape[-1] ** 2)
    violations = 0
    for part in (slice(lo, lo + per_pass) for lo in range(0, 100, per_pass)):
        prods = maps[beta_a[part], index_a[part]] @ maps[beta_b[part], index_b[part]]
        transforms._require_isometries(prods, NotOrthogonal, "m.T @ m")
        violations += int(np.count_nonzero(transforms._commutation(prods)[0] != kinds[part]))
    return violations


def run_correspondence(cfg: RunConfig) -> Report:
    report = Report("correspondence", cfg.echo())
    n = cfg.n
    dim = 2 * n
    # the battery's own stream (the closure picks and u_mix), then one per
    # kind of random object: maps, states, probe states, probe shifts
    rng, *per_kind = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(5))

    constructed = 100
    maps = _check_constructed(report, per_kind, n, constructed)
    report.within("closure_sign_rule_violations", float(_closure_violations(rng, maps)), 0.0, 0.0)

    # flip beta on block (0, 0) only; sign-flipping part of one column breaks
    # orthogonality for any dense unitary
    u_mix = transforms.random_unitary(n, rng)
    mixed = transforms.from_unitary(u_mix)
    mixed[0, 1] = u_mix[0, 0].imag
    mixed[1, 1] = -u_mix[0, 0].real
    try:
        transforms.classify(mixed)
        mixed_rejected = 0.0
    except NotOrthogonal:
        mixed_rejected = 1.0
    report.within("mixed_beta_rejected", mixed_rejected, 1.0, 0.0)

    neither_hits, probe_failures, first_witness, metric_dev = _haar_draws(per_kind, cfg.draws, dim)
    report.within("haar_neither_fraction", neither_hits / cfg.draws, 1.0, 0.0)
    report.within("haar_probe_failure_fraction", probe_failures / cfg.draws, 1.0, 0.0)
    report.le("metric_invariance_max_dev", metric_dev, 1e-12)

    kinds = _haar_kinds(per_kind[0], 64, 2)[1]
    small = np.count_nonzero(kinds != transforms.TransformKind.NEITHER)
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
                # through other's basis: its phases must not move the probabilities
                float(np.abs(np.abs(other.basis().conj().T @ v.v) ** 2 - dist.probs).max()),
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


def _envelope_distances(rng: np.random.Generator, n: int, draws: int):
    """Yield (d_S, d_H) arrays of `draws` envelope draws, one pair per pass.

    Draw k takes the Gaussians of u and v as random_complex_state does (real
    parts, then imaginary), then those of an n x 2 complex Gaussian, from rng.
    Its Haar columns C, an isometry as a Measurement's W is unitary, give the
    outcome amplitudes C R = W [u v] (transforms._haar_images).  d_S is
    statistical_distance of |W u|^2 and |W v|^2 and d_H is
    hilbert_distance(u, v), each over the whole stack with the arithmetic of
    two ComplexStates and two ProbDist objects per draw.
    """
    per_pass = transforms._per_pass(64 * n)
    # per draw, rows of 2n: u (re, im), v (re, im), the n x 2 Gaussian re, im;
    # one buffer for every pass, and no pass's arrays held while the next one
    # draws
    buffer = np.empty((min(per_pass, draws), 4, 2 * n))
    for start in range(0, draws, per_pass):
        gauss = rng.standard_normal(out=buffer[: draws - start])
        z = statespace._unit_rows(gauss[:, :2, :n] + 1j * gauss[:, :2, n:])
        c = transforms._haar_from_gaussian((gauss[:, 2] + 1j * gauss[:, 3]).reshape(-1, n, 2))
        transforms._require_isometries(c, NotUnitary, "C^dagger @ C of a Haar measurement")
        ab = np.ascontiguousarray(z.transpose(1, 0, 2))
        # |u|^2, |v|^2 (the states) and |W u|^2, |W v|^2 (the outcome distributions)
        sq = np.abs(np.stack((ab, transforms._haar_images(z, c).transpose(1, 0, 2)))) ** 2
        simplex._check_rows(sq, "probs")
        ds, dh = simplex._distance_rows(*sq[1]), distmax._hilbert_angle(ab[0], ab[1])
        del gauss, z, c, ab, sq
        yield ds, dh


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
    # each pair draws u, v, the optimizer's seed and the certifier's, in
    # order, as the optimizer asks for it
    certify = deque()

    def pairs():
        for _ in range(cfg.pairs):
            u = statespace.random_complex_state(n, rng)
            v = statespace.random_complex_state(n, rng)
            seed = int(rng.integers(2**62))
            certify.append((u, v, int(rng.integers(2**62))))
            yield u, v, seed

    for res in distmax._maximize_pairs(pairs(), cfg.budget):
        u, v, seed = certify.popleft()
        cert = distmax.certify_upper_bound(u, v, samples=2000, seed=seed)
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

    envelope = max(float(np.max(ds - dh)) for ds, dh in _envelope_distances(rng, n, cfg.draws))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's parser, built once per process: a build takes ~1 ms, a parse of
    # a built parser ~30 us
    return build_parser()


def main(argv=None) -> int:
    opts = vars(_parser().parse_args(argv))
    overrides = dict(opts.pop("tol_override", []))
    cfg = RunConfig(**opts, tol_overrides=overrides)
    runner = run_all if cfg.command == "all" else _RUNNERS[cfg.command]
    started = time.perf_counter()
    try:
        cfg.validate()
        report = runner(cfg)
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
