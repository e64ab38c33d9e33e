"""Hypersphere state space over paired events and its polar/complex charts.

Each of N outcomes is refined into two finer events, so a state assigns
probabilities to 2N events; the outcome probabilities are the pairwise sums

    p_i = P_{2i} + P_{2i+1}        (0-based pairing).

In square-root coordinates Q_q (with P_q = Q_q^2, signs free) the information
metric on event distributions becomes Euclidean, ds^2 = sum_q dQ_q^2, and the
state space is the full unit hypersphere of dimension 2N - 1.  Polar
coordinates per pair,

    Q_{2i} = sqrt(p_i) cos(theta_i),    Q_{2i+1} = sqrt(p_i) sin(theta_i),

split the metric as ds^2 = (1/4) sum dp_i^2/p_i + sum p_i dtheta_i^2.  The
angle is an affine function theta = a*chi + b of an underlying degree of
freedom chi; a shift of chi by chi0 moves every theta_i by a*chi0 and leaves
outcome probabilities untouched.  Packing pairs into complex amplitudes

    v_i = Q_{2i} + 1j * Q_{2i+1}

turns that shift into a global phase exp(1j*a*chi0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyGrid,
    OddDimension,
    ValidationError,
)
from .simplex import (
    NORMALIZATION_TOL,
    ProbDist,
    TangentVec,
    _integer,
    _fisher_rows,
    _moving,
    _norms,
    _readonly_row,
    _row_dots,
    _vector,
)

TWO_PI = 2.0 * math.pi
SLOPE_REL_TOL = 1e-9  # largest spread of |theta'| relative to its mean in the measure audit


@dataclass(frozen=True, eq=False)
class EventDist:
    """A distribution over the 2N refined events."""

    event_probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "event_probs", _readonly_row(self.event_probs, "probs"))

    def __len__(self) -> int:
        return int(self.event_probs.size)


@dataclass(frozen=True, eq=False)
class RealState:
    """A point on the unit hypersphere in square-root event coordinates.

    q has even length 2N >= 4, unit norm within 1e-12, entries in [-1, 1].
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        arr = _vector(self.q, "q")
        if arr.size < 4 or arr.size % 2 != 0:
            raise ValidationError("q must have even length >= 4")
        _check_unit_rows(arr)
        object.__setattr__(self, "q", arr)

    @property
    def n_outcomes(self) -> int:
        return int(self.q.size // 2)


def _check_unit_rows(q: np.ndarray) -> None:
    """RealState's check of every row (last axis) of a (..., 2N) array in
    one pass: unit norm within NORMALIZATION_TOL and entries in [-1, 1]; a
    row with a non-finite entry fails the first."""
    if not (np.abs(_row_dots(q, q) - 1.0) <= NORMALIZATION_TOL).all():
        raise ValidationError("q must have unit norm within 1e-12")
    if not (np.abs(q) <= 1.0 + NORMALIZATION_TOL).all():
        raise ValidationError("entries of a unit vector must lie in [-1, 1]")


@dataclass(frozen=True, eq=False)
class PolarState:
    """Outcome probabilities plus one angle per outcome, reduced to [0, 2pi)."""

    p: ProbDist
    theta: np.ndarray

    def __post_init__(self) -> None:
        # a 2-D theta is a ValidationError, a wrong length a DimensionMismatch
        if np.ndim(self.theta) != 1:
            raise ValidationError(f"theta must be one-dimensional, not {np.ndim(self.theta)}-D")
        reduced = _reduced_angles(_vector(self.theta, "theta", size=self.p.n))
        reduced.flags.writeable = False
        object.__setattr__(self, "theta", reduced)


def _reduced_angles(theta: np.ndarray) -> np.ndarray:
    # finite angles reduced to [0, 2pi): mod can return 2pi for tiny negative
    # inputs, which fold back to 0
    reduced = np.mod(theta, TWO_PI)
    reduced[reduced >= TWO_PI] = 0.0
    return reduced


@dataclass(frozen=True)
class GaugeConvention:
    """The affine relation theta = a * chi + b fixing the angle chart."""

    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.a == 0.0 or not math.isfinite(self.a) or not math.isfinite(self.b):
            raise ValidationError("gauge slope a must be finite and nonzero")


DEFAULT_GAUGE = GaugeConvention()


@dataclass(frozen=True, eq=False)
class ComplexState:
    """Unit vector of N complex amplitudes, one per outcome."""

    v: np.ndarray

    def __post_init__(self) -> None:
        arr = _vector(self.v, "v", dtype=complex)
        norm2 = float(np.sum(np.abs(arr) ** 2))
        if abs(norm2 - 1.0) > NORMALIZATION_TOL:
            raise ValidationError("sum of |v_i|^2 must be 1 within 1e-12")
        object.__setattr__(self, "v", arr)

    @property
    def n(self) -> int:
        return int(self.v.size)


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Pack pair coordinates along the last axis: [e0, o0, e1, o1, ...]."""
    out = np.empty((*even.shape[:-1], 2 * even.shape[-1]))
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


def coarse_grain(events: EventDist) -> ProbDist:
    """Sum consecutive event pairs into outcome probabilities."""
    arr = events.event_probs
    if arr.size % 2 != 0:
        raise OddDimension(f"cannot pair {arr.size} events")
    return ProbDist(arr.reshape(-1, 2).sum(axis=1))


def state_event_probs(state: RealState) -> EventDist:
    """Event probabilities P_q = Q_q^2 of a hypersphere state."""
    return EventDist(state.q**2)


def from_polar(ps: PolarState) -> RealState:
    """Interleave sqrt(p_i) cos(theta_i), sqrt(p_i) sin(theta_i)."""
    r = np.sqrt(ps.p.probs)
    return RealState(_interleave(r * np.cos(ps.theta), r * np.sin(ps.theta)))


def to_polar(state: RealState) -> PolarState:
    """Recover (p, theta) from a hypersphere state.

    theta_i = atan2(Q_{2i+1}, Q_{2i}) reduced to [0, 2pi); by convention
    theta_i = 0 where p_i = 0.
    """
    cos_part = state.q[0::2]
    sin_part = state.q[1::2]
    p = cos_part**2 + sin_part**2
    theta = np.arctan2(sin_part, cos_part)
    theta[p == 0.0] = 0.0
    return PolarState(ProbDist(p), theta)


def to_complex(state: RealState) -> ComplexState:
    """Pack coordinate pairs into complex amplitudes v_i = Q_{2i} + 1j Q_{2i+1}."""
    return ComplexState(state.q[0::2] + 1j * state.q[1::2])


def from_complex(cs: ComplexState) -> RealState:
    """Unpack complex amplitudes into interleaved real coordinates."""
    return RealState(_interleave(cs.v.real, cs.v.imag))


def born_probs(cs: ComplexState) -> ProbDist:
    """Outcome probabilities |v_i|^2.

    Agrees with coarse_grain(state_event_probs(from_complex(cs))).
    """
    return ProbDist(np.abs(cs.v) ** 2)


def gauge_shift(ps: PolarState, chi0: float, g: GaugeConvention = DEFAULT_GAUGE) -> PolarState:
    """Shift the underlying chi by chi0: every theta_i moves by a * chi0.

    Outcome probabilities are unchanged; the complex image acquires the
    global phase exp(1j * a * chi0).
    """
    if not math.isfinite(chi0):
        raise ValidationError("chi0 must be finite")
    return PolarState(ps.p, ps.theta + g.a * chi0)


def polar_metric_quadratic(
    ps: PolarState,
    dp: TangentVec,
    dtheta,
    g: GaugeConvention = DEFAULT_GAUGE,
    dchi=None,
) -> float:
    """Metric quadratic form in the polar chart,

        (1/4) sum_i dp_i^2 / p_i + sum_i p_i (dtheta_i + a * dchi_i)^2,

    where the angle perturbation may be given directly (dtheta) and/or through
    the underlying degree of freedom (dchi, entering with slope a).  Matches
    the Euclidean quadratic form of the pushed-forward perturbation on the
    hypersphere.
    """
    n = ps.p.n
    dtheta = _vector(dtheta, "dtheta", size=n)
    dchi = np.zeros(n) if dchi is None else _vector(dchi, "dchi", size=n)
    return float(_polar_quadratic_rows(ps.p.probs, dp.deltas, dtheta + g.a * dchi))


def _polar_quadratic_rows(probs: np.ndarray, deltas: np.ndarray, dth: np.ndarray) -> np.ndarray:
    """polar_metric_quadratic over the last axis of (..., n) rows of checked
    probabilities, tangent directions and total angle perturbations."""
    return _fisher_rows(probs, deltas) + (probs * dth**2).sum(axis=-1)


def polar_pushforward(ps: PolarState, dp: TangentVec, dtheta_total) -> np.ndarray:
    """Tangent image dQ of a polar perturbation (dp, dtheta_total).

    Linearization of from_polar; requires p_i > 0 wherever dp_i != 0 and
    theta actually turns only where p_i > 0 contributes.
    """
    dth = _vector(dtheta_total, "dtheta_total", size=ps.p.n)
    return _pushforward_rows(ps.p.probs, ps.theta, dp.deltas, dth)


def _pushforward_rows(
    probs: np.ndarray, theta: np.ndarray, deltas: np.ndarray, dth: np.ndarray
) -> np.ndarray:
    """polar_pushforward over the last axis of (..., n) rows of checked
    probabilities, reduced angles, tangent directions and total angle
    perturbations: (..., 2n) rows."""
    moving = _moving(probs, deltas)
    r = np.sqrt(probs)
    dr = np.zeros(r.shape)
    np.divide(deltas, 2.0 * r, out=dr, where=moving)
    c, s = np.cos(theta), np.sin(theta)
    return _interleave(dr * c - r * s * dth, dr * s + r * c * dth)


@dataclass(frozen=True)
class MeasureInvarianceResult:
    """Outcome of the constant-|theta'| test on a sample grid.

    deviation = max|theta'| - min|theta'|; the induced outcome measure is
    c * |theta'(chi)| with c chosen so it integrates to 1 over [0, 2pi),
    i.e. c = 1 / (2 pi * mean|theta'|) for an admissible (constant) slope.
    """

    passed: bool
    deviation: float
    mean_abs_slope: float
    measure_constant: float | None


def measure_invariance_check(theta_prime_samples) -> MeasureInvarianceResult:
    """Check that sampled slope values theta'(chi) have constant magnitude.

    Pass iff max|theta'| - min|theta'| <= SLOPE_REL_TOL * mean|theta'|.  Raises
    EmptyGrid for fewer than two samples and ValidationError for non-finite
    samples or ones whose sum overflows.
    """
    if np.ndim(theta_prime_samples) != 1 or np.size(theta_prime_samples) < 2:
        raise EmptyGrid("need a grid of at least 2 slope samples")
    arr = np.abs(_vector(theta_prime_samples, "slope samples"))
    deviation = float(arr.max() - arr.min())
    with np.errstate(over="ignore"):
        mean = float(arr.mean())
    if mean == math.inf:
        raise ValidationError("slope magnitudes sum past the float range")
    passed = deviation <= SLOPE_REL_TOL * mean
    constant = 1.0 / (TWO_PI * mean) if mean > 0.0 else None
    return MeasureInvarianceResult(passed, deviation, mean, constant)


def random_complex_state(n: int, seed) -> ComplexState:
    """Uniform (unitarily invariant) random state of n >= 2 complex amplitudes.

    Accepts an int seed or a numpy Generator.
    """
    if _integer(n, "n") < 2:
        raise ValidationError("n must be >= 2")
    rng = np.random.default_rng(seed)
    # real parts first
    return ComplexState(_unit_rows(rng.standard_normal(n) + 1j * rng.standard_normal(n)))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    # the scaling of random_complex_state and random_real_state: each row
    # (last axis) of a stack of draws divided by its norm
    return z / _norms(z)[..., None]


def random_real_state(dim: int, seed) -> RealState:
    """Uniform (rotation-invariant) random state on the hypersphere S^{dim-1}.

    dim must be even and >= 4.  Accepts an int seed or a numpy Generator.
    """
    dim = _integer(dim, "dim")
    if dim < 4 or dim % 2 != 0:
        raise ValidationError("dim must be even and >= 4")
    return RealState(_real_states(np.random.default_rng(seed), 1, dim)[0])


def _real_states(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """The package's one sampler of random unit real states: a (count, dim)
    block of standard normals, each row scaled to unit norm and checked in
    one pass.  Row k is the k-th random_real_state(dim, rng) call's q."""
    z = rng.standard_normal((count, dim))
    # a row whose norm is at most 1e-8 (odds ~1e-33 at dim 4) is drawn
    # again: the rows after it move up and one more is drawn
    while (rejected := np.flatnonzero((norms := _norms(z)) <= 1e-8)).size:
        z[rejected[0] : -1] = z[rejected[0] + 1 :]
        z[-1] = rng.standard_normal(dim)
    # the last pass's norms are those of the accepted rows: scale by them
    q = z / norms[:, None]
    _check_unit_rows(q)
    return q
