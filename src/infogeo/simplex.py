"""Probability distributions over N outcomes and their information geometry.

The simplex of N-outcome distributions carries the information metric

    ds^2 = (1/4) * sum_i dp_i^2 / p_i

whose geodesic distance between two distributions is the angle

    d_S(p, p') = arccos( sum_i sqrt(p_i * p'_i) ).

The square-root embedding q_i = sqrt(p_i) maps the simplex onto the positive
orthant of the unit sphere and turns the metric into the Euclidean one, which
is why d_S is an arccos of a dot product.  The KL divergence (in nats) agrees
with 2 * ds^2 to second order along any tangent direction; the remainder is
cubic in the step size.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatch,
    SingularMetric,
    ValidationError,
)

NORMALIZATION_TOL = 1e-12


def _check_rows(arr: np.ndarray, kind: str) -> None:
    """Validate every row (last axis) of a (..., n) array in one pass: entries
    finite, and each row summing to 1 within NORMALIZATION_TOL with entries
    nonnegative (kind "probs": distributions) or summing to 0 (kind "deltas":
    tangent directions)."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"{kind} contains non-finite entries")
    _check_sums(arr, kind)


def _check_sums(arr: np.ndarray, kind: str) -> None:
    # _check_rows on rows whose entries are known to be finite
    if kind == "probs" and (arr < 0.0).any():
        raise ValidationError("probabilities must be nonnegative")
    target = 1.0 if kind == "probs" else 0.0
    sums = arr.sum(axis=-1)
    off = np.abs(sums - target) > NORMALIZATION_TOL
    if off.any():
        raise ValidationError(
            f"{kind} sum to {float(sums[off][0])!r}, not {target:g} within {NORMALIZATION_TOL}"
        )


def _vector(values, name: str, size: int | None = None, dtype=float) -> np.ndarray:
    """The one validator of a 1-D input: a read-only copy of values as an
    array of dtype (dtype=None keeps the input's), with at least 2 entries or,
    when size is given, exactly size of them, and finite floating-point or
    complex entries.  A wrong shape raises DimensionMismatch when size is
    given and ValidationError otherwise; a non-finite entry raises
    ValidationError."""
    arr = np.array(values, dtype=dtype)
    if size is not None:
        if arr.shape != (size,):
            raise DimensionMismatch(f"{name} must have shape ({size},), got {arr.shape}")
    elif arr.ndim != 1 or arr.size < 2:
        raise ValidationError(f"{name} must be one row of >= 2 entries, got shape {arr.shape}")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def _integer(value, name: str) -> int:
    """The one check of an integer argument: value as a Python int through
    operator.index, so a float or a string raises ValidationError instead of
    being truncated or failing later."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _readonly_row(values, kind: str) -> np.ndarray:
    # the one row of a ProbDist, TangentVec or EventDist; _vector checked finiteness
    arr = _vector(values, kind)
    _check_sums(arr, kind)
    return arr


@dataclass(frozen=True, eq=False)
class ProbDist:
    """A distribution over N >= 2 outcomes.

    Entries must be nonnegative and sum to 1 within 1e-12.  Zeros are legal;
    the operations below raise typed errors only where a zero actually
    matters.  Use :meth:`renormalized` for raw user input.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _readonly_row(self.probs, "probs"))

    @classmethod
    def renormalized(cls, values) -> "ProbDist":
        """Scale nonnegative weights to sum exactly to 1."""
        arr = _vector(values, "weights")
        if np.any(arr < 0.0):
            raise ValidationError("weights must be nonnegative")
        with np.errstate(over="ignore"):
            total = arr.sum()
        if total == math.inf:
            # finite weights whose sum overflows: scale by the largest first
            arr = arr / arr.max()
            total = arr.sum()
        if total <= 0.0:
            raise ValidationError("weights must have positive sum")
        return cls(arr / total)

    @property
    def n(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class TangentVec:
    """A tangent direction to the simplex: N reals summing to 0 within 1e-12."""

    deltas: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", _readonly_row(self.deltas, "deltas"))

    @property
    def n(self) -> int:
        return int(self.deltas.size)


def _check_same_dim(a_size: int, b_size: int) -> None:
    if a_size != b_size:
        raise DimensionMismatch(f"dimension mismatch: {a_size} vs {b_size}")


def _moving(probs: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    # Mask of entries that deltas move, over the last axis; raises SingularMetric
    # when one of them has zero probability, where the metric blows up.
    _check_same_dim(probs.shape[-1], deltas.shape[-1])
    moving = deltas != 0.0
    if np.any(moving & (probs == 0.0)):
        raise SingularMetric("dp is nonzero on an outcome with zero probability")
    return moving


def _fisher_rows(probs: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """(1/4) sum_i deltas_i^2 / probs_i over the last axis of broadcastable
    (..., n) arrays of rows already checked by _check_rows."""
    moving = _moving(probs, deltas)
    terms = np.zeros(np.broadcast_shapes(probs.shape, deltas.shape))
    np.divide(deltas**2, probs, out=terms, where=moving)
    return 0.25 * terms.sum(axis=-1)


def fisher_quadratic(p: ProbDist, dp: TangentVec) -> float:
    """Quadratic form of the information metric, (1/4) * sum dp_i^2 / p_i.

    Raises SingularMetric when dp points off a face of the simplex, i.e.
    dp_i != 0 where p_i = 0.  Terms with dp_i = 0 contribute nothing even
    at p_i = 0.
    """
    return float(_fisher_rows(p.probs, dp.deltas))


def _angle_between(diff: np.ndarray, total: np.ndarray) -> float:
    """Angle 2 atan2(|x - y|, |x + y|) between unit vectors x, y with
    x . y >= 0, given diff = x - y and total = x + y.

    Unlike arccos(x . y) this keeps the precision of diff at small angles.
    Such an angle is at most pi/2; the cap absorbs rounding.
    """
    angle = 2.0 * math.atan2(float(np.linalg.norm(diff)), float(np.linalg.norm(total)))
    return min(angle, 0.5 * math.pi)


def statistical_distance(p: ProbDist, p2: ProbDist) -> float:
    """Geodesic distance arccos(sum_i sqrt(p_i * p2_i)), in [0, pi/2].

    Computed as the angle 2 atan2(|d|, |sqrt(p) + sqrt(p2)|) with
    d = (p - p2) / (sqrt(p) + sqrt(p2)) = sqrt(p) - sqrt(p2) (0 where both
    vanish): p - p2 is exact for close inputs, so the distance keeps full
    relative precision as it tends to 0.  Equals 0 iff the distributions
    coincide and pi/2 iff their supports are disjoint.
    """
    return float(_distance_rows(p.probs[None], p2.probs[None])[0])


def _distance_rows(probs: np.ndarray, probs2: np.ndarray) -> np.ndarray:
    """statistical_distance of each row pair of (m, n) arrays of rows checked by
    _check_rows; the norms run per row, as a stacked norm rounds differently."""
    _check_same_dim(probs.shape[-1], probs2.shape[-1])
    total = np.sqrt(probs) + np.sqrt(probs2)
    diff = np.zeros_like(total)
    np.divide(probs - probs2, total, out=diff, where=total > 0.0)
    return np.array([_angle_between(d, t) for d, t in zip(diff, total)])


def _kl_rows(probs: np.ndarray, probs2: np.ndarray) -> np.ndarray:
    """sum_i probs_i ln(probs_i / probs2_i) over the last axis of broadcastable
    (..., n) arrays of rows already checked by _check_rows; terms with
    probs_i = 0 are 0."""
    _check_same_dim(probs.shape[-1], probs2.shape[-1])
    support = probs > 0.0
    if np.any(support & (probs2 == 0.0)):
        raise AbsoluteContinuityViolation("p has mass where p2 vanishes")
    ratio = np.ones(np.broadcast_shapes(probs.shape, probs2.shape))
    with np.errstate(over="ignore"):
        np.divide(probs, probs2, out=ratio, where=support)
    logs = np.log(ratio)
    over = np.isinf(ratio)
    if over.any():
        # a subnormal probs2 overflows the ratio; its log is still finite
        p, p2 = np.broadcast_arrays(probs, probs2)
        logs[over] = np.log(p[over]) - np.log(p2[over])
    return (probs * logs).sum(axis=-1)


def kl_divergence(p: ProbDist, p2: ProbDist) -> float:
    """KL divergence sum_i p_i ln(p_i / p2_i) in nats.

    Terms with p_i = 0 contribute 0.  Raises AbsoluteContinuityViolation if
    p puts mass on an outcome where p2 has none.
    """
    return float(_kl_rows(p.probs, p2.probs))


def sqrt_embed(p: ProbDist) -> np.ndarray:
    """Entry-wise square root: a unit vector on the positive orthant.

    The Euclidean angle between two embedded distributions is their
    statistical distance: arccos(sqrt_embed(p) . sqrt_embed(p2)) = d_S(p, p2).
    """
    return np.sqrt(p.probs)
