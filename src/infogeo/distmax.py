"""Maximal statistical distinguishability of two states over measurements.

For complex states u, v and a measurement with unitary stage W, the outcome
distributions have statistical distance

    d_S(W) = arccos( sum_i |(W u)_i| * |(W v)_i| ),

and the supremum over measurements equals the Hilbert-space angle

    d_H = arccos |u^dagger v|.

The maximizer below performs derivative-free multi-start search over a
surjective parameterization of the unitary group (a QR-style ladder of
complex plane rotations followed by output phases) with coordinate-wise
step-halving refinement.  A Haar-sampling certifier provides an independent
stochastic lower envelope of the same supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .measurement import Measurement
from .statespace import ComplexState
from .transforms import _haar

MAX_DIMENSION = 8
_MIN_STEP = 1e-8


def hilbert_distance(u: ComplexState, v: ComplexState) -> float:
    """Hilbert-space angle arccos |u^dagger v|, in [0, pi/2]."""
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    overlap = abs(np.vdot(u.v, v.v))
    return float(np.arccos(np.clip(overlap, 0.0, 1.0)))


@dataclass(frozen=True, eq=False)
class DistinguishabilityResult:
    """Best found measurement distance and its gap to the Hilbert angle."""

    max_ds: float
    argmax_measurement: Measurement
    hilbert_distance: float
    gap: float


def _pair_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def n_parameters(n: int) -> int:
    """Real parameter count of the unitary chart: n phases + (theta, zeta)
    per plane rotation, n + 2 * n(n-1)/2 = n^2 in total."""
    return n * n


def unitary_from_params(params: np.ndarray, n: int) -> np.ndarray:
    """Unitary from the phase-and-rotation-ladder chart.

    U = diag(exp(1j phases)) @ prod_{i<j} G_ij(theta, zeta), where G_ij
    rotates the (i, j) plane by theta with complex phase zeta.  The chart is
    dimension-correct (n^2 real parameters) and onto, by the QR elimination
    argument: plane rotations can reduce any unitary to a diagonal of phases.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (n_parameters(n),):
        raise ValidationError(f"need {n_parameters(n)} parameters for dimension {n}")
    u = np.diag(np.exp(1j * params[:n]))
    k = n
    for i, j in _pair_order(n):
        theta, zeta = params[k], params[k + 1]
        k += 2
        c, s = math.cos(theta), math.sin(theta)
        g = np.eye(n, dtype=complex)
        g[i, i] = c
        g[j, j] = c
        g[i, j] = -s * np.exp(-1j * zeta)
        g[j, i] = s * np.exp(1j * zeta)
        u = u @ g
    return u


def _distance_after(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    overlap = float(np.sum(np.abs(w @ a) * np.abs(w @ b)))
    return float(np.arccos(np.clip(overlap, 0.0, 1.0)))


def _refine(objective, params: np.ndarray, step0: float) -> tuple[np.ndarray, float]:
    # Coordinate-wise greedy ascent; halve the step after any sweep with no
    # improvement, stop below 1e-8.
    best = objective(params)
    step = step0
    while step >= _MIN_STEP:
        improved = False
        for k in range(params.size):
            for delta in (step, -step):
                cand = params.copy()
                cand[k] += delta
                val = objective(cand)
                if val > best:
                    params, best = cand, val
                    improved = True
        if not improved:
            step *= 0.5
    return params, best


def maximize_statistical_distance(
    u: ComplexState,
    v: ComplexState,
    budget: int = 10,
    seed: int = 0,
) -> DistinguishabilityResult:
    """Search for the measurement maximizing the statistical distance.

    budget counts independent random restarts; each restart refines a uniform
    random chart point by coordinate-wise step-halving.  Restarts draw from
    substreams indexed by restart number, so at a fixed seed the result is
    deterministic and never degrades as budget grows.  Dimension is capped
    at 8.
    """
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    if u.n > MAX_DIMENSION:
        raise ValidationError(f"dimension {u.n} exceeds the supported cap {MAX_DIMENSION}")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    n = u.n
    a, b = u.v, v.v

    def objective(params: np.ndarray) -> float:
        return _distance_after(unitary_from_params(params, n), a, b)

    children = np.random.SeedSequence(seed).spawn(budget)
    best_val = -1.0
    best_params: np.ndarray | None = None
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        start = rng.uniform(0.0, 2.0 * math.pi, size=n_parameters(n))
        params, val = _refine(objective, start, step0=0.5)
        if val > best_val:
            best_val, best_params = val, params

    w = unitary_from_params(best_params, n)
    dh = hilbert_distance(u, v)
    return DistinguishabilityResult(
        max_ds=best_val,
        argmax_measurement=Measurement(w),
        hilbert_distance=dh,
        gap=abs(best_val - dh),
    )


def certify_upper_bound(
    u: ComplexState,
    v: ComplexState,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Max statistical distance over Haar-random measurements.

    A stochastic lower bound of the supremum; never exceeds the Hilbert
    angle (up to floating error).  Deterministic for a fixed seed.
    """
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 4096)
        remaining -= chunk
        q = _haar(rng, u.n, (chunk,), complex_=True)
        overlaps = np.sum(np.abs(q @ u.v) * np.abs(q @ v.v), axis=1)
        best = max(best, float(np.arccos(np.clip(overlaps.min(), 0.0, 1.0))))
    return best
