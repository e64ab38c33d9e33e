"""Maximal statistical distinguishability of two states over measurements.

For complex states u, v and a measurement with unitary stage W, the outcome
distributions have statistical distance d_S(W), defined by

    cos d_S(W) = sum_i |(W u)_i| * |(W v)_i|,

and the supremum over measurements equals the Hilbert-space angle d_H,
cos d_H = |u^dagger v|.  Each angle is computed as 2 atan2(|x - y|, |x + y|)
by simplex._angle_between (x = |W u|, y = |W v| for d_S), which keeps full
precision as the angle tends to 0.

The maximizer below performs derivative-free multi-start search over a
surjective parameterization of the unitary group, U = D M with D a diagonal
of output phases and M = G_1 ... G_m a QR-style ladder of complex plane
rotations, with coordinate-wise step-halving refinement.  It minimizes the
overlap, which falls as d_S grows; only the reported maximum becomes an
angle.  Since |(D M a)_i| = |(M a)_i|, the phases cannot change d_S: the
search sweeps the 2m rotation coordinates only and the phases keep their
random start values.  A sweep is incremental.  One backward pass builds the
suffixes G_{r+1} ... G_m [u v]; a prefix P = G_1 ... G_{r-1} grows by one
two-column update per rotation; a candidate value of rotation r changes only
two rows of G_r G_{r+1} ... G_m [u v], so it costs O(n) instead of m full
products.  A Haar-sampling certifier provides an independent stochastic
lower envelope of the same supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .measurement import Measurement
from .simplex import _angle_between, _vector
from .statespace import ComplexState
from .transforms import _haar

MAX_DIMENSION = 8
_MIN_STEP = 1e-8


def hilbert_distance(u: ComplexState, v: ComplexState) -> float:
    """Hilbert-space angle d_H, cos d_H = |u^dagger v|, in [0, pi/2].

    Computed as 2 atan2(|u - w|, |u + w|), where w is v times the phase that
    makes u^dagger w = |u^dagger v|.  Unlike the inverse cosine, which loses
    half the digits near 0, the error stays near 1e-16 absolute as the angle
    tends to 0, and is relative when that phase is exact (u^dagger v real).
    """
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    overlap = complex(np.vdot(u.v, v.v))
    w = v.v if overlap == 0.0 else v.v * (abs(overlap) / overlap)
    return _angle_between(u.v - w, u.v + w)


@dataclass(frozen=True, eq=False)
class DistinguishabilityResult:
    """Best found measurement distance and its gap to the Hilbert angle.

    evaluations counts the objective evaluations of all restarts.
    """

    max_ds: float
    argmax_measurement: Measurement
    hilbert_distance: float
    gap: float
    evaluations: int


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
    if np.shape(params) != (n_parameters(n),):
        raise ValidationError(f"need {n_parameters(n)} parameters for dimension {n}")
    params = _vector(params, "params", size=n_parameters(n))
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
    x, y = np.abs(w @ a), np.abs(w @ b)
    return _angle_between(x - y, x + y)


def _rotation(theta: float, zeta: float) -> tuple[float, complex]:
    # G_ij has c on its (i, i) and (j, j) entries, e at (j, i), -conj(e) at (i, j)
    s = math.sin(theta)
    return math.cos(theta), complex(s * math.cos(zeta), s * math.sin(zeta))


def _suffixes(ab: np.ndarray, rot: list[float]) -> list[np.ndarray]:
    """[G_1 ... G_m ab, G_2 ... G_m ab, ..., G_m ab, ab] for the n x 2 pair ab."""
    pairs = _pair_order(ab.shape[0])
    out = [ab]
    for r in reversed(range(len(pairs))):
        i, j = pairs[r]
        c, e = _rotation(rot[2 * r], rot[2 * r + 1])
        x = out[-1]
        y = x.copy()
        y[i] = c * x[i] - e.conjugate() * x[j]
        y[j] = e * x[i] + c * x[j]
        out.append(y)
    out.reverse()
    return out


def _sweep(ab: np.ndarray, rot: list[float], step: float):
    """Yield (k, candidate rot[k], overlap) for every candidate of one sweep.

    rot holds (theta, zeta) per rotation of the ladder.  Candidates come in
    search order: each coordinate +step, then -step, both taken from the
    current rot; the caller accepts a candidate by writing it into rot[k]
    before asking for the next one.
    """
    n = ab.shape[0]
    suffixes = _suffixes(ab, rot)
    p = np.eye(n, dtype=complex)
    # With P = G_1 ... G_{r-1} and X = G_{r+1} ... G_m ab, a candidate (c, e)
    # for G_r outputs P G_r X, flattened as (1, c, e, -conj(e)) @ flat: the
    # part through the rows of X outside (i, j), then the three coefficients
    # of the two touched rows.
    terms = np.empty((4, 2, n), dtype=complex)
    flat = terms.reshape(4, 2 * n)
    for r, (i, j) in enumerate(_pair_order(n)):
        x = suffixes[r + 1]
        x2 = x[(i, j), :]
        pij = p[:, (i, j)]
        touched = pij @ x2
        terms[0] = (p @ x - touched).T
        terms[1] = touched.T
        terms[2] = x2[0, :, None] * pij[:, 1]
        terms[3] = x2[1, :, None] * pij[:, 0]
        for k in (2 * r, 2 * r + 1):
            for delta in (step, -step):
                cand = rot[k] + delta
                if k == 2 * r:
                    c, e = _rotation(cand, rot[k + 1])
                else:
                    c, e = _rotation(rot[k - 1], cand)
                mod = np.abs(np.dot(np.array((1.0, c, e, -e.conjugate())), flat))
                yield k, cand, float(np.dot(mod[:n], mod[n:]))
        c, e = _rotation(rot[2 * r], rot[2 * r + 1])
        p[:, i] = c * pij[:, 0] + e * pij[:, 1]
        p[:, j] = c * pij[:, 1] - e.conjugate() * pij[:, 0]


def _refine(ab: np.ndarray, rot: list[float], step: float) -> tuple[float, int]:
    # Coordinate-wise greedy descent of the overlap over rot (updated in
    # place); halve the step after any sweep with no improvement, stop below
    # 1e-8.  Returns the best overlap and the number of objective evaluations.
    mod = np.abs(_suffixes(ab, rot)[0])
    best = float(np.dot(mod[:, 0], mod[:, 1]))
    evaluations = 1
    while step >= _MIN_STEP:
        improved = False
        for k, cand, val in _sweep(ab, rot, step):
            evaluations += 1
            if val < best:
                rot[k], best, improved = cand, val, True
        if not improved:
            step *= 0.5
    return best, evaluations


def maximize_statistical_distance(
    u: ComplexState,
    v: ComplexState,
    budget: int = 10,
    seed: int = 0,
) -> DistinguishabilityResult:
    """Search for the measurement maximizing the statistical distance.

    budget counts independent random restarts; each restart refines a uniform
    random chart point by coordinate-wise step-halving over the rotation
    coordinates.  Restarts draw from substreams indexed by restart number, so
    at a fixed seed the result is deterministic and never degrades as budget
    grows.  max_ds is the distance achieved by argmax_measurement.  Dimension
    is capped at 8.
    """
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    if u.n > MAX_DIMENSION:
        raise ValidationError(f"dimension {u.n} exceeds the supported cap {MAX_DIMENSION}")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    n = u.n
    a, b = u.v, v.v
    ab = np.stack((a, b), axis=1)

    children = np.random.SeedSequence(seed).spawn(budget)
    best_val = math.inf
    best_params: np.ndarray | None = None
    evaluations = 0
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        start = rng.uniform(0.0, 2.0 * math.pi, size=n_parameters(n))
        rot = start[n:].tolist()
        val, count = _refine(ab, rot, step=0.5)
        evaluations += count
        if val < best_val:
            best_val = val
            best_params = np.concatenate((start[:n], rot))

    w = unitary_from_params(best_params, n)
    max_ds = _distance_after(w, a, b)
    dh = hilbert_distance(u, v)
    return DistinguishabilityResult(
        max_ds=max_ds,
        argmax_measurement=Measurement(w),
        hilbert_distance=dh,
        gap=abs(max_ds - dh),
        evaluations=evaluations,
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
        x, y = np.abs(q @ u.v), np.abs(q @ v.v)
        # rank by tan(d/2) = |x - y| / |x + y|: close states' overlaps all round to 1
        k = int(np.argmax(np.linalg.norm(x - y, axis=1) / np.linalg.norm(x + y, axis=1)))
        best = max(best, _angle_between(x[k] - y[k], x[k] + y[k]))
    return best
