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
two rows of G_r G_{r+1} ... G_m [u v], so it scores from a (4, 2n) table in
O(n) instead of m full products.

Rotation r's table depends on every other rotation's (theta, zeta) but not on
its own, so a table is kept across sweeps and rebuilt only when another
rotation has accepted a candidate since it was built; the prefix and the
suffixes are built, when a sweep first needs a table, from the current
rotations.  The reuse is exact: a kept table holds the values a rebuild would
compute from the same operands, and each candidate is scored by the same
NumPy calls (a (4,) by (4, 2n) product, a modulus, a dot of the two halves),
so every overlap, accepted step and evaluation count is bit-identical to
rebuilding every table each sweep.  At n = 2 the ladder has one rotation and
its table is built once per restart.  A Haar-sampling certifier provides an
independent stochastic lower envelope of the same supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._streams import substreams
from .errors import DimensionMismatch, ValidationError
from .measurement import Measurement
from .simplex import _angle_between, _integer, _vector
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
    return _hilbert_angle(u.v, v.v)


def _hilbert_angle(a: np.ndarray, b: np.ndarray) -> float:
    # hilbert_distance of the amplitude rows a, b
    overlap = complex(np.vdot(a, b))
    w = b if overlap == 0.0 else b * (abs(overlap) / overlap)
    return _angle_between(a - w, a + w)


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


def _fold(p: np.ndarray, i: int, j: int, c: float, e: complex) -> None:
    """p <- p G_ij(c, e) in place: a two-column update."""
    pij = p[:, (i, j)]
    p[:, i] = c * pij[:, 0] + e * pij[:, 1]
    p[:, j] = c * pij[:, 1] - e.conjugate() * pij[:, 0]


def _table(terms: np.ndarray, p: np.ndarray, x: np.ndarray, i: int, j: int) -> None:
    """Fill the (4, 2, n) candidate table of rotation (i, j).

    With P = G_1 ... G_{r-1} and X = G_{r+1} ... G_m ab, a candidate (c, e)
    for G_r outputs P G_r X, flattened as (1, c, e, -conj(e)) @ terms
    reshaped to (4, 2n): the part through the rows of X outside (i, j), then
    the three coefficients of the two touched rows.
    """
    x2 = x[(i, j), :]
    pij = p[:, (i, j)]
    touched = pij @ x2
    terms[0] = (p @ x - touched).T
    terms[1] = touched.T
    terms[2] = x2[0, :, None] * pij[:, 1]
    terms[3] = x2[1, :, None] * pij[:, 0]


def _refine(ab: np.ndarray, rot: list[float], step: float) -> tuple[float, int]:
    # Coordinate-wise greedy descent of the overlap over rot (updated in
    # place); halve the step after any sweep with no improvement, stop below
    # 1e-8.  Returns the best overlap and the number of objective evaluations.
    # Candidates come in search order: each coordinate +step, then -step,
    # both taken from the current rot.
    n = ab.shape[0]
    pairs = _pair_order(n)
    start = np.abs(_suffixes(ab, rot)[0])
    best = float(np.dot(start[:, 0], start[:, 1]))
    evaluations = 1
    tables = np.empty((len(pairs), 4, 2, n), dtype=complex)
    flats = tables.reshape(len(pairs), 4, 2 * n)
    # table r is current while built[r] == accepted: no other rotation has
    # accepted a candidate since it was built
    built = [-1] * len(pairs)
    accepted = 0
    coef = np.ones(4, dtype=complex)
    amp = np.empty(2 * n, dtype=complex)
    mod = np.empty(2 * n)
    x_mod, y_mod = mod[:n], mod[n:]
    while step >= _MIN_STEP:
        improved = False
        # the prefix and suffixes of this sweep, built on first need
        suffixes = p = None
        for r, (i, j) in enumerate(pairs):
            if built[r] != accepted:
                if suffixes is None:
                    suffixes = _suffixes(ab, rot)
                    p, folded = np.eye(n, dtype=complex), 0
                for q in range(folded, r):
                    _fold(p, *pairs[q], *_rotation(rot[2 * q], rot[2 * q + 1]))
                folded = r
                _table(tables[r], p, suffixes[r + 1], i, j)
                built[r] = accepted
            flat = flats[r]
            for k in (2 * r, 2 * r + 1):
                for delta in (step, -step):
                    cand = rot[k] + delta
                    theta, zeta = (cand, rot[k + 1]) if k == 2 * r else (rot[k - 1], cand)
                    # _rotation(theta, zeta), inlined
                    s = math.sin(theta)
                    e = complex(s * math.cos(zeta), s * math.sin(zeta))
                    coef[1], coef[2], coef[3] = math.cos(theta), e, -e.conjugate()
                    np.dot(coef, flat, out=amp)
                    np.abs(amp, out=mod)
                    val = float(np.dot(x_mod, y_mod))
                    evaluations += 1
                    if val < best:
                        rot[k], best, improved = cand, val, True
                        accepted += 1
                        built[r] = accepted
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
    budget = _integer(budget, "budget")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    n = u.n
    a, b = u.v, v.v
    ab = np.stack((a, b), axis=1)

    best_val = math.inf
    best_params: np.ndarray | None = None
    evaluations = 0
    for rng in substreams(seed, range(budget)):
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
    samples = _integer(samples, "samples")
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
