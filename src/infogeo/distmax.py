"""Maximal statistical distinguishability of two states over measurements.

For complex states u, v and a measurement with unitary stage W, the outcome
distributions have statistical distance d_S(W), defined by

    cos d_S(W) = sum_i |(W u)_i| * |(W v)_i|,

and the supremum over measurements equals the Hilbert-space angle d_H,
cos d_H = |u^dagger v|.  Each angle is computed as 2 atan2(|x - y|, |x + y|)
by simplex._angle_between (x = |W u|, y = |W v| for d_S), which keeps full
precision as the angle tends to 0.

The maximizer minimizes the overlap sum_i |x_i| |y_i| of x = W u, y = W v,
which falls as d_S grows; only the reported maximum becomes an angle.  Each
of its restarts starts from a uniform random point of a surjective chart of
U(n), U = D M with D a diagonal of output phases and M = G_1 ... G_m a
QR-style ladder of complex plane rotations (unitary_from_params).

- At n = 2 the ladder is one rotation G(theta, zeta), and a restart is a
  derivative-free coordinate search over (theta, zeta) with step halving.
  Since |(D M a)_i| = |(M a)_i|, the phases cannot change d_S and keep their
  random start values.  A candidate scores from a (4, 4) table built once
  per restart: a (4,) by (4, 4) product, a modulus and a dot.
- From n = 3 a restart is Riemannian steepest descent on U(n) with an
  Armijo step (Abrudan, Eriksson & Koivunen 2008, IEEE TSP 56(3):1134); see
  _descend.  It scores W by the overlap less 1, computed as
  -sum_i (|x_i| - |y_i|)^2 / 2, which keeps its relative precision as the
  states close (see _overlap).  The overlap has a kink wherever an output modulus is 0, and a
  descent can stall at or near one, short of the angle; near-orthogonal
  pairs, whose minimum sits at the kinks, stall every time.  A stalled
  descent continues through the smoothed overlaps
  sum_i sqrt(|x_i|^2 |y_i|^2 + eps^2), eps = 1e-2, 1e-5, 1e-8, and descends
  again.  If it is still stalled, the restart kicks W by a Haar unitary
  drawn from its own substream (K W is Haar whatever W is, so the kick is a
  fresh start) and starts over, keeping the lower overlap.

The split follows the per-pair cost (median of 20 pairs, 10 restarts, two
sessions on a 2-core x86-64 VM): the coordinate search takes 5.5-7.2 ms at
n = 2 against the descent's 12-14 ms, and 61-107 ms at n = 3 against
33-34 ms; at n = 8 it takes 12-19 s and the descent 0.15 s.

A Haar-sampling certifier provides an independent stochastic lower envelope
of the same supremum.
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
from .transforms import _haar, _haar_from_gaussian, _per_pass

_MIN_STEP = 1e-8  # the n = 2 search stops once its step falls below this
# The descent from n = 3 (see _descend).  Over 1350 descents (n = 3, 4 and
# 8; 45 pairs each, 10 restarts), 244 of the 245 that stopped 1e-13 or more
# short of the angle, at a kink or on a slow approach to one, stalled by this
# rule (the other stopped 1.1e-13 short); 8 of the 1105 that reached it did
# too.
_MAX_STEPS = 300
_STALL_STEP = 2.0**-8
_STALL_MODULUS = 2.0**-6
_KICKS = 4  # kicks per restart
# a stalled descent's continuation: 60 steps on each smoothed overlap
_SMOOTHING = (1e-2, 1e-5, 1e-8)
_SMOOTHING_STEPS = 60
_EPS = 2.0**-52
_TINY = np.finfo(float).tiny
# certify_upper_bound draws its Gaussians 4096 Haar matrices at a time, which
# fixes its values; their QR, products and ranking run in _per_pass batches
_CERTIFY_CHUNK = 4096


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


def _refine(ab: np.ndarray, rot: list[float], step: float) -> tuple[float, int]:
    # The n = 2 search: coordinate-wise greedy descent of the overlap over the
    # one rotation's (theta, zeta) = rot (updated in place); halve the step
    # after any sweep with no improvement, stop below _MIN_STEP.  Candidates
    # come in search order, theta +step and -step, then zeta, each taken from
    # the current rot, and score from one table built per restart.  Returns
    # the best overlap and the number of objective evaluations.
    c, e = _rotation(rot[0], rot[1])
    start = np.abs(np.stack((c * ab[0] - e.conjugate() * ab[1], e * ab[0] + c * ab[1])))
    best = float(np.dot(start[:, 0], start[:, 1]))
    evaluations = 1
    # the candidate table: a candidate (c, e) outputs (1, c, e, -conj(e)) @
    # flat, the outputs of a, then of b; the zeros of its last two rows are
    # products with the identity, whose signs the search's path depends on
    eye = np.eye(2, dtype=complex)
    touched = (eye @ ab).T
    flat = np.stack(
        (np.zeros_like(touched), touched, ab[0, :, None] * eye[:, 1], ab[1, :, None] * eye[:, 0])
    ).reshape(4, 4)
    coef = np.ones(4, dtype=complex)
    amp = np.empty(4, dtype=complex)
    mod = np.empty(4)
    x_mod, y_mod = mod[:2], mod[2:]
    while step >= _MIN_STEP:
        improved = False
        for k in (0, 1):
            for delta in (step, -step):
                cand = rot[k] + delta
                theta, zeta = (cand, rot[1]) if k == 0 else (rot[0], cand)
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
        if not improved:
            step *= 0.5
    return best, evaluations


def _overlap(xy: np.ndarray, eps: float = 0.0) -> float:
    # The descent's objective for the outputs xy = W [a b].  For eps = 0, the
    # overlap sum_i |x_i| |y_i| less 1, as -sum_i (|x_i| - |y_i|)^2 / 2 (the
    # same for unit x, y), which keeps its relative precision as the states
    # close; for eps > 0, the smoothed overlap sum_i sqrt(|x_i|^2 |y_i|^2 + eps^2).
    mod = np.abs(xy)
    if eps == 0.0:
        gap = mod[:, 0] - mod[:, 1]
        return -0.5 * float(np.dot(gap, gap))
    return float(np.sum(np.hypot(mod[:, 0] * mod[:, 1], eps)))


def _descend(
    w: np.ndarray, ab: np.ndarray, eps: float = 0.0, max_steps: int = _MAX_STEPS
) -> tuple[np.ndarray, float, bool, int]:
    """Armijo steepest descent of _overlap(W [a b], eps) on U(n) from w.

    Each step is W <- expm(-mu A) W with A = G W^H - W G^H, where
    G = g_x a^H + g_y b^H holds the Euclidean gradient of the overlap,
    g_x = |y|^2 x / s and g_y = |x|^2 y / s with s = sqrt(|x|^2 |y|^2 + eps^2)
    (0 where s is 0; Abrudan, Eriksson & Koivunen 2008).  Since
    G W^H = [g_x g_y] [x y]^H, A costs O(n^2), and one eigh of the Hermitian
    iA gives expm(-mu A) = V diag(exp(i mu lambda)) V^H for every trial
    step.  The first trial of a step is twice the last accepted mu, halved
    until the overlap falls by mu/2 <A, A> (Armijo's rule), with
    <A, A> = tr(A^H A) / 2: the step doubles after every accepted step and
    halves on every rejected trial.  The first step's first trial is
    1 / sqrt(<A, A>), so the descent starts at the same rotation angle
    however small the gradient is: for states an angle d apart the overlap
    varies by O(d^2) and its gradient is O(d^2), and a unit first step would
    change it by less than its rounding error.

    The descent stops when that decrease no longer changes the overlap, or
    after max_steps steps.  It has stalled when it ran out of steps, or
    stopped with its last accepted mu below _STALL_STEP while a modulus of x
    or y is below _STALL_MODULUS: the step collapses as an output heads to
    0, at a kink of the overlap or on the slow, ill-conditioned approach to
    one.

    Returns W, its overlap, whether the descent stalled, and the objective
    evaluations made: the start and every trial step.
    """
    xy = w @ ab
    val = _overlap(xy, eps)
    evaluations = 1
    mu = None
    for _ in range(max_steps):
        mod = np.abs(xy)
        s = np.hypot(mod[:, 0] * mod[:, 1], eps)
        g = mod[:, ::-1] ** 2 * xy / np.maximum(s, _TINY)[:, None]
        m = g @ xy.conj().T
        skew = m - m.conj().T
        gg = 0.5 * float(np.vdot(skew, skew).real)
        if gg == 0.0:
            return w, val, False, evaluations
        if mu is None:
            mu = 0.5 / math.sqrt(gg)
        lam, v = np.linalg.eigh(1j * skew)
        vxy = v.conj().T @ xy
        step = 2.0 * mu
        while True:
            trial = v @ (np.exp(1j * step * lam)[:, None] * vxy)
            t = _overlap(trial, eps)
            evaluations += 1
            if val - t >= 0.5 * step * gg:
                break
            step *= 0.5
            if val - 0.5 * step * gg == val or step * math.sqrt(gg) < _EPS:
                # no step decreases the overlap measurably, or the step
                # rotates by less than rounding
                stalled = mu < _STALL_STEP and float(np.min(mod)) < _STALL_MODULUS
                return w, val, stalled, evaluations
        mu = step
        w = (v * np.exp(1j * mu * lam)) @ (v.conj().T @ w)
        xy, val = trial, t
    return w, val, True, evaluations


def _restart(
    w: np.ndarray, ab: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, float, int]:
    # _descend from w.  A stalled descent continues through the smoothed
    # overlaps (a short descent per _SMOOTHING eps, then one of the overlap
    # itself), keeping the lower end.  While the lowest overlap so far is
    # stalled, that W is kicked by a Haar unitary of rng and the descent and
    # continuation start over from it, up to _KICKS times.  Returns the
    # lowest overlap's W, the overlap and the evaluations of all descents.
    best_val, evaluations = math.inf, 0
    for kick in range(_KICKS + 1):
        if kick:
            w = _haar(rng, w.shape[0], complex_=True) @ best
        w, val, stalled, count = _descend(w, ab)
        evaluations += count
        if stalled:
            smooth = w
            for eps in (*_SMOOTHING, 0.0):
                steps = _SMOOTHING_STEPS if eps else _MAX_STEPS
                smooth, smooth_val, smooth_stalled, count = _descend(smooth, ab, eps, steps)
                evaluations += count
            if smooth_val < val:
                w, val, stalled = smooth, smooth_val, smooth_stalled
        if val < best_val:
            best, best_val, best_stalled = w, val, stalled
        if not best_stalled:
            break
    return best, best_val, evaluations


def maximize_statistical_distance(
    u: ComplexState,
    v: ComplexState,
    budget: int = 10,
    seed: int = 0,
) -> DistinguishabilityResult:
    """Search for the measurement maximizing the statistical distance.

    budget counts independent random restarts; restart k starts from a
    uniform random chart point drawn from substream k of seed, so at a fixed
    seed the result is deterministic and never degrades as budget grows.
    At n = 2 a restart is the one-rotation coordinate search.  From n = 3 it
    is Riemannian steepest descent on U(n); a stalled descent continues
    through smoothed overlaps and, if still stalled, is kicked by a Haar
    unitary from the same substream (see the module docstring).  max_ds is
    the distance achieved by argmax_measurement.  evaluations counts every
    objective evaluation of all restarts: at n = 2 each restart's start and
    every coordinate candidate; from n = 3 the start of every descent
    (kicked ones included) and every line-search trial, the smoothed
    continuation's included.
    """
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    budget = _integer(budget, "budget")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    n = u.n
    a, b = u.v, v.v
    ab = np.stack((a, b), axis=1)

    best_val = math.inf
    best = None
    evaluations = 0
    for rng in substreams(seed, range(budget)):
        start = rng.uniform(0.0, 2.0 * math.pi, size=n_parameters(n))
        if n == 2:
            rot = start[n:].tolist()
            val, count = _refine(ab, rot, step=0.5)
            found = np.concatenate((start[:n], rot))
        else:
            found, _, count = _restart(unitary_from_params(start, n), ab, rng)
            # rank by the distance found achieves, which max_ds reports
            val = -_distance_after(found, a, b)
        evaluations += count
        if val < best_val:
            best_val, best = val, found

    w = unitary_from_params(best, n) if n == 2 else best
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
    batch = _per_pass(16 * u.n * u.n)
    best = 0.0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, _CERTIFY_CHUNK)
        remaining -= chunk
        # the draws of _haar(rng, n, (chunk,), complex_=True), all real parts
        # first; each sub-batch draws its imaginary parts as it runs, the same
        # stream: the same matrices, and the chunk's first best-ranked draw
        re = rng.standard_normal((chunk, u.n, u.n))
        top = -1.0
        for lo in range(0, chunk, batch):
            part = re[lo:lo + batch]
            q = _haar_from_gaussian(part + 1j * rng.standard_normal(part.shape))
            x, y = np.abs(q @ u.v), np.abs(q @ v.v)
            # rank by tan(d/2) = |x - y| / |x + y|: close states' overlaps all round to 1
            ratio = np.linalg.norm(x - y, axis=1) / np.linalg.norm(x + y, axis=1)
            k = int(np.argmax(ratio))
            if ratio[k] > top:
                top, x_top, y_top = ratio[k], x[k], y[k]
        best = max(best, _angle_between(x_top - y_top, x_top + y_top))
    return best
