"""Maximal statistical distinguishability of two states over measurements.

For complex states u, v and a measurement with unitary stage W, the outcome
distributions have statistical distance d_S(W), defined by

    cos d_S(W) = sum_i |(W u)_i| * |(W v)_i|,

and the supremum over measurements equals the Hilbert-space angle d_H,
cos d_H = |u^dagger v|.  Each angle is computed as 2 atan2(|x - y|, |x + y|)
(x = |W u|, y = |W v| for d_S, with x - y formed from W (v - u), see
_distance_after), which keeps full precision as the angle tends to 0.  Both
distances act on stacks: one call of the row-norm kernel simplex._norms and
the angle kernel simplex._angle_between per stack of pairs, restarts or
measurements.

The maximizer minimizes the overlap sum_i |x_i| |y_i| of x = W u, y = W v,
which falls as d_S grows; only the reported maximum becomes an angle.  Each
of its restarts starts from a Haar-random W, drawn as its images of u and v
(transforms._haar_images, see below), and is Riemannian steepest descent on
U(n) with an Armijo step (Abrudan, Eriksson & Koivunen 2008, IEEE TSP
56(3):1134); see _descend.  It scores W by the overlap less 1, computed as
-sum_i (|x_i| - |y_i|)^2 / 2, which keeps its relative precision as the
states close (see _overlap).  The overlap has a kink wherever an output
modulus is 0, and a descent can stall at or near one, short of the angle;
near-orthogonal pairs, whose minimum sits at the kinks, often stall.  A
stalled descent continues through the smoothed overlaps
sum_i sqrt(|x_i|^2 |y_i|^2 + eps^2), eps = 1e-2, 1e-5, 1e-8, and descends
again.  If it is still stalled, the restart is kicked: it starts over from
the next Haar draw of its own substream (K W is Haar whatever W is, so a
kick is a fresh start), keeping the lower overlap.

The gradient depends on the outputs x, y alone, so a restart moves them and
never forms W; the reported measurement is built from its final outputs
(_measurements).  The restarts of every pair of a battery run as one stack
(_maximize_pairs): each descent step takes one stacked eigh for all of them,
and each restart keeps its own step size and line search, so its result
does not depend on the stack it runs in.  maximize_statistical_distance is a
stack of one pair.

A Haar-sampling certifier provides an independent stochastic lower envelope
of the same supremum: the largest d_S over its Haar draws.  The starts, the
kicks and the certifier's draws are all one sampler, each drawn in O(n) as
the images of two vectors under a Haar W, from the Haar columns of an n x 2
complex Gaussian (transforms._haar_images): [a b] for a start or a kick,
x = W a and d = W (b' - a) of _distance_after for the certifier.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._streams import substreams
from .errors import DimensionMismatch, ValidationError
from .measurement import Measurement
from .simplex import _angle_between, _integer, _row_dots, _vector
from .statespace import ComplexState
from .transforms import _haar_from_gaussian, _haar_images, _per_pass

# The descent (see _descend).  Over 1800 first descents (n = 2, 3, 4 and 8;
# 45 pairs each, 10 restarts), 256 of the 257 that stopped 1e-13 or more
# short of the angle, at a kink or on a slow approach to one, stalled by this
# rule (the other stopped 1.1e-13 short; none stopped short at n = 2); 11 of
# the 1543 that reached it did too.
_MAX_STEPS = 300
_STALL_STEP = 2.0**-8
_STALL_MODULUS = 2.0**-6
_KICKS = 4  # kicks per restart
# a stalled descent's continuation: 60 steps on each smoothed overlap
_SMOOTHING = (1e-2, 1e-5, 1e-8)
_SMOOTHING_STEPS = 60
_EPS = 2.0**-52
_TINY = np.finfo(float).tiny


def hilbert_distance(u: ComplexState, v: ComplexState) -> float:
    """Hilbert-space angle d_H, cos d_H = |u^dagger v|, in [0, pi/2].

    Computed as 2 atan2(|u - w|, |u + w|), where w is v times the phase that
    makes u^dagger w = |u^dagger v|.  Unlike the inverse cosine, which loses
    half the digits near 0, the error stays near 1e-16 absolute as the angle
    tends to 0, and is relative when that phase is exact (u^dagger v real).
    """
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    return float(_hilbert_angle(u.v, v.v))


def _hilbert_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # hilbert_distance of each row pair of the (..., n) amplitude stacks a, b
    w = _aligned(a, b)
    return _angle_between(a - w, a + w)


def _aligned(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # each row of b times the phase that makes a^dagger b = |a^dagger b| (1 for
    # a zero overlap); _row_dots of conj(a) gives np.vdot's overlaps, and the
    # phase is a Python complex division per row, as NumPy's divides differently
    overlaps = _row_dots(a.conj(), b)
    phases = [abs(o) / o if o else 1.0 for o in overlaps.ravel().tolist()]
    return b * np.reshape(phases, (*overlaps.shape, 1))


@dataclass(frozen=True, eq=False)
class DistinguishabilityResult:
    """Best found measurement distance and its gap to the Hilbert angle.

    evaluations counts the overlaps scored by all restarts: the start of
    every descent and every line-search trial.
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


def _distance_after(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # d_S of each measurement W of the (..., n, n) stack w for the state rows
    # a, b broadcast against it: the angle between |W a| and |W b|.  A global
    # phase leaves |W b| alone, so with b' = _aligned(a, b), x = W a and
    # d = W (b' - a), |W b| - |W a| = Re((2 x + d) conj(d)) / (|x + d| + |x|):
    # it is O(d) with the relative precision of b' - a as the states close,
    # so d_S stays below d_H up to relative rounding
    x = (w @ a[..., None])[..., 0]
    return _output_distance(x, (w @ (_aligned(a, b) - a)[..., None])[..., 0])


def _output_distance(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    # _distance_after from the outputs x = W a and d = W (b' - a)
    total = np.abs(x + d) + np.abs(x)
    diff = np.zeros_like(total)
    np.divide(np.real((2.0 * x + d) * d.conj()), total, out=diff, where=total > 0.0)
    return _angle_between(diff, total)


def _overlap(xy: np.ndarray, eps: float = 0.0) -> np.ndarray:
    # The descent's objective for each (2, n) row pair xy = (W a, W b) of a
    # (..., 2, n) stack.  For eps = 0, the overlap sum_i |x_i| |y_i| less 1,
    # as -sum_i (|x_i| - |y_i|)^2 / 2 (the same for unit x, y), which keeps
    # its relative precision as the states close; for eps > 0, the smoothed
    # overlap sum_i sqrt(|x_i|^2 |y_i|^2 + eps^2).
    mod = np.abs(xy)
    if eps == 0.0:
        gap = mod[..., 0, :] - mod[..., 1, :]
        return -0.5 * np.add.reduce(gap * gap, axis=-1)
    return np.add.reduce(np.hypot(mod[..., 0, :] * mod[..., 1, :], eps), axis=-1)


# A line-search product scores _TRIALS trial steps of each element: 2 mu,
# mu, mu / 2, ... as multiples of mu
_TRIALS = 4
_HALVINGS = 2.0 ** -np.arange(-1.0, _TRIALS - 1)


def _trials(v, lam, vxy, steps, eps):
    # the trial outputs V diag(exp(i s lam)) V^H [x y] of each element at the
    # steps s of its row of steps, as (size, trials, 2, n) rows, and their
    # overlaps
    size, n = lam.shape
    phase = np.exp(1j * (steps[:, :, None] * lam[:, None, :]))
    z = (vxy[:, None] * phase[:, :, None]).reshape(size, -1, n)
    trials = (z @ v.swapaxes(1, 2)).reshape(size, -1, 2, n)
    return trials, _overlap(trials, eps)


def _armijo(val, slope, cut, steps, t):
    # Per trial of a product: whether its step is measurable (it rotates by
    # at least rounding, step >= cut, and its Armijo decrease step * slope,
    # slope = <A, A> / 2, still changes the overlap val), and whether it is
    # taken: measurable, with an overlap t that falls by that decrease
    decrease = slope[:, None] * steps
    val = val[:, None]
    measurable = (val - decrease != val) & (steps >= cut[:, None])
    return measurable & (val - t >= decrease), measurable


def _descend(
    xy: np.ndarray, eps: float = 0.0, max_steps: int = _MAX_STEPS
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Armijo steepest descent of _overlap(W [a b], eps) on U(n), for each
    (2, n) row pair xy = (W a, W b) of the stack xy.

    Each step is W <- expm(-mu A) W with A = G W^H - W G^H, where
    G = g_x a^H + g_y b^H holds the Euclidean gradient of the overlap,
    g_x = |y|^2 x / s and g_y = |x|^2 y / s with s = sqrt(|x|^2 |y|^2 + eps^2)
    (0 where s is 0; Abrudan, Eriksson & Koivunen 2008).  Since
    G W^H = [g_x g_y] [x y]^H, A depends on the outputs alone and costs
    O(n^2), so the descent moves the outputs and never forms W.  One eigh of
    the Hermitian iA gives expm(-mu A) = V diag(exp(i mu lambda)) V^H for
    every trial step.  The trials of a step are twice the last accepted mu,
    then halvings of it, scored _TRIALS per product; the step is the first
    one that is measurable and lowers the overlap by mu/2 <A, A> (Armijo's
    rule), with <A, A> = tr(A^H A) / 2.  The first step's first trial is
    1 / sqrt(<A, A>), so the descent starts at the same rotation angle
    however small the gradient is: for states an angle d apart the overlap
    and its gradient are O(d^2), and a unit step would change the overlap
    by less than its rounding error.

    An element stops when its gradient vanishes, when a product has no
    taken trial and ends on a step that is not measurable, or after
    max_steps steps.  It has stalled when it ran out of steps, or stopped
    with its last accepted mu below _STALL_STEP while a modulus of x or y is
    below _STALL_MODULUS: the step collapses as an output heads to 0, at a
    kink of the overlap or on the slow, ill-conditioned approach to one.

    The stack steps in lockstep, one stacked eigh per step, and a stopped
    element leaves it.  Every operation acts on each element alone, so an
    element's result does not depend on the rest of the stack.  Returns each
    element's outputs, overlap, whether it stalled, and the objective
    evaluations made: the start and every trial scored.
    """
    size = len(xy)
    out_xy, out_val = np.empty_like(xy), np.empty(size)
    stalled = np.ones(size, dtype=bool)
    evaluations = np.ones(size, dtype=np.int64)
    val = _overlap(xy, eps)
    live = np.arange(size)
    mu = None
    for step in range(max_steps):
        mod = np.abs(xy)
        if eps:
            s = np.hypot(mod[:, 0] * mod[:, 1], eps)
            g = mod[:, ::-1] ** 2 * (xy / np.maximum(s, _TINY)[:, None])
        else:
            # |y|^2 x / (|x| |y|) = |y| x / |x|
            g = mod[:, ::-1] * (xy / np.maximum(mod, _TINY))
        m = g.swapaxes(1, 2) @ xy.conj()
        lam, v = np.linalg.eigh(1j * (m - m.conj().swapaxes(1, 2)))
        # <A, A> = tr(A^H A) / 2, from the eigenvalues of iA
        gg = 0.5 * np.add.reduce(lam * lam, axis=1)
        if np.count_nonzero(gg) < len(gg):
            # a vanishing gradient stops the element, not stalled
            done = gg == 0.0
            out_xy[live[done]], out_val[live[done]] = xy[done], val[done]
            stalled[live[done]] = False
            evaluations[live[done]] += _TRIALS * step
            keep = ~done
            xy, val, mod, lam, v, gg, live = (a[keep] for a in (xy, val, mod, lam, v, gg, live))
            mu = None if mu is None else mu[keep]
            if not live.size:
                break
        root = np.sqrt(gg)
        if mu is None:
            mu = 0.5 / root
        slope, cut = 0.5 * gg, _EPS / root
        vxy = xy @ v.conj()
        steps = mu[:, None] * _HALVINGS
        trials, t = _trials(v, lam, vxy, steps, eps)
        taken, measurable = _armijo(val, slope, cut, steps, t)
        k = int(taken[0].argmax())
        if np.count_nonzero(taken[:, k]) == len(taken) == np.count_nonzero(taken[:, : k + 1]):
            # every element takes trial k, its first taken one
            mu, val, xy = steps[:, k], t[:, k], trials[:, k].copy()
        else:
            mu, val, xy, halted = _line_search(
                (v, lam, vxy, slope, cut), (mu, val, xy), eps,
                (steps, trials, t, taken, measurable), evaluations, live,
            )
            if halted.any():
                low = mod.reshape(len(mod), -1).min(axis=1) < _STALL_MODULUS
                out_xy[live[halted]], out_val[live[halted]] = xy[halted], val[halted]
                stalled[live[halted]] = (mu < _STALL_STEP)[halted] & low[halted]
                evaluations[live[halted]] += _TRIALS * (step + 1)
                keep = ~halted
                xy, val, mu, live = xy[keep], val[keep], mu[keep], live[keep]
                if not live.size:
                    break
    else:
        out_xy[live], out_val[live] = xy, val
        evaluations[live] += _TRIALS * max_steps
    return out_xy, out_val, stalled, evaluations


def _line_search(step, start, eps, product, evaluations, live):
    # The line search of a step whose first product (steps, trials,
    # overlaps, taken, measurable) the elements do not all take the same
    # trial of; step = (V, lambda, V^H [x y], slope, cut) and start = (mu,
    # overlap, outputs) of each element.  An element takes its first taken
    # trial; one with none halts if its last trial was not measurable (nor is
    # any smaller step), and otherwise scores another product, from half its
    # last trial step.  Returns each element's new mu, overlap and outputs,
    # and which elements halted (they keep their start).
    v, lam, vxy, slope, cut = step
    mu, val, xy = (a.copy() for a in start)
    steps, trials, t, taken, measurable = product
    halted = np.zeros(len(mu), dtype=bool)
    todo = np.arange(len(mu))
    while True:
        took = taken.any(axis=1)
        rows = np.flatnonzero(took)
        k, idx = taken[rows].argmax(axis=1), todo[rows]
        mu[idx], val[idx], xy[idx] = steps[rows, k], t[rows, k], trials[rows, k]
        halted[todo[~took & ~measurable[:, -1]]] = True
        more = ~took & measurable[:, -1]
        if not more.any():
            return mu, val, xy, halted
        todo, steps = todo[more], 0.25 * steps[more, -1:] * _HALVINGS
        trials, t = _trials(v[todo], lam[todo], vxy[todo], steps, eps)
        evaluations[live[todo]] += _TRIALS
        taken, measurable = _armijo(val[todo], slope[todo], cut[todo], steps, t)


def _continued(xy: np.ndarray):
    # _descend from each row pair of the stack.  A stalled descent continues
    # through the smoothed overlaps (a short descent per _SMOOTHING eps, then
    # one of the overlap itself), and keeps the lower end.
    xy, val, stalled, evaluations = _descend(xy)
    sub = np.flatnonzero(stalled)
    if sub.size:
        smooth = xy[sub]
        for eps in (*_SMOOTHING, 0.0):
            steps = _SMOOTHING_STEPS if eps else _MAX_STEPS
            smooth, smooth_val, smooth_stalled, count = _descend(smooth, eps, steps)
            evaluations[sub] += count
        better = smooth_val < val[sub]
        up = sub[better]
        xy[up], val[up], stalled[up] = smooth[better], smooth_val[better], smooth_stalled[better]
    return xy, val, stalled, evaluations


def _restart(ab: np.ndarray, gauss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One restart per row pair [a b] of the stack ab, from its (1 + _KICKS,
    # 2, n, 2) Gaussians gauss (per draw the real, then the imaginary parts
    # of an n x 2 complex Gaussian): attempt j runs _continued from the
    # images of [a b] under draw j's Haar columns, and an element makes
    # attempt j + 1 only while its lowest overlap so far is stalled (a kick:
    # K W is Haar whatever W is, so it is a fresh Haar start).  Returns the
    # lowest overlap's outputs and the evaluations of all descents.
    best, best_val = np.empty_like(ab), np.full(len(ab), np.inf)
    best_stalled = np.ones(len(ab), dtype=bool)
    evaluations = np.zeros(len(ab), dtype=np.int64)
    todo = np.arange(len(ab))
    for j in range(1 + _KICKS):
        z = gauss[todo, j]
        xy, val, stalled, count = _continued(
            _haar_images(ab[todo], _haar_from_gaussian(z[:, 0] + 1j * z[:, 1]))
        )
        evaluations[todo] += count
        better = val < best_val[todo]
        up = todo[better]
        best[up], best_val[up], best_stalled[up] = xy[better], val[better], stalled[better]
        todo = todo[best_stalled[todo]]
        if not todo.size:
            break
    return best, evaluations


def _measurements(ab: np.ndarray, xy: np.ndarray) -> np.ndarray:
    # A unitary W with W [a b] = [x y] for each element: xy holds the outputs
    # of a descent from ab, which keep its Gram matrix up to rounding, so
    # complete QRs [a b] = Q R and [x y] = Q' R, with R's diagonal real and
    # nonnegative, give W = Q' Q^H.
    frames = []
    for rows in (xy, ab):
        q, r = np.linalg.qr(rows.swapaxes(1, 2), mode="complete")
        d = np.diagonal(r, axis1=1, axis2=2).copy()
        d[d == 0.0] = 1.0
        q[:, :, :2] *= (d / np.abs(d))[:, None, :]
        frames.append(q)
    return frames[0] @ frames[1].conj().swapaxes(1, 2)


class _Pair:
    # a pair of _maximize_pairs, with the rows a, b of its states, whose
    # restarts have not all finished
    def __init__(self, ab: np.ndarray, budget: int) -> None:
        self.ab, self.left = ab, budget
        self.max_ds, self.w, self.evaluations = -math.inf, None, 0

    def result(self) -> DistinguishabilityResult:
        dh = float(_hilbert_angle(*self.ab))
        return DistinguishabilityResult(
            max_ds=self.max_ds,
            argmax_measurement=Measurement(self.w),
            hilbert_distance=dh,
            gap=abs(self.max_ds - dh),
            evaluations=self.evaluations,
        )


def _maximize_pairs(pairs, budget: int):
    """Yield maximize_statistical_distance(u, v, budget, seed) for each
    (u, v, seed) of pairs, all of one dimension n, in order.

    The restarts of all pairs run as one stack, read lazily from pairs in
    passes of transforms._per_pass restarts, and each pair's result is
    yielded once its last restart has finished, so memory stays flat in the
    number of pairs and in budget.  A restart's largest arrays are its
    n x n ones (the eigenvectors of a step, its measurement), its
    line-search trials and its Gaussians.  Restart k of a pair draws
    1 + _KICKS n x 2 complex Gaussians from substream k of its seed, each
    the real, then the imaginary parts, as the certifier's draws: the Haar
    columns of its start and of each kick (see _restart).
    """
    pairs = iter(pairs)
    first = next(pairs, None)
    if first is None:
        return
    n = first[0].n
    pending: deque[_Pair] = deque()

    def restarts():
        for u, v, seed in itertools.chain([first], pairs):
            pair = _Pair(np.stack((u.v, v.v)), budget)
            pending.append(pair)
            for stream in substreams(seed, budget):
                yield pair, stream.standard_normal((1 + _KICKS, 2, n, 2))

    elements = restarts()
    per_pass = _per_pass(16 * n * max(n, 2 * _TRIALS, 2 * (1 + _KICKS)))
    while chunk := list(itertools.islice(elements, per_pass)):
        owners, gauss = zip(*chunk)
        ab = np.stack([pair.ab for pair in owners])
        found, evaluations = _restart(ab, np.stack(gauss))
        ws = _measurements(ab, found)
        # rank by the distance w achieves, which max_ds reports; ties go to
        # the lowest restart
        distances = _distance_after(ws, ab[:, 0], ab[:, 1]).tolist()
        for pair, w, ds, count in zip(owners, ws, distances, evaluations):
            if ds > pair.max_ds:
                pair.max_ds, pair.w = ds, w.copy()
            pair.evaluations += int(count)
            pair.left -= 1
        while pending and not pending[0].left:
            yield pending.popleft().result()


def maximize_statistical_distance(
    u: ComplexState,
    v: ComplexState,
    budget: int = 10,
    seed: int = 0,
) -> DistinguishabilityResult:
    """Search for the measurement maximizing the statistical distance.

    budget counts independent random restarts; restart k starts from a
    Haar-random measurement drawn from substream k of seed, so at a fixed
    seed the result is deterministic and never degrades as budget grows.
    A restart is Riemannian steepest descent on U(n); a stalled descent
    continues through smoothed overlaps and, if still stalled, starts over
    from the next Haar draw of the same substream (see the module
    docstring).
    max_ds is the distance achieved by argmax_measurement.  evaluations
    counts the overlaps scored by all restarts: the start of every descent
    (kicked and smoothed ones included) and every line-search trial.
    """
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    budget = _integer(budget, "budget")
    if budget < 1:
        raise ValidationError("budget must be at least 1")
    (result,) = _maximize_pairs([(u, v, seed)], budget)
    return result


def certify_upper_bound(
    u: ComplexState,
    v: ComplexState,
    samples: int = 10_000,
    seed: int = 0,
) -> float:
    """Max statistical distance over Haar-random measurements.

    A stochastic lower bound of the supremum; never exceeds the Hilbert
    angle (up to floating error).  Deterministic for a fixed seed: a draw
    takes the real, then the imaginary parts of its n x 2 Gaussian.
    """
    if u.n != v.n:
        raise DimensionMismatch(f"state dimensions differ: {u.n} vs {v.n}")
    samples = _integer(samples, "samples")
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    vectors = np.stack((u.v, _aligned(u.v, v.v) - u.v))
    per_pass = _per_pass(32 * u.n)
    # one Gaussian buffer for every pass, and no pass's arrays held while the
    # next one draws
    gauss = np.empty((min(per_pass, samples), 2, u.n, 2))
    best = 0.0
    for lo in range(0, samples, per_pass):
        z = rng.standard_normal(out=gauss[: samples - lo])
        xd = _haar_images(vectors, _haar_from_gaussian(z[:, 0] + 1j * z[:, 1]))
        best = max(best, float(_output_distance(xd[:, 0], xd[:, 1]).max()))
        del xd
    return best
