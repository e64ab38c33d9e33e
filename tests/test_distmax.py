import math

import numpy as np
import pytest

from infogeo import (
    ComplexState,
    DimensionMismatch,
    Measurement,
    ProbDist,
    ValidationError,
    certify_upper_bound,
    hilbert_distance,
    maximize_statistical_distance,
    outcome_distribution,
    random_complex_state,
    random_unitary,
    statistical_distance,
    unitary_from_params,
)
from infogeo import distmax, transforms
from infogeo._streams import substreams
from infogeo.cli import RunConfig, run_wootters
from infogeo.distmax import _distance_after, _maximize_pairs, n_parameters
from conftest import complex_gaussian, decimal_ray_angle, haar_columns_distance

E0 = ComplexState([1.0, 0.0])
E1 = ComplexState([0.0, 1.0])
DIAG = ComplexState([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])


# ---------------------------------------------------------------------------
# hilbert_distance


def test_hilbert_distance_values():
    assert hilbert_distance(E0, E0) == 0.0
    assert hilbert_distance(E0, E1) == pytest.approx(math.pi / 2.0)
    assert hilbert_distance(E0, DIAG) == pytest.approx(math.pi / 4.0, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        hilbert_distance(E0, ComplexState([1.0, 0.0, 0.0]))


def test_hilbert_distance_invariances():
    rng = np.random.default_rng(4)
    u = random_complex_state(3, rng)
    v = random_complex_state(3, rng)
    d = hilbert_distance(u, v)
    # independent global phases
    assert hilbert_distance(
        ComplexState(np.exp(1.3j) * u.v), ComplexState(np.exp(-0.4j) * v.v)
    ) == pytest.approx(d, abs=1e-12)
    # joint rotation
    w = random_unitary(3, 6)
    assert hilbert_distance(
        ComplexState(w @ u.v), ComplexState(w @ v.v)
    ) == pytest.approx(d, abs=1e-12)


@pytest.mark.parametrize("target", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("angle, phase", [(0.927, 1.0), (0.3, 1j)])
def test_hilbert_distance_is_accurate_at_small_distances(target, angle, phase):
    # amplitudes with a common exact phase (1 or 1j) keep u^dagger v real, so
    # the phase alignment is exact and the reference is the real angle
    u = ComplexState(phase * np.array([math.cos(angle), 1j * math.sin(angle)]))
    v = ComplexState(
        phase * np.array([math.cos(angle + target), 1j * math.sin(angle + target)])
    )
    exact = decimal_ray_angle(np.r_[u.v.real, u.v.imag], np.r_[v.v.real, v.v.imag])
    assert exact == pytest.approx(target, rel=1e-5)
    assert hilbert_distance(u, v) == pytest.approx(exact, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# unitary chart


def test_unitary_from_params_is_unitary():
    rng = np.random.default_rng(10)
    for n in (2, 3, 4):
        params = rng.uniform(0.0, 2.0 * math.pi, size=n_parameters(n))
        w = unitary_from_params(params, n)
        assert np.linalg.norm(w.conj().T @ w - np.eye(n)) <= 1e-12


def test_unitary_from_params_validation():
    assert n_parameters(3) == 9
    with pytest.raises(ValidationError):
        unitary_from_params(np.zeros(5), 3)


def test_unitary_from_params_identity_at_zero():
    np.testing.assert_allclose(unitary_from_params(np.zeros(4), 2), np.eye(2))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_phase_coordinates_do_not_move_the_distance(n):
    # U = diag(exp(1j phases)) @ M, so |U a| = |M a| and the search may skip
    # the phases
    rng = np.random.default_rng(37)
    u, v = random_complex_state(n, rng), random_complex_state(n, rng)
    params = rng.uniform(0.0, 2.0 * math.pi, size=n_parameters(n))
    other = params.copy()
    other[:n] = rng.uniform(0.0, 2.0 * math.pi, size=n)
    w, w_other = unitary_from_params(params, n), unitary_from_params(other, n)
    for x in (u.v, v.v):
        assert np.max(np.abs(np.abs(w @ x) - np.abs(w_other @ x))) <= 1e-15
    d = _distance_after(w, u.v, v.v)
    assert abs(d - _distance_after(w_other, u.v, v.v)) <= 1e-15


@pytest.mark.parametrize("angle", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_distance_after_is_accurate_at_small_distances(n, angle):
    # moduli x, y of (W a, W b) at the given angle; the reference is the
    # decimal angle between the rays of the stored moduli.  Absolute bound:
    # x and y are unit vectors only to ~1e-16
    rng = np.random.default_rng(40)
    w = random_unitary(n, 41)
    x = rng.uniform(0.5, 1.0, size=n)
    x /= np.linalg.norm(x)
    e = rng.standard_normal(n)
    e -= (e @ x) * x
    e /= np.linalg.norm(e)
    y = math.cos(angle) * x + math.sin(angle) * e
    a, b = w.conj().T @ x, w.conj().T @ y
    exact = decimal_ray_angle(np.abs(w @ a), np.abs(w @ b))
    assert exact == pytest.approx(angle, rel=1e-3)
    assert abs(_distance_after(w, a, b) - exact) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_stacked_distances_equal_one_row_calls(n):
    # _hilbert_angle and _distance_after take stacks of pairs, and each row
    # is bit for bit hilbert_distance or a one-row call.  Row 2 is a pair of
    # identical states and row 3 an orthogonal pair, whose zero overlap takes
    # the phase 1
    rng = np.random.default_rng(90 + n)
    us = [random_complex_state(n, rng) for _ in range(6)]
    vs = [random_complex_state(n, rng) for _ in range(6)]
    vs[2] = us[2]
    pad = [0.0] * (n - 2)
    us[3], vs[3] = ComplexState([0.6, 0.8j, *pad]), ComplexState([0.8, -0.6j, *pad])
    a, b = np.stack([u.v for u in us]), np.stack([v.v for v in vs])
    assert np.vdot(a[3], b[3]) == 0.0
    dh = distmax._hilbert_angle(a, b)
    assert dh.tolist() == [hilbert_distance(u, v) for u, v in zip(us, vs)]
    # the one-row formula: np.vdot's overlap and a Python complex phase
    for x, y, d in zip(a, b, dh):
        o = complex(np.vdot(x, y))
        w = y * (abs(o) / o) if o else y
        angle = 2.0 * math.atan2(np.linalg.norm(x - w), np.linalg.norm(x + w))
        assert d == min(angle, 0.5 * math.pi)
    assert dh[2] == 0.0 and dh[3] == math.pi / 2.0
    ws = np.stack([random_unitary(n, seed) for seed in range(6)])
    ds = _distance_after(ws, a, b)
    assert ds.tolist() == [float(_distance_after(w, x, y)) for w, x, y in zip(ws, a, b)]
    assert ds[2] == 0.0 and 0.0 < ds[3] <= math.pi / 2.0
    # one pair under a stack of measurements, as the certifier scores them
    ds0 = _distance_after(ws, a[0], b[0])
    assert ds0.tolist() == [float(_distance_after(w, a[0], b[0])) for w in ws]
    # one unstacked row and an empty stack
    assert distmax._hilbert_angle(a[1], b[1]).shape == ()
    assert distmax._hilbert_angle(a[:0], b[:0]).shape == (0,)
    assert _distance_after(ws[:0], a[:0], b[:0]).shape == (0,)


# ---------------------------------------------------------------------------
# maximizer


def test_maximize_identical_states_is_zero():
    res = maximize_statistical_distance(E0, E0, budget=2, seed=0)
    assert res.max_ds == 0.0
    assert res.hilbert_distance == 0.0
    assert res.gap == 0.0


def test_maximize_orthogonal_states_reaches_right_angle():
    res = maximize_statistical_distance(E0, E1, budget=4, seed=0)
    assert res.max_ds == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_maximize_matches_hilbert_angle_frozen_pair():
    res = maximize_statistical_distance(E0, DIAG, budget=6, seed=0)
    assert res.gap <= 1e-3
    assert res.max_ds == pytest.approx(math.pi / 4.0, abs=1e-3)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_maximizer_result_is_achieved_by_reported_measurement(n):
    rng = np.random.default_rng(30)
    u = random_complex_state(n, rng)
    v = random_complex_state(n, rng)
    res = maximize_statistical_distance(u, v, budget=1 if n == 8 else 4, seed=1)
    achieved = statistical_distance(
        outcome_distribution(res.argmax_measurement, u),
        outcome_distribution(res.argmax_measurement, v),
    )
    assert achieved == pytest.approx(res.max_ds, abs=1e-12)
    assert res.max_ds <= math.pi / 2.0 + 1e-12
    assert res.gap == pytest.approx(abs(res.max_ds - res.hilbert_distance))


@pytest.mark.parametrize("angle", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_close_pair_stays_below_hilbert_angle(n, angle):
    rng = np.random.default_rng(42)
    u = random_complex_state(n, rng)
    e = random_complex_state(n, rng).v
    e = e - np.vdot(u.v, e) * u.v
    e /= np.linalg.norm(e)
    v = ComplexState(math.cos(angle) * u.v + math.sin(angle) * e)
    bound = hilbert_distance(u, v) * (1.0 + 1e-12)
    res = maximize_statistical_distance(u, v, budget=1 if n == 8 else 2, seed=3)
    assert res.max_ds <= bound
    assert certify_upper_bound(u, v, samples=200, seed=3) <= bound


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_descent_reaches_the_angle_of_a_close_pair(n):
    # the overlap and its gradient are O(angle^2): the descent scores by the
    # chord sum_i (|x_i| - |y_i|)^2 and starts at a rotation angle set by the
    # gradient, so it still moves at an angle of 1e-6
    rng = np.random.default_rng(42)
    u = random_complex_state(n, rng)
    e = random_complex_state(n, rng).v
    e = e - np.vdot(u.v, e) * u.v
    e /= np.linalg.norm(e)
    v = ComplexState(math.cos(1e-6) * u.v + math.sin(1e-6) * e)
    res = maximize_statistical_distance(u, v, budget=1, seed=3)
    assert res.gap <= 1e-4 * res.hilbert_distance


def test_maximizer_deterministic_and_monotone_in_budget():
    rng = np.random.default_rng(31)
    u = random_complex_state(3, rng)
    v = random_complex_state(3, rng)
    a = maximize_statistical_distance(u, v, budget=2, seed=7)
    b = maximize_statistical_distance(u, v, budget=2, seed=7)
    assert a.max_ds == b.max_ds
    np.testing.assert_array_equal(a.argmax_measurement.u, b.argmax_measurement.u)
    values = [
        maximize_statistical_distance(u, v, budget=k, seed=7).max_ds
        for k in (1, 2, 4)
    ]
    assert values[0] <= values[1] <= values[2]


@pytest.mark.parametrize("count", [2.5, "3"])
def test_restart_and_sample_counts_must_be_integers(count):
    with pytest.raises(ValidationError, match="budget must be an integer"):
        maximize_statistical_distance(E0, DIAG, budget=count, seed=0)
    with pytest.raises(ValidationError, match="samples must be an integer"):
        certify_upper_bound(E0, DIAG, samples=count, seed=0)
    a = maximize_statistical_distance(E0, DIAG, budget=np.int64(2), seed=0)
    assert a.max_ds == maximize_statistical_distance(E0, DIAG, budget=2, seed=0).max_ds
    assert certify_upper_bound(E0, DIAG, samples=np.int64(50), seed=0) == certify_upper_bound(
        E0, DIAG, samples=50, seed=0
    )


def _seeded_pair(n, seed):
    rng = np.random.default_rng(seed)
    return random_complex_state(n, rng), random_complex_state(n, rng)


def test_descent_reaches_the_angle_on_the_benchmark_pair():
    # the pair of `wootters --n 8 --budget 1 --pairs 1 --seed 7`, drawn from
    # the battery's stream as run_wootters draws it
    rng = np.random.default_rng(7)
    u = random_complex_state(8, rng)
    v = random_complex_state(8, rng)
    res = maximize_statistical_distance(u, v, budget=1, seed=int(rng.integers(2**62)))
    assert res.gap <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_descent_reaches_the_angle_over_twenty_pairs(n):
    for seed in range(1000, 1020):
        u, v = _seeded_pair(n, seed)
        assert maximize_statistical_distance(u, v, budget=10, seed=seed).gap <= 1e-12


@pytest.mark.parametrize("n", [16, 32])
def test_descent_reaches_the_angle_at_large_n(n):
    # wootters runs up to SIZE_CAPS["n"] = 64
    for seed in range(1000, 1004):
        u, v = _seeded_pair(n, seed)
        assert maximize_statistical_distance(u, v, budget=2, seed=seed).gap <= 1e-12


def test_single_restart_leaves_no_stall_at_n8():
    # a stall sits at a kink of sum |x_i||y_i|, 0.02-0.5 rad short of the
    # angle; a kicked restart leaves none behind even at budget 1
    for seed in range(1000, 1020):
        u, v = _seeded_pair(8, seed)
        assert maximize_statistical_distance(u, v, budget=1, seed=seed).gap <= 1e-10


@pytest.mark.parametrize("n", [2, 3, 8])
def test_descent_deterministic_and_monotone_in_budget(n):
    # restarts are ranked by max_ds: ranked by the descent's objective, a
    # budget-2 max_ds can fall below budget 1's by rounding (7e-16 once at
    # n = 3)
    u, v = _seeded_pair(n, 77)
    results = [maximize_statistical_distance(u, v, budget=k, seed=7) for k in (1, 2, 4)]
    again = maximize_statistical_distance(u, v, budget=2, seed=7)
    assert (again.max_ds, again.evaluations) == (results[1].max_ds, results[1].evaluations)
    np.testing.assert_array_equal(again.argmax_measurement.u, results[1].argmax_measurement.u)
    values = [r.max_ds for r in results]
    assert values[0] <= values[1] <= values[2]


def _near_orthogonal_pair(n, seed, offset):
    # a pair at Hilbert angle pi/2 - offset: the overlap's minimum sits near
    # its kinks, where descents stall
    u, other = _seeded_pair(n, seed)
    e = other.v - np.vdot(u.v, other.v) * u.v
    e /= np.linalg.norm(e)
    angle = math.pi / 2.0 - offset
    return u, ComplexState(math.cos(angle) * u.v + math.sin(angle) * e)


@pytest.mark.parametrize("smoothing", [distmax._SMOOTHING, ()], ids=["smoothed", "unsmoothed"])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_descent_counts_every_evaluation(n, smoothing, monkeypatch):
    # every objective evaluation of the descent goes through distmax._overlap,
    # which scores a stack of output pairs at once: the starts of descents,
    # the line-search trials, the smoothed continuation of stalled descents
    # and the descents from kicked starts
    overlap, restart, continued = distmax._overlap, distmax._restart, distmax._continued
    calls = {"overlap": 0, "smoothed": 0, "kicks": 0}

    def counted_overlap(xy, eps=0.0):
        scored = overlap(xy, eps)
        calls["overlap"] += scored.size
        calls["smoothed"] += eps > 0.0
        return scored

    # kicks: the descents begun, less each restart's first one
    def counted_restart(ab, gauss):
        calls["kicks"] -= len(ab)
        return restart(ab, gauss)

    def counted_continued(xy):
        calls["kicks"] += len(xy)
        return continued(xy)

    monkeypatch.setattr(distmax, "_overlap", counted_overlap)
    monkeypatch.setattr(distmax, "_restart", counted_restart)
    monkeypatch.setattr(distmax, "_continued", counted_continued)
    monkeypatch.setattr(distmax, "_SMOOTHING", smoothing)
    pairs = [_seeded_pair(n, seed) for seed in range(1000, 1005)]
    pairs.append(_near_orthogonal_pair(n, 48, 1e-3))
    pairs.append(_near_orthogonal_pair(n, 49, 0.0))
    total = sum(
        maximize_statistical_distance(u, v, budget=2, seed=k).evaluations
        for k, (u, v) in enumerate(pairs)
    )
    assert (calls["smoothed"] > 0) == bool(smoothing)
    # without smoothing, stalled descents stay stalled and are kicked
    assert calls["kicks"] > 0 or smoothing
    assert total == calls["overlap"]


@pytest.mark.parametrize("n", [2, 3, 8])
def test_restart_starts_from_the_haar_columns_of_its_substream(n, monkeypatch):
    # restart k's first descent starts from the images of [a b] under the
    # Haar columns of substream k's first n x 2 draw (its real, then its
    # imaginary parts): at the distance of the full Haar unitary those
    # columns complete to, through the public objects, up to CERTIFY_TOL
    # (fixed before measuring); no start goes through the chart
    def no_chart(params, dim):
        raise AssertionError("the search builds no chart start")

    monkeypatch.setattr(distmax, "unitary_from_params", no_chart)
    assert run_wootters(RunConfig("wootters", n=3, seed=7, pairs=2, budget=3, draws=50)).overall_passed
    continued, starts = distmax._continued, []

    def recorded(xy):
        starts.append(xy.copy())
        return continued(xy)

    monkeypatch.setattr(distmax, "_continued", recorded)
    u, v = _seeded_pair(n, 52)
    budget, seed = 4, 11
    maximize_statistical_distance(u, v, budget=budget, seed=seed)
    assert len(starts[0]) == budget
    vectors = np.stack((u.v, v.v))
    for xy, stream in zip(starts[0], substreams(seed, budget)):
        g = stream.standard_normal((2, n, 2))
        start = statistical_distance(*(ProbDist(np.abs(row) ** 2) for row in xy))
        assert abs(start - haar_columns_distance(g[0] + 1j * g[1], vectors, u, v)) <= CERTIFY_TOL


@pytest.mark.parametrize("offset", [1e-2, 1e-4, 0.0])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_descent_reaches_the_angle_near_orthogonal_pairs(n, offset):
    # the overlap's minimum sits near its kinks, and the descents stall; the
    # smoothed continuation leaves them (without it, gaps of up to 1.1e-1 at
    # n = 8 remain)
    u, v = _near_orthogonal_pair(n, 49, offset)
    assert maximize_statistical_distance(u, v, budget=2, seed=3).gap <= 1e-12


@pytest.mark.parametrize("smoothing", [distmax._SMOOTHING, ()], ids=["smoothed", "unsmoothed"])
@pytest.mark.parametrize("n, budget", [(2, 5), (3, 4), (8, 2)])
def test_stacked_pairs_match_the_public_maximizer_in_any_chunk(n, budget, smoothing, monkeypatch):
    # the battery's stack over pairs x restarts gives each pair what the
    # public call (a stack of one pair) gives, bit for bit, with the
    # restarts in chunks of 1, of 7 (a pair's restarts straddle chunks) and
    # all in one; unsmoothed, stalled descents are kicked from each
    # restart's own Gaussians
    monkeypatch.setattr(distmax, "_SMOOTHING", smoothing)
    pairs = [(*_seeded_pair(n, seed), seed) for seed in range(1000, 1004)]
    pairs.append((*_near_orthogonal_pair(n, 48, 1e-3), 5))
    alone = [maximize_statistical_distance(u, v, budget=budget, seed=k) for u, v, k in pairs]
    for per_pass in (1, 7, len(pairs) * budget):
        monkeypatch.setattr(distmax, "_per_pass", lambda item_bytes: per_pass)
        stacked = list(_maximize_pairs(pairs, budget))
        assert len(stacked) == len(pairs)
        for one, many in zip(alone, stacked):
            assert (many.max_ds, many.evaluations) == (one.max_ds, one.evaluations)
            np.testing.assert_array_equal(many.argmax_measurement.u, one.argmax_measurement.u)


def test_maximizer_invariant_under_joint_rotation():
    rng = np.random.default_rng(32)
    u = random_complex_state(2, rng)
    v = random_complex_state(2, rng)
    w = random_unitary(2, 17)
    base = maximize_statistical_distance(u, v, budget=4, seed=3)
    rotated = maximize_statistical_distance(
        ComplexState(w @ u.v), ComplexState(w @ v.v), budget=4, seed=3
    )
    assert rotated.max_ds == pytest.approx(base.max_ds, abs=1e-6)


def test_maximizer_validation():
    with pytest.raises(DimensionMismatch):
        maximize_statistical_distance(E0, ComplexState([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        maximize_statistical_distance(E0, E1, budget=0)


# ---------------------------------------------------------------------------
# certifier


def test_certify_identical_states_is_zero():
    assert certify_upper_bound(E0, E0, samples=50, seed=0) == 0.0


def test_certify_bounds():
    rng = np.random.default_rng(34)
    u = random_complex_state(2, rng)
    v = random_complex_state(2, rng)
    res = maximize_statistical_distance(u, v, budget=6, seed=5)
    cert = certify_upper_bound(u, v, samples=10_000, seed=5)
    dh = hilbert_distance(u, v)
    assert cert <= res.max_ds + 1e-9
    assert cert <= dh + 1e-9
    assert cert <= math.pi / 2.0
    # with 1e4 Haar draws at dimension 2 the sampler gets close to the angle
    assert dh - cert <= 0.05


def test_certify_deterministic_and_validates():
    rng = np.random.default_rng(35)
    u = random_complex_state(3, rng)
    v = random_complex_state(3, rng)
    assert certify_upper_bound(u, v, samples=500, seed=2) == certify_upper_bound(
        u, v, samples=500, seed=2
    )
    with pytest.raises(ValidationError):
        certify_upper_bound(u, v, samples=0, seed=2)
    with pytest.raises(DimensionMismatch):
        certify_upper_bound(E0, ComplexState([1.0, 0.0, 0.0]))


# the certifier's per-draw distances against those of the full Haar unitary
# each draw's columns complete to, through the public objects: the same
# measurement up to rounding, fixed at 1e-13 before measuring
CERTIFY_TOL = 1e-13


def _certify_reference(u, v, samples, seed):
    # per draw: the real, then the imaginary parts of its (n, 2) Gaussian
    rng = np.random.default_rng(seed)
    overlap = np.vdot(u.v, v.v)
    aligned = v.v * (abs(overlap) / overlap if overlap else 1.0)
    vectors = np.stack((u.v, aligned - u.v))
    distances = []
    for _ in range(samples):
        g = rng.standard_normal((u.n, 2)) + 1j * rng.standard_normal((u.n, 2))
        distances.append(haar_columns_distance(g, vectors, u, v))
    return distances


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_certify_single_sample_is_the_haar_unitary_of_its_seed(n):
    # one draw's value is the distance after the Haar unitary its seed's
    # columns complete to
    rng = np.random.default_rng(36)
    u, v = random_complex_state(n, rng), random_complex_state(n, rng)
    for seed in range(50):
        cert = certify_upper_bound(u, v, samples=1, seed=seed)
        (ref,) = _certify_reference(u, v, 1, seed)
        assert abs(cert - ref) <= CERTIFY_TOL


@pytest.mark.parametrize("samples", [1, 2000, 5000])
def test_certify_equals_the_one_batch_formula(samples, monkeypatch):
    # the certifier's passes give the same value, bit for bit, at the pass
    # budget (546 draws at n = 8) and in passes of 7 draws, and it is the
    # largest per-draw distance of the public objects
    u, v = _seeded_pair(8, 46)
    values = []
    for pass_bytes in (transforms._PASS_BYTES, 7 * 32 * 8):
        monkeypatch.setattr(transforms, "_PASS_BYTES", pass_bytes)
        values.append(certify_upper_bound(u, v, samples=samples, seed=9))
    assert values[0] == values[1]
    assert abs(values[0] - max(_certify_reference(u, v, samples, 9))) <= CERTIFY_TOL


def test_certify_traced_peak_does_not_grow_with_samples():
    import tracemalloc

    u, v = _seeded_pair(64, 46)
    certify_upper_bound(u, v, samples=200, seed=1)
    peaks = []
    # one pass of 68 draws at n = 64, then 30 passes: no pass may draw while
    # the last one's arrays are still held
    for samples in (68, 2000):
        tracemalloc.start()
        try:
            certify_upper_bound(u, v, samples=samples, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one more draw's Haar columns alone would take 2 kB
    assert peaks[1] <= peaks[0] + 16 * 1024


def test_kicked_outputs_keep_the_gram_matrix_of_the_pair():
    # a kick maps the outputs [x y] = Q R to C R, C Haar columns: a unitary
    # acting on the pair, which keeps x^H x, x^H y, y^H y to rounding
    rng = np.random.default_rng(11)
    for n in (2, 3, 8, 64):
        xy = complex_gaussian(rng, (30, 2, n))
        c = transforms._haar_from_gaussian(complex_gaussian(rng, (30, n, 2)))
        kicked = transforms._haar_images(xy, c)
        gram, kicked_gram = (m.conj() @ m.swapaxes(1, 2) for m in (xy, kicked))
        scale = np.abs(gram).max(axis=(1, 2))[:, None, None]
        assert np.abs(kicked_gram - gram).max() <= 1e-14 * n * scale.max()
