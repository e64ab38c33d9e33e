import math

import numpy as np
import pytest

from infogeo import (
    ComplexState,
    DimensionMismatch,
    Measurement,
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
from infogeo.distmax import (
    _MIN_STEP,
    MAX_DIMENSION,
    _distance_after,
    _fold,
    _pair_order,
    _refine,
    _rotation,
    _suffixes,
    _table,
    n_parameters,
)
from conftest import decimal_ray_angle

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


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_sweep_candidates_match_the_reference_chart(n):
    # replay one sweep of the candidate kernel (suffixes, prefix folds, one
    # table per rotation) under the search's own acceptance rule; every
    # candidate's overlap is the full chart's
    rng = np.random.default_rng(38)
    u, v = random_complex_state(n, rng), random_complex_state(n, rng)
    params = rng.uniform(0.0, 2.0 * math.pi, size=n_parameters(n))
    rot = params[n:].tolist()

    def reference(rot):
        w = unitary_from_params(np.concatenate((params[:n], rot)), n)
        return float(np.sum(np.abs(w @ u.v) * np.abs(w @ v.v)))

    best = reference(rot)
    suffixes = _suffixes(np.stack((u.v, v.v), axis=1), rot)
    p = np.eye(n, dtype=complex)
    terms = np.empty((4, 2, n), dtype=complex)
    candidates = accepted = 0
    for r, (i, j) in enumerate(_pair_order(n)):
        _table(terms, p, suffixes[r + 1], i, j)
        for k in (2 * r, 2 * r + 1):
            for delta in (0.5, -0.5):
                trial = list(rot)
                trial[k] += delta
                c, e = _rotation(trial[2 * r], trial[2 * r + 1])
                mod = np.abs(np.array((1.0, c, e, -e.conjugate())) @ terms.reshape(4, 2 * n))
                val = float(mod[:n] @ mod[n:])
                assert abs(val - reference(trial)) <= 1e-13
                candidates += 1
                if val < best:
                    rot[k], best = trial[k], val
                    accepted += 1
        _fold(p, i, j, *_rotation(rot[2 * r], rot[2 * r + 1]))
    # +-step on (theta, zeta) of each of the n(n-1)/2 rotations, no phases
    assert candidates == 4 * (n * (n - 1) // 2)
    assert accepted > 0


def _reference_sweep(ab, rot, step):
    """One sweep that rebuilds every rotation's table: yields (k, candidate
    rot[k], overlap) in search order; the caller accepts a candidate by
    writing it into rot[k] before asking for the next one."""
    n = ab.shape[0]
    suffixes = _suffixes(ab, rot)
    p = np.eye(n, dtype=complex)
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


def _reference_refine(ab, rot, step):
    mod = np.abs(_suffixes(ab, rot)[0])
    best = float(np.dot(mod[:, 0], mod[:, 1]))
    evaluations = 1
    while step >= _MIN_STEP:
        improved = False
        for k, cand, val in _reference_sweep(ab, rot, step):
            evaluations += 1
            if val < best:
                rot[k], best, improved = cand, val, True
        if not improved:
            step *= 0.5
    return best, evaluations


@pytest.mark.parametrize("n, pairs", [(2, 6), (3, 4), (4, 3), (8, 1)])
def test_refine_reusing_tables_matches_rebuilding_every_sweep(n, pairs):
    # a table is reused only while no other rotation has moved, so the whole
    # descent (every accepted step, the best overlap, the evaluation count)
    # is bit-identical to rebuilding each table every sweep
    rng = np.random.default_rng(44)
    for _ in range(pairs):
        u, v = random_complex_state(n, rng), random_complex_state(n, rng)
        ab = np.stack((u.v, v.v), axis=1)
        rot = rng.uniform(0.0, 2.0 * math.pi, size=n_parameters(n) - n).tolist()
        ref_rot = list(rot)
        assert _refine(ab, rot, 0.5) == _reference_refine(ab, ref_rot, 0.5)
        assert rot == ref_rot


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


def test_maximizer_counts_rotation_evaluations():
    rng = np.random.default_rng(39)
    u = random_complex_state(3, rng)
    v = random_complex_state(3, rng)
    counts = {
        k: maximize_statistical_distance(u, v, budget=k, seed=7).evaluations
        for k in (1, 2, 4)
    }
    assert maximize_statistical_distance(u, v, budget=2, seed=7).evaluations == counts[2]
    assert counts[1] < counts[2] < counts[4]
    # one start evaluation per restart, then 4 n(n-1)/2 per sweep, and the
    # step 0.5 halves at least 26 times before it drops below 1e-8
    per_sweep = 4 * 3
    assert (counts[1] - 1) % per_sweep == 0
    assert (counts[1] - 1) // per_sweep >= 26


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
    rng = np.random.default_rng(33)
    with pytest.raises(DimensionMismatch):
        maximize_statistical_distance(E0, ComplexState([1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        maximize_statistical_distance(E0, E1, budget=0)
    big = random_complex_state(MAX_DIMENSION + 1, rng)
    with pytest.raises(ValidationError):
        maximize_statistical_distance(big, big)


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


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_certify_single_sample_is_the_haar_unitary_of_its_seed(n):
    # the certifier and random_unitary share one sampler and one draw order
    rng = np.random.default_rng(36)
    u, v = random_complex_state(n, rng), random_complex_state(n, rng)
    for seed in range(50):
        cert = certify_upper_bound(u, v, samples=1, seed=seed)
        assert abs(cert - _distance_after(random_unitary(n, seed), u.v, v.v)) <= 1e-15
