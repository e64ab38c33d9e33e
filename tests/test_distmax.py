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
from infogeo.distmax import MAX_DIMENSION, _distance_after, n_parameters

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


# ---------------------------------------------------------------------------
# maximizer


def test_maximize_identical_states_is_zero():
    res = maximize_statistical_distance(E0, E0, budget=2, seed=0)
    # arccos near overlap 1 maps ulp-level rounding to ~1e-8 angles
    assert res.max_ds <= 1e-7
    assert res.hilbert_distance == 0.0
    assert res.gap <= 1e-7


def test_maximize_orthogonal_states_reaches_right_angle():
    res = maximize_statistical_distance(E0, E1, budget=4, seed=0)
    assert res.max_ds == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_maximize_matches_hilbert_angle_frozen_pair():
    res = maximize_statistical_distance(E0, DIAG, budget=6, seed=0)
    assert res.gap <= 1e-3
    assert res.max_ds == pytest.approx(math.pi / 4.0, abs=1e-3)


def test_maximizer_result_is_achieved_by_reported_measurement():
    rng = np.random.default_rng(30)
    u = random_complex_state(2, rng)
    v = random_complex_state(2, rng)
    res = maximize_statistical_distance(u, v, budget=4, seed=1)
    achieved = statistical_distance(
        outcome_distribution(res.argmax_measurement, u),
        outcome_distribution(res.argmax_measurement, v),
    )
    assert achieved == pytest.approx(res.max_ds, abs=1e-12)
    assert res.max_ds <= math.pi / 2.0 + 1e-12
    assert res.gap == pytest.approx(abs(res.max_ds - res.hilbert_distance))


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
    assert certify_upper_bound(E0, E0, samples=50, seed=0) <= 1e-7


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
