import math

import numpy as np
import pytest

from infogeo import (
    ComplexState,
    DimensionMismatch,
    ImpossibleOutcome,
    Measurement,
    NotUnitary,
    ValidationError,
    apply_measurement,
    outcome_distribution,
    random_complex_state,
    random_unitary,
    sample_outcomes,
    simulability_roundtrip,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Measurement type


def test_measurement_validation():
    m = Measurement(HADAMARD)
    assert m.n == 2
    np.testing.assert_array_equal(m.phases, [0.0, 0.0])
    with pytest.raises(NotUnitary):
        Measurement(np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        Measurement(HADAMARD, phases=[0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        Measurement(HADAMARD, phases=[0.0, math.nan])


def test_basis_columns_are_orthonormal_preimages():
    rng = np.random.default_rng(2)
    u = random_unitary(3, 31)
    meas = Measurement(u, phases=rng.uniform(0.0, 2.0 * math.pi, size=3))
    b = meas.basis()
    np.testing.assert_allclose(b.conj().T @ b, np.eye(3), atol=1e-12)
    # u maps basis column i onto (a phase times) the reference vector e_i
    np.testing.assert_allclose(np.abs(u @ b), np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# outcome distribution


def test_outcome_distribution_hadamard():
    dist = outcome_distribution(Measurement(HADAMARD), ComplexState([1.0, 0.0]))
    np.testing.assert_allclose(dist.probs, [0.5, 0.5])


def test_outcome_distribution_two_routes_agree():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        meas = Measurement(
            random_unitary(n, int(rng.integers(2**32))),
            phases=rng.uniform(0.0, 2.0 * math.pi, size=n),
        )
        v = random_complex_state(n, rng)
        via_stage = outcome_distribution(meas, v).probs
        via_basis = np.abs(meas.basis().conj().T @ v.v) ** 2
        np.testing.assert_allclose(via_stage, via_basis, atol=1e-12)
        assert float(via_stage.sum()) == pytest.approx(1.0, abs=1e-12)


def test_outcome_distribution_phase_invariance():
    rng = np.random.default_rng(6)
    u = random_unitary(3, 77)
    v = random_complex_state(3, rng)
    base = outcome_distribution(Measurement(u), v).probs
    rephased = Measurement(u, phases=rng.uniform(0.0, 6.0, size=3))
    np.testing.assert_allclose(
        outcome_distribution(rephased, v).probs, base, atol=1e-14
    )
    v_global = ComplexState(np.exp(0.7j) * v.v)
    np.testing.assert_allclose(
        outcome_distribution(Measurement(u), v_global).probs, base, atol=1e-14
    )


def test_outcome_distribution_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        outcome_distribution(Measurement(HADAMARD), ComplexState([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# apply_measurement


def test_apply_measurement_seeded_and_deterministic():
    meas = Measurement(HADAMARD)
    v = ComplexState([1.0, 0.0])
    a = apply_measurement(meas, v, seed=0)
    b = apply_measurement(meas, v, seed=0)
    assert a.outcome == b.outcome
    assert a.probability == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_array_equal(a.output_state.v, b.output_state.v)


def test_apply_measurement_requires_seed_when_sampling():
    with pytest.raises(ValidationError):
        apply_measurement(Measurement(HADAMARD), ComplexState([1.0, 0.0]))


def test_apply_measurement_forced_outcome():
    meas = Measurement(HADAMARD)
    rec = apply_measurement(meas, ComplexState([1.0, 0.0]), forced_outcome=0)
    assert rec.outcome == 0
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(rec.output_state.v, [r, r], atol=1e-15)
    with pytest.raises(ValidationError):
        apply_measurement(meas, ComplexState([1.0, 0.0]), forced_outcome=2)


def test_apply_measurement_impossible_outcome():
    # e_1 never yields outcome 1 under the identity arrangement
    meas = Measurement(np.eye(2, dtype=complex))
    with pytest.raises(ImpossibleOutcome):
        apply_measurement(meas, ComplexState([1.0, 0.0]), forced_outcome=1)


def test_output_state_is_phased_basis_column():
    phases = np.array([0.3, 1.1])
    meas = Measurement(HADAMARD, phases=phases)
    rec = apply_measurement(meas, ComplexState([1.0, 0.0]), forced_outcome=1)
    np.testing.assert_allclose(
        rec.output_state.v, meas.basis()[:, 1], atol=1e-15
    )


def test_repeating_a_measurement_reproduces_the_outcome():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        meas = Measurement(
            random_unitary(n, int(rng.integers(2**32))),
            phases=rng.uniform(0.0, 2.0 * math.pi, size=n),
        )
        v = random_complex_state(n, rng)
        first = apply_measurement(meas, v, seed=int(rng.integers(2**32)))
        again = outcome_distribution(meas, first.output_state)
        assert again.probs[first.outcome] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_sample_outcomes_deterministic_and_complete():
    meas = Measurement(HADAMARD)
    v = ComplexState([1.0, 0.0])
    counts = sample_outcomes(meas, v, 10_000, seed=1)
    np.testing.assert_array_equal(counts, sample_outcomes(meas, v, 10_000, seed=1))
    assert int(counts.sum()) == 10_000
    with pytest.raises(ValidationError):
        sample_outcomes(meas, v, -1, seed=1)
    # beyond the sampler's limit; shots is a count, so nothing is allocated
    with pytest.raises(ValidationError, match="2\\*\\*63"):
        sample_outcomes(meas, v, 2**63, seed=1)


def test_sample_outcomes_match_born_within_three_sigma():
    rng = np.random.default_rng(14)
    meas = Measurement(random_unitary(3, 200))
    v = random_complex_state(3, rng)
    shots = 100_000
    counts = sample_outcomes(meas, v, shots, seed=3)
    probs = outcome_distribution(meas, v).probs
    for i in range(3):
        sigma = math.sqrt(shots * probs[i] * (1.0 - probs[i]))
        assert abs(counts[i] - shots * probs[i]) <= 3.0 * sigma


def test_sample_outcomes_eigenstate_is_certain():
    meas = Measurement(random_unitary(4, 8))
    eig = ComplexState(meas.basis()[:, 2])
    counts = sample_outcomes(meas, eig, 1000, seed=5)
    assert counts[2] == 1000


# ---------------------------------------------------------------------------
# simulability


def test_simulability_default_audit_passes():
    res = simulability_roundtrip(Measurement(HADAMARD))
    assert res.passed
    assert res.repeat_defect <= 1e-12
    # the tampered stage rotates two basis images by 45 degrees, which costs
    # exactly half the repeat probability
    assert res.tamper_defect == pytest.approx(0.5, abs=1e-12)
    assert res.witness in (0, 1)


def test_simulability_audit_over_random_arrangements():
    rng = np.random.default_rng(21)
    for n in (2, 3, 5):
        meas = Measurement(
            random_unitary(n, int(rng.integers(2**32))),
            phases=rng.uniform(0.0, 2.0 * math.pi, size=n),
        )
        res = simulability_roundtrip(meas)
        assert res.passed and res.tamper_defect > 0.25


def test_simulability_explicit_interaction():
    meas = Measurement(HADAMARD)
    good = simulability_roundtrip(meas, interaction=HADAMARD.conj().T)
    assert good.passed and good.tamper_defect is None and good.witness is None
    wrong = simulability_roundtrip(meas, interaction=np.eye(2, dtype=complex))
    assert not wrong.passed
    assert wrong.repeat_defect == pytest.approx(0.5, abs=1e-12)
    assert wrong.witness in (0, 1)
    with pytest.raises(NotUnitary):
        simulability_roundtrip(meas, interaction=np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        simulability_roundtrip(meas, interaction=np.eye(3, dtype=complex))
