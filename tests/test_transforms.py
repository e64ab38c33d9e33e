import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo import (
    DimensionMismatch,
    NotOrthogonal,
    NotUnitary,
    RealState,
    TransformKind,
    ValidationError,
    WrongType,
    classify,
    coarse_grain,
    complex_structure,
    from_antiunitary,
    from_polar,
    from_unitary,
    gauge_invariance_probe,
    gauge_shift,
    random_complex_state,
    random_orthogonal,
    random_real_state,
    random_unitary,
    require_orthogonal,
    require_unitary,
    state_event_probs,
    to_antiunitary,
    to_complex,
    to_polar,
    to_unitary,
    transforms,
)
from infogeo.simplex import _norms
from infogeo.statespace import _real_states
from infogeo.transforms import STRUCTURAL_TOL, _require_isometries
from conftest import complex_gaussian

seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# validators and J


def test_require_orthogonal():
    require_orthogonal(np.eye(3))
    with pytest.raises(NotOrthogonal):
        require_orthogonal(np.ones((2, 2)))
    with pytest.raises(ValidationError):
        require_orthogonal(np.ones((2, 3)))


def test_require_unitary():
    require_unitary(np.eye(2, dtype=complex) * 1j)
    with pytest.raises(NotUnitary):
        require_unitary(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValidationError):
        require_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


def test_complex_structure():
    j = complex_structure(4)
    expected = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(j, expected)
    np.testing.assert_array_equal(j @ j, -np.eye(4))
    with pytest.raises(ValidationError):
        complex_structure(3)
    with pytest.raises(ValidationError):
        complex_structure(0)


def test_complex_structure_matches_multiplication_by_i():
    # applying J to packed coordinates multiplies every amplitude by 1j
    j = complex_structure(6)
    state = random_real_state(6, 8)
    rotated = to_complex(RealState(j @ state.q))
    np.testing.assert_allclose(rotated.v, 1j * to_complex(state).v, atol=1e-15)


# ---------------------------------------------------------------------------
# classification


def test_classify_identity_and_j():
    c = classify(np.eye(4))
    assert c.kind is TransformKind.TYPE1
    assert c.beta == 0
    assert c.commutator_norm == 0.0
    np.testing.assert_allclose(c.alpha, np.eye(2))
    assert classify(complex_structure(4)).kind is TransformKind.TYPE1


def test_classify_conjugation_map():
    c = classify(np.diag([1.0, -1.0, 1.0, -1.0]))
    assert c.kind is TransformKind.TYPE2
    assert c.beta == 1
    assert c.anticommutator_norm == 0.0


def test_classify_neither():
    # a rotation mixing the cosine of one pair with the cosine of another
    g = np.eye(4)
    c = math.cos(math.pi / 4.0)
    g[0, 0] = c
    g[0, 2] = -c
    g[2, 0] = c
    g[2, 2] = c
    res = classify(g)
    assert res.kind is TransformKind.NEITHER
    assert res.alpha is None and res.phi is None and res.beta is None
    assert res.commutator_norm > 0.1 and res.anticommutator_norm > 0.1


def test_classify_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        classify(np.full((4, 4), 0.3))


@settings(max_examples=30)
@given(seeds, st.sampled_from([2, 3]))
def test_classify_constructed_branches(seed, n):
    u = random_unitary(n, seed)
    c1 = classify(from_unitary(u))
    assert c1.kind is TransformKind.TYPE1
    np.testing.assert_allclose(c1.alpha, np.abs(u), atol=1e-12)
    np.testing.assert_allclose(
        np.exp(1j * c1.phi) * c1.alpha, u, atol=1e-12
    )
    c2 = classify(from_antiunitary(u))
    assert c2.kind is TransformKind.TYPE2


@settings(max_examples=20)
@given(seeds)
def test_classify_haar_orthogonal_is_neither(seed):
    m = random_orthogonal(6, seed)
    assert classify(m).kind is TransformKind.NEITHER


def test_classify_two_by_two_is_exhaustive():
    # on a single pair every orthogonal map is a rotation or a reflection
    for seed in range(40):
        kind = classify(random_orthogonal(2, seed)).kind
        assert kind in (TransformKind.TYPE1, TransformKind.TYPE2)


# ---------------------------------------------------------------------------
# conversions


def test_to_unitary_of_j_is_i_times_identity():
    np.testing.assert_allclose(
        to_unitary(complex_structure(4)), 1j * np.eye(2), atol=1e-15
    )


def test_conversion_roundtrips_are_exact():
    u = random_unitary(3, 99)
    m1 = from_unitary(u)
    np.testing.assert_array_equal(to_unitary(m1), u)
    np.testing.assert_array_equal(from_unitary(to_unitary(m1)), m1)
    m2 = from_antiunitary(u)
    np.testing.assert_array_equal(to_antiunitary(m2), u)
    np.testing.assert_array_equal(from_antiunitary(to_antiunitary(m2)), m2)


def test_constructed_maps_are_orthogonal():
    for seed in range(10):
        u = random_unitary(4, seed)
        for m in (from_unitary(u), from_antiunitary(u)):
            require_orthogonal(m)
            assert np.linalg.norm(m.T @ m - np.eye(8)) <= 1e-12


def test_isometry_check_covers_every_matrix_of_a_stack():
    stack = np.stack([random_unitary(3, seed) for seed in range(4)])
    _require_isometries(stack, NotUnitary, "stack")
    stack[2] *= 1.001
    defect = np.linalg.norm(stack[2].conj().T @ stack[2] - np.eye(3))
    assert STRUCTURAL_TOL < defect < 1e-2
    with pytest.raises(NotUnitary, match=f"stack deviates from I by {defect:.3e}"):
        _require_isometries(stack, NotUnitary, "stack")
    with pytest.raises(NotUnitary, match=f"deviates from I by {defect:.3e}"):
        require_unitary(stack[2])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_isometry_check_rejects_non_finite_entries(bad):
    # the batteries' draws reach this check without the public finiteness guard
    for error, stack in (
        (NotOrthogonal, np.stack([random_orthogonal(4, seed) for seed in range(3)])),
        (NotUnitary, np.stack([random_unitary(3, seed) for seed in range(3)])),
    ):
        stack[1, 0, 2] = bad
        # an inf entry raises before m^dagger @ m, where inf * 0 would warn
        with pytest.raises(error, match="deviates from I by"):
            _require_isometries(stack, error, "stack")


def test_wrong_type_conversions_raise():
    u = random_unitary(2, 5)
    with pytest.raises(WrongType):
        to_unitary(from_antiunitary(u))
    with pytest.raises(WrongType):
        to_antiunitary(from_unitary(u))
    with pytest.raises(WrongType):
        to_unitary(random_orthogonal(4, 3))
    with pytest.raises(NotUnitary):
        from_unitary(np.ones((2, 2), dtype=complex))


def test_converters_validate_orthogonality_once(monkeypatch):
    spy = mock.Mock(wraps=transforms.require_orthogonal)
    monkeypatch.setattr(transforms, "require_orthogonal", spy)
    u = random_unitary(3, 8)
    to_unitary(from_unitary(u))
    to_antiunitary(from_antiunitary(u))
    assert spy.call_count == 2


@settings(max_examples=25)
@given(seeds, seeds)
def test_equivariance(useed, sseed):
    u = random_unitary(3, useed)
    state = random_real_state(6, sseed)
    v = to_complex(state).v
    img1 = to_complex(RealState(from_unitary(u) @ state.q)).v
    np.testing.assert_allclose(img1, u @ v, atol=1e-12)
    img2 = to_complex(RealState(from_antiunitary(u) @ state.q)).v
    np.testing.assert_allclose(img2, u @ np.conj(v), atol=1e-12)


def test_composition_sign_rule():
    u = random_unitary(2, 0)
    w = random_unitary(2, 1)
    t1, s1 = from_unitary(u), from_unitary(w)
    t2, s2 = from_antiunitary(u), from_antiunitary(w)
    assert classify(t1 @ s1).kind is TransformKind.TYPE1
    assert classify(t1 @ s2).kind is TransformKind.TYPE2
    assert classify(t2 @ s1).kind is TransformKind.TYPE2
    assert classify(t2 @ s2).kind is TransformKind.TYPE1


def test_antiunitary_square_corresponds_to_unitary():
    # (v -> u conj(v)) applied twice acts as the unitary u @ conj(u)
    u = random_unitary(3, 12)
    m2 = from_antiunitary(u)
    np.testing.assert_allclose(
        to_unitary(m2 @ m2), u @ np.conj(u), atol=1e-12
    )


def test_partial_reflection_is_not_orthogonal():
    # flipping the reflection on a single block breaks orthogonality, so a
    # mixed-branch block pattern is rejected before classification
    u = random_unitary(3, 44)
    mixed = from_unitary(u)
    mixed[0, 1] = u[0, 0].imag
    mixed[1, 1] = -u[0, 0].real
    with pytest.raises(NotOrthogonal):
        classify(mixed)


# ---------------------------------------------------------------------------
# gauge probe


def test_probe_passes_for_both_branches():
    u = random_unitary(3, 7)
    for m in (from_unitary(u), from_antiunitary(u)):
        res = gauge_invariance_probe(m)
        assert res.passed
        assert res.max_deviation <= 1e-10
        assert res.witness_state is None and res.witness_shift is None


def _reference_probe(m, seed):
    """The default probe (32 states, 16 shifts) as one loop through the public charts."""
    rng = np.random.default_rng(seed)
    states = [random_real_state(m.shape[0], rng) for _ in range(32)]
    chi0s = rng.uniform(0.0, 2.0 * math.pi, size=16)
    worst, witness = -1.0, None
    for state in states:
        before = coarse_grain(state_event_probs(RealState(m @ state.q))).probs
        for chi0 in chi0s:
            moved = RealState(m @ from_polar(gauge_shift(to_polar(state), chi0)).q)
            dev = float(np.abs(coarse_grain(state_event_probs(moved)).probs - before).max())
            if dev > worst:
                worst, witness = dev, (state.q, float(chi0))
    return worst, witness


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_probe_matches_per_state_reference(dim):
    u = random_unitary(dim // 2, dim)
    for m in (from_unitary(u), from_antiunitary(u), random_orthogonal(dim, dim)):
        for seed in range(3):
            res = gauge_invariance_probe(m, seed=seed)
            worst, (state, shift) = _reference_probe(m, seed)
            assert res.max_deviation == pytest.approx(worst, rel=0.0, abs=1e-14)
            if not res.passed:
                assert res.witness_shift == shift
                np.testing.assert_allclose(res.witness_state, state, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_probe_fails_for_generic_orthogonal_with_witness(dim):
    m = random_orthogonal(dim, 3)
    res = gauge_invariance_probe(m)
    assert not res.passed
    assert res.max_deviation > 1e-6
    assert res.witness_state is not None and res.witness_shift is not None
    assert not res.witness_state.flags.writeable
    # replay the recorded witness: the shift must actually move the outcome
    # probabilities of the transformed state
    state = RealState(res.witness_state)
    before = coarse_grain(state_event_probs(RealState(m @ state.q))).probs
    shifted = gauge_shift(to_polar(state), res.witness_shift)
    moved = RealState(m @ from_polar(shifted).q)
    after = coarse_grain(state_event_probs(moved)).probs
    assert float(np.abs(after - before).max()) == pytest.approx(
        res.max_deviation, rel=1e-9
    )


def test_probe_deterministic_and_validates():
    m = random_orthogonal(4, 9)
    a = gauge_invariance_probe(m, seed=1)
    b = gauge_invariance_probe(m, seed=1)
    assert a.max_deviation == b.max_deviation
    assert a.witness_shift == b.witness_shift
    with pytest.raises(ValidationError):
        gauge_invariance_probe(random_orthogonal(2, 0))
    # a probe that samples nothing proves nothing
    for bad in ({"states": []}, {"n_states": 0}, {"chi0s": []}, {"n_shifts": 0},
                {"chi0s": [math.nan]}, {"chi0s": [0.5, math.inf]}):
        with pytest.raises(ValidationError):
            gauge_invariance_probe(m, **bad)
    with pytest.raises(DimensionMismatch):
        gauge_invariance_probe(m, states=[random_real_state(6, 0)])


def test_probe_accepts_explicit_states_and_shifts():
    u = random_unitary(2, 2)
    states = [random_real_state(4, s) for s in range(3)]
    res = gauge_invariance_probe(
        from_unitary(u), states=states, chi0s=[0.5, 1.0]
    )
    assert res.passed


def test_probe_over_a_stack_equals_one_call_per_map():
    # map 0 passes, so the stack's first failing map is map 1
    u = random_unitary(3, 4)
    ms = np.stack([from_unitary(u), random_orthogonal(6, 1), from_antiunitary(u),
                   random_orthogonal(6, 2)])
    rng = np.random.default_rng(5)
    qs = np.stack([_real_states(rng, 7, 6) for _ in ms])
    chi0s = rng.uniform(0.0, 2.0 * math.pi, size=(len(ms), 5))
    passed, worst, i, k = transforms._probe_stack(ms, qs, chi0s, transforms.DEFAULT_GAUGE)
    assert passed.tolist() == [True, False, True, False]
    for c, m in enumerate(ms):
        res = gauge_invariance_probe(m, states=[RealState(q) for q in qs[c]], chi0s=chi0s[c])
        assert (res.passed, res.max_deviation) == (passed[c], worst[c])
        if not res.passed:
            assert res.witness_state.tolist() == qs[c, i[c]].tolist()
            assert res.witness_shift == chi0s[c, k[c]]
    # default samples drawn as one block per kind: map c's states are the
    # c-th 32 random_real_state calls on the states' Generator, its shifts
    # the c-th _probe_shifts draw of the shifts' Generator
    dim, n_states, n_shifts = 6, transforms.PROBE_STATES, transforms.PROBE_SHIFTS
    gens, ref_gens = ([np.random.default_rng(s) for s in (11, 2**40)] for _ in range(2))
    qs = _real_states(gens[0], len(ms) * n_states, dim).reshape(len(ms), n_states, dim)
    chi0s = transforms._probe_shifts(gens[1], (len(ms), n_shifts))
    passed, worst, i, k = transforms._probe_stack(ms, qs, chi0s, transforms.DEFAULT_GAUGE)
    assert passed.tolist() == [True, False, True, False]
    for c, m in enumerate(ms):
        states = [random_real_state(dim, ref_gens[0]) for _ in range(n_states)]
        res = gauge_invariance_probe(
            m, states=states, chi0s=transforms._probe_shifts(ref_gens[1], n_shifts)
        )
        assert (res.passed, res.max_deviation) == (passed[c], worst[c])
        if not res.passed:
            assert res.witness_state.tolist() == qs[c, i[c]].tolist()
            assert res.witness_shift == chi0s[c, k[c]]
    assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in ref_gens]
    # the public default: the states, then the shifts, from the seed's stream
    rng = np.random.default_rng(5)
    states = [random_real_state(dim, rng) for _ in range(n_states)]
    chi0s = transforms._probe_shifts(rng, n_shifts)
    res = gauge_invariance_probe(ms[1], states=states, chi0s=chi0s)
    default = gauge_invariance_probe(ms[1], seed=5)
    assert (default.max_deviation, default.witness_shift) == (res.max_deviation, res.witness_shift)
    assert default.witness_state.tolist() == res.witness_state.tolist()


@pytest.mark.parametrize(
    "call",
    [
        lambda x: gauge_invariance_probe(random_orthogonal(4, 0), n_states=x),
        lambda x: gauge_invariance_probe(random_orthogonal(4, 0), n_shifts=x),
        lambda x: random_orthogonal(x, 1),
        lambda x: random_unitary(x, 1),
        lambda x: random_real_state(x, 1),
        lambda x: random_complex_state(x, 1),
        lambda x: complex_structure(x),
    ],
)
def test_counts_and_dimensions_must_be_integers(call):
    for bad in (4.0, 2.5, "4"):
        with pytest.raises(ValidationError, match="must be an integer"):
            call(bad)
    a, b = call(4), call(np.int64(4))
    if not isinstance(a, np.ndarray):  # a result dataclass: compare every field
        a, b = vars(a), vars(b)
    np.testing.assert_equal(a, b)


# ---------------------------------------------------------------------------
# random matrices


def test_random_orthogonal_properties():
    m = random_orthogonal(5, 123)
    np.testing.assert_array_equal(m, random_orthogonal(5, 123))
    assert np.linalg.norm(m.T @ m - np.eye(5)) <= 1e-12
    assert not np.array_equal(m, random_orthogonal(5, 124))
    with pytest.raises(ValidationError):
        random_orthogonal(1, 0)


def test_random_unitary_properties():
    u = random_unitary(4, 55)
    np.testing.assert_array_equal(u, random_unitary(4, 55))
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12
    with pytest.raises(ValidationError):
        random_unitary(1, 0)


def test_random_orthogonal_sign_balance():
    # determinant should hit both signs across seeds (Haar over O(n))
    dets = {round(float(np.linalg.det(random_orthogonal(4, s)))) for s in range(24)}
    assert dets == {-1, 1}


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 64])
def test_frobenius_rounds_as_numpy_norm(n):
    # simplex._norms, the one row norm, takes the dots np.linalg.norm takes of
    # each row: for complex entries those of the real and imaginary parts as
    # strided views (contiguous copies of the parts move about one Gram
    # deviation norm in ten by an ulp); _frobenius is _norms of the flattened
    # matrices
    q = transforms._haar(np.random.default_rng(n), n, (500 if n <= 16 else 20,), complex_=True)
    gram = np.swapaxes(q.conj(), -1, -2) @ q - np.eye(n)
    for ms in (gram, q, q.real.copy(), q[..., :1].copy()):
        assert transforms._frobenius(ms).tolist() == [np.linalg.norm(m) for m in ms]
    # real and complex row stacks, a strided one, one unstacked row, an empty stack
    for rows in (q, gram.real, q.real, q[:, ::2], q[0, 0], q[:0]):
        norms = _norms(rows)
        assert norms.shape == rows.shape[:-1]
        assert norms.ravel().tolist() == [np.linalg.norm(r) for r in rows.reshape(-1, n)]


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_haar_columns_are_the_first_columns_of_the_full_draw(n):
    # one sampler: the thin QR of an (k, n, 2) stack of Gaussian columns
    # gives the first two columns of the Haar unitaries of the (k, n, n)
    # stack that holds them, bit for bit
    z = complex_gaussian(np.random.default_rng(n), (20, n, n))
    full = transforms._haar_from_gaussian(z)
    columns = transforms._haar_from_gaussian(z[..., :2].copy())
    assert columns.shape == (20, n, 2)
    assert columns.tolist() == full[..., :2].tolist()


@pytest.mark.parametrize("complex_", [False, True], ids=["orthogonal", "unitary"])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_haar_seeded_equals_per_seed_gaussian_draws(n, complex_):
    # per seed, one block of standard normals for a stack of maps is the
    # draws of the public sampler's calls in turn on the same stream (each
    # map's real parts, then its imaginary parts), with the same QR pass
    public = random_unitary if complex_ else random_orthogonal
    for seed, count in ((0, 1), (2**40, 2), (7, 53)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = transforms._haar(rng, n, (count,), complex_)
        assert got.tolist() == [public(n, ref_rng).tolist() for _ in range(count)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
