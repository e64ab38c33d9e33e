import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogeo import (
    DEFAULT_GAUGE,
    ComplexState,
    DimensionMismatch,
    EmptyGrid,
    EventDist,
    GaugeConvention,
    OddDimension,
    PolarState,
    ProbDist,
    RealState,
    SingularMetric,
    TangentVec,
    ValidationError,
    born_probs,
    coarse_grain,
    from_complex,
    from_polar,
    gauge_shift,
    measure_invariance_check,
    polar_metric_quadratic,
    polar_pushforward,
    random_complex_state,
    random_real_state,
    state_event_probs,
    to_complex,
    to_polar,
)
from infogeo.statespace import SLOPE_REL_TOL, _check_unit_rows

TWO_PI = 2.0 * math.pi


def polar_states(n: int):
    probs = st.lists(
        st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n
    ).map(ProbDist.renormalized)
    angles = st.lists(
        st.floats(0.0, TWO_PI, exclude_max=True, allow_nan=False),
        min_size=n,
        max_size=n,
    )
    return st.builds(lambda p, t: PolarState(p, np.asarray(t)), probs, angles)


# ---------------------------------------------------------------------------
# types


def test_event_dist_validation():
    EventDist([0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValidationError):
        EventDist([0.5, 0.6])
    with pytest.raises(ValidationError):
        EventDist([-0.25, 1.25])
    with pytest.raises(ValidationError):
        EventDist([1.0])


def test_real_state_validation():
    RealState([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValidationError):
        RealState([1.0, 0.0])  # too short
    with pytest.raises(ValidationError):
        RealState([1.0, 0.0, 0.0])  # odd length
    with pytest.raises(ValidationError):
        RealState([1.0, 1.0, 0.0, 0.0])  # not unit norm
    assert RealState([1.0, 0.0, 0.0, 0.0]).n_outcomes == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_unit_row_check_rejects_non_finite_entries(bad):
    # the batteries' images reach this check without RealState's finiteness guard
    q = np.full((3, 4), 0.5)
    _check_unit_rows(q)
    q[1, 2] = bad
    with pytest.raises(ValidationError, match="unit norm"):
        _check_unit_rows(q)


def test_polar_state_reduces_angles():
    ps = PolarState(ProbDist([0.5, 0.5]), [TWO_PI + 0.25, -0.25])
    np.testing.assert_allclose(ps.theta, [0.25, TWO_PI - 0.25], atol=1e-12)
    ps0 = PolarState(ProbDist([0.5, 0.5]), [-1e-300, TWO_PI])
    assert np.all(ps0.theta < TWO_PI) and np.all(ps0.theta >= 0.0)
    with pytest.raises(DimensionMismatch):
        PolarState(ProbDist([0.5, 0.5]), [0.0, 0.0, 0.0])


def test_gauge_convention_validation():
    assert DEFAULT_GAUGE.a == 1.0 and DEFAULT_GAUGE.b == 0.0
    GaugeConvention(a=-2.0, b=1.0)
    with pytest.raises(ValidationError):
        GaugeConvention(a=0.0)


def test_complex_state_validation():
    ComplexState([1.0, 0.0])
    with pytest.raises(ValidationError):
        ComplexState([1.0, 1.0])  # norm too big
    with pytest.raises(ValidationError):
        ComplexState([1.0])
    assert ComplexState([0.6, 0.8j]).n == 2


# ---------------------------------------------------------------------------
# coarse graining and charts


def test_coarse_grain():
    p = coarse_grain(EventDist([0.1, 0.4, 0.3, 0.2]))
    np.testing.assert_allclose(p.probs, [0.5, 0.5])
    with pytest.raises(OddDimension):
        coarse_grain(EventDist([0.5, 0.25, 0.25]))


def test_state_event_probs():
    s = RealState([0.5, -0.5, 0.5, 0.5])
    np.testing.assert_allclose(state_event_probs(s).event_probs, [0.25] * 4)


def test_from_polar_frozen():
    ps = PolarState(ProbDist([0.5, 0.5]), [0.0, math.pi / 2.0])
    q = from_polar(ps).q
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(q, [r, 0.0, 0.0, r], atol=1e-15)


def test_to_polar_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        state = random_real_state(6, rng)
        back = from_polar(to_polar(state))
        np.testing.assert_allclose(back.q, state.q, atol=1e-14)


def test_to_polar_zero_convention():
    s = RealState([1.0, 0.0, 0.0, 0.0])
    ps = to_polar(s)
    np.testing.assert_allclose(ps.p.probs, [1.0, 0.0])
    assert ps.theta[1] == 0.0


def test_complex_packing_frozen():
    ps = PolarState(ProbDist([0.5, 0.5]), [0.0, math.pi / 2.0])
    v = to_complex(from_polar(ps)).v
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(v, [r, 1j * r], atol=1e-15)
    np.testing.assert_allclose(born_probs(ComplexState(v)).probs, [0.5, 0.5])


@settings(max_examples=40)
@given(polar_states(3))
def test_complex_roundtrip_and_born_consistency(ps):
    state = from_polar(ps)
    cs = to_complex(state)
    np.testing.assert_allclose(from_complex(cs).q, state.q, atol=1e-15)
    np.testing.assert_allclose(
        born_probs(cs).probs,
        coarse_grain(state_event_probs(state)).probs,
        atol=1e-14,
    )


# ---------------------------------------------------------------------------
# gauge shifts


def test_gauge_shift_moves_every_angle():
    ps = PolarState(ProbDist([0.5, 0.5]), [0.1, 0.2])
    shifted = gauge_shift(ps, 0.5, GaugeConvention(a=2.0))
    np.testing.assert_allclose(shifted.theta, [1.1, 1.2], atol=1e-14)
    np.testing.assert_allclose(shifted.p.probs, ps.p.probs)
    with pytest.raises(ValidationError):
        gauge_shift(ps, math.inf)


def test_gauge_shift_is_global_phase_on_amplitudes():
    rng = np.random.default_rng(3)
    g = GaugeConvention(a=-1.5, b=0.7)
    for _ in range(10):
        ps = to_polar(random_real_state(8, rng))
        chi0 = float(rng.uniform(0.0, TWO_PI))
        shifted = to_complex(from_polar(gauge_shift(ps, chi0, g)))
        expected = np.exp(1j * g.a * chi0) * to_complex(from_polar(ps)).v
        np.testing.assert_allclose(shifted.v, expected, atol=1e-12)


@settings(max_examples=40)
@given(
    polar_states(2),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.floats(-10.0, 10.0, allow_nan=False),
)
def test_gauge_shift_composition(ps, chi1, chi2):
    once = gauge_shift(gauge_shift(ps, chi1), chi2)
    both = gauge_shift(ps, chi1 + chi2)
    np.testing.assert_allclose(
        np.exp(1j * once.theta), np.exp(1j * both.theta), atol=1e-9
    )


@settings(max_examples=40)
@given(polar_states(2), st.floats(-10.0, 10.0, allow_nan=False))
def test_gauge_shift_preserves_outcome_probs(ps, chi0):
    shifted = gauge_shift(ps, chi0)
    np.testing.assert_allclose(
        born_probs(to_complex(from_polar(shifted))).probs,
        ps.p.probs,
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# polar metric


def test_polar_metric_frozen_value():
    ps = PolarState(ProbDist([0.5, 0.5]), [0.0, math.pi / 2.0])
    quad = polar_metric_quadratic(
        ps, TangentVec([0.0, 0.0]), [0.0, 0.0], DEFAULT_GAUGE, [0.1, 0.0]
    )
    # 0.5 * (1.0 * 0.1)^2
    assert quad == pytest.approx(0.005, rel=1e-12)


def test_polar_metric_radial_part_matches_fisher():
    from infogeo import fisher_quadratic

    p = ProbDist([0.3, 0.7])
    dp = TangentVec([0.01, -0.01])
    ps = PolarState(p, [0.4, 1.2])
    quad = polar_metric_quadratic(ps, dp, [0.0, 0.0])
    assert quad == pytest.approx(fisher_quadratic(p, dp), rel=1e-14)


def test_polar_metric_matches_pushforward():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        p = ProbDist.renormalized(rng.uniform(0.1, 1.0, size=n))
        d = rng.uniform(-1.0, 1.0, size=n)
        dp = TangentVec(d - d.mean())
        dtheta = rng.uniform(-1.0, 1.0, size=n)
        dchi = rng.uniform(-1.0, 1.0, size=n)
        g = GaugeConvention(a=float(rng.uniform(0.5, 2.0)), b=float(rng.uniform(0, 6)))
        ps = PolarState(p, rng.uniform(0.0, TWO_PI, size=n))
        quad = polar_metric_quadratic(ps, dp, dtheta, g, dchi)
        dq = polar_pushforward(ps, dp, dtheta + g.a * dchi)
        assert quad == pytest.approx(float(dq @ dq), rel=1e-10, abs=1e-12)


def test_polar_functions_equal_their_one_row_formulas():
    # the public functions are stacks of one over the row kernels; their
    # values are those of the one-row formulas, bit for bit
    from infogeo import fisher_quadratic

    rng = np.random.default_rng(23)
    for n in (2, 3, 8):
        for _ in range(40):
            probs = rng.uniform(0.1, 1.0, size=n)
            probs[0] = 0.0  # an unmoved outcome of zero probability
            p = ProbDist.renormalized(probs)
            d = rng.uniform(-1.0, 1.0, size=n)
            d[0] = 0.0
            d[1:] -= d[1:].mean()
            dp = TangentVec(d)
            dtheta, dchi = rng.uniform(-1.0, 1.0, size=(2, n))
            g = GaugeConvention(a=float(rng.uniform(-2.0, 2.0)))
            ps = PolarState(p, rng.uniform(-7.0, 7.0, size=n))
            dth = dtheta + g.a * dchi
            quad = fisher_quadratic(p, dp) + float((p.probs * dth**2).sum())
            assert polar_metric_quadratic(ps, dp, dtheta, g, dchi) == quad
            r = np.sqrt(p.probs)
            dr = np.zeros(n)
            np.divide(dp.deltas, 2.0 * r, out=dr, where=dp.deltas != 0.0)
            c, s = np.cos(ps.theta), np.sin(ps.theta)
            dq = np.ravel(np.column_stack((dr * c - r * s * dth, dr * s + r * c * dth)))
            assert polar_pushforward(ps, dp, dth).tolist() == dq.tolist()


def test_polar_metric_errors():
    ps = PolarState(ProbDist([0.0, 1.0]), [0.0, 0.0])
    with pytest.raises(SingularMetric):
        polar_metric_quadratic(ps, TangentVec([0.01, -0.01]), [0.0, 0.0])
    with pytest.raises(SingularMetric):
        polar_pushforward(ps, TangentVec([0.01, -0.01]), [0.0, 0.0])
    ok = PolarState(ProbDist([0.5, 0.5]), [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        polar_metric_quadratic(ok, TangentVec([0.01, -0.01]), [0.0])
    with pytest.raises(DimensionMismatch):
        polar_metric_quadratic(ok, TangentVec([0.01, 0.0, -0.01]), [0.0, 0.0])


# ---------------------------------------------------------------------------
# measure invariance


def test_measure_invariance_affine_passes():
    res = measure_invariance_check(np.full(101, 1.7))
    assert res.passed
    assert res.deviation == 0.0
    assert res.mean_abs_slope == pytest.approx(1.7)
    assert res.measure_constant == pytest.approx(1.0 / (TWO_PI * 1.7), rel=1e-12)


def test_measure_invariance_sign_of_slope_is_ignored():
    res = measure_invariance_check(np.full(50, -2.0))
    assert res.passed and res.mean_abs_slope == pytest.approx(2.0)


def test_measure_invariance_threshold_is_slope_rel_tol():
    # the spread is judged relative to the mean slope (here 1), at SLOPE_REL_TOL
    assert measure_invariance_check([1.0, 1.0 + 0.5 * SLOPE_REL_TOL]).passed
    assert not measure_invariance_check([1.0, 1.0 + 2.0 * SLOPE_REL_TOL]).passed


def test_measure_invariance_quadratic_fails_with_deviation_two():
    grid = np.linspace(0.0, 1.0, 101)
    res = measure_invariance_check(2.0 * grid)  # slope of theta = chi^2
    assert not res.passed
    assert res.deviation == pytest.approx(2.0, abs=1e-12)
    assert res.mean_abs_slope == pytest.approx(1.0, abs=1e-12)


def test_measure_invariance_errors():
    with pytest.raises(EmptyGrid):
        measure_invariance_check([1.0])
    with pytest.raises(ValidationError):
        measure_invariance_check([1.0, math.nan])
    # finite samples whose mean overflows: 1e308 <= 1e-9 * inf would pass
    with pytest.raises(ValidationError, match="float range"):
        measure_invariance_check([1.0, 1e308, 1e308])


def test_measure_invariance_zero_slope():
    res = measure_invariance_check(np.zeros(10))
    assert res.passed and res.measure_constant is None


# ---------------------------------------------------------------------------
# random states


def test_random_real_state_deterministic_and_valid():
    a = random_real_state(6, 42)
    b = random_real_state(6, 42)
    np.testing.assert_array_equal(a.q, b.q)
    assert abs(float(a.q @ a.q) - 1.0) <= 1e-12
    with pytest.raises(ValidationError):
        random_real_state(5, 0)
    with pytest.raises(ValidationError):
        random_real_state(2, 0)


def test_random_real_state_accepts_generator():
    rng = np.random.default_rng(5)
    a = random_real_state(4, rng)
    b = random_real_state(4, rng)
    assert not np.array_equal(a.q, b.q)


def test_random_complex_state_seeds_and_generators():
    a = random_complex_state(5, 42)
    np.testing.assert_array_equal(a.v, random_complex_state(5, 42).v)
    assert abs(float(np.sum(np.abs(a.v) ** 2)) - 1.0) <= 1e-12
    rng = np.random.default_rng(5)
    first = random_complex_state(3, rng)
    np.testing.assert_array_equal(first.v, random_complex_state(3, 5).v)
    assert not np.array_equal(first.v, random_complex_state(3, rng).v)
    with pytest.raises(ValidationError):
        random_complex_state(1, 0)
