import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infogeo import (
    AbsoluteContinuityViolation,
    CoinExperiment,
    ComplexState,
    DimensionMismatch,
    EmptyGrid,
    Measurement,
    PolarState,
    ProbDist,
    RealState,
    SingularMetric,
    TangentVec,
    ValidationError,
    exact_posterior,
    fisher_quadratic,
    gauge_invariance_probe,
    kl_divergence,
    log_likelihood_ratio,
    measure_invariance_check,
    polar_metric_quadratic,
    polar_pushforward,
    sqrt_embed,
    statistical_distance,
    unitary_from_params,
)
from infogeo.simplex import _angle_between, _check_rows, _distance_rows, _fisher_rows, _kl_rows
from conftest import decimal_ray_angle

# ---------------------------------------------------------------------------
# strategies


def dists(n: int):
    return st.lists(
        st.floats(0.05, 1.0, allow_nan=False), min_size=n, max_size=n
    ).map(ProbDist.renormalized)


def center(values, scale: float = 1e-3) -> TangentVec:
    d = np.asarray(values)
    d -= d.mean()
    return TangentVec(scale * d)


def tangents(n: int, scale: float = 1e-3):
    return st.lists(
        st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n
    ).map(lambda values: center(values, scale))


# ---------------------------------------------------------------------------
# ProbDist / TangentVec


def test_probdist_validation():
    with pytest.raises(ValidationError):
        ProbDist([1.0])  # too few outcomes
    with pytest.raises(ValidationError):
        ProbDist([0.7, 0.4])  # does not sum to 1
    with pytest.raises(ValidationError):
        ProbDist([-0.1, 1.1])  # negative entry
    with pytest.raises(ValidationError):
        ProbDist([[0.5, 0.5]])  # not one-dimensional
    with pytest.raises(ValidationError):
        ProbDist([np.nan, 1.0])


def test_probdist_accepts_zeros_and_is_readonly():
    p = ProbDist([0.0, 1.0])
    assert p.n == 2 and len(p) == 2
    with pytest.raises(ValueError):
        p.probs[0] = 0.5


def test_probdist_does_not_alias_input():
    raw = np.array([0.5, 0.5])
    p = ProbDist(raw)
    raw[0] = 0.9
    assert p.probs[0] == 0.5


def test_renormalized():
    p = ProbDist.renormalized([2.0, 6.0])
    np.testing.assert_allclose(p.probs, [0.25, 0.75])
    with pytest.raises(ValidationError):
        ProbDist.renormalized([0.0, 0.0])
    with pytest.raises(ValidationError):
        ProbDist.renormalized([1.0, -1.0])
    # finite weights whose sum overflows a float
    assert ProbDist.renormalized([1e308, 1e308]).probs.tolist() == [0.5, 0.5]


def test_tangentvec_validation():
    TangentVec([0.25, -0.25])
    with pytest.raises(ValidationError):
        TangentVec([0.1, 0.1])  # does not sum to 0
    with pytest.raises(ValidationError):
        TangentVec([0.0])


# ---------------------------------------------------------------------------
# fisher_quadratic


def test_fisher_quadratic_values():
    dp = TangentVec([0.01, -0.01])
    assert fisher_quadratic(ProbDist([0.5, 0.5]), dp) == pytest.approx(1e-4, rel=1e-14)
    assert fisher_quadratic(ProbDist([0.25, 0.75]), dp) == pytest.approx(
        4e-4 / 3.0, rel=1e-14
    )


def test_fisher_quadratic_zero_direction_is_zero():
    assert fisher_quadratic(ProbDist([0.5, 0.5]), TangentVec([0.0, 0.0])) == 0.0
    # a zero-probability outcome is fine as long as the direction avoids it
    assert fisher_quadratic(ProbDist([0.0, 1.0]), TangentVec([0.0, 0.0])) == 0.0


def test_fisher_quadratic_singular_face():
    with pytest.raises(SingularMetric):
        fisher_quadratic(ProbDist([0.0, 1.0]), TangentVec([0.01, -0.01]))


def test_fisher_quadratic_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fisher_quadratic(ProbDist([0.5, 0.5]), TangentVec([0.01, 0.0, -0.01]))


@given(dists(4), tangents(4))
def test_fisher_quadratic_nonnegative(p, dp):
    assert fisher_quadratic(p, dp) >= 0.0


@given(dists(3), tangents(3))
@example(ProbDist.renormalized([1.0, 1.0, 1.0]), center([0.0, 0.0, 1.1296827416944867e-157]))
def test_fisher_quadratic_doubling_is_exact(p, dp):
    quad = fisher_quadratic(p, dp)
    quad2 = fisher_quadratic(p, TangentVec(2.0 * dp.deltas))
    moving = dp.deltas != 0.0
    squares = dp.deltas[moving] ** 2
    terms = [*squares, *(squares / p.probs[moving]), quad]
    if all(t >= sys.float_info.min for t in terms):
        # doubling scales every square, quotient and sum by a power of 2,
        # which is exact while they are all normal
        assert quad2 == 4.0 * quad
    else:
        # a subnormal square, quotient or quadratic form is rounded to the
        # spacing 2**-1074, magnified up to 1/min(p) by the division; the
        # sums round once more
        spacing = 2.0**-1074
        bound = (p.n + 3) * spacing * (1.0 + 1.0 / p.probs.min()) + 4 * p.n * 2.0**-53 * quad2
        assert abs(quad2 - 4.0 * quad) <= bound


# ---------------------------------------------------------------------------
# statistical_distance


def test_statistical_distance_values():
    p = ProbDist([0.9, 0.1])
    p2 = ProbDist([0.1, 0.9])
    # overlap = 2 * sqrt(0.09) = 0.6
    assert statistical_distance(p, p2) == pytest.approx(math.acos(0.6), abs=1e-15)
    assert statistical_distance(p, p) == 0.0
    assert statistical_distance(ProbDist([1.0, 0.0]), ProbDist([0.0, 1.0])) == pytest.approx(
        math.pi / 2.0
    )


@pytest.mark.parametrize("target", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize(
    "base, pattern",
    [([0.25, 0.75], [1.0, -1.0]), ([0.125, 0.375, 0.5], [1.0, 1.0, -2.0])],
    ids=["n2", "n3"],
)
def test_statistical_distance_is_accurate_at_small_distances(target, base, pattern):
    # offsets are multiples of 2^-53, so both distributions sum exactly to 1
    # and the reference is the angle between their square-root embeddings
    scale = target / math.sqrt(0.25 * sum(c * c / b for c, b in zip(pattern, base)))
    delta = round(scale * 2.0**53) * 2.0**-53
    p = ProbDist(base)
    p2 = ProbDist([b + c * delta for b, c in zip(base, pattern)])
    exact = decimal_ray_angle(p.probs, p2.probs, sqrt=True)
    assert exact == pytest.approx(target, rel=1e-5)
    assert statistical_distance(p, p2) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_statistical_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        statistical_distance(ProbDist([0.5, 0.5]), ProbDist([0.4, 0.3, 0.3]))


@given(dists(4), dists(4))
def test_statistical_distance_symmetric_and_bounded(a, b):
    d = statistical_distance(a, b)
    assert d == statistical_distance(b, a)
    assert 0.0 <= d <= math.pi / 2.0


@given(dists(3), dists(3), dists(3))
def test_statistical_distance_triangle_inequality(a, b, c):
    assert statistical_distance(a, c) <= (
        statistical_distance(a, b) + statistical_distance(b, c) + 1e-12
    )


# ---------------------------------------------------------------------------
# kl_divergence


def test_kl_divergence_values():
    p = ProbDist([0.5, 0.5])
    p2 = ProbDist([0.25, 0.75])
    # 0.5 ln 2 + 0.5 ln(2/3) = 0.5 ln(4/3)
    assert kl_divergence(p, p2) == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-14)
    assert kl_divergence(p, p) == 0.0


def test_kl_divergence_zero_times_log_zero():
    # outcome with p_i = 0 contributes nothing even when p2_i = 0 there
    p = ProbDist([0.0, 1.0])
    assert kl_divergence(p, ProbDist([0.0, 1.0])) == 0.0
    assert kl_divergence(p, ProbDist([0.5, 0.5])) == pytest.approx(math.log(2.0))


@pytest.mark.parametrize("tiny", [1e-310, 5e-324, 1e-300])
def test_kl_divergence_is_finite_at_a_subnormal_p2(tiny):
    # p / p2 overflows at a subnormal p2; the divergence itself is ~356 nats
    p, p2 = [0.5, 0.5], [tiny, 1.0 - tiny]
    reference = sum(a * (math.log(a) - math.log(b)) for a, b in zip(p, p2))
    assert kl_divergence(ProbDist(p), ProbDist(p2)) == pytest.approx(reference, rel=1e-15)
    batch = _kl_rows(np.array([p, [0.25, 0.75]]), np.array([p2, p2]))
    assert batch[0] == pytest.approx(reference, rel=1e-15)
    assert np.isfinite(batch).all()


def test_kl_divergence_absolute_continuity():
    with pytest.raises(AbsoluteContinuityViolation):
        kl_divergence(ProbDist([0.5, 0.5]), ProbDist([0.0, 1.0]))


@given(dists(4), dists(4))
def test_kl_divergence_nonnegative(a, b):
    assert kl_divergence(a, b) >= -1e-15


@settings(max_examples=50)
@given(dists(4), tangents(4, scale=1.0))
@example(
    ProbDist.renormalized([0.0625, 0.0625, 1.0, 0.15625]),
    center([1.0, 0.0625, 0.875, 0.15625], scale=1.0),
)
def test_kl_matches_quadratic_form_to_cubic_order(p, direction):
    # KL(p, p + d) = 2 ds^2(d) - sum d^3 / (3 p^2) + R with |R| <= sum d^4 / (2 p^3)
    # while every |d / p| <= 0.159 (here <= 0.13), plus rounding of the
    # logarithms and of p + d, ~2**-53 each
    for eps in (1e-3, 5e-4):
        dp = TangentVec(eps * direction.deltas)
        p2 = ProbDist(p.probs + dp.deltas)
        d, q = dp.deltas, p.probs
        cubic = np.sum(d**3 / q**2) / 3.0
        remainder = kl_divergence(p, p2) - 2.0 * fisher_quadratic(p, dp) + cubic
        assert abs(remainder) <= 0.5 * np.sum(d**4 / q**3) + p.n * 2.0**-53


# ---------------------------------------------------------------------------
# sqrt_embed


def test_sqrt_embed_values():
    np.testing.assert_allclose(
        sqrt_embed(ProbDist([0.25, 0.75])), [0.5, math.sqrt(3.0) / 2.0]
    )


@given(dists(4))
def test_sqrt_embed_unit_norm(p):
    q = sqrt_embed(p)
    assert float(q @ q) == pytest.approx(1.0, abs=1e-12)


@given(dists(4), dists(4))
def test_sqrt_embed_angle_is_statistical_distance(a, b):
    cosang = min(1.0, float(sqrt_embed(a) @ sqrt_embed(b)))
    # compare cosines: arccos amplifies 1-ulp differences near coincidence
    assert cosang == pytest.approx(
        math.cos(statistical_distance(a, b)), abs=1e-12
    )
    assert math.acos(cosang) == pytest.approx(
        statistical_distance(a, b), abs=1e-7
    )


# ---------------------------------------------------------------------------
# row kernels: one batch call equals the public call on each row


def _rows_with_zeros(rng, shape):
    w = rng.uniform(0.05, 1.0, size=shape)
    w[rng.random(shape) < 0.25] = 0.0
    w[..., 0] += 0.1  # no all-zero row
    return w / w.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 12])
def test_row_kernels_equal_public_calls_row_by_row(n):
    rng = np.random.default_rng(n)
    probs = _rows_with_zeros(rng, (40, n))
    probs2 = np.where(probs > 0.0, _rows_with_zeros(rng, (3, 40, n)) + 0.01, 0.0)
    probs2 /= probs2.sum(axis=-1, keepdims=True)
    support = probs > 0.0  # tangents must not move zero-probability outcomes
    d = np.where(support, rng.uniform(-1.0, 1.0, size=(3, 40, n)), 0.0)
    d -= support * d.sum(axis=-1, keepdims=True) / support.sum(axis=-1, keepdims=True)
    deltas = 1e-3 * d
    for rows, kind in ((probs, "probs"), (probs2, "probs"), (deltas, "deltas")):
        _check_rows(rows, kind)
    kl, fisher = _kl_rows(probs, probs2), _fisher_rows(probs, deltas)
    assert kl.shape == fisher.shape == (3, 40)
    for k in range(3):
        for t in range(40):
            p = ProbDist(probs[t])
            assert kl[k, t] == kl_divergence(p, ProbDist(probs2[k, t]))
            assert fisher[k, t] == fisher_quadratic(p, TangentVec(deltas[k, t]))


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_angle_kernels_equal_one_row_calls(n):
    # _distance_rows and _angle_between take (..., n) stacks, and each row is
    # bit for bit statistical_distance or the one-row formula.  Row (1, 2) is
    # a pair of identical distributions and row (2, 4) one of disjoint supports
    rng = np.random.default_rng(80 + n)
    probs, probs2 = _rows_with_zeros(rng, (3, 7, n)), _rows_with_zeros(rng, (3, 7, n))
    probs2[1, 2] = probs[1, 2]
    probs[2, 4], probs2[2, 4] = np.eye(n)[:2]
    ds = _distance_rows(probs, probs2)
    assert ds.tolist() == [
        [statistical_distance(ProbDist(p), ProbDist(p2)) for p, p2 in zip(*rows)]
        for rows in zip(probs, probs2)
    ]
    assert ds[1, 2] == 0.0 and ds[2, 4] == math.pi / 2.0
    # one unstacked row and an empty stack
    assert _distance_rows(probs[0, 3], probs2[0, 3]) == ds[0, 3]
    assert _distance_rows(probs[:, :0], probs2[:, :0]).shape == (3, 0)
    real = rng.standard_normal((2, 2, 5, n))
    for diff, total in (real, real + 1j * rng.standard_normal(real.shape)):
        angles = _angle_between(diff, total)
        assert angles.tolist() == [
            [
                min(2.0 * math.atan2(np.linalg.norm(d), np.linalg.norm(t)), 0.5 * math.pi)
                for d, t in zip(*rows)
            ]
            for rows in zip(diff, total)
        ]
        assert _angle_between(diff[0, 0], total[0, 0]) == angles[0, 0]
        assert _angle_between(diff[:0], total[:0]).shape == (0, 5)


def test_row_kernels_keep_the_public_checks():
    probs = np.array([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(SingularMetric):
        _fisher_rows(probs, np.array([[0.01, -0.01], [0.01, -0.01]]))
    assert _fisher_rows(probs, np.array([[0.01, -0.01], [0.0, 0.0]])).tolist() == [1e-4, 0.0]
    with pytest.raises(AbsoluteContinuityViolation):
        _kl_rows(probs[::-1], probs)
    with pytest.raises(DimensionMismatch):
        _kl_rows(probs, np.full((2, 3), 1.0 / 3.0))
    with pytest.raises(DimensionMismatch):
        _fisher_rows(probs, np.zeros((2, 3)))


@pytest.mark.parametrize(
    "bad_row, kind, message",
    [
        ([0.5, np.nan], "probs", "non-finite"),
        ([-0.25, 1.25], "probs", "nonnegative"),
        ([0.5, 0.6], "probs", "sum to 1.1"),
        ([0.1, 0.1], "deltas", "sum to 0.2"),
        ([np.inf, -np.inf], "deltas", "non-finite"),
    ],
)
def test_check_rows_rejects_any_bad_row_of_a_batch(bad_row, kind, message):
    good = [0.5, 0.5] if kind == "probs" else [0.25, -0.25]
    rows = np.array([[good, good], [good, bad_row]])
    with pytest.raises(ValidationError, match=message):
        _check_rows(rows, kind)
    _check_rows(rows[0], kind)


# ---------------------------------------------------------------------------
# every 1-D entry point, validated by simplex._vector

_P = ProbDist([0.5, 0.5])
_PS = PolarState(_P, [0.1, 0.2])
_DP = TangentVec([0.1, -0.1])
_COINS = CoinExperiment(_P, ProbDist([0.4, 0.6]), 3)
_VE, _DM = ValidationError, DimensionMismatch

# site: (call, a valid vector, one of the wrong length, the type raised for a
# 2-D input, the type raised for the wrong length)
VECTOR_SITES = {
    "ProbDist": (ProbDist, [0.5, 0.5], [1.0], _VE, _VE),
    "renormalized": (ProbDist.renormalized, [1.0, 3.0], [1.0], _VE, _VE),
    "RealState": (RealState, [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0], _VE, _VE),
    "PolarState": (lambda x: PolarState(_P, x), [0.1, 0.2], [0.1, 0.2, 0.3], _VE, _DM),
    "ComplexState": (ComplexState, [1j, 0j], [1j], _VE, _VE),
    "dtheta": (lambda x: polar_metric_quadratic(_PS, _DP, x), [0.1, 0.2], [0.1], _DM, _DM),
    "dchi": (lambda x: polar_metric_quadratic(_PS, _DP, [0.0, 0.0], dchi=x), [0.1, 0.2], [0.1],
             _DM, _DM),
    "dtheta_total": (lambda x: polar_pushforward(_PS, _DP, x), [0.1, 0.2], [0.1], _DM, _DM),
    "slope samples": (measure_invariance_check, [1.0, 1.0], [1.0], EmptyGrid, EmptyGrid),
    "phases": (lambda x: Measurement(np.eye(2), x), [0.0, 0.0], [0.0, 0.0, 0.0], _DM, _DM),
    "chi0s": (lambda x: gauge_invariance_probe(np.eye(4), chi0s=x, n_states=2), [0.5, 1.0], [],
              _VE, _VE),
    "params": (lambda x: unitary_from_params(x, 2), [0.0] * 4, [0.0] * 5, _VE, _VE),
    "llr counts": (lambda x: log_likelihood_ratio(_COINS, x), [1.0, 2.0], [1.0, 2.0, 0.0],
                   _DM, _DM),
    "posterior counts": (lambda x: exact_posterior(_COINS, x), [1, 2], [1, 2, 0], _DM, _DM),
}


@pytest.mark.parametrize("case", ["nan", "inf", "2-D", "wrong length"])
@pytest.mark.parametrize("site", list(VECTOR_SITES))
def test_every_vector_input_keeps_its_exception_type(site, case):
    call, good, short, two_d_error, length_error = VECTOR_SITES[site]
    call(good)
    bad, expected = {
        "nan": (np.concatenate(([math.nan], good[1:])), ValidationError),
        "inf": (np.concatenate(([math.inf], good[1:])), ValidationError),
        "2-D": (np.array([good, good]), two_d_error),
        "wrong length": (short, length_error),
    }[case]
    with pytest.raises(expected) as raised:
        call(bad)
    assert type(raised.value) is expected
