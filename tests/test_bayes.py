import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infogeo import (
    CoinExperiment,
    DimensionMismatch,
    MonteCarloSummary,
    ProbDist,
    ValidationError,
    ZeroLikelihoodBoth,
    exact_posterior,
    expansion_log_ratio,
    expected_log_ratio,
    info_gain_approx,
    info_gain_exact,
    kl_divergence,
    log_likelihood_ratio,
    monte_carlo_gain,
    shannon_entropy,
)
from infogeo._streams import substreams

HALF = ProbDist([0.5, 0.5])
SKEW = ProbDist([0.25, 0.75])


# ---------------------------------------------------------------------------
# shannon_entropy


def test_shannon_entropy_values():
    assert shannon_entropy(0.5, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    assert shannon_entropy(1.0, 0.0) == 0.0
    assert shannon_entropy(0.0, 1.0) == 0.0
    with pytest.raises(ValidationError):
        shannon_entropy(-0.1, 1.1)


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_shannon_entropy_symmetric_and_maximal_at_half(q):
    assert shannon_entropy(q, 1.0 - q) == shannon_entropy(1.0 - q, q)
    assert shannon_entropy(q, 1.0 - q) <= math.log(2.0) + 1e-15


# ---------------------------------------------------------------------------
# CoinExperiment


def test_coin_experiment_validation():
    CoinExperiment(HALF, SKEW, 0)
    with pytest.raises(ValidationError):
        CoinExperiment(HALF, SKEW, -1)
    for n in (2.5, "3"):
        with pytest.raises(ValidationError, match="n must be an integer"):
            CoinExperiment(HALF, SKEW, n)
    assert type(CoinExperiment(HALF, SKEW, np.int64(3)).n) is int
    with pytest.raises(ValidationError):
        CoinExperiment(HALF, SKEW, 10, prior_a=1.0)
    with pytest.raises(ValidationError):
        CoinExperiment(HALF, SKEW, 10, prior_a=0.0)
    with pytest.raises(DimensionMismatch):
        CoinExperiment(HALF, ProbDist([0.2, 0.3, 0.5]), 10)


# ---------------------------------------------------------------------------
# exact_posterior


def test_exact_posterior_two_heads():
    exp = CoinExperiment(HALF, SKEW, 2)
    rep = exact_posterior(exp, [2, 0])
    # likelihood ratio (0.5/0.25)^2 = 4 at even prior
    assert rep.post_a == pytest.approx(0.8, abs=1e-15)
    assert rep.post_b == pytest.approx(0.2, abs=1e-15)
    assert rep.log_ratio == pytest.approx(math.log(4.0), rel=1e-14)


def test_exact_posterior_prior_weighting():
    exp = CoinExperiment(HALF, SKEW, 0, prior_a=0.9)
    rep = exact_posterior(exp, [0, 0])
    assert rep.post_a == pytest.approx(0.9, abs=1e-15)


def test_exact_posterior_count_validation():
    exp = CoinExperiment(HALF, SKEW, 2)
    with pytest.raises(ValidationError):
        exact_posterior(exp, [1, 0])  # wrong total
    with pytest.raises(ValidationError):
        exact_posterior(exp, [3, -1])  # negative count
    with pytest.raises(ValidationError):
        exact_posterior(exp, [1.5, 0.5])  # non-integer
    with pytest.raises(DimensionMismatch):
        exact_posterior(exp, [1, 1, 0])


def test_exact_posterior_one_sided_zero_likelihood():
    sure = ProbDist([1.0, 0.0])
    exp = CoinExperiment(sure, HALF, 2)
    rep = exact_posterior(exp, [1, 1])  # impossible under the sure coin
    assert rep.post_a == 0.0 and rep.post_b == 1.0
    assert rep.log_ratio == -math.inf
    rep2 = exact_posterior(CoinExperiment(HALF, sure, 2), [1, 1])
    assert rep2.post_a == 1.0 and rep2.log_ratio == math.inf


def test_exact_posterior_zero_likelihood_both():
    sure = ProbDist([1.0, 0.0])
    with pytest.raises(ZeroLikelihoodBoth):
        exact_posterior(CoinExperiment(sure, sure, 1), [0, 1])


# ---------------------------------------------------------------------------
# log ratios


def test_log_likelihood_ratio_matches_posterior_report():
    exp = CoinExperiment(HALF, SKEW, 2)
    assert log_likelihood_ratio(exp, [2, 0]) == pytest.approx(
        exact_posterior(exp, [2, 0]).log_ratio, rel=1e-14
    )


def test_log_likelihood_ratio_validation():
    exp = CoinExperiment(HALF, SKEW, 2)
    with pytest.raises(ValidationError):
        log_likelihood_ratio(exp, [-1.0, 3.0])
    with pytest.raises(DimensionMismatch):
        log_likelihood_ratio(exp, [1.0, 0.5, 0.5])
    with pytest.raises(DimensionMismatch):  # one dataset per call, not a batch
        log_likelihood_ratio(exp, [[2.0, 0.0], [1.0, 1.0]])


def test_log_likelihood_ratio_zero_likelihood_both():
    # the same input on which exact_posterior raises
    sure = ProbDist([1.0, 0.0])
    with pytest.raises(ZeroLikelihoodBoth):
        log_likelihood_ratio(CoinExperiment(sure, sure, 1), [0, 1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_likelihood_ratio_rejects_non_finite_counts(bad):
    # a nan count must not be read as an unobserved outcome
    with pytest.raises(ValidationError, match="finite"):
        log_likelihood_ratio(CoinExperiment(HALF, SKEW, 2), [bad, 2.0])


def test_expected_log_ratio_frozen():
    exp = CoinExperiment(HALF, SKEW, 10)
    expected = 10.0 * 0.5 * math.log(4.0 / 3.0)
    assert expected_log_ratio(exp) == pytest.approx(expected, rel=1e-14)
    # the exponential of the expected log ratio is (4/3)^5
    assert math.exp(expected_log_ratio(exp)) == pytest.approx(
        (4.0 / 3.0) ** 5, rel=1e-12
    )


def test_expected_log_ratio_equals_continuous_extension_at_typical_counts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = ProbDist.renormalized(rng.uniform(0.1, 1.0, size=3))
        p2 = ProbDist.renormalized(rng.uniform(0.1, 1.0, size=3))
        n = int(rng.integers(1, 500))
        exp = CoinExperiment(p, p2, n)
        assert log_likelihood_ratio(exp, n * p.probs) == pytest.approx(
            expected_log_ratio(exp), rel=1e-10, abs=1e-12
        )


def test_expansion_log_ratio_frozen():
    exp = CoinExperiment(HALF, ProbDist([0.51, 0.49]), 100)
    # 2 * 100 * (1/4)(2 * 0.01^2 / 0.5) = 0.02
    assert expansion_log_ratio(exp) == pytest.approx(0.02, rel=1e-12)


def test_expansion_approximates_expected_log_ratio():
    exp = CoinExperiment(HALF, ProbDist([0.501, 0.499]), 1000)
    exact = expected_log_ratio(exp)
    approx = expansion_log_ratio(exp)
    assert abs(exact - approx) <= 1e-5 * abs(exact)
    assert expected_log_ratio(exp) == pytest.approx(
        1000.0 * kl_divergence(HALF, ProbDist([0.501, 0.499])), rel=1e-15
    )


# ---------------------------------------------------------------------------
# information gain


def test_info_gain_worked_point():
    # uniform coin vs +-0.005 offset: ds^2 per toss = 2.5e-5, so n = 4000
    # puts the signal at 0.1
    p2 = ProbDist([0.505, 0.495])
    exp = CoinExperiment(HALF, p2, 4000)
    assert info_gain_exact(exp) == pytest.approx(0.00498, abs=1e-5)
    assert info_gain_approx(exp) == pytest.approx(0.005, abs=1e-12)


def test_info_gain_ratio_approaches_one():
    p2 = ProbDist([0.505, 0.495])
    for tosses, band in ((2000, 0.05), (800, 0.02), (400, 0.01)):
        exp = CoinExperiment(HALF, p2, tosses)
        ratio = info_gain_exact(exp) / info_gain_approx(exp)
        assert abs(ratio - 1.0) <= band


def test_info_gain_equal_coins_is_zero():
    exp = CoinExperiment(HALF, HALF, 1000)
    assert info_gain_exact(exp) == 0.0
    assert info_gain_approx(exp) == 0.0


def test_info_gain_nonnegative_and_custom_entropy():
    exp = CoinExperiment(HALF, SKEW, 5)
    assert info_gain_exact(exp) >= 0.0

    def gini(a, b):
        return 1.0 - a * a - b * b

    assert info_gain_exact(exp, u=gini) >= 0.0


# ---------------------------------------------------------------------------
# Monte Carlo


def _enumerated_expectations(exp: CoinExperiment):
    # exact expectation over all datasets of a two-outcome experiment,
    # drawn from coin 1
    p_head = exp.p.probs[0]
    base = shannon_entropy(0.5, 0.5)
    mean_gain = 0.0
    mean_post = 0.0
    for k in range(exp.n + 1):
        weight = math.comb(exp.n, k) * p_head**k * (1.0 - p_head) ** (exp.n - k)
        rep = exact_posterior(exp, [k, exp.n - k])
        mean_gain += weight * (base - shannon_entropy(rep.post_a, rep.post_b))
        mean_post += weight * rep.post_a
    return mean_gain, mean_post


def test_monte_carlo_matches_enumeration():
    exp = CoinExperiment(ProbDist([0.6, 0.4]), ProbDist([0.5, 0.5]), 30)
    true_gain, true_post = _enumerated_expectations(exp)
    summary = monte_carlo_gain(exp, trials=4000, seed=123)
    assert abs(summary.mean_gain - true_gain) <= 4.0 * summary.stderr_gain
    assert abs(summary.mean_post_a - true_post) <= 4.0 * summary.stderr_post_a


def test_monte_carlo_deterministic():
    exp = CoinExperiment(HALF, SKEW, 50)
    a = monte_carlo_gain(exp, trials=200, seed=9)
    b = monte_carlo_gain(exp, trials=200, seed=9)
    assert a == b
    c = monte_carlo_gain(exp, trials=200, seed=10)
    assert c.mean_gain != a.mean_gain


def test_monte_carlo_summary_consistency():
    exp = CoinExperiment(HALF, ProbDist([0.505, 0.495]), 800)
    s = monte_carlo_gain(exp, trials=500, seed=4)
    assert s.trials == 500 and s.seed == 4
    base = shannon_entropy(0.5, 0.5)
    assert s.gain_at_mean_posterior == pytest.approx(
        base - shannon_entropy(s.mean_post_a, 1.0 - s.mean_post_a), abs=1e-15
    )
    assert s.stderr_gain >= 0.0 and s.stderr_gain_at_mean_posterior >= 0.0


def test_monte_carlo_relabeling_invariance():
    # reversing the outcome labels of both coins leaves every posterior
    # statistic distributionally unchanged
    p = ProbDist([0.6, 0.4])
    p2 = ProbDist([0.55, 0.45])
    exp = CoinExperiment(p, p2, 200)
    flipped = CoinExperiment(
        ProbDist(p.probs[::-1]), ProbDist(p2.probs[::-1]), 200
    )
    a = monte_carlo_gain(exp, trials=3000, seed=21)
    b = monte_carlo_gain(flipped, trials=3000, seed=22)
    joint = math.hypot(a.stderr_gain, b.stderr_gain)
    assert abs(a.mean_gain - b.mean_gain) <= 4.0 * joint


def test_monte_carlo_rejects_bad_trials():
    exp = CoinExperiment(HALF, SKEW, 5)
    with pytest.raises(ValidationError):
        monte_carlo_gain(exp, trials=0, seed=1)
    for trials in (2.5, "3"):
        with pytest.raises(ValidationError, match="trials must be an integer"):
            monte_carlo_gain(exp, trials=trials, seed=1)
    summary = monte_carlo_gain(exp, trials=np.int64(3), seed=1)
    assert summary == monte_carlo_gain(exp, trials=3, seed=1)
    assert type(summary.trials) is int


def test_monte_carlo_rejects_toss_counts_beyond_the_sampler():
    # n is a count, so nothing of that size is allocated
    with pytest.raises(ValidationError, match="2\\*\\*63"):
        monte_carlo_gain(CoinExperiment(HALF, SKEW, 2**63), trials=1, seed=1)
    summary = monte_carlo_gain(CoinExperiment(HALF, SKEW, 2**63 - 1), trials=2, seed=1)
    assert summary.mean_post_a == 1.0


def _python_float_entropy(pi_a, pi_b):
    assert type(pi_a) is float and type(pi_b) is float
    return shannon_entropy(pi_a, pi_b)


def _per_trial_reference(exp: CoinExperiment, trials: int, seed: int, u):
    # one spawned substream and one validated exact_posterior call per trial,
    # summarized with the same statistics as monte_carlo_gain
    children = np.random.SeedSequence(seed).spawn(trials)
    base = u(0.5, 0.5)
    gains, posts, log_ratios = np.empty(trials), np.empty(trials), np.empty(trials)
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(children[t]))
        rep = exact_posterior(exp, rng.multinomial(exp.n, exp.p.probs))
        gains[t] = base - u(rep.post_a, rep.post_b)
        posts[t] = rep.post_a
        log_ratios[t] = rep.log_ratio
    mean_post = float(posts.mean())
    stderr_post = float(posts.std(ddof=1) / math.sqrt(trials))
    lo, hi = max(mean_post - 1e-6, 0.0), min(mean_post + 1e-6, 1.0)
    slope = abs(u(hi, 1.0 - hi) - u(lo, 1.0 - lo)) / (hi - lo)
    summary = MonteCarloSummary(
        trials=trials,
        seed=seed,
        mean_gain=float(gains.mean()),
        stderr_gain=float(gains.std(ddof=1) / math.sqrt(trials)),
        mean_post_a=mean_post,
        stderr_post_a=stderr_post,
        gain_at_mean_posterior=base - u(mean_post, 1.0 - mean_post),
        stderr_gain_at_mean_posterior=slope * stderr_post,
    )
    return summary, log_ratios


@pytest.mark.parametrize(
    "p, p2, tosses, prior_a",
    [
        ([0.5, 0.5], [0.505, 0.495], 800, 0.5),
        ([0.6, 0.4], [0.5, 0.5], 30, 0.3),
        ([1 / 3] * 3, [1 / 3 + 0.01, 1 / 3, 1 / 3 - 0.01], 200, 0.5),
        ([0.3, 0.1, 0.2, 0.15, 0.25], [0.2, 0.2, 0.2, 0.2, 0.2], 12, 0.5),
        ([0.5, 0.3, 0.2], [0.6, 0.4, 0.0], 3, 0.5),  # outcome 2 rules out coin 2
    ],
    ids=["n2", "n2-prior-0.3", "n3", "n5-zero-counts", "n3-p2-zero"],
)
def test_monte_carlo_matches_per_trial_exact_posterior(p, p2, tosses, prior_a):
    exp = CoinExperiment(ProbDist(p), ProbDist(p2), tosses, prior_a=prior_a)
    expected, log_ratios = _per_trial_reference(exp, 500, 17, _python_float_entropy)
    assert monte_carlo_gain(exp, trials=500, seed=17, u=_python_float_entropy) == expected
    if p2[-1] == 0.0:
        assert np.any(log_ratios == math.inf)


@pytest.mark.parametrize(
    "seed", [0, 2**32, 2**64 + 5, 10**30, np.int64(20260814)], ids=str
)
def test_monte_carlo_matches_spawned_substreams_at_any_seed(seed):
    # 1100 trials cross the substream kernel's 1024-key block
    exp = CoinExperiment(ProbDist([0.5, 0.5]), ProbDist([0.505, 0.495]), 800)
    expected, _ = _per_trial_reference(exp, 1100, seed, _python_float_entropy)
    assert monte_carlo_gain(exp, trials=1100, seed=seed, u=_python_float_entropy) == expected


def test_monte_carlo_traced_peak_is_a_few_arrays_of_trials():
    import tracemalloc

    exp = CoinExperiment(ProbDist([0.5, 0.5]), ProbDist([0.505, 0.495]), 800)
    monte_carlo_gain(exp, trials=100, seed=1)
    tracemalloc.start()
    try:
        monte_carlo_gain(exp, trials=30000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the trials go in passes, so no (trials, n) array of counts is held: at
    # most five float64 arrays of one entry per trial (one array of all the
    # counts and its log-weight temporaries took 1.95 MB)
    assert peak <= 5 * 8 * 30000


def test_monte_carlo_rejects_seeds_as_seed_sequence_does():
    exp = CoinExperiment(HALF, SKEW, 5)
    with pytest.raises(ValueError):
        monte_carlo_gain(exp, trials=3, seed=-1)
    with pytest.raises(TypeError):
        monte_carlo_gain(exp, trials=3, seed=1.5)


@pytest.mark.parametrize("tosses", [3, 800], ids=["inversion", "btpe"])
@pytest.mark.parametrize("p0", [0.0, 1.0, 0.3, 0.5, 0.505])
def test_binomial_draw_equals_multinomial_first_count(p0, tosses):
    # monte_carlo_gain's two-outcome draw: binomial(n, p_0) is multinomial's
    # first count, from the same stream state, leaving the same state behind
    # (n = 3 takes the inversion sampler, n = 800 BTPE)
    pair = zip(substreams(11, 2000), substreams(11, 2000))
    for rng_m, rng_b in pair:
        counts = rng_m.multinomial(tosses, [p0, 1.0 - p0])
        first = rng_b.binomial(tosses, p0)
        assert counts.tolist() == [first, tosses - first]
        assert rng_m.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize(
    "p, p2, tosses",
    [([0.5, 0.5], [0.505, 0.495], 800), ([1 / 3] * 3, [1 / 3 + 0.01, 1 / 3, 1 / 3 - 0.01], 200)],
    ids=["n2", "n3"],
)
def test_monte_carlo_scores_each_distinct_log_ratio_once(p, p2, tosses):
    exp = CoinExperiment(ProbDist(p), ProbDist(p2), tosses)
    expected, log_ratios = _per_trial_reference(exp, 3000, 5, _python_float_entropy)
    calls = []

    def counting_entropy(pi_a, pi_b):
        calls.append(pi_a)
        return _python_float_entropy(pi_a, pi_b)

    assert monte_carlo_gain(exp, trials=3000, seed=5, u=counting_entropy) == expected
    distinct = np.unique(log_ratios).size
    assert distinct < 1000  # far fewer than the trials
    # once per distinct value, once for the prior, three times for the summary
    assert len(calls) <= distinct + 4
