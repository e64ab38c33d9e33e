"""Bayesian distinguishability of two nearby coins.

An observer is handed one of two N-outcome coins (distributions p and p2,
prior weight prior_a on the first) and sees the outcome counts of n tosses.
The posterior ratio is

    post_a / post_b = (prior_a / prior_b) * prod_i (p_i / p2_i)^{c_i}

and at the typical counts c_i = n * p_i the log of the likelihood ratio is
n * KL(p, p2), which for close distributions expands to 2 * n * ds^2.  The
information gained about the coin's identity is the drop in an uncertainty
function U from the uniform prior to the posterior; to leading order in the
signal x = n * ds^2 the Shannon gain is x^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._streams import substreams
from .errors import DimensionMismatch, ValidationError, ZeroLikelihoodBoth
from .simplex import ProbDist, TangentVec, _integer, _vector, fisher_quadratic, kl_divergence

# An uncertainty function on a binary distribution (pi_a, pi_b).  Must be
# symmetric in its arguments and maximal at (1/2, 1/2).
EntropyFn = Callable[[float, float], float]


def shannon_entropy(pi_a: float, pi_b: float) -> float:
    """Shannon entropy of a two-point distribution, in nats.  0*ln(0) := 0."""
    total = 0.0
    for q in (pi_a, pi_b):
        if q < 0.0:
            raise ValidationError("probabilities must be nonnegative")
        if q > 0.0:
            total -= q * math.log(q)
    return total


@dataclass(frozen=True)
class CoinExperiment:
    """Two candidate coins, a toss count, and a prior on the first coin."""

    p: ProbDist
    p2: ProbDist
    n: int
    prior_a: float = 0.5

    def __post_init__(self) -> None:
        if self.p.n != self.p2.n:
            raise DimensionMismatch(f"coin dimensions differ: {self.p.n} vs {self.p2.n}")
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 0:
            raise ValidationError("n must be a nonnegative integer")
        if not 0.0 < self.prior_a < 1.0:
            raise ValidationError("prior_a must lie strictly between 0 and 1")


@dataclass(frozen=True)
class PosteriorReport:
    """Posterior weights on the two coins.  post_a + post_b = 1 within 1e-12;
    log_ratio = ln(post_a / post_b), +-inf when one likelihood vanishes."""

    post_a: float
    post_b: float
    log_ratio: float


def _log_weight(probs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """ln prod_i probs_i^{counts_i} over the last axis of counts (real-valued counts
    allowed: continuous extension); -inf where an observed outcome has probability 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(counts > 0, counts * np.log(probs), 0.0).sum(axis=-1)


def _log_odds(exp: CoinExperiment, counts: np.ndarray) -> np.ndarray:
    """ln(prior_a w_a) - ln((1 - prior_a) w_b) over the last axis; nan if w_a = w_b = 0."""
    log_a = math.log(exp.prior_a) + _log_weight(exp.p.probs, counts)
    log_b = math.log(1.0 - exp.prior_a) + _log_weight(exp.p2.probs, counts)
    with np.errstate(invalid="ignore"):
        return log_a - log_b


def log_likelihood_ratio(exp: CoinExperiment, counts) -> float:
    """ln of the likelihood ratio (coin 1 over coin 2) at the given counts.

    Counts may be real-valued; at counts_i = n * p_i this equals
    expected_log_ratio(exp) exactly.  Raises ZeroLikelihoodBoth when the
    counts are impossible under both coins.
    """
    arr = _vector(counts, "counts", size=exp.p.n)
    if np.any(arr < 0.0):
        raise ValidationError("counts must be nonnegative")
    log_ratio = float(_log_weight(exp.p.probs, arr)) - float(_log_weight(exp.p2.probs, arr))
    if math.isnan(log_ratio):
        raise ZeroLikelihoodBoth("counts are impossible under both coins")
    return log_ratio


def exact_posterior(exp: CoinExperiment, counts) -> PosteriorReport:
    """Posterior over the two coins given integer outcome counts of n tosses.

    Raises ZeroLikelihoodBoth when the counts are impossible under both coins.
    """
    arr = _vector(counts, "counts", size=exp.p.n, dtype=None)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError("counts must be integers")
    if np.any(arr < 0):
        raise ValidationError("counts must be nonnegative")
    if int(arr.sum()) != exp.n:
        raise ValidationError(f"counts sum to {int(arr.sum())}, expected n = {exp.n}")
    log_ratio = float(_log_odds(exp, arr))
    if math.isnan(log_ratio):
        raise ZeroLikelihoodBoth("counts are impossible under both coins")
    post_a = _posterior_from_log_ratio(log_ratio)
    return PosteriorReport(post_a, 1.0 - post_a, log_ratio)


def expected_log_ratio(exp: CoinExperiment) -> float:
    """Expected log likelihood ratio under coin 1: n * KL(p, p2)."""
    return exp.n * kl_divergence(exp.p, exp.p2)


def expansion_log_ratio(exp: CoinExperiment) -> float:
    """Second-order expansion of the expected log ratio: 2 n ds^2 evaluated
    as 2 * n * fisher_quadratic(p, p2 - p)."""
    dp = TangentVec(exp.p2.probs - exp.p.probs)
    return 2.0 * exp.n * fisher_quadratic(exp.p, dp)


def _posterior_from_log_ratio(z: float) -> float:
    # post_a for the posterior log odds z = ln(post_a / post_b)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def info_gain_exact(exp: CoinExperiment, u: EntropyFn = shannon_entropy) -> float:
    """Uncertainty drop U(1/2,1/2) - U(post) at the small-signal posterior
    ratio exp(2 n ds^2).  Nonnegative for any admissible U."""
    log_odds = expansion_log_ratio(exp) + math.log(exp.prior_a / (1.0 - exp.prior_a))
    post_a = _posterior_from_log_ratio(log_odds)
    return u(0.5, 0.5) - u(post_a, 1.0 - post_a)


def info_gain_approx(exp: CoinExperiment) -> float:
    """Leading-order Shannon gain (n * ds^2)^2 / 2."""
    x = 0.5 * expansion_log_ratio(exp)
    return 0.5 * x * x


@dataclass(frozen=True)
class MonteCarloSummary:
    """Posterior statistics over simulated datasets drawn from coin 1.

    mean_gain averages the per-dataset uncertainty drop U(1/2,1/2) - U(post);
    gain_at_mean_posterior evaluates the drop at the trial-averaged posterior,
    the statistic that tracks the small-signal closed form.  Standard errors
    accompany both (delta method for the latter).
    """

    trials: int
    seed: int
    mean_gain: float
    stderr_gain: float
    mean_post_a: float
    stderr_post_a: float
    gain_at_mean_posterior: float
    stderr_gain_at_mean_posterior: float


def monte_carlo_gain(
    exp: CoinExperiment,
    trials: int,
    seed: int,
    u: EntropyFn = shannon_entropy,
) -> MonteCarloSummary:
    """Simulate `trials` datasets of n tosses from coin 1 and summarize the
    posterior.  Trial t draws from substream t of seed, the stream of
    SeedSequence(seed).spawn(trials)[t], so results are reproducible bit for
    bit at a fixed seed and stable under batching.
    """
    trials = _integer(trials, "trials")
    if trials <= 0:
        raise ValidationError("trials must be positive")
    if exp.n > np.iinfo(np.int64).max:
        raise ValidationError(f"{exp.n} tosses exceed the sampler's limit of 2**63 - 1")
    counts = np.empty((trials, exp.p.n), dtype=np.int64)
    for t, rng in enumerate(substreams(seed, range(trials))):
        counts[t] = rng.multinomial(exp.n, exp.p.probs)
    base = u(0.5, 0.5)
    gains, posts = np.empty(trials), np.empty(trials)
    for t, log_ratio in enumerate(_log_odds(exp, counts).tolist()):
        posts[t] = post_a = _posterior_from_log_ratio(log_ratio)
        gains[t] = base - u(post_a, 1.0 - post_a)
    mean_gain = float(gains.mean())
    stderr_gain = float(gains.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    mean_post = float(posts.mean())
    stderr_post = float(posts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    gain_at_mean = base - u(mean_post, 1.0 - mean_post)
    # delta method: |dU/dpi_a| at the mean posterior, by central difference
    h = 1e-6
    lo = max(mean_post - h, 0.0)
    hi = min(mean_post + h, 1.0)
    slope = abs(u(hi, 1.0 - hi) - u(lo, 1.0 - lo)) / (hi - lo) if hi > lo else 0.0
    return MonteCarloSummary(
        trials=trials,
        seed=seed,
        mean_gain=mean_gain,
        stderr_gain=stderr_gain,
        mean_post_a=mean_post,
        stderr_post_a=stderr_post,
        gain_at_mean_posterior=gain_at_mean,
        stderr_gain_at_mean_posterior=slope * stderr_post,
    )
