"""Multi-period commitment mechanism that keeps one biased reviewer truthful.

The platform pre-announces, for every period and every state history, the
rating it will post after an initial low or high message.  The announced pair
is tilted toward the message's opposite mean by a history weight driven by
the likelihood ratio, calibrated so that misreporting never pays in
expectation for either bias.  Both the calibration and its per-period loss
are closed-form in the two separation integrals of the density pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import Moments, chunked_generators
from .distributions import (DistributionPair, Family, alpha_beta,
                            history_log_likelihood_ratio, log_likelihood_ratio)
from .errors import DegenerateHorizon
from .game import GameConfig

# The geometric sums overflow double precision once horizon * gap^2 / sigma^2
# exceeds about 690 (normal case).  All formulas below are evaluated through
# the sums' inverses, which underflow gracefully, so large horizons degrade to
# a loss of exactly 0.0 instead of failing.


def _log_geometric_sum(ratio: float, horizon: int) -> float:
    """log(1 + ratio + ... + ratio^(horizon-1)), stable for large ratios."""
    if ratio == 1.0:
        return math.log(horizon)
    if ratio > 1.0:
        log_r = math.log(ratio)
        return horizon * log_r + math.log1p(-math.exp(-horizon * log_r)) - math.log(ratio - 1.0)
    return math.log((1.0 - ratio**horizon) / (1.0 - ratio))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class _Solution:
    lambda_low: float
    lambda_high: float
    loss: float
    log_s_alpha: float
    log_s_beta: float


def _solve(p: float, gap: float, alpha: float, beta: float, horizon: int) -> _Solution:
    """Multipliers and per-period loss, computed through inverse sums."""
    t = float(horizon)
    log_a = _log_geometric_sum(alpha, horizon)
    log_b = _log_geometric_sum(beta, horizon)
    inv_a = math.exp(-log_a)
    inv_b = math.exp(-log_b)
    inv_ab = math.exp(-(log_a + log_b))

    # original denominator divided by (s_alpha * s_beta)
    terms = (
        -p * (1.0 - p),
        -((1.0 - p) ** 2) * t * inv_b,
        -(p**2) * t * inv_a,
        (p * p - p + 1.0) * t * t * inv_ab,
    )
    den = sum(terms)
    scale = sum(abs(x) for x in terms)
    if abs(den) < 1e-12 * scale or scale == 0.0:
        raise DegenerateHorizon(
            f"commitment system is singular at horizon {horizon} "
            f"(separation {alpha:.6g}, {beta:.6g})"
        )

    lam_low = 2.0 * (1.0 - p) * p * p * t * gap * (t * inv_ab - inv_a) / den
    lam_high = 2.0 * (1.0 - p) ** 2 * p * t * gap * (t * inv_ab - inv_b) / den
    loss = ((1.0 - p) * p * t * gap**2
            * ((p - 1.0) * inv_b - p * inv_a + t * inv_ab) / den)
    return _Solution(lam_low, lam_high, loss, log_a, log_b)


@dataclass(frozen=True)
class CommitmentSchedule:
    """Solved multi-period commitment: multipliers, sums, and action maps."""

    horizon: int
    lambda_low: float
    lambda_high: float
    s_alpha: float
    s_beta: float
    alpha: float
    beta: float
    pair: DistributionPair
    p_high: float

    def actions_from_log_ratio(self, log_ratio):
        """Committed (low-message, high-message) ratings; vectorized."""
        log_ratio = np.asarray(log_ratio, dtype=float)
        ratio = np.exp(log_ratio)
        inv_ratio = np.exp(-log_ratio)
        a_low = (self.pair.mu_low
                 + (ratio * self.lambda_high + self.lambda_low)
                 / (2.0 * (1.0 - self.p_high)))
        a_high = (self.pair.mu_high
                  - (self.lambda_high + self.lambda_low * inv_ratio)
                  / (2.0 * self.p_high))
        if log_ratio.ndim == 0:
            return float(a_low), float(a_high)
        return a_low, a_high

    def actions(self, history) -> tuple[float, float]:
        return self.actions_from_log_ratio(
            history_log_likelihood_ratio(self.pair, history))


@dataclass(frozen=True)
class ConstantSchedule:
    """History-independent committed actions (one-shot pattern over T periods)."""

    horizon: int
    pair: DistributionPair
    a_low: float
    a_high: float

    def actions_from_log_ratio(self, log_ratio):
        log_ratio = np.asarray(log_ratio, dtype=float)
        if log_ratio.ndim == 0:
            return self.a_low, self.a_high
        return (np.full(log_ratio.shape, self.a_low),
                np.full(log_ratio.shape, self.a_high))

    def actions(self, history) -> tuple[float, float]:
        return self.a_low, self.a_high


def solve_schedule(config: GameConfig, horizon: int) -> CommitmentSchedule:
    """Solve the truthful commitment for one reviewer over ``horizon`` periods."""
    if config.n_users != 1:
        raise ValueError("the commitment mechanism serves a single reviewer")
    if horizon < 2:
        raise DegenerateHorizon(
            "a one-period commitment pins both actions to the prior mean; "
            "use at least two periods"
        )
    alpha, beta = alpha_beta(config.pair)
    sol = _solve(config.p_high, config.mean_gap, alpha, beta, horizon)
    return CommitmentSchedule(
        horizon=horizon,
        lambda_low=sol.lambda_low,
        lambda_high=sol.lambda_high,
        s_alpha=_exp(sol.log_s_alpha),
        s_beta=_exp(sol.log_s_beta),
        alpha=alpha,
        beta=beta,
        pair=config.pair,
        p_high=config.p_high,
    )


def evolving_loss(config: GameConfig, horizon: int) -> float:
    """Per-period system loss of the solved commitment mechanism.

    A single period cannot separate the messages, so ``horizon=1`` routes to
    the blind-abandoning loss.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    p = config.p_high
    if horizon == 1:
        return p * (1.0 - p) * config.mean_gap**2
    alpha, beta = alpha_beta(config.pair)
    # + 0.0 turns a loss that underflows to -0.0 into +0.0 and changes no other bit
    return _solve(p, config.mean_gap, alpha, beta, horizon).loss + 0.0


def equal_variance_normal_loss(p_high: float, mean_gap: float, variance: float,
                               horizon: int) -> float:
    """Per-period loss for a normal pair with a shared variance."""
    d2 = mean_gap**2
    if d2 == 0.0:
        return 0.0
    if horizon == 1:
        return p_high * (1.0 - p_high) * d2
    big_r = _exp_ratio(d2 / variance, horizon)
    return d2 / (big_r - 1.0 + 1.0 / (p_high * (1.0 - p_high)))


def _exp_ratio(rate: float, horizon: int) -> float:
    """(e^(T*rate) - 1) / (T (e^rate - 1)); equals 1 in the zero-rate limit."""
    if rate == 0.0:
        return 1.0
    t = float(horizon)
    if t * rate < 700.0:
        return math.expm1(t * rate) / (t * math.expm1(rate))
    log_num = t * rate + math.log1p(-math.exp(-t * rate))
    log_den = math.log(t) + rate + math.log1p(-math.exp(-rate))
    log_ratio = log_num - log_den
    return math.exp(log_ratio) if log_ratio < 700.0 else math.inf


def crossover_threshold(config: GameConfig, horizon: int) -> float:
    """Largest (continuous) reviewer count at which the commitment mechanism
    still beats worst-equilibrium game learning, for an equal-variance normal
    pair."""
    pair = config.pair
    if not (pair.low.family is Family.NORMAL and pair.high.family is Family.NORMAL
            and pair.low.scale == pair.high.scale):
        raise ValueError("the crossover formula needs an equal-variance normal pair")
    d2 = config.mean_gap**2
    if d2 == 0.0:
        return 0.0
    p = config.p_high
    big_r = _exp_ratio(d2 / pair.low.scale**2, horizon)
    return max(math.log2(p * big_r + (1.0 - p)),
               math.log2((1.0 - p) * big_r + p))


# ---------------------------------------------------------------------------
# incentive-compatibility verification


@dataclass(frozen=True)
class IcResidual:
    value: float
    stderr: float


@dataclass(frozen=True)
class IcResiduals:
    """Monte Carlo estimates of the four truthfulness constraints.

    Each is the horizon sum of the expected committed-action difference that
    the named bias forgoes by misreporting under the named density; all must
    be nonnegative, and at the solved schedule all four are exactly zero.
    """

    positive_low: IcResidual
    positive_high: IcResidual
    negative_low: IcResidual
    negative_high: IcResidual
    episodes: int
    seed: int

    @property
    def binding(self) -> tuple[IcResidual, IcResidual]:
        """The two constraints the solver pinned to equality."""
        return self.positive_low, self.negative_high

    def as_list(self) -> list[IcResidual]:
        return [self.positive_low, self.positive_high,
                self.negative_low, self.negative_high]

    @classmethod
    def _from_moments(cls, low: Moments, high: Moments, episodes: int,
                     seed: int) -> "IcResiduals":
        """Residuals from the moments of sum_k (a_low - a_high)(h_{k-1}) over
        histories drawn from the low and from the high density."""
        mean_low, se_low = low.mean_stderr()
        mean_high, se_high = high.mean_stderr()
        return cls(
            positive_low=IcResidual(mean_low, se_low),
            positive_high=IcResidual(-mean_high, se_high),
            negative_low=IcResidual(-mean_low, se_low),
            negative_high=IcResidual(mean_high, se_high),
            episodes=episodes,
            seed=seed,
        )


def _prefix_log_ratios(pair: DistributionPair, histories) -> np.ndarray:
    """Log likelihood ratio of every prefix of each row's history.

    A (rows, k) array of states gives (rows, k + 1) log ratios, the empty
    prefix (log ratio 0) first.
    """
    steps = log_likelihood_ratio(pair, histories)
    return np.concatenate(
        [np.zeros((len(histories), 1)), np.cumsum(steps, axis=1)], axis=1)


def _difference_sums(schedule, dist, episodes: int, seed_seq) -> Moments:
    """Moments of sum_k (a_low - a_high)(h_{k-1}) over histories drawn from
    ``dist``."""
    acc = Moments()
    for count, rng in chunked_generators(seed_seq, episodes):
        draws = dist.sample(rng, (count, schedule.horizon - 1))
        a_low, a_high = schedule.actions_from_log_ratio(
            _prefix_log_ratios(schedule.pair, draws))
        acc += Moments.of(np.sum(a_low - a_high, axis=1))
    return acc


def verify_ic(schedule, mc_episodes: int, seed: int) -> IcResiduals:
    """Estimate all four truthfulness residuals of a schedule by simulation.

    ``schedule`` may be any object exposing ``horizon``, ``pair`` and
    ``actions_from_log_ratio``.  Histories are simulated separately under
    each density with independent deterministic substreams.
    """
    root = np.random.SeedSequence(seed)
    low_seq, high_seq = root.spawn(2)
    pair = schedule.pair
    return IcResiduals._from_moments(
        _difference_sums(schedule, pair.low, mc_episodes, low_seq),
        _difference_sums(schedule, pair.high, mc_episodes, high_seq),
        mc_episodes, seed)
