"""Multi-period commitment mechanism that keeps one biased reviewer truthful.

The platform pre-announces, for every period and every state history, the
rating it will post after an initial low or high message.  The announced pair
is tilted toward the message's opposite mean by a history weight driven by
the likelihood ratio, calibrated so that misreporting never pays in
expectation for either bias.  Both the calibration and its per-period loss
are closed-form in the two separation integrals of the density pair.  The
actions are affine in the history ratio r and in 1/r, so the Monte Carlo
checks read a history's truthfulness sum from its sums of r and 1/r, taken in
one pass over the horizon (``_history_sums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import benchmarks
from ._rng import Moments, run_chunks
from .distributions import DistributionPair, Family, alpha_beta, log_likelihood_ratio
from .errors import DegenerateHorizon
from .game import GameConfig

# The geometric sums overflow double precision once horizon * gap^2 / sigma^2
# exceeds about 690 (normal case).  All formulas below are evaluated through
# the sums' logs and inverses, which underflow gracefully, so large horizons
# degrade to a loss of exactly 0.0 instead of failing.


def _log_geometric_sum(log_r: float, horizon: int) -> float:
    """log(1 + r + ... + r^(horizon-1)) from log r, finite for any r."""
    if log_r == 0.0:
        return math.log(horizon)
    if log_r > 0.0:   # r^(T-1) (1 - r^-T) / (1 - r^-1)
        return ((horizon - 1) * log_r
                + math.log(math.expm1(-horizon * log_r) / math.expm1(-log_r)))
    return math.log(math.expm1(horizon * log_r) / math.expm1(log_r))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_horizon(horizon) -> int:
    """``horizon`` as an int, if it is a whole number of periods, at least one."""
    if not isinstance(horizon, Integral) or isinstance(horizon, bool) or horizon < 1:
        raise ValueError(f"horizon must be >= 1 and an integer, got {horizon!r}")
    return int(horizon)   # a numpy unsigned horizon would wrap in -horizon


def _solve(p: float, gap: float, alpha: float, beta: float, horizon: int) -> tuple:
    """(lambda_low, lambda_high, per-period loss, log s_alpha, log s_beta),
    computed through the inverses of the two geometric sums s_alpha, s_beta."""
    t = float(horizon)
    log_a = _log_geometric_sum(math.log(alpha), horizon)
    log_b = _log_geometric_sum(math.log(beta), horizon)
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
    return lam_low, lam_high, loss, log_a, log_b


def _times(k: float, x: np.ndarray) -> np.ndarray:
    """k * x, or zeros for k = 0 even where x is inf (never 0 * inf)."""
    return k * x if k else np.zeros_like(x)


class _AffineActions:
    """Actions a_low = c_low + k_low r, a_high = c_high - k_high / r of ``coefficients``."""

    def actions_from_log_ratio(self, log_ratio):
        """Committed (low-message, high-message) ratings; vectorized."""
        c_low, k_low, c_high, k_high = self.coefficients
        ratio = np.exp(np.asarray(log_ratio, dtype=float))
        a_low, a_high = c_low + _times(k_low, ratio), c_high - _times(k_high, 1.0 / ratio)
        return (float(a_low), float(a_high)) if ratio.ndim == 0 else (a_low, a_high)

    def actions(self, history) -> tuple[float, float]:
        return self.actions_from_log_ratio(np.sum(log_likelihood_ratio(self.pair, history)))


@dataclass(frozen=True)
class CommitmentSchedule(_AffineActions):
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

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        low, high = 2.0 * (1.0 - self.p_high), 2.0 * self.p_high   # the multipliers' divisors
        return (self.pair.mu_low + self.lambda_low / low, self.lambda_high / low,
                self.pair.mu_high - self.lambda_high / high, self.lambda_low / high)


@dataclass(frozen=True)
class ConstantSchedule(_AffineActions):
    """History-independent committed actions (one-shot pattern over T periods)."""

    horizon: int
    pair: DistributionPair
    a_low: float
    a_high: float

    def __post_init__(self):
        _check_horizon(self.horizon)

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return self.a_low, 0.0, self.a_high, 0.0


def solve_schedule(config: GameConfig, horizon: int) -> CommitmentSchedule:
    """Solve the truthful commitment for one reviewer over ``horizon`` periods."""
    horizon = _check_horizon(horizon)
    if config.n_users != 1:
        raise ValueError("the commitment mechanism serves a single reviewer")
    if horizon == 1:
        raise DegenerateHorizon(
            "a one-period commitment pins both actions to the prior mean; "
            "use at least two periods"
        )
    alpha, beta = alpha_beta(config.pair)
    lam_low, lam_high, _, log_a, log_b = _solve(
        config.p_high, config.mean_gap, alpha, beta, horizon)
    return CommitmentSchedule(horizon, lam_low, lam_high, _exp(log_a), _exp(log_b),
                              alpha, beta, config.pair, config.p_high)


def evolving_loss(config: GameConfig, horizon: int) -> float:
    """Per-period system loss of the solved commitment mechanism.

    A single period cannot separate the messages, and with a zero mean gap
    there is nothing to separate, so both route to the blind-abandoning loss
    (0.0 for a zero gap, where the commitment system is singular).
    """
    horizon = _check_horizon(horizon)
    if horizon == 1 or config.mean_gap == 0.0:
        return benchmarks.abandon_scheme(config)[1]
    alpha, beta = alpha_beta(config.pair)
    # + 0.0 turns a loss that underflows to -0.0 into +0.0 and changes no other bit
    return _solve(config.p_high, config.mean_gap, alpha, beta, horizon)[2] + 0.0


def equal_variance_normal_loss(p_high: float, mean_gap: float, variance: float,
                               horizon: int) -> float:
    """Per-period loss for a normal pair with a shared variance."""
    horizon = _check_horizon(horizon)
    d2 = mean_gap**2
    if d2 == 0.0:
        return 0.0
    if horizon == 1:
        return p_high * (1.0 - p_high) * d2
    big_r = _exp(_log_geometric_sum(d2 / variance, horizon) - math.log(horizon))
    return d2 / (big_r - 1.0 + 1.0 / (p_high * (1.0 - p_high)))


def crossover_threshold(config: GameConfig, horizon: int) -> float:
    """Largest (continuous) reviewer count at which the commitment mechanism
    still beats worst-equilibrium game learning, for an equal-variance normal
    pair."""
    pair = config.pair
    if not (pair.low.family is Family.NORMAL and pair.high.family is Family.NORMAL
            and pair.low.scale == pair.high.scale):
        raise ValueError("the crossover formula needs an equal-variance normal pair")
    horizon = _check_horizon(horizon)
    d2 = config.mean_gap**2
    if d2 == 0.0:
        return 0.0
    p = config.p_high
    big_r = _exp(_log_geometric_sum(d2 / pair.low.scale**2, horizon) - math.log(horizon))
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


def _history_sums(schedule, states: np.ndarray, high: bool | None = None):
    """One pass over each row of ``states``, (count, T - 1) or (count, T): the IC
    difference sum_t (a_low - a_high)(r_t) = T (c_low - c_high) + k_low sum r_t
    + k_high sum 1/r_t, r_t the ratio of the first t states (r_0 = 1), and,
    given the message ``high``, the squared error of that message's actions.
    With both k = 0 no action reads the history, and no ratio is taken."""
    horizon = schedule.horizon
    c_low, k_low, c_high, k_high = schedule.coefficients
    moves = bool(k_low or k_high)
    steps = log_likelihood_ratio(schedule.pair, states[:, : horizon - 1]) if moves else None
    count = len(states)
    sum_r, sum_inv, log_r = np.ones(count), np.ones(count), np.zeros(count)   # r_0 = 1
    ratio = inv = sum_r   # read only through a zero k while nothing moves
    c, k = (c_high, -k_high) if high else (c_low, k_low)   # action c + k/r or c + k r
    error = None if high is None else (states[:, 0] - (c + k)) ** 2
    for t in range(1, horizon):
        if moves:
            log_r += steps[:, t - 1]
            ratio = np.exp(log_r)
            inv = 1.0 / ratio
            sum_r += ratio
            sum_inv += inv
        if error is not None:
            error += (states[:, t] - c - _times(k, inv if high else ratio)) ** 2
    diff = horizon * (c_low - c_high) + _times(k_low, sum_r) + _times(k_high, sum_inv)
    return diff, error


def verify_ic(schedule, mc_episodes: int, seed: int) -> IcResiduals:
    """Estimate all four truthfulness residuals of a schedule by simulation.

    ``schedule`` may be any object exposing ``horizon``, ``pair`` and the
    ``coefficients`` of its affine actions.  Histories are simulated separately
    under each density with independent deterministic substreams.
    """
    def differences(dist):   # moments of sum_t (a_low - a_high)(r_t) under ``dist``
        return lambda count, rng: (Moments.of(_history_sums(
            schedule, dist.sample(rng, (count, schedule.horizon - 1)))[0]),)

    low_entropy, high_entropy = np.random.SeedSequence(seed).spawn(2)
    (low,) = run_chunks(low_entropy, mc_episodes, differences(schedule.pair.low))
    (high,) = run_chunks(high_entropy, mc_episodes, differences(schedule.pair.high))
    return IcResiduals._from_moments(low, high, mc_episodes, seed)
