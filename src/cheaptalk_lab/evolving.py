"""Multi-period commitment mechanism that keeps one biased reviewer truthful.

The platform pre-announces, for every period and every state history, the
rating it will post after an initial low or high message.  The announced pair
is tilted toward the message's opposite mean by a history weight driven by
the likelihood ratio, calibrated so that misreporting never pays in
expectation for either bias.  Both the calibration and its per-period loss
are closed-form in the excess sums e = sum_{t<T} (r^t - 1) >= 0 of the two
separation integrals r, taken from log r (``_excess``), so nothing cancels as
the densities meet, and nothing overflows as they part.  Every schedule,
solved or built by hand, is affine in the history ratio r and in 1/r, so the
Monte Carlo checks read a history's truthfulness sum from its sums of r and
1/r, taken in one pass (``_history_sums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import benchmarks
from ._rng import Moments, history_chunk, run_chunks
from .distributions import (DistributionPair, Family, alpha_beta, log_alpha_beta,
                            log_likelihood_ratio)
from .errors import DegenerateHorizon
from .game import GameConfig, _check_chance, _check_count, _check_gap

# 1/(k+2)!, k = 16 ... 0: the Taylor series of h(x) = (e^x - 1 - x) / x^2 to
# double precision for 0 <= x <= 1
_H_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(16, -1, -1))


def _excess(log_r: float, horizon: int) -> tuple[float, float]:
    """(e, log e), e = sum_{t<T} (r^t - 1) = (g(T L) - T g(L)) / expm1(L) with
    L = log r and g(x) = e^x - 1 - x; the two g terms never cancel by more than
    about a factor of 3.  A log r <= 0, which a separation integral reaches only
    by rounding, and T = 1 give e = 0, log e = -inf.  Past T L = 700, where e
    soon overflows, it is the exp of its log, finite short of an infinite log r."""
    if log_r <= 0.0 or horizon == 1:
        return 0.0, -math.inf
    if log_r == math.inf:
        return math.inf, math.inf
    x = horizon * log_r
    if x <= 1.0:   # e = x q, q = (L / expm1(L)) (T h(x) - h(L)) > 1/3: x q is never 0
        h_x = h_l = 0.0
        for c in _H_SERIES:
            h_x, h_l = h_x * x + c, h_l * log_r + c
        e = x * (log_r / math.expm1(log_r) * (horizon * h_x - h_l))
    elif x < 700.0:
        g_x, g_l = math.expm1(x) - x, math.expm1(log_r) - log_r
        e = (g_x - horizon * g_l) / math.expm1(log_r)
    else:   # e expm1(L) = e^x (1 + (T - 1) e^-x - T e^(L - x))
        log_e = (x + math.log1p((horizon - 1) * math.exp(-x) - horizon * math.exp(log_r - x))
                 - log_r - math.log(-math.expm1(-log_r)))
        return _exp(log_e), log_e
    return e, math.log(e)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _solve(p: float, gap: float, log_alpha: float, log_beta: float, horizon: int) -> tuple:
    """(lambda_low, lambda_high, loss) of log alpha and log beta.

    With y = T / e of each excess sum and x = p y_alpha + (1 - p) y_beta, the
    loss is p(1-p) gap^2 x / (x + p(1-p)), and lambda_low and lambda_high are
    2 p(1-p) gap times the shares p y_alpha and (1 - p) y_beta of x + p(1-p).
    y is read from log e where e overflows, so large horizons give a loss of
    exactly 0.0 even where gap^2 is inf; an e of 0 gives y = inf, and the shares
    their limit in y.
    """
    pq = p * (1.0 - p)
    y_a, y_b = (horizon / e if 0.0 < e < math.inf else horizon * _exp(-log_e)
                for e, log_e in (_excess(log_alpha, horizon), _excess(log_beta, horizon)))
    x = p * y_a + (1.0 - p) * y_b
    if x < math.inf:
        share_a, share_b, share = p * y_a / (x + pq), (1.0 - p) * y_b / (x + pq), x / (x + pq)
    else:
        share_a, share_b, share = float(y_b < math.inf), float(y_a < math.inf), 1.0
    two_pq_gap, loss = 2.0 * pq * gap, (pq * (gap * gap) * share if share else 0.0)
    return two_pq_gap * share_a, two_pq_gap * share_b, loss


def _times(k: float, x: np.ndarray) -> np.ndarray:
    """k * x, or zeros for k = 0 even where x is inf (never 0 * inf)."""
    return k * x if k else np.zeros_like(x)


@dataclass(frozen=True)
class CommitmentSchedule:
    """``coefficients`` (c_low, k_low, c_high, k_high) rate a low message
    c_low + k_low r and a high one c_high - k_high / r, r the history's
    likelihood ratio.  A schedule built by hand gives them and no prior.  A
    solved one gives its prior ``p_high`` and the multipliers ``lambda_low``
    and ``lambda_high`` instead, and its coefficients follow from those here,
    replacing any given, so a replaced multiplier moves the actions."""

    horizon: int
    pair: DistributionPair
    coefficients: tuple[float, float, float, float] | None = None
    p_high: float | None = None
    lambda_low: float | None = None
    lambda_high: float | None = None

    def __post_init__(self):
        _check_count("horizon", self.horizon)
        if self.p_high is not None:
            p, pair = _check_chance("p_high", self.p_high), self.pair
            lam_low = _check_gap("lambda_low", self.lambda_low)
            lam_high = _check_gap("lambda_high", self.lambda_high)
            low, high = 2.0 * (1.0 - p), 2.0 * p   # the multipliers' divisors
            object.__setattr__(self, "coefficients", (
                pair.mu_low + lam_low / low, lam_high / low,
                pair.mu_high - lam_high / high, lam_low / high))
        elif self.coefficients is None or (self.lambda_low, self.lambda_high) != (None, None):
            raise ValueError("a schedule takes its coefficients, or a prior and its multipliers")
        for name, value in zip(("c_low", "k_low", "c_high", "k_high"), self.coefficients,
                               strict=True):
            _check_gap(name, value)

    alpha = property(lambda self: alpha_beta(self.pair)[0], doc="The pair's integral alpha.")
    beta = property(lambda self: alpha_beta(self.pair)[1], doc="The pair's integral beta.")

    def actions_from_log_ratio(self, log_ratio):
        """Committed (low-message, high-message) ratings; vectorized."""
        c_low, k_low, c_high, k_high = self.coefficients
        ratio = np.exp(np.asarray(log_ratio, dtype=float))
        a_low, a_high = c_low + _times(k_low, ratio), c_high - _times(k_high, 1.0 / ratio)
        return (float(a_low), float(a_high)) if ratio.ndim == 0 else (a_low, a_high)

    def actions(self, history) -> tuple[float, float]:
        """Committed ratings after ``history``, the states of the periods before
        this one: a 1-D sequence of fewer than ``horizon`` of them."""
        history = np.asarray(history, dtype=float)
        if history.ndim != 1 or history.size >= self.horizon:
            raise ValueError(f"a history of shape {history.shape} is not a 1-D sequence "
                             f"of fewer than the horizon {self.horizon} states")
        return self.actions_from_log_ratio(np.sum(log_likelihood_ratio(self.pair, history)))


def _single_reviewer(config: GameConfig) -> None:
    if config.n_users != 1:
        raise ValueError("the commitment mechanism serves a single reviewer")


def solve_schedule(config: GameConfig, horizon: int) -> CommitmentSchedule:
    """Solve the truthful commitment for one reviewer over ``horizon`` periods."""
    horizon = _check_count("horizon", horizon)
    _single_reviewer(config)
    if horizon == 1:
        raise DegenerateHorizon("a one-period commitment pins both actions to the "
                                "prior mean; use at least two periods")
    log_alpha, log_beta = log_alpha_beta(config.pair)
    if max(log_alpha, log_beta) <= 0.0:   # both excess sums are 0, their logs -inf
        raise DegenerateHorizon(f"nothing to separate: the logs {log_alpha!r} and "
                                f"{log_beta!r} of the separation integrals are not above 0")
    lam_low, lam_high, _ = _solve(config.p_high, config.mean_gap, log_alpha, log_beta, horizon)
    return CommitmentSchedule(horizon, config.pair, p_high=config.p_high,
                              lambda_low=lam_low, lambda_high=lam_high)


def evolving_loss(config: GameConfig, horizon: int) -> float:
    """Per-period system loss of the solved commitment mechanism.

    A single period cannot separate the messages, and with a zero mean gap
    there is nothing to separate, so both return the blind-abandoning loss
    (0.0 for a zero gap) before the separation integrals are taken.  As the
    densities meet, the loss rises continuously to the abandoning loss.
    """
    horizon = _check_count("horizon", horizon)
    if horizon == 1 or config.mean_gap == 0.0:
        return benchmarks.abandon_scheme(config)[1]
    return _solve(config.p_high, config.mean_gap, *log_alpha_beta(config.pair), horizon)[2]


def equal_variance_normal_loss(p_high: float, mean_gap: float, variance: float,
                               horizon: int) -> float:
    """Per-period loss for a normal pair with a shared variance."""
    horizon = _check_count("horizon", horizon)
    p = _check_chance("p_high", p_high)
    _check_gap("mean_gap", mean_gap)
    if not 0.0 < variance < math.inf:
        raise ValueError(f"variance must be positive and finite, got {variance!r}")
    log_r = mean_gap * (mean_gap / variance)   # log alpha = log beta for a shared variance
    return _solve(p, mean_gap, log_r, log_r, horizon)[2]


def crossover_threshold(config: GameConfig, horizon: int) -> float:
    """Largest (continuous) reviewer count at which the commitment mechanism
    still beats worst-equilibrium game learning, for an equal-variance normal
    pair."""
    pair = config.pair
    if not (pair.low.family is Family.NORMAL and pair.high.family is Family.NORMAL
            and pair.low.scale == pair.high.scale):
        raise ValueError("the crossover formula needs an equal-variance normal pair")
    horizon = _check_count("horizon", horizon)
    p, ratio = config.p_high, config.mean_gap / pair.low.scale
    # log1p(max(p, 1 - p) e / T) = log1p(exp(z)), past the overflow of e / T too
    z = math.log(max(p, 1.0 - p)) - math.log(horizon) + _excess(ratio * ratio, horizon)[1]
    return (max(z, 0.0) + math.log1p(math.exp(-abs(z)))) / math.log(2.0)


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
    Under one density the two biases forgo opposite amounts, so two are stored:
    ``positive_low`` and ``negative_high``, the sums under the low and high density.
    """

    positive_low: IcResidual
    negative_high: IcResidual
    episodes: int
    seed: int

    @property
    def positive_high(self) -> IcResidual:
        return IcResidual(-self.negative_high.value, self.negative_high.stderr)

    @property
    def negative_low(self) -> IcResidual:
        return IcResidual(-self.positive_low.value, self.positive_low.stderr)

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
        return cls(IcResidual(*low.mean_stderr()), IcResidual(*high.mean_stderr()),
                   episodes, seed)


def _history_sums(schedule, states: np.ndarray, high: bool | None = None):
    """One pass over the rows of ``states``, (T - 1, count) or (T, count), one
    period per row: each column's IC difference sum_t (a_low - a_high)(r_t) =
    T (c_low - c_high) + k_low sum r_t + k_high sum 1/r_t, r_t the ratio of the
    first t states (r_0 = 1), and, given the message ``high``, the squared error
    of its actions.  With both k = 0 no action reads the history, and no ratio is taken."""
    horizon = schedule.horizon
    c_low, k_low, c_high, k_high = schedule.coefficients
    moves = bool(k_low or k_high)
    steps = log_likelihood_ratio(schedule.pair, states[: horizon - 1]) if moves else None
    count = states.shape[1]
    sum_r, sum_inv, log_r = np.ones(count), np.ones(count), np.zeros(count)   # r_0 = 1
    ratio = inv = sum_r   # read only through a zero k while nothing moves
    c, k = (c_high, -k_high) if high else (c_low, k_low)   # action c + k/r or c + k r
    error = None if high is None else (states[0] - (c + k)) ** 2
    for t in range(1, horizon):
        if moves:
            log_r += steps[t - 1]
            ratio = np.exp(log_r)
            inv = 1.0 / ratio
            sum_r += ratio
            sum_inv += inv
        if error is not None:
            error += (states[t] - c - _times(k, inv if high else ratio)) ** 2
    diff = horizon * (c_low - c_high) + _times(k_low, sum_r) + _times(k_high, sum_inv)
    return diff, error


def verify_ic(schedule: CommitmentSchedule, mc_episodes: int, seed: int) -> IcResiduals:
    """Estimate the truthfulness residuals of a schedule by simulation.

    It reads only the schedule's ``horizon``, ``pair`` and ``coefficients``,
    solved or built by hand.  Histories are simulated separately under each
    density with independent deterministic substreams, as (T - 1, count) blocks
    of one row per period, of at most 2^20 states past T = 32 (``_rng.history_chunk``).
    """
    def differences(dist):   # moments of sum_t (a_low - a_high)(r_t) under ``dist``
        return lambda count, rng: (Moments.of(_history_sums(
            schedule, dist.sample(rng, (schedule.horizon - 1, count)))[0]),)

    mc_episodes = _check_count("mc_episodes", mc_episodes)
    low_entropy, high_entropy = np.random.SeedSequence(seed).spawn(2)
    size = history_chunk(schedule.horizon)
    (low,) = run_chunks(low_entropy, mc_episodes, differences(schedule.pair.low), size=size)
    (high,) = run_chunks(high_entropy, mc_episodes, differences(schedule.pair.high), size=size)
    return IcResiduals._from_moments(low, high, mc_episodes, seed)
