"""One-shot rating game: strategies, posteriors, inference rules, payoffs.

Reviewers observe a binary quality type and message it (possibly untruthfully)
to the platform; the platform maps the count of high messages to a continuous
rating.  Given the type the count is binomial, and one log-space kernel of it
(``_CountKernel``: coefficients from lgamma, chances from log q and log1p(-q))
yields every quantity here and in ``equilibrium``, finite at any N.  Every sum
in linear space is over its ``window``, in time and memory of order sqrt(N).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .distributions import DistributionPair


class ServiceType(Enum):
    LOW = "L"
    HIGH = "H"


class Bias(Enum):
    """A reviewer's private preference direction for the platform's rating."""

    NEGATIVE = -1
    POSITIVE = 1


class PureStrategy(Enum):
    """Sent message by observed type; the value is (sends high under HIGH, under LOW)."""

    HONEST = (True, False)
    BLIND_HIGH = (True, True)
    BLIND_LOW = (False, False)
    REVERSED = (False, True)

    def sends_high(self, observed: ServiceType) -> bool:
        return self.value[observed is ServiceType.LOW]

    def message(self, observed: ServiceType) -> ServiceType:
        return ServiceType.HIGH if self.sends_high(observed) else ServiceType.LOW


@dataclass(frozen=True)
class StrategyProfile:
    """One pure strategy per bias, shared by all reviewers of that bias."""

    negative: PureStrategy
    positive: PureStrategy

    def strategy_for(self, bias: Bias) -> PureStrategy:
        return self.negative if bias is Bias.NEGATIVE else self.positive

    def with_strategy(self, bias: Bias, strategy: PureStrategy) -> "StrategyProfile":
        if bias is Bias.NEGATIVE:
            return replace(self, negative=strategy)
        return replace(self, positive=strategy)


_H = PureStrategy.HONEST
_BH = PureStrategy.BLIND_HIGH
_BL = PureStrategy.BLIND_LOW
_R = PureStrategy.REVERSED

SC1 = StrategyProfile(_BL, _H)
SC2 = StrategyProfile(_H, _BH)
SC3 = StrategyProfile(_BH, _R)
SC4 = StrategyProfile(_R, _BL)
SC5 = StrategyProfile(_R, _H)
SC6 = StrategyProfile(_H, _R)
SC7 = StrategyProfile(_H, _H)
SC8 = StrategyProfile(_BH, _BH)
SC9 = StrategyProfile(_BH, _BL)
SC10 = StrategyProfile(_BL, _BL)
SC11 = StrategyProfile(_BL, _BH)
SC12 = StrategyProfile(_BH, _H)
SC13 = StrategyProfile(_BL, _R)
SC14 = StrategyProfile(_H, _BL)
SC15 = StrategyProfile(_R, _BH)
SC16 = StrategyProfile(_R, _R)

ALL_PROFILES = (SC1, SC2, SC3, SC4, SC5, SC6, SC7, SC8, SC9, SC10, SC11,
                SC12, SC13, SC14, SC15, SC16)
PROFILE_LABELS = {p: f"SC{i}" for i, p in enumerate(ALL_PROFILES, start=1)}
PROFILES_BY_LABEL = {label: p for p, label in PROFILE_LABELS.items()}


def _check_count(name: str, value) -> int:
    """``value`` as an int, if it is a whole number, not a bool, at least one."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be >= 1 and an integer, got {value!r}")
    return int(value)   # a numpy unsigned count would wrap in arithmetic


def _check_chance(name: str, value: float) -> float:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")
    return value


def _check_gap(name: str, value: float) -> float:
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class GameConfig:
    """Full parameterization of one game instance."""

    n_users: int
    p_high: float
    q_plus: float
    pair: DistributionPair

    def __post_init__(self):
        _check_count("n_users", self.n_users)
        _check_chance("p_high", self.p_high)
        _check_chance("q_plus", self.q_plus)

    @property
    def mu_low(self) -> float:
        return self.pair.mu_low

    @property
    def mu_high(self) -> float:
        return self.pair.mu_high

    @property
    def mean_gap(self) -> float:
        return self.pair.mean_gap

    @property
    def prior_mean(self) -> float:
        return self.p_high * self.mu_high + (1.0 - self.p_high) * self.mu_low

    def bias_prob(self, bias: Bias) -> float:
        return self.q_plus if bias is Bias.POSITIVE else 1.0 - self.q_plus

    def type_prob(self, service: ServiceType) -> float:
        return self.p_high if service is ServiceType.HIGH else 1.0 - self.p_high


@dataclass(frozen=True)
class InferenceRule:
    """Platform rating as a function of the count k of high messages."""

    actions: tuple[float, ...]

    def __call__(self, k: int) -> float:
        return self.actions[k]

    @functools.cached_property
    def action_array(self) -> np.ndarray:
        """``actions`` as a read-only float array, built once per rule."""
        array = np.array(self.actions, dtype=float)
        array.flags.writeable = False
        return array

    @property
    def n_users(self) -> int:
        return len(self.actions) - 1


def min_expected_cost(config: GameConfig) -> float:
    """Cost floor attained when the platform knows the realized density."""
    return (config.p_high * config.pair.high.variance
            + (1.0 - config.p_high) * config.pair.low.variance)


def _senders(profile: StrategyProfile, service: ServiceType) -> tuple[bool, bool]:
    """Whether the positive and the negative class message high under ``service``."""
    return (profile.positive.sends_high(service), profile.negative.sends_high(service))


def _chance(q, flags: tuple[bool, bool]):
    """A reviewer's chance of messaging high, h = q [positive class sends high]
    + (1 - q) [negative class sends high], for a float or a ``Decimal`` q;
    q + (1 - q) rounds to exactly 1 in floats."""
    positive, negative = flags
    return q * positive + (1 - q) * negative


_LOG_TAIL = -65 * math.log(2.0)   # each side of a window drops under 2^-65


class _CountKernel:
    """The count of high messages in one game (N, p, q), in log space.

    Given the type, the count k = 0..N is binomial with log pmf
    ``log_comb + powers(flags)``; ``others`` is the kernel of the N - 1 others
    of one reviewer.  h is formed from log q and log1p(-q), never from the
    float 1 - q, and the binomial coefficients from lgamma, so every term is
    finite at any N.
    """

    def __init__(self, n: int, p: float, q: float):
        self.n, self.p, self.q = n, p, q
        lq, lc = math.log(q), math.log1p(-q)
        self.log_chance = {(False, False): (-math.inf, 0.0), (True, False): (lq, lc),
                           (False, True): (lc, lq), (True, True): (0.0, -math.inf)}
        self.log_prior = (math.log(p), math.log1p(-p))

    @functools.cached_property
    def log_factorial(self) -> np.ndarray:   # log k!, k = 0..N
        return np.array([math.lgamma(i + 1.0) for i in range(self.n + 1)])

    @functools.cached_property
    def log_comb(self) -> np.ndarray:   # log C(N, k)
        lg = self.log_factorial
        return lg[self.n] - lg - lg[::-1]

    @functools.cached_property
    def others(self) -> _CountKernel:
        """The kernel of N - 1 reviewers, on a view of this one's lgamma table."""
        others = _CountKernel(self.n - 1, self.p, self.q)
        others.log_factorial = self.log_factorial[:self.n]
        return others

    @functools.cached_property
    def _rows(self) -> np.ndarray:   # the powers of h = 0 and of h = q, read only
        k, (lq, lc) = np.arange(self.n + 1.0), self.log_chance[True, False]
        rows = np.full((2, self.n + 1), -math.inf)
        rows[0, 0] = 0.0
        np.add(k * lq, (self.n - k) * lc, out=rows[1])
        rows.flags.writeable = False
        return rows

    def powers(self, flags: tuple[bool, bool]) -> np.ndarray:
        """log h^k (1 - h)^(N - k) for k = 0..N.  As k -> N - k swaps h and 1 - h,
        h = 1 and h = 1 - q read the rows of h = 0 and h = q reversed, bit for bit."""
        positive, negative = flags
        row = self._rows[int(positive != negative)]
        return row[::-1] if negative else row

    def window(self, flags: tuple[bool, bool]) -> tuple[int, np.ndarray]:
        """(lo, pmf): the pmf on the counts lo..lo + len(pmf) - 1 about the
        mode that hold all but 2^-64 of the mass, divided by its own sum.

        Its log terms are log C from lgamma at lo, then a cumulative sum of
        the steps log((N - k)/(k + 1)) + log h - log(1 - h).  The run spans
        9.7 standard deviations (a normal tail of 2^-65 starts at 9.1) and 32
        counts each side of the mode, doubled until each end is 0 or N or
        bounds the mass past it under 2^-65; it is returned whole.  The pmf is
        log-concave, so that mass is at most the end's term times rho/(1 - rho),
        rho its ratio to the term inside, under 1 as the end is 32 counts or
        more from the mode; the bound is smallest at the ends.
        """
        n, (lh, lc) = self.n, self.log_chance[flags]
        if lh == -math.inf or lc == -math.inf:   # h is 0 or 1: one count
            return (0 if lh == -math.inf else n), np.ones(1)
        mode = min(n, math.floor((n + 1) * math.exp(lh)))
        width = 32 + math.ceil(9.7 * math.sqrt(n * math.exp(lh + lc)))
        while True:
            lo, hi = max(0, mode - width), min(n, mode + width)
            k = np.arange(lo + 1.0, hi + 1.0)   # k + 1 for k = lo..hi - 1
            steps = np.log((n + 1.0 - k) / k) + (lh - lc)   # log t(k + 1) / t(k)
            terms = np.empty(hi - lo + 1)
            terms[0] = (math.lgamma(n + 1.0) - math.lgamma(lo + 1.0)
                        - math.lgamma(n - lo + 1.0) + lo * lh + (n - lo) * lc)
            rest = terms[1:]
            np.add.accumulate(steps, out=rest)   # np.cumsum without its wrapper
            rest += terms[0]
            low = lo == 0 or terms[0] - steps[0] - math.log(-math.expm1(-steps[0])) <= _LOG_TAIL
            high = hi == n or terms[-1] + steps[-1] - math.log(-math.expm1(steps[-1])) <= _LOG_TAIL
            if low and high:
                break
            width *= 2
        pmf = np.exp(terms, out=terms)
        pmf /= np.add.reduce(pmf)
        return lo, pmf

    def posteriors(self, profile: StrategyProfile) -> np.ndarray:
        """Posterior chance of the high type after each count k = 0..N."""
        high = self.powers(_senders(profile, ServiceType.HIGH))   # C(N, k) cancels
        low = self.powers(_senders(profile, ServiceType.LOW))
        top = np.maximum(high, low)   # scales the larger likelihood to 1
        top[top == -math.inf] = 0.0   # impossible under both types
        return _posterior(self.p, np.exp(high - top), np.exp(low - top))


def _kernel(config: GameConfig) -> _CountKernel:
    return _CountKernel(config.n_users, config.p_high, config.q_plus)


def _actions(rule: InferenceRule, config: GameConfig) -> np.ndarray:
    if rule.n_users != config.n_users:
        raise ValueError("rule was built for a different number of users")
    return rule.action_array


def _posterior(p: float, like_high, like_low):
    """Chance of the high type given its prior ``p`` and an observation's
    likelihood under each type, elementwise.  An observation impossible under
    both keeps the prior: off-path beliefs are unrestricted, and the prior
    reproduces every published rating rule."""
    top = p * like_high
    denom = top + (1.0 - p) * like_low
    return np.divide(top, denom, out=np.full_like(denom, p), where=denom != 0.0)


def posterior_high(profile: StrategyProfile, config: GameConfig, k: int) -> float:
    """Posterior chance of the high density after seeing k high messages."""
    if not isinstance(k, numbers.Integral) or isinstance(k, bool) or not 0 <= k <= config.n_users:
        raise ValueError(f"k={k!r} is not an integer in 0..{config.n_users}")
    return float(_kernel(config).posteriors(profile)[k])


def best_response_rule(profile: StrategyProfile, config: GameConfig) -> InferenceRule:
    """Cost-minimizing rating for each message count: the posterior state mean."""
    post = _kernel(config).posteriors(profile)
    return InferenceRule(tuple((post * config.mu_high + (1.0 - post) * config.mu_low).tolist()))


def expected_user_utility(profile: StrategyProfile, rule: InferenceRule,
                          bias: Bias, config: GameConfig) -> float:
    """Expected signed rating for one reviewer of the given bias.

    All reviewers, this one included, follow ``profile``.  The expectation over
    the others' bias draws is exact: given the type, each of the other
    ``n_users - 1`` reviewers messages high with the same chance, so the
    2^(N-1) bias assignments collapse into the pmf of their high count.
    """
    actions = _actions(rule, config)
    others = _CountKernel(config.n_users - 1, config.p_high, config.q_plus)
    strategy = profile.strategy_for(bias)
    total = 0.0
    for service in ServiceType:
        lo, pmf = others.window(_senders(profile, service))
        lo += strategy.sends_high(service)   # rated at the others' count plus its message
        total += config.type_prob(service) * bias.value * float(pmf @ actions[lo:lo + pmf.size])
    return total


def expected_platform_cost(profile: StrategyProfile, rule: InferenceRule,
                           config: GameConfig) -> float:
    """Expected squared rating error plus state variance under the profile."""
    kernel, actions = _kernel(config), _actions(rule, config)
    total = 0.0
    for service, dist in ((ServiceType.HIGH, config.pair.high), (ServiceType.LOW, config.pair.low)):
        lo, like = kernel.window(_senders(profile, service))
        rated = (actions[lo:lo + like.size] - dist.mean) ** 2 + dist.variance
        total += config.type_prob(service) * float(like @ rated)
    return total
