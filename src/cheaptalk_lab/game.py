"""One-shot rating game: strategies, posteriors, inference rules, payoffs.

Reviewers observe a binary quality type and message it (possibly untruthfully)
to the platform; the platform maps the count of high messages to a continuous
rating.  Given the type the count is binomial, and its pmf (``_count_pmf``)
yields every quantity here in exact arithmetic over the discrete part of the
game, so closed-form results can be checked at machine precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

from .distributions import DistributionPair


class ServiceType(Enum):
    LOW = "L"
    HIGH = "H"


class Bias(Enum):
    """A reviewer's private preference direction for the platform's rating."""

    NEGATIVE = -1
    POSITIVE = 1

    @property
    def weight(self) -> int:
        return self.value


class PureStrategy(Enum):
    """Deterministic map from the observed type to the sent message."""

    HONEST = "honest"
    BLIND_HIGH = "blind_high"
    BLIND_LOW = "blind_low"
    REVERSED = "reversed"

    def message(self, observed: ServiceType) -> ServiceType:
        if self is PureStrategy.HONEST:
            return observed
        if self is PureStrategy.BLIND_HIGH:
            return ServiceType.HIGH
        if self is PureStrategy.BLIND_LOW:
            return ServiceType.LOW
        return ServiceType.HIGH if observed is ServiceType.LOW else ServiceType.LOW

    def sends_high(self, observed: ServiceType) -> bool:
        return self.message(observed) is ServiceType.HIGH


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


@dataclass(frozen=True)
class GameConfig:
    """Full parameterization of one game instance."""

    n_users: int
    p_high: float
    q_plus: float
    pair: DistributionPair

    def __post_init__(self):
        if isinstance(self.n_users, bool) or not isinstance(self.n_users, numbers.Integral):
            raise ValueError(f"n_users must be an integer, got {self.n_users!r}")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if not 0.0 < self.p_high < 1.0:
            raise ValueError("p_high must lie in (0, 1)")
        if not 0.0 < self.q_plus < 1.0:
            raise ValueError("q_plus must lie in (0, 1)")

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

    @property
    def n_users(self) -> int:
        return len(self.actions) - 1


def min_expected_cost(config: GameConfig) -> float:
    """Cost floor attained when the platform knows the realized density."""
    return (config.p_high * config.pair.high.variance
            + (1.0 - config.p_high) * config.pair.low.variance)


def high_message_prob(profile: StrategyProfile, config: GameConfig,
                      given_type: ServiceType) -> float:
    """Chance a single reviewer messages high, marginalized over his bias."""
    p = 0.0
    for bias in Bias:
        if profile.strategy_for(bias).sends_high(given_type):
            p += config.bias_prob(bias)
    return p


def _count_pmf(n: int, h: float) -> list[float]:
    """Chance of k = 0..n high messages from n reviewers who each message
    high with chance ``h``."""
    # exact at the endpoints: blind profiles yield h in {0, 1}
    if h == 0.0:
        return [1.0] + [0.0] * n
    if h == 1.0:
        return [0.0] * n + [1.0]
    return [math.comb(n, k) * h**k * (1.0 - h) ** (n - k) for k in range(n + 1)]


def _likelihoods(profile: StrategyProfile, config: GameConfig) -> tuple[list, list]:
    """Pmfs of the count of high messages under the high and the low type."""
    n = config.n_users
    return (_count_pmf(n, high_message_prob(profile, config, ServiceType.HIGH)),
            _count_pmf(n, high_message_prob(profile, config, ServiceType.LOW)))


def _posterior(p: float, like_high: float, like_low: float) -> float:
    """Chance of the high type given its prior ``p`` and an observation's
    likelihood under each type.  An observation impossible under both keeps
    the prior: off-path beliefs are unrestricted, and the prior reproduces
    every published rating rule."""
    denom = p * like_high + (1.0 - p) * like_low
    if denom == 0.0:
        return p
    return p * like_high / denom


def posterior_high(profile: StrategyProfile, config: GameConfig, k: int) -> float:
    """Posterior chance of the high density after seeing k high messages."""
    if not 0 <= k <= config.n_users:
        raise ValueError(f"k={k} outside 0..{config.n_users}")
    like_high, like_low = _likelihoods(profile, config)
    return _posterior(config.p_high, like_high[k], like_low[k])


def best_response_rule(profile: StrategyProfile, config: GameConfig) -> InferenceRule:
    """Cost-minimizing rating for each message count: the posterior state mean."""
    actions = []
    for like_high, like_low in zip(*_likelihoods(profile, config)):
        post = _posterior(config.p_high, like_high, like_low)
        actions.append(post * config.mu_high + (1.0 - post) * config.mu_low)
    return InferenceRule(tuple(actions))


def expected_user_utility(profile: StrategyProfile, rule: InferenceRule,
                          bias: Bias, config: GameConfig) -> float:
    """Expected signed rating for one reviewer of the given bias.

    All reviewers, this one included, follow ``profile``.  The expectation over
    the others' bias draws is exact: given the type, each of the other
    ``n_users - 1`` reviewers messages high with the same chance, so the
    2^(N-1) bias assignments collapse into the pmf of their high count.
    """
    if rule.n_users != config.n_users:
        raise ValueError("rule was built for a different number of users")
    strategy = profile.strategy_for(bias)
    total = 0.0
    for service in ServiceType:
        p_type = config.type_prob(service)
        k_focal = 1 if strategy.sends_high(service) else 0
        others = _count_pmf(config.n_users - 1, high_message_prob(profile, config, service))
        for j, p_j in enumerate(others):
            total += p_type * p_j * bias.weight * rule(k_focal + j)
    return total


def expected_platform_cost(profile: StrategyProfile, rule: InferenceRule,
                           config: GameConfig) -> float:
    """Expected squared rating error plus state variance under the profile."""
    if rule.n_users != config.n_users:
        raise ValueError("rule was built for a different number of users")
    like_high, like_low = _likelihoods(profile, config)
    total = 0.0
    for p_type, like, dist in ((config.p_high, like_high, config.pair.high),
                               (1.0 - config.p_high, like_low, config.pair.low)):
        for k, p_k in enumerate(like):
            total += p_type * p_k * ((rule(k) - dist.mean) ** 2 + dist.variance)
    return total
