"""Equilibrium search, system losses, thresholds, and side analyses.

Stability is checked per bias class: all reviewers who share a bias use the
same strategy, a deviation switches that class to one of the three others,
and the platform re-derives its rating rule for the deviated profile.  A
profile is an equilibrium when neither class gains from any such switch.  The
published tables, thresholds and loss formulas are exact under this notion; a
unilateral deviation against a frozen rule would let a blind reviewer
free-ride on out-of-date beliefs and reject every informative profile.  The
ratings, payoffs and losses come from the message-count pmf of ``game``, and
the sequential check rates ordered message pairs through the same posterior.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import OutOfRegime
from .game import (ALL_PROFILES, Bias, GameConfig, InferenceRule,
                   PureStrategy, SC1, ServiceType, StrategyProfile,
                   _likelihoods, _posterior, best_response_rule,
                   expected_user_utility)

GOLDEN_LOW = (3.0 - math.sqrt(5.0)) / 2.0   # small positive-share regime ends here
GOLDEN_HIGH = (math.sqrt(5.0) - 1.0) / 2.0  # large positive-share regime starts here


def _gain_tolerance(config: GameConfig) -> float:
    return 1e-12 * max(1.0, abs(config.mu_high), abs(config.mu_low))


@dataclass(frozen=True)
class PbeCertificate:
    profile: StrategyProfile
    rule: InferenceRule
    deviations_checked: int
    max_deviation_gain: float


@dataclass(frozen=True)
class DeviationWitness:
    profile: StrategyProfile
    bias: Bias
    alternative: PureStrategy
    gain: float


def _utility_table(config: GameConfig) -> dict[tuple[StrategyProfile, Bias], float]:
    """U[profile, bias]: a reviewer's expected utility when everyone plays
    ``profile`` and the platform best-responds to it.

    A class deviation always lands on another of the 16 profiles, so these 32
    values hold every utility an equilibrium check compares.
    """
    table = {}
    for profile in ALL_PROFILES:
        rule = best_response_rule(profile, config)
        for bias in Bias:
            table[profile, bias] = expected_user_utility(profile, rule, bias, config)
    return table


def _gains(profile: StrategyProfile, table) -> dict[tuple[Bias, PureStrategy], float]:
    # keys run negative bias first and alternatives in declaration order
    return {(bias, alt): table[profile.with_strategy(bias, alt), bias] - table[profile, bias]
            for bias in Bias for alt in PureStrategy
            if alt is not profile.strategy_for(bias)}


def deviation_gains(profile: StrategyProfile, config: GameConfig
                    ) -> dict[tuple[Bias, PureStrategy], float]:
    """Utility change for every class deviation from ``profile``."""
    return _gains(profile, _utility_table(config))


def is_pbe(profile: StrategyProfile, config: GameConfig):
    """Certify ``profile`` as an equilibrium or return the first deviation.

    Biases are scanned negative first and alternatives in declaration order;
    a deviation counts only when its gain exceeds the relative tolerance, so
    exact ties are non-deviations.
    """
    tol = _gain_tolerance(config)
    gains = deviation_gains(profile, config)
    for (bias, alt), gain in gains.items():
        if gain > tol:
            return DeviationWitness(profile, bias, alt, gain)
    return PbeCertificate(
        profile=profile,
        rule=best_response_rule(profile, config),
        deviations_checked=len(gains),
        max_deviation_gain=max(gains.values()),
    )


def enumerate_pbe(config: GameConfig) -> list[StrategyProfile]:
    """All stable profiles among the 16 candidates, in canonical order."""
    table = _utility_table(config)
    tol = _gain_tolerance(config)
    return [p for p in ALL_PROFILES
            if not any(gain > tol for gain in _gains(p, table).values())]


# ---------------------------------------------------------------------------
# thresholds for the one-reviewer asymmetric-bias regimes


@dataclass(frozen=True)
class BiasThresholds:
    p1_high: float | None
    p1_low: float | None


def p1_high(q_plus: float) -> float:
    """Quality-prior threshold above which the positive reviewer turns honest.

    Defined for positive-bias share below one half.
    """
    if not 0.0 <= q_plus < 0.5:
        raise OutOfRegime("p1_high is defined for q_plus < 1/2")
    q = q_plus
    radicand = (2 * q**3 - 9 * q**2 + 12 * q - 5) / (2 * q - 1)
    return (3.0 - q) / 2.0 - 0.5 * math.sqrt(radicand)


def p1_low(q_plus: float) -> float:
    """Quality-prior threshold below which the negative reviewer stays honest.

    Defined for positive-bias share above one half; mirrors ``p1_high`` via
    p1_low(q) = 1 - p1_high(1 - q).
    """
    if not 0.5 < q_plus <= 1.0:
        raise OutOfRegime("p1_low is defined for q_plus > 1/2")
    q = q_plus
    radicand = (2 * q**3 + 3 * q**2) / (2 * q - 1)
    return 0.5 * math.sqrt(radicand) - q / 2.0


def bias_thresholds(q_plus: float) -> BiasThresholds:
    if not 0.0 < q_plus < 1.0:
        raise ValueError("q_plus must lie in (0, 1)")
    return BiasThresholds(
        p1_high=p1_high(q_plus) if q_plus < 0.5 else None,
        p1_low=p1_low(q_plus) if q_plus > 0.5 else None,
    )


# ---------------------------------------------------------------------------
# system losses


def symmetric_bias_loss(n_users: int, p_high: float, mean_gap: float) -> float:
    """Worst-equilibrium loss for equally likely biases, any reviewer count."""
    p = p_high
    s = math.ldexp(1.0, -n_users)   # both ratios scaled by 2^-N, exactly
    scaled = math.ldexp((1.0 - p) * p * mean_gap**2, -n_users)
    return max(scaled / (p * s + (1.0 - p)), scaled / (s - (s - 1.0) * p))


def one_user_loss(p_high: float, q_plus: float, mean_gap: float) -> float:
    """Worst-equilibrium loss for one reviewer with any positive-bias share.

    Which equilibria exist depends on where the quality prior sits relative
    to the honesty thresholds, so the loss is regime-wise; in the middle
    regime all four equilibria coexist and the loss is the larger branch.
    """
    p, q, d2 = p_high, q_plus, mean_gap**2
    loss_blind_high = q * (1.0 - p) * p * d2 / (p + (1.0 - p) * q)
    loss_blind_low = (1.0 - q) * (1.0 - p) * p * d2 / (1.0 - q * p)
    if q <= GOLDEN_LOW and p <= p1_high(q):
        return loss_blind_high
    if q >= GOLDEN_HIGH and p >= p1_low(q):
        return loss_blind_low
    return max(loss_blind_high, loss_blind_low)


def bayesian_system_loss(config: GameConfig) -> float:
    """Worst enumerated-equilibrium cost in excess of the ideal cost floor.

    Under a profile's best-response rule that excess is gap^2 times the
    expected posterior variance of the type given the count k of high
    messages, gap^2 (1 - p) sum_k f_L(k) P(high | k), with f_L the count's pmf
    under the low type.  No term is negative, so small losses stay accurate.
    """
    profiles = enumerate_pbe(config)
    if not profiles:
        raise RuntimeError("no equilibrium found; the candidate set is incomplete")
    p = config.p_high
    worst = max(sum(like_low * _posterior(p, like_high, like_low)
                    for like_high, like_low in zip(*_likelihoods(profile, config)))
                for profile in profiles)
    return config.mean_gap**2 * (1.0 - p) * worst


@dataclass(frozen=True)
class LossReduction:
    """Largest possible gap between the abandoning loss and the game loss."""

    coefficient: float                 # multiplies the squared mean gap
    attained: tuple[str, str]


def max_loss_reduction_one_user() -> LossReduction:
    """Supremum of (abandoning loss - one-reviewer game loss) / gap^2.

    Attained in the limit of a vanishing (or dominating) positive-bias share
    with the quality prior at the matching honesty threshold.
    """
    return LossReduction(
        coefficient=math.sqrt(5.0) - 2.0,
        attained=(
            "q_plus -> 0 with p_high = p1_high(q_plus)",
            "q_plus -> 1 with p_high = p1_low(q_plus)",
        ),
    )


# ---------------------------------------------------------------------------
# sequential two-reviewer stability check

# Second-mover contingent plans over the reachable information sets
# (observed type, first message).  Under the candidate profile the pair
# (LOW, HIGH) never occurs, so a plan fixes three messages.
_MSG_H = ServiceType.HIGH
_MSG_L = ServiceType.LOW

SECOND_MOVER_PLANS: dict[str, dict[tuple[ServiceType, ServiceType], ServiceType]] = {
    "plan1": {(_MSG_H, _MSG_H): _MSG_H, (_MSG_H, _MSG_L): _MSG_L, (_MSG_L, _MSG_L): _MSG_L},
    "plan2": {(_MSG_H, _MSG_H): _MSG_H, (_MSG_H, _MSG_L): _MSG_L, (_MSG_L, _MSG_L): _MSG_H},
    "plan3": {(_MSG_H, _MSG_H): _MSG_L, (_MSG_H, _MSG_L): _MSG_H, (_MSG_L, _MSG_L): _MSG_H},
    "plan4": {(_MSG_H, _MSG_H): _MSG_L, (_MSG_H, _MSG_L): _MSG_H, (_MSG_L, _MSG_L): _MSG_L},
}


@dataclass(frozen=True)
class SequentialDeviation:
    utility: float
    gain: float


@dataclass(frozen=True)
class SequentialCheckReport:
    baseline_utility: float
    deviations: dict[str, SequentialDeviation]

    @property
    def max_gain(self) -> float:
        return max(d.gain for d in self.deviations.values())


def _sequential_plan_utility(config: GameConfig, plan) -> float:
    """Positive second mover's utility under a deviation plan.

    The first mover and the negative second mover keep the candidate profile
    (negative blind-low, positive honest).  The platform observes the ordered
    message pair and best-responds to the full deviated profile.
    """

    def messages(service: ServiceType, bias1: Bias, bias2: Bias):
        m1 = SC1.strategy_for(bias1).message(service)
        if bias2 is Bias.NEGATIVE:
            return m1, SC1.negative.message(service)
        return m1, plan[(service, m1)]

    # likelihood of each ordered pair under each type
    likes = {s: defaultdict(float) for s in ServiceType}
    for service, bias1, bias2 in itertools.product(ServiceType, Bias, Bias):
        likes[service][messages(service, bias1, bias2)] += (
            config.bias_prob(bias1) * config.bias_prob(bias2))

    utility = 0.0
    for service, bias1 in itertools.product(ServiceType, Bias):
        key = messages(service, bias1, Bias.POSITIVE)
        post = _posterior(config.p_high, likes[ServiceType.HIGH][key],
                          likes[ServiceType.LOW][key])
        rating = post * config.mu_high + (1.0 - post) * config.mu_low
        utility += config.type_prob(service) * config.bias_prob(bias1) * rating
    return utility


def sequential_two_user_check(config: GameConfig) -> SequentialCheckReport:
    """Stability of the blind-low/honest profile under sequential messaging.

    With two reviewers messaging in turn, the positive second mover may
    condition on the first message.  None of the four contingent deviation
    plans beats his simultaneous-play utility; the last plan ties exactly.
    """
    if config.n_users != 2 or config.q_plus != 0.5:
        raise ValueError("the sequential check is defined for N=2, q_plus=1/2")
    baseline = expected_user_utility(
        SC1, best_response_rule(SC1, config), Bias.POSITIVE, config)
    deviations = {}
    for name, plan in SECOND_MOVER_PLANS.items():
        u = _sequential_plan_utility(config, plan)
        deviations[name] = SequentialDeviation(utility=u, gain=u - baseline)
    return SequentialCheckReport(baseline_utility=baseline, deviations=deviations)


def three_type_loss(n_users: int, delta: float) -> float:
    """Worst-equilibrium loss with a third, middle quality level.

    Three equally likely densities whose middle mean is the midpoint of the
    outer two; ``delta`` is the outer mean gap.  Strictly decreasing in the
    reviewer count and vanishing in the limit.
    """
    if n_users < 2:
        raise ValueError("the three-type analysis needs at least two reviewers")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    s = math.ldexp(1.0, -n_users)   # 2^-N; the ratio is scaled by 2^-2N, exactly
    return (s + 5.0) * s / (3.0 * (2.0 * s + 1.0) * 4.0) * delta**2
