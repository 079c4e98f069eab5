"""Equilibrium search, system losses, thresholds, and side analyses.

Stability is checked per bias class: all reviewers who share a bias use the
same strategy, a deviation switches that class to one of the three others,
and the platform re-derives its rating rule for the deviated profile.  A
profile is an equilibrium when neither class gains from any such switch.  The
published tables, thresholds and loss formulas are exact under this notion; a
unilateral deviation against a frozen rule would let a blind reviewer
free-ride on out-of-date beliefs and reject every informative profile.

Under a profile's own best-response rule the expected posterior is the prior
p, so a profile enters both class utilities through one number, its bias
influence D_P = E[post | focal reviewer positive] - E[post | focal reviewer
negative]:

    U[P, +] = mu_L + gap (p + (1 - q) D_P),   U[P, -] = -mu_L - gap (p - q D_P).

A class deviation P -> P' gains gap (1 - q)(D_P' - D_P) for the positive class
and gap q (D_P' - D_P) for the negative class.  So with gap > 0 a profile is
stable iff D_P >= D_P' for its six deviations, with gap = 0 every profile is,
and the set depends on (N, p, q) only; it is built once per game.  The
influence is

    D_P = sum_t s_t pi_t sum_j Bin(j; N-1, h_t) (post(j+1) - post(j)),

with s_t the positive class's message minus the negative class's under type
t and h_t in {0, q, 1-q, 1} a reviewer's chance of messaging high.  Each
type's part is one log-sum-exp over the count, read from ``game``'s log-space
binomial kernel (``_CountKernel``): the log-odds are linear in the count, h is
formed from log q and log1p(-q), never from the float 1 - q, and influences
far below the range of a double still compare.

D_P is exactly zero, and carries no parts, when (a) s_H = s_L = 0 (SC7, SC8,
SC16); (b) h_H = h_L, the babbling profiles SC9-SC11 and, at q = 1/2, SC5 and
SC6; (c) p = 1/2, h_L = 1 - h_H and s_H = -s_L, where the map k -> N - k
cancels the two parts (SC5 and SC6 at p = 1/2).  Ties between such zeros are
therefore exact.  Any other comparison whose float margin is below a fixed
bound (1e-10 of the parts' magnitudes, widened by the rounding of the largest
log term at large N) is decided again in decimal arithmetic by ``_exact``,
imported only then, at a precision taken from the float margin and doubled
until the sign is certain; past a cap it raises ``UndecidedEquilibrium``
rather than return a set.  Losses are the expected posterior variance, summed
in the same log space.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegime
from .game import (ALL_PROFILES, PROFILE_LABELS, Bias, GameConfig,
                   InferenceRule, PureStrategy, SC1, ServiceType,
                   StrategyProfile, _CountKernel, _posterior, _senders,
                   best_response_rule, expected_user_utility)

GOLDEN_LOW = (3.0 - math.sqrt(5.0)) / 2.0   # small positive-share regime ends here
GOLDEN_HIGH = (math.sqrt(5.0) - 1.0) / 2.0  # large positive-share regime starts here

_MARGIN = 1e-10   # relative float margin below which a comparison is decided exactly


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


def _alternatives(profile: StrategyProfile) -> list[tuple[Bias, PureStrategy]]:
    """Class deviations, negative bias first, alternatives in declaration order."""
    return [(bias, alt) for bias in Bias for alt in PureStrategy
            if alt is not profile.strategy_for(bias)]


# Row i: the profiles that the class deviations of profile i lead to, in the
# order of ``_alternatives``, so the first three columns are negative-class
# switches and the last three positive ones.
_TARGETS = np.array([[ALL_PROFILES.index(profile.with_strategy(bias, alt))
                      for bias, alt in _alternatives(profile)]
                     for profile in ALL_PROFILES])


def _rank(flags: tuple[bool, bool], q: float) -> tuple[int, float]:
    """Orders the chances 0 < min(q, 1-q) <= max(q, 1-q) < 1 without forming 1 - q."""
    positive, negative = flags
    if positive != negative:
        return 1, (q - 0.5 if positive else 0.5 - q)
    return 2 * positive, 0.0


def _logsumexp(x) -> float:
    top = float(x.max())
    return top if top == -math.inf else top + math.log(float(np.exp(x - top).sum()))


def _log1mexp(x: float) -> float:
    """log(1 - e^-x) for x > 0."""
    return math.log(-math.expm1(-x)) if x < math.log(2.0) else math.log1p(-math.exp(-x))


class _LogGame(_CountKernel):
    """One game (N, p, q) in log space: bias influences, the table of class
    deviations that raise them, their utility gains, and posterior variances."""

    def __init__(self, n: int, p: float, q: float):
        super().__init__(n, p, q)
        lq, lc = self.log_chance[True, False]
        # float error of the largest log term, relative to the parts it sums
        scale = (self.log_factorial[n] + n * (abs(lq) + abs(lc))
                 + abs(self.log_prior[0] - self.log_prior[1]))
        self.tolerance = _MARGIN + 16.0 * sys.float_info.epsilon * (scale + 1.0)

    def _parts(self, profile: StrategyProfile) -> list[tuple[int, int, float]]:
        """(type, sign, log-magnitude) of each nonzero part of D_P; none for an exact zero."""
        p, q = self.p, self.q
        high, low = _senders(profile, ServiceType.HIGH), _senders(profile, ServiceType.LOW)
        s_high, s_low = high[0] - high[1], low[0] - low[1]
        if ((s_high == 0 and s_low == 0) or _rank(high, q) == _rank(low, q)
                or (p == 0.5 and low == (not high[0], not high[1]) and s_high == -s_low)):
            return []
        up = 1 if _rank(high, q) > _rank(low, q) else -1   # sign of post(k+1) - post(k)
        log_odds = (self.log_prior[0] - self.log_prior[1]
                    + self.powers(high) - self.powers(low))
        hi, lo = (log_odds[1:], log_odds[:-1]) if up > 0 else (log_odds[:-1], log_odds[1:])
        (lh_high, lc_high), (lh_low, lc_low) = self.log_chance[high], self.log_chance[low]
        step = abs((lh_high - lc_high) - (lh_low - lc_low))   # hi - lo where finite
        # log(sigma(hi) - sigma(lo)) = log sigma(hi) + log sigma(-lo) + log(1 - e^(lo - hi))
        log_jump = -np.logaddexp(0.0, -hi) - np.logaddexp(0.0, lo) + _log1mexp(step)
        parts = []
        for t, (s, flags) in enumerate(((s_high, high), (s_low, low))):
            if s:
                log_part = _logsumexp(self.log_prior[t] + self.log_comb_others
                                      + self.powers(flags, others=True) + log_jump)
                parts.append((t, s * up, log_part))
        return parts

    @functools.cached_property
    def influences(self) -> tuple[np.ndarray, np.ndarray]:
        """Signs and log-magnitudes of every profile's parts, shape (16, 2); an
        absent part has sign 0 and log -inf."""
        signs, logs = np.zeros((16, 2)), np.full((16, 2), -math.inf)
        for i, profile in enumerate(ALL_PROFILES):
            for t, sign, log in self._parts(profile):
                signs[i, t], logs[i, t] = sign, log
        return signs, logs

    @functools.cached_property
    def deviations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """D of the target minus D of the profile for every class deviation, as
        arrays (value, size, top) of shape (16, 6): the difference is
        value e^top and its parts' magnitudes add up to size e^top."""
        signs, logs = self.influences
        scaled = np.concatenate(np.broadcast_arrays(logs[_TARGETS], logs[:, None]), axis=2)
        top = scaled.max(axis=2)
        scaled -= np.where(top > -math.inf, top, 0.0)[..., None]
        np.exp(scaled, out=scaled)
        size = scaled.sum(axis=2)
        scaled[..., :2] *= signs[_TARGETS]
        scaled[..., 2:] *= -signs[:, None]
        return scaled.sum(axis=2), size, top

    @functools.cached_property
    def raised(self) -> np.ndarray:
        """Whether each class deviation raises the profile's influence, shape
        (16, 6), decided exactly: by the float sign where the margin is clear,
        two exact zeros never, and by ``_exact`` otherwise."""
        value, size, _ = self.deviations
        raised = value > 0.0
        signs = self.influences[0]
        for i, j in zip(*np.nonzero((np.abs(value) <= self.tolerance * size) & (size > 0.0))):
            from . import _exact   # loads decimal; only when floats cannot decide

            a, b = ALL_PROFILES[_TARGETS[i, j]], ALL_PROFILES[i]
            raised[i, j] = _exact.exceeds(a if signs[_TARGETS[i, j]].any() else None,
                                          b if signs[i].any() else None,
                                          (PROFILE_LABELS[a], PROFILE_LABELS[b]),
                                          self.n, self.p, self.q, abs(value[i, j]) / size[i, j])
        return raised

    def gains(self, i: int, mean_gap: float) -> dict[tuple[Bias, PureStrategy], float]:
        value, _, top = self.deviations
        return {(bias, alt): mean_gap * (self.q if bias is Bias.NEGATIVE else 1.0 - self.q)
                * float(value[i, j]) * math.exp(top[i, j])
                for j, (bias, alt) in enumerate(_alternatives(ALL_PROFILES[i]))}

    def log_posterior_variance(self, profile: StrategyProfile) -> float:
        """log sum_k P(high, k) P(low, k) / P(k), k the count of high messages."""
        high = (self.log_prior[0] + self.log_comb
                + self.powers(_senders(profile, ServiceType.HIGH)))
        low = (self.log_prior[1] + self.log_comb
               + self.powers(_senders(profile, ServiceType.LOW)))
        both = np.isfinite(high) & np.isfinite(low)
        if not both.any():
            return -math.inf
        high, low = high[both], low[both]
        return _logsumexp(high + low - np.logaddexp(high, low))


@functools.lru_cache(maxsize=256)
def _stable_profiles(n: int, p: float, q: float) -> tuple[tuple[StrategyProfile, ...], float]:
    """The stable profiles of one game and the log of their largest posterior
    variance, both from one ``_LogGame``."""
    game = _LogGame(n, p, q)
    stable = tuple(ALL_PROFILES[i] for i in np.flatnonzero(~game.raised.any(axis=1)))
    return stable, max(map(game.log_posterior_variance, stable), default=-math.inf)


def is_pbe(profile: StrategyProfile, config: GameConfig):
    """Certify ``profile`` as an equilibrium or return the first deviation.

    Decided on one game of its own, not ``enumerate_pbe``'s cached set:
    biases are scanned negative first and alternatives in declaration order;
    the first deviation that raises the bias influence is the witness, so
    exact ties are non-deviations.  With none, or a zero gap, it certifies.
    """
    game = _LogGame(config.n_users, config.p_high, config.q_plus)
    i = ALL_PROFILES.index(profile)
    gains = game.gains(i, config.mean_gap)
    j = next(iter(np.flatnonzero(game.raised[i])), None) if config.mean_gap else None
    if j is None:
        return PbeCertificate(
            profile=profile,
            rule=best_response_rule(profile, config),
            deviations_checked=len(gains),
            max_deviation_gain=max(gains.values()),
        )
    bias, alt = _alternatives(profile)[j]
    return DeviationWitness(profile, bias, alt, gains[bias, alt])


def enumerate_pbe(config: GameConfig) -> list[StrategyProfile]:
    """All stable profiles among the 16 candidates, in canonical order."""
    if config.mean_gap == 0.0:
        return list(ALL_PROFILES)
    return list(_stable_profiles(config.n_users, config.p_high, config.q_plus)[0])


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
    messages, gap^2 sum_k P(high, k) P(low, k) / P(k).  Its terms are summed
    in log space, so the loss is accurate and finite at any N.
    """
    profiles, worst = _stable_profiles(config.n_users, config.p_high, config.q_plus)
    if not profiles:
        raise RuntimeError("no equilibrium found; the candidate set is incomplete")
    return config.mean_gap**2 * math.exp(worst)


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
        post = float(_posterior(config.p_high, likes[ServiceType.HIGH][key],
                                likes[ServiceType.LOW][key]))
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
