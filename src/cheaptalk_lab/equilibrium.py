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
type's part is in log space, from ``game``'s binomial kernel
(``_CountKernel``), h formed from log q and log1p(-q), never from the float
1 - q, so influences far below the range of a double still compare.  Where one
type's chance is 0 or 1 (SC1-SC4, SC12-SC15) both types share one count,
k = 0 or N, so the posterior jumps once, at j = 0 or N - 1 among the others,
and the part and the posterior variance are one term each.  Only SC5/SC6,
with chances q and 1 - q, is a log-sum-exp over the count, one row for its two
parts, as is the variance of SC5/SC6 and SC9/SC11, whose types share every
count; there the log-odds are linear in the count.

Relabelling every message (honest <-> reversed, blind-high <-> blind-low)
negates a profile's flags and maps the count k to N - k, which keeps each
part of the influence, the posterior variance and each deviation; so each of
the 8 orbits of two profiles is computed, decided and summed once (``_ORBIT``).

Which orbits have a nonzero influence, the sign of each jump
post(k+1) - post(k) and the signs of their parts depend only on whether
p = 1/2 and on the sign of q - 1/2, so they are tables built at import
(``_ACTIVE``, 5 or 4 carriers), as is ``_SHARED``, the counts both types share.

D_P is exactly zero, and carries no parts, when (a) s_H = s_L = 0 (SC7, SC8,
SC16); (b) h_H = h_L, the babbling profiles SC9-SC11 and, at q = 1/2, SC5 and
SC6; (c) p = 1/2, h_L = 1 - h_H and s_H = -s_L, where the map k -> N - k
cancels the two parts (SC5 and SC6 at p = 1/2).  Ties between such zeros are
therefore exact.  Any other comparison whose float margin is below a fixed
bound (1e-10 of the parts' magnitudes, widened by the rounding of the largest
log term at large N) is decided again in decimal arithmetic by ``_exact``,
imported only then, on the orbit carriers, at a precision taken from the
float margin and doubled until the sign is certain, each influence computed
once per game and precision; past a cap it raises ``UndecidedEquilibrium``
rather than return a set.  Losses are the expected posterior variance, summed
in the same log space.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegime
from .game import (ALL_PROFILES, PROFILE_LABELS, Bias, GameConfig,
                   InferenceRule, PureStrategy, SC1, ServiceType,
                   StrategyProfile, _CountKernel, _chance, _check_chance, _check_count,
                   _check_gap, _posterior, _senders, best_response_rule, expected_user_utility)

GOLDEN_LOW = (3.0 - math.sqrt(5.0)) / 2.0   # small positive-share regime ends here
GOLDEN_HIGH = 1.0 - GOLDEN_LOW               # large positive-share regime starts here

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


# Each profile's flag pairs (positive, negative class sends high) under the
# high and under the low type.
_FLAGS = tuple((_senders(profile, ServiceType.HIGH), _senders(profile, ServiceType.LOW))
               for profile in ALL_PROFILES)

# each profile's orbit carrier: the lower index of it and its flag-negated partner
_ORBIT = np.array([min(i, _FLAGS.index(tuple((not a, not b) for a, b in flags)))
                   for i, flags in enumerate(_FLAGS)])


# the counts both types of each profile can send: None for every count, where
# both chances of messaging high lie in (0, 1), else the ends of 0..N that both
# reach (0 for the count 0, 1 for N), as a chance of 0 or 1 holds the count there
_SHARED = tuple(None if all(a != b for a, b in flags) else
                tuple(end for end in (0, 1) if all(any(f) if end else not all(f) for f in flags))
                for flags in _FLAGS)


def _active(half: bool, side: int):
    """The orbit carriers with a nonzero influence in the games of one case
    (p == 1/2, sign of q - 1/2), each as (row, sign of post(k+1) - post(k),
    parts as (type, sign)).  Chances are ordered at the case's share 1/4, 1/2
    or 3/4, exact in floats."""
    active = []
    for i, (high, low) in enumerate(_FLAGS):
        s_high, s_low = high[0] - high[1], low[0] - low[1]
        h_high, h_low = (_chance(0.5 + side / 4, flags) for flags in (high, low))
        if (_ORBIT[i] != i or (s_high == 0 and s_low == 0) or h_high == h_low
                or (half and low == (not high[0], not high[1]) and s_high == -s_low)):
            continue
        up = 1 if h_high > h_low else -1
        active.append((i, up, tuple((t, s * up) for t, s in enumerate((s_high, s_low)) if s)))
    return tuple(active)


_ACTIVE = {(half, side): _active(half, side) for half in (False, True) for side in (-1, 0, 1)}


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) for finite a and b, as ``np.logaddexp`` forms it."""
    return a + math.log1p(math.exp(b - a)) if a > b else b + math.log1p(math.exp(a - b))


def _logsumexp(x: np.ndarray) -> float:
    """log sum exp of the finite ``x``, which it overwrites."""
    top = float(x.max())
    x -= top
    return top + math.log(np.exp(x, out=x).sum())


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
        scale = (math.lgamma(n + 1.0) + n * (abs(lq) + abs(lc))
                 + abs(self.log_prior[0] - self.log_prior[1]))
        self.tolerance = _MARGIN + 16.0 * sys.float_info.epsilon * (scale + 1.0)
        self._exact_influences = {}   # by (carrier, precision), for ``_exact.exceeds``

    def _end_powers(self, i: int, end: int) -> list[float]:
        """log h^k (1 - h)^(N - k) of each type of the profile i at k = end N."""
        return [self.n * self.log_chance[flags][1 - end] for flags in _FLAGS[i]]

    def _log_jump(self, i: int, up: int) -> np.ndarray:
        """log |post(j+1) - post(j)|, j = 0..N-1, for the profile i."""
        high, low = _FLAGS[i]
        log_odds = self.log_prior[0] - self.log_prior[1] + self.powers(high) - self.powers(low)
        # sigma(hi) - sigma(lo) = sigma(-lo) - sigma(-hi): negated, the log-odds
        # of a falling posterior rise like the others
        log_odds *= up
        hi, lo = log_odds[1:], log_odds[:-1]
        (lh_high, lc_high), (lh_low, lc_low) = self.log_chance[high], self.log_chance[low]
        step = _log1mexp(abs((lh_high - lc_high) - (lh_low - lc_low)))
        # log(sigma(hi) - sigma(lo)) = log sigma(hi) + log sigma(-lo) + log(1 - e^(lo - hi))
        return -np.logaddexp(0.0, -hi) - np.logaddexp(0.0, lo) + step

    @functools.cached_property
    def influences(self) -> tuple[np.ndarray, np.ndarray]:
        """Signs and log-magnitudes of every profile's parts, shape (16, 2), each
        row its orbit carrier's; an absent part has sign 0 and log -inf."""
        signs, logs = np.zeros((16, 2)), np.full((16, 2), -math.inf)
        for i, up, parts in _ACTIVE[self.p == 0.5, (self.q > 0.5) - (self.q < 0.5)]:
            if _SHARED[i] is None:   # SC5/SC6: one pass over the count for both parts
                log_jump = self._log_jump(i, up)
                for t, sign in parts:
                    terms = self.log_prior[t] + self.others.log_comb
                    terms += self.others.powers(_FLAGS[i][t])
                    terms += log_jump
                    signs[i, t], logs[i, t] = sign, _logsumexp(terms)
                continue
            # the types share only k = end N, so the posterior jumps once, at j = end (N - 1)
            # among the others: log pi_t + log Bin(j; N - 1, h_t) - log(1 + e^(+-x)), x at k
            (end,), ((t, sign),) = _SHARED[i], parts
            power_high, power_low = self._end_powers(i, end)
            x = (self.log_prior[0] - self.log_prior[1] + power_high - power_low) * up
            signs[i, t] = sign
            logs[i, t] = (self.log_prior[t] + (self.n - 1) * self.log_chance[_FLAGS[i][t]][1 - end]
                          - _logaddexp(0.0, -x if end else x))
        return signs[_ORBIT], logs[_ORBIT]

    @functools.cached_property
    def deviations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """D of the target minus D of the profile for every class deviation, as
        arrays (value, size, top) of shape (16, 6): the difference is
        value e^top and its parts' magnitudes add up to size e^top."""
        signs, logs = self.influences
        scaled = np.empty((16, 6, 4))
        scaled[..., :2], scaled[..., 2:] = logs[_TARGETS], logs[:, None]
        top = scaled.max(axis=2)
        scaled -= np.where(top > -math.inf, top, 0.0)[..., None]
        np.exp(scaled, out=scaled)
        size = scaled.sum(axis=2)
        scaled[..., :2] *= signs[_TARGETS]
        scaled[..., 2:] *= -signs[:, None]
        return scaled.sum(axis=2), size, top

    def raised(self, rows: Sequence[int] = range(16)) -> np.ndarray:
        """Whether each class deviation raises the influence of the profiles
        ``rows``, shape (len(rows), 6), decided exactly: by the float sign where
        the margin is clear, two exact zeros never, and by ``_exact`` otherwise,
        on the orbit carriers, each exact influence computed once per game."""
        value, size, _ = self.deviations
        value, size = value[rows], size[rows]
        raised = value > 0.0
        signs = self.influences[0]
        for r, j in zip(*np.nonzero((np.abs(value) <= self.tolerance * size) & (size > 0.0))):
            from . import _exact   # loads decimal; only when floats cannot decide

            pair = _TARGETS[rows[r], j], rows[r]   # compared on their carriers, named as they are
            raised[r, j] = _exact.exceeds(*(ALL_PROFILES[_ORBIT[k]] if signs[k].any() else None
                                            for k in pair),
                                          tuple(PROFILE_LABELS[ALL_PROFILES[k]] for k in pair),
                                          self.n, self.p, self.q, abs(value[r, j]) / size[r, j],
                                          self._exact_influences)
        return raised

    def gains(self, i: int, mean_gap: float) -> dict[tuple[Bias, PureStrategy], float]:
        value, _, top = self.deviations
        return {(bias, alt): mean_gap * (self.q if bias is Bias.NEGATIVE else 1.0 - self.q)
                * float(value[i, j]) * math.exp(top[i, j])
                for j, (bias, alt) in enumerate(_alternatives(ALL_PROFILES[i]))}

    def log_posterior_variance(self, rows: Sequence[int]) -> float:
        """The largest log sum_k P(high, k) P(low, k) / P(k) among the profiles
        ``rows``, k the count of high messages; -inf for none.  Only the counts
        both types can send add a term: one where a chance is 0 or 1."""
        worst = -math.inf
        for i in rows:
            if _SHARED[i] is None:
                high = self.log_prior[0] + self.log_comb + self.powers(_FLAGS[i][0])
                low = self.log_prior[1] + self.log_comb + self.powers(_FLAGS[i][1])
                terms = np.logaddexp(high, low)
                high += low
                high -= terms
                worst = max(worst, _logsumexp(high))
            for end in _SHARED[i] or ():
                high, low = (log + power for log, power in zip(self.log_prior,
                                                                self._end_powers(i, end)))
                worst = max(worst, high + low - _logaddexp(high, low))
        return worst


@functools.lru_cache(maxsize=256)
def _stable_profiles(n: int, p: float, q: float) -> tuple[tuple[StrategyProfile, ...], float]:
    """The stable profiles of one game and the log of their largest posterior
    variance, both from one ``_LogGame`` that decides and sums each orbit once."""
    game, carriers = _LogGame(n, p, q), np.flatnonzero(_ORBIT == np.arange(16))
    stable = carriers[~game.raised(carriers).any(axis=1)].tolist()
    return (tuple(a for a, i in zip(ALL_PROFILES, _ORBIT.tolist()) if i in stable),
            game.log_posterior_variance(stable))


def is_pbe(profile: StrategyProfile, config: GameConfig):
    """Certify ``profile`` as an equilibrium or return the first deviation.

    Decided on one game of its own, not ``enumerate_pbe``'s cached set, and
    on the six deviations of ``profile`` alone: biases are scanned negative
    first and alternatives in declaration order; the first deviation that
    raises the bias influence is the witness, so exact ties are
    non-deviations.  With none, or a zero gap, it certifies.
    """
    game = _LogGame(config.n_users, config.p_high, config.q_plus)
    i = ALL_PROFILES.index(profile)
    gains = game.gains(i, config.mean_gap)
    j = next(iter(np.flatnonzero(game.raised([i])[0])), None) if config.mean_gap else None
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

    Defined for positive-bias share above one half: the mirror of ``p1_high``.
    """
    if not 0.5 < q_plus <= 1.0:
        raise OutOfRegime("p1_low is defined for q_plus > 1/2")
    return 1.0 - p1_high(1.0 - q_plus)


def bias_thresholds(q_plus: float) -> BiasThresholds:
    """The honesty thresholds on the quality prior at this share: ``p1_high``
    for q_plus <= GOLDEN_LOW and ``p1_low`` for q_plus >= GOLDEN_HIGH, and
    ``None`` elsewhere, where neither reaches a prior in (0, 1)."""
    q = _check_chance("q_plus", q_plus)
    return BiasThresholds(p1_high=p1_high(q) if q <= GOLDEN_LOW else None,
                          p1_low=p1_low(q) if q >= GOLDEN_HIGH else None)


# ---------------------------------------------------------------------------
# system losses


def symmetric_bias_loss(n_users: int, p_high: float, mean_gap: float) -> float:
    """Worst-equilibrium loss for equally likely biases, any reviewer count."""
    n_users = _check_count("n_users", n_users)
    p = _check_chance("p_high", p_high)
    _check_gap("mean_gap", mean_gap)
    s = math.ldexp(1.0, -n_users)   # both ratios scaled by 2^-N, exactly
    scaled = math.ldexp(((1.0 - p) * p * mean_gap) * mean_gap, -n_users)
    return max(scaled / (p * s + (1.0 - p)), scaled / (s - (s - 1.0) * p))


def one_user_loss(p_high: float, q_plus: float, mean_gap: float) -> float:
    """Worst-equilibrium loss for one reviewer with any positive-bias share.

    Which equilibria exist depends on where the quality prior sits relative
    to the honesty thresholds, so the loss is regime-wise; in the middle
    regime all four equilibria coexist and the loss is the larger branch.
    """
    p, q = _check_chance("p_high", p_high), _check_chance("q_plus", q_plus)
    gap = _check_gap("mean_gap", mean_gap)
    loss_blind_high = (q * (1.0 - p) * p / (p + (1.0 - p) * q) * gap) * gap
    loss_blind_low = ((1.0 - q) * (1.0 - p) * p / (1.0 - q * p) * gap) * gap
    threshold = bias_thresholds(q)
    if threshold.p1_high is not None and p <= threshold.p1_high:
        return loss_blind_high
    if threshold.p1_low is not None and p >= threshold.p1_low:
        return loss_blind_low
    return max(loss_blind_high, loss_blind_low)


def bayesian_system_loss(config: GameConfig) -> float:
    """Worst enumerated-equilibrium cost in excess of the ideal cost floor.

    Under a profile's best-response rule that excess is gap^2 times the
    expected posterior variance of the type given the count k of high
    messages, gap^2 sum_k P(high, k) P(low, k) / P(k).  Its terms are summed
    in log space, so the loss is accurate and finite at any N.  It does
    underflow to 0.0 once it falls below the smallest double, at p = q = 0.3
    and gap 2 past about N = 8,500; the engine keeps its log,
    ``_stable_profiles(n, p, q)[1]``, which stays accurate at any N.
    """
    profiles, worst = _stable_profiles(config.n_users, config.p_high, config.q_plus)
    if not profiles:
        raise RuntimeError("no equilibrium found; the candidate set is incomplete")
    return (math.exp(worst) * config.mean_gap) * config.mean_gap


# Supremum of (abandoning loss - one-reviewer game loss) / gap^2, attained as the
# positive-bias share q_plus -> 0 with p_high = p1_high(q_plus), or q_plus -> 1 with
# p_high = p1_low(q_plus): the quality prior at the matching honesty threshold
MAX_LOSS_REDUCTION_ONE_USER = math.sqrt(5.0) - 2.0


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
    n_users = _check_count("n_users", n_users)
    if n_users < 2:
        raise ValueError("the three-type analysis needs at least two reviewers")
    if _check_gap("delta", delta) < 0:
        raise ValueError("delta must be nonnegative")
    s = math.ldexp(1.0, -n_users)   # 2^-N; the ratio is scaled by 2^-2N, exactly
    return (s + 5.0) * s / (3.0 * (2.0 * s + 1.0) * 4.0) * delta**2
