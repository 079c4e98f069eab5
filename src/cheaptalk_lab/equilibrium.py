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

Which profiles have a nonzero influence, their flags, the sign of each jump
post(k+1) - post(k) and the signs of their parts depend only on whether
p = 1/2 and on the sign of q - 1/2, so they are tables built at import
(``_ACTIVE``).  The parts of all those profiles are then one array pass: the
log-odds, the jumps and the part log-sum-exps are (rows, count) arrays.  The
rows go in groups whose (rows, N + 1) arrays hold at most ``_BUDGET``
elements: all active profiles are one pass up to N = 6,552, and from
N = 32,768 on the pass takes one profile at a time, so memory stays that of
one profile's arrays.  The posterior variances of the stable profiles are
summed the same way.

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


def _active(half: bool, side: int):
    """The profiles with a nonzero influence in the games of one case
    (p == 1/2, sign of q - 1/2): their rows, the signs of post(k+1) - post(k)
    as a (rows, 1) array, and their parts as (position, row, type, sign).
    Chances are ordered at the case's share 1/4, 1/2 or 3/4, exact in floats."""
    rows, ups, parts = [], [], []
    for i, (high, low) in enumerate(_FLAGS):
        s_high, s_low = high[0] - high[1], low[0] - low[1]
        h_high, h_low = (_chance(0.5 + side / 4, flags) for flags in (high, low))
        if ((s_high == 0 and s_low == 0) or h_high == h_low
                or (half and low == (not high[0], not high[1]) and s_high == -s_low)):
            continue
        up = 1 if h_high > h_low else -1
        parts += [(len(rows), i, t, s * up) for t, s in enumerate((s_high, s_low)) if s]
        rows.append(i)
        ups.append(up)
    return tuple(rows), np.array(ups, dtype=float)[:, None], tuple(parts)


_ACTIVE = {(half, side): _active(half, side) for half in (False, True) for side in (-1, 0, 1)}

_BUDGET = 2**16   # elements of one row group's (rows, N + 1) arrays


def _logsumexp_rows(x: np.ndarray) -> list[float]:
    """log sum exp of each row of ``x``, which it overwrites."""
    top = x.max(axis=1)
    x -= np.where(top > -math.inf, top, 0.0)[:, None]
    np.exp(x, out=x)
    return [t if t == -math.inf else t + math.log(s)
            for t, s in zip(top.tolist(), x.sum(axis=1).tolist())]


def _log1mexp(x: float) -> float:
    """log(1 - e^-x) for x > 0."""
    return math.log(-math.expm1(-x)) if x < math.log(2.0) else math.log1p(-math.exp(-x))


def _powers_of(kernel: _CountKernel, flags) -> np.ndarray:
    """The cached ``powers`` of each flag pair as rows; one row is a view."""
    rows = [kernel.powers(f) for f in flags]
    return rows[0][None] if len(rows) == 1 else np.array(rows)


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

    def _groups(self, count: int):
        """Slices of ``count`` rows whose (rows, N + 1) arrays stay within ``_BUDGET``."""
        size = max(1, _BUDGET // (self.n + 1))
        return (slice(start, min(start + size, count)) for start in range(0, count, size))

    def _log_jumps(self, rows: tuple[int, ...], ups: np.ndarray) -> np.ndarray:
        """log |post(j+1) - post(j)|, j = 0..N-1, for each profile of ``rows``."""
        highs, lows = zip(*(_FLAGS[i] for i in rows))
        log_odds = (self.log_prior[0] - self.log_prior[1]
                    + _powers_of(self, highs) - _powers_of(self, lows))
        # sigma(hi) - sigma(lo) = sigma(-lo) - sigma(-hi): negated, the log-odds
        # of a falling posterior rise like the others
        log_odds *= ups
        hi, lo = log_odds[:, 1:], log_odds[:, :-1]
        logit = {flags: lh - lc for flags, (lh, lc) in self.log_chance.items()}
        steps = [_log1mexp(abs(logit[high] - logit[low]))   # hi - lo where finite
                 for high, low in zip(highs, lows)]
        # log(sigma(hi) - sigma(lo)) = log sigma(hi) + log sigma(-lo) + log(1 - e^(lo - hi))
        return -np.logaddexp(0.0, -hi) - np.logaddexp(0.0, lo) + np.array(steps)[:, None]

    @functools.cached_property
    def influences(self) -> tuple[np.ndarray, np.ndarray]:
        """Signs and log-magnitudes of every profile's parts, shape (16, 2); an
        absent part has sign 0 and log -inf.

        The parts of all active profiles are one array pass per group of rows
        whose (rows, N + 1) arrays stay within ``_BUDGET`` elements: every
        profile at once for small N, one at a time for large N."""
        signs, logs = np.zeros((16, 2)), np.full((16, 2), -math.inf)
        active, ups, parts = _ACTIVE[self.p == 0.5, (self.q > 0.5) - (self.q < 0.5)]
        for group in self._groups(len(active)):
            log_jump = self._log_jumps(active[group], ups[group])
            at, rows, types, part_signs = zip(
                *(part for part in parts if group.start <= part[0] < group.stop))
            terms = (np.array([self.log_prior[t] for t in types])[:, None]
                     + self.others.log_comb)
            terms += _powers_of(self.others, (_FLAGS[i][t] for i, t in zip(rows, types)))
            # a lone row broadcasts; gathering it would copy it for each part
            terms += log_jump if len(log_jump) == 1 else log_jump[np.array(at) - group.start]
            signs[rows, types], logs[rows, types] = part_signs, _logsumexp_rows(terms)
        return signs, logs

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
        the margin is clear, two exact zeros never, and by ``_exact`` otherwise."""
        value, size, _ = self.deviations
        value, size = value[rows], size[rows]
        raised = value > 0.0
        signs = self.influences[0]
        for r, j in zip(*np.nonzero((np.abs(value) <= self.tolerance * size) & (size > 0.0))):
            from . import _exact   # loads decimal; only when floats cannot decide

            i = rows[r]
            a, b = ALL_PROFILES[_TARGETS[i, j]], ALL_PROFILES[i]
            raised[r, j] = _exact.exceeds(a if signs[_TARGETS[i, j]].any() else None,
                                          b if signs[i].any() else None,
                                          (PROFILE_LABELS[a], PROFILE_LABELS[b]),
                                          self.n, self.p, self.q, abs(value[r, j]) / size[r, j])
        return raised

    def gains(self, i: int, mean_gap: float) -> dict[tuple[Bias, PureStrategy], float]:
        value, _, top = self.deviations
        return {(bias, alt): mean_gap * (self.q if bias is Bias.NEGATIVE else 1.0 - self.q)
                * float(value[i, j]) * math.exp(top[i, j])
                for j, (bias, alt) in enumerate(_alternatives(ALL_PROFILES[i]))}

    def log_posterior_variance(self, rows: Sequence[int]) -> float:
        """The largest log sum_k P(high, k) P(low, k) / P(k) among the profiles
        ``rows``, k the count of high messages; -inf for none."""
        worst = -math.inf
        for group in self._groups(len(rows)):
            highs, lows = zip(*(_FLAGS[i] for i in rows[group]))
            high = self.log_prior[0] + self.log_comb + _powers_of(self, highs)
            low = self.log_prior[1] + self.log_comb + _powers_of(self, lows)
            both = np.isfinite(high) & np.isfinite(low)
            terms = np.logaddexp(high, low)
            high += low
            np.subtract(high, terms, out=terms, where=both)
            terms[~both] = -math.inf   # no count k that both types can send
            worst = max(worst, *_logsumexp_rows(terms))
        return worst


@functools.lru_cache(maxsize=256)
def _stable_profiles(n: int, p: float, q: float) -> tuple[tuple[StrategyProfile, ...], float]:
    """The stable profiles of one game and the log of their largest posterior
    variance, both from one ``_LogGame``."""
    game = _LogGame(n, p, q)
    rows = np.flatnonzero(~game.raised().any(axis=1))
    return tuple(ALL_PROFILES[i] for i in rows), game.log_posterior_variance(rows)


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
