"""Independent oracles for the test suite.

Everything here recomputes expected values through a route different from the
library's: full enumeration instead of binomial grouping, published closed
forms instead of generic Bayes, direct quadrature instead of algebra, and a
numerical linear solve instead of the rational multiplier formulas.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate

from cheaptalk_lab.game import Bias, GameConfig, InferenceRule, ServiceType

C = math.comb


# ---------------------------------------------------------------------------
# brute-force expectations (exact enumeration over bias assignments)


def brute_force_utility(profile, rule, bias, config: GameConfig) -> float:
    focal = profile.strategy_for(bias)
    total = 0.0
    for service in ServiceType:
        p_type = config.type_prob(service)
        k_focal = 1 if focal.sends_high(service) else 0
        for combo in itertools.product(Bias, repeat=config.n_users - 1):
            w = math.prod(config.bias_prob(b) for b in combo)
            k = k_focal + sum(
                profile.strategy_for(b).sends_high(service) for b in combo)
            total += p_type * w * bias.weight * rule(k)
    return total


def brute_force_cost(profile, rule, config: GameConfig) -> float:
    total = 0.0
    for service, dist in ((ServiceType.HIGH, config.pair.high),
                          (ServiceType.LOW, config.pair.low)):
        p_type = config.type_prob(service)
        for combo in itertools.product(Bias, repeat=config.n_users):
            w = math.prod(config.bias_prob(b) for b in combo)
            k = sum(profile.strategy_for(b).sends_high(service) for b in combo)
            total += p_type * w * ((rule(k) - dist.mean) ** 2 + dist.variance)
    return total


def brute_force_majority_loss(config: GameConfig) -> float:
    """Expected squared mean error when every reviewer messages his bias."""
    from cheaptalk_lab.benchmarks import majority_vote_rule

    rule = majority_vote_rule(config)
    total = 0.0
    for combo in itertools.product(Bias, repeat=config.n_users):
        w = math.prod(config.bias_prob(b) for b in combo)
        k = sum(1 for b in combo if b is Bias.POSITIVE)
        a = rule(k)
        total += w * (config.p_high * (a - config.mu_high) ** 2
                      + (1.0 - config.p_high) * (a - config.mu_low) ** 2)
    return total


# ---------------------------------------------------------------------------
# published per-combination expected utilities (all 16, general N and q)


def closed_form_utility(idx: int, bias_positive: bool, n: int, q: float,
                        p: float, mu_h: float, mu_l: float) -> float:
    if idx in (1, 3):
        d = p * (1 - q) ** n + 1 - p
        if not bias_positive:
            return ((-p * (1 - q) ** (n - 1) + p - 1)
                    * (p * mu_h * (1 - q) ** n + (1 - p) * mu_l)) / d \
                - p * mu_h * (1 - (1 - q) ** (n - 1))
        return (1 - p) * ((1 - p) * mu_l + mu_h * p * (1 - q) ** n) / d + mu_h * p
    if idx in (2, 4):
        blend = (p * mu_h + (1 - p) * q**n * mu_l) / (p + (1 - p) * q**n)
        if not bias_positive:
            return -p * blend - (1 - p) * mu_l
        return ((1 - p) * q ** (n - 1) * ((1 - p) * mu_l * q**n + mu_h * p)
                / ((1 - p) * q**n + p)
                + (1 - p) * mu_l * (1 - q ** (n - 1))
                + p * ((1 - p) * mu_l * q**n + mu_h * p) / ((1 - p) * q**n + p))
    if idx == 5:
        def v(k):
            num = p * q**k * (1 - q) ** (n - k) * mu_h \
                + (1 - p) * (1 - q) ** k * q ** (n - k) * mu_l
            den = p * q**k * (1 - q) ** (n - k) \
                + (1 - p) * (1 - q) ** k * q ** (n - k)
            return num / den
        if not bias_positive:
            return (-p * sum(C(n - 1, k) * q**k * (1 - q) ** (n - 1 - k) * v(k)
                             for k in range(n))
                    - (1 - p) * sum(C(n - 1, k - 1) * (1 - q) ** (k - 1)
                                    * q ** (n - k) * v(k)
                                    for k in range(1, n + 1)))
        return (p * sum(C(n - 1, k - 1) * q ** (k - 1) * (1 - q) ** (n - k) * v(k)
                        for k in range(1, n + 1))
                + (1 - p) * sum(C(n - 1, k) * (1 - q) ** k * q ** (n - k - 1) * v(k)
                                for k in range(n)))
    if idx == 6:
        def v(k):
            num = p * (1 - q) ** k * q ** (n - k) * mu_h \
                + (1 - p) * q**k * (1 - q) ** (n - k) * mu_l
            den = p * (1 - q) ** k * q ** (n - k) \
                + (1 - p) * q**k * (1 - q) ** (n - k)
            return num / den
        if not bias_positive:
            return (-p * sum(C(n - 1, k - 1) * (1 - q) ** (k - 1) * q ** (n - k) * v(k)
                             for k in range(1, n + 1))
                    - (1 - p) * sum(C(n - 1, k) * q**k * (1 - q) ** (n - k - 1) * v(k)
                                    for k in range(n)))
        return (p * sum(C(n - 1, k) * (1 - q) ** k * q ** (n - 1 - k) * v(k)
                        for k in range(n))
                + (1 - p) * sum(C(n - 1, k - 1) * q ** (k - 1) * (1 - q) ** (n - k) * v(k)
                                for k in range(1, n + 1)))
    if idx in (7, 8, 9, 10, 11, 16):
        m = p * mu_h + (1 - p) * mu_l
        return m if bias_positive else -m
    if idx in (12, 13):
        blend = (p * mu_h + (1 - p) * (1 - q) ** n * mu_l) \
            / (p + (1 - p) * (1 - q) ** n)
        if not bias_positive:
            return (-(p + (1 - p) * (1 - q) ** (n - 1)) * blend
                    - (1 - p) * (1 - (1 - q) ** (n - 1)) * mu_l)
        return p * blend + (1 - p) * mu_l
    if idx in (14, 15):
        blend = (p * q**n * mu_h + (1 - p) * mu_l) / (p * q**n + (1 - p))
        if not bias_positive:
            return -p * mu_h - (1 - p) * blend
        return (p * q ** (n - 1) + 1 - p) * blend + p * (1 - q ** (n - 1)) * mu_h
    raise ValueError(idx)


# ---------------------------------------------------------------------------
# published best-response rating rules


def rule_half_share(idx: int, n: int, p: float, mu_h: float, mu_l: float
                    ) -> dict[int, float]:
    """Rules for combinations 1-6 at equal bias shares, any reviewer count."""
    prior = p * mu_h + (1 - p) * mu_l
    half = 0.5**n
    low_blend = (p * half * mu_h + (1 - p) * mu_l) / (p * half + (1 - p))
    high_blend = (p * mu_h + (1 - p) * half * mu_l) / (p + (1 - p) * half)
    if idx == 1:
        return {k: (low_blend if k == 0 else mu_h) for k in range(n + 1)}
    if idx == 2:
        return {k: (high_blend if k == n else mu_l) for k in range(n + 1)}
    if idx == 3:
        return {k: (low_blend if k == n else mu_h) for k in range(n + 1)}
    if idx == 4:
        return {k: (high_blend if k == 0 else mu_l) for k in range(n + 1)}
    if idx in (5, 6):
        return {k: prior for k in range(n + 1)}
    raise ValueError(idx)


def rule_one_user(idx: int, q: float, p: float, mu_h: float, mu_l: float
                  ) -> dict[int, float]:
    """Rules for combinations 1-6 with one reviewer and any bias share.

    Keys are the high-message count: 1 means the message was high.
    """
    low_blend = (p * (1 - q) * mu_h + (1 - p) * mu_l) / (p * (1 - q) + (1 - p))
    high_blend = (p * mu_h + (1 - p) * q * mu_l) / (p + (1 - p) * q)
    pos_blend = (p * q * mu_h + (1 - p) * (1 - q) * mu_l) \
        / (p * q + (1 - p) * (1 - q))
    neg_blend = (p * (1 - q) * mu_h + (1 - p) * q * mu_l) \
        / (p * (1 - q) + (1 - p) * q)
    return {
        1: {1: mu_h, 0: low_blend},
        2: {1: high_blend, 0: mu_l},
        3: {1: low_blend, 0: mu_h},
        4: {1: mu_l, 0: high_blend},
        5: {1: pos_blend, 0: neg_blend},
        6: {1: neg_blend, 0: pos_blend},
    }[idx]


def rule_remaining(idx: int, n: int, q: float, p: float, mu_h: float,
                   mu_l: float) -> dict[int, float]:
    """On-path rule entries for combinations 7-16, any count and share."""
    prior = p * mu_h + (1 - p) * mu_l
    neg_blind = (p * mu_h + (1 - p) * (1 - q) ** n * mu_l) \
        / (p + (1 - p) * (1 - q) ** n)
    pos_blind = (p * q**n * mu_h + (1 - p) * mu_l) / (p * q**n + (1 - p))
    if idx == 7:
        return {n: mu_h, 0: mu_l}
    if idx in (8, 9, 10, 11):
        return {k: prior for k in range(n + 1)}
    if idx == 12:
        return {n: neg_blind, **{k: mu_l for k in range(n)}}
    if idx == 13:
        return {0: neg_blind, **{k: mu_l for k in range(1, n + 1)}}
    if idx == 14:
        return {0: pos_blind, **{k: mu_h for k in range(1, n + 1)}}
    if idx == 15:
        return {n: pos_blind, **{k: mu_h for k in range(n)}}
    if idx == 16:
        return {n: mu_l, 0: mu_h}
    raise ValueError(idx)


# ---------------------------------------------------------------------------
# distribution integrals


def normal_ratio_integral(mu_num: float, var_num: float, mu_den: float,
                          var_den: float) -> float:
    """Closed form of the squared-ratio integral for two normal densities."""
    u = 1.0 / var_num
    v = 1.0 / (2.0 * var_den)
    c = u - v
    if c <= 0:
        raise ValueError("integral diverges")
    d = u * mu_num - v * mu_den
    e = u * mu_num**2 - v * mu_den**2
    return (math.sqrt(var_den) / (var_num * math.sqrt(2.0 * math.pi))
            * math.sqrt(math.pi / c) * math.exp(d * d / c - e))


# ---------------------------------------------------------------------------
# commitment mechanism cross-checks


def multipliers_by_linear_solve(p: float, gap: float, alpha: float,
                                beta: float, horizon: int) -> tuple[float, float]:
    """Solve the two binding truthfulness equalities numerically.

    The horizon sums of the expected action difference under each density are
    linear in the multipliers, via E[ratio] = 1, E[1/ratio] = alpha^(k-1)
    under the low density and E[ratio] = beta^(k-1), E[1/ratio] = 1 under the
    high one.
    """
    t = float(horizon)
    s_a = sum(alpha**k for k in range(horizon))
    s_b = sum(beta**k for k in range(horizon))
    mat = np.array([
        [t / (2 * (1 - p)) + s_a / (2 * p), t / (2 * (1 - p)) + t / (2 * p)],
        [t / (2 * (1 - p)) + t / (2 * p), s_b / (2 * (1 - p)) + t / (2 * p)],
    ])
    rhs = np.array([t * gap, t * gap])
    lam_low, lam_high = np.linalg.solve(mat, rhs)
    return float(lam_low), float(lam_high)


def loss_by_moment_sums(p: float, lam_low: float, lam_high: float,
                        alpha: float, beta: float, horizon: int) -> float:
    """Per-period loss from the second moments of the action offsets."""
    s_a = sum(alpha**k for k in range(horizon))
    s_b = sum(beta**k for k in range(horizon))
    t = float(horizon)
    high_part = (t * lam_high**2 + 2 * t * lam_high * lam_low
                 + lam_low**2 * s_a) / (4 * p)
    low_part = (lam_high**2 * s_b + 2 * t * lam_high * lam_low
                + t * lam_low**2) / (4 * (1 - p))
    return (high_part + low_part) / t


def ic_sums_by_quadrature(schedule) -> tuple[float, float]:
    """Two-period truthfulness sums integrated directly against the densities."""
    assert schedule.horizon == 2
    pair = schedule.pair

    def diff(theta):
        from cheaptalk_lab.distributions import log_likelihood_ratio
        a_low, a_high = schedule.actions_from_log_ratio(
            log_likelihood_ratio(pair, theta))
        return a_low - a_high

    a_low0, a_high0 = schedule.actions_from_log_ratio(0.0)
    d0 = a_low0 - a_high0
    width = 14.0 * max(pair.low.scale, pair.high.scale)
    lo = min(pair.mu_low, pair.mu_high) - width
    hi = max(pair.mu_low, pair.mu_high) + width
    s_low = d0 + integrate.quad(
        lambda t: diff(t) * pair.low.density(t), lo, hi, limit=300)[0]
    s_high = d0 + integrate.quad(
        lambda t: diff(t) * pair.high.density(t), lo, hi, limit=300)[0]
    return s_low, s_high


def cost_by_quadrature_two_periods(schedule) -> float:
    """Per-period expected cost of a two-period schedule, by quadrature."""
    assert schedule.horizon == 2
    pair = schedule.pair
    p = schedule.p_high
    from cheaptalk_lab.distributions import log_likelihood_ratio

    total = 0.0
    for dist, weight, pick in ((pair.high, p, 1), (pair.low, 1.0 - p, 0)):
        a0 = schedule.actions_from_log_ratio(0.0)[pick]
        total += weight * ((a0 - dist.mean) ** 2 + dist.variance)

        def period_two(theta):
            a1 = schedule.actions_from_log_ratio(
                log_likelihood_ratio(pair, theta))[pick]
            return ((a1 - dist.mean) ** 2 + dist.variance) * dist.density(theta)

        width = 14.0 * max(pair.low.scale, pair.high.scale)
        lo = min(pair.mu_low, pair.mu_high) - width
        hi = max(pair.mu_low, pair.mu_high) + width
        total += weight * integrate.quad(period_two, lo, hi, limit=300)[0]
    return total / 2.0


# ---------------------------------------------------------------------------
# sequential deviation closed forms (two reviewers, equal shares)


def sequential_utilities(p: float, mu_h: float, mu_l: float) -> dict[str, float]:
    gap = mu_h - mu_l
    quarter_blend = (p * 0.25 * mu_h + (1 - p) * mu_l) / (p * 0.25 + (1 - p))
    return {
        "plan1": p * mu_h + (1 - p) * mu_l,
        "plan2": p**2 * gap / 2.0 + p * gap / 2.0 + mu_l,
        "plan3": p * mu_h + (1 - p) * mu_l,
        "plan4": p * mu_h + (1 - p) * quarter_blend,
    }


def three_type_loss_direct(n: int, delta: float) -> float:
    """Worst-equilibrium loss with a middle type, rebuilt from the rating rule.

    At the blind-low/honest equilibrium only the all-low message profile is
    ambiguous; the posterior there weighs the three types (x, x, 1) with
    x = 2^-n, and the loss is the posterior-mean error averaged over types.
    """
    x = 2.0**-n
    return delta**2 * x * (2 * x**2 + 11 * x + 5) / (12.0 * (2 * x + 1) ** 2)
