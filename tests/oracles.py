"""Independent oracles for the test suite.

Everything here recomputes expected values through a route different from the
library's: full enumeration instead of binomial grouping, published closed
forms instead of generic Bayes, direct quadrature instead of algebra, a
numerical linear solve instead of the rational multiplier formulas, a
per-reviewer game simulation instead of the binomial count of high messages,
the commitment mechanism's every per-period action instead of the history
kernel's sums of r and 1/r, its excess sums term by term or in the geometric
closed form in mpmath instead of the library's series, scipy.stats' log
densities instead of the library's, the separation integrals in mpmath (the
logistic one through its gamma functions instead of the library's sine form,
the Laplace one piece by piece, the normal one in variances) instead of the
library's scale ratios, and their convergence by the exact tail decay of each
density instead of the sign of the closed forms' spreads.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy import integrate

from cheaptalk_lab._rng import Moments, chunked_generators, history_chunk
from cheaptalk_lab.evolving import IcResiduals
from cheaptalk_lab.game import (Bias, GameConfig, InferenceRule, PureStrategy,
                                ServiceType, min_expected_cost)
from cheaptalk_lab.montecarlo import EvolvingReport, SimulationReport

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
            total += p_type * w * bias.value * rule(k)
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


def majority_vote_rule(config: GameConfig) -> InferenceRule:
    """Rate at the winning side's mean; fall back to the prior mean on ties."""
    n = config.n_users
    actions = []
    for k in range(n + 1):
        if 2 * k > n:
            actions.append(config.mu_high)
        elif 2 * k == n:
            actions.append(config.prior_mean)
        else:
            actions.append(config.mu_low)
    return InferenceRule(tuple(actions))


def brute_force_majority_loss(config: GameConfig) -> float:
    """Expected squared mean error when every reviewer messages his bias."""
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
# per-reviewer Monte Carlo of the one-shot game


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def per_reviewer_simulation(config: GameConfig, profile, rule: InferenceRule,
                            samples: int, seed: int) -> SimulationReport:
    """Play the one-shot game drawing every reviewer's bias and message.

    Each sample draws the type, all N biases as a (samples, N) matrix and
    both states; every reviewer messages by the strategy of its bias, and
    the high messages are counted reviewer by reviewer.  Memory grows with
    N, so this is for small games only.
    """
    rng = np.random.default_rng(seed)
    is_high = rng.random(samples) < config.p_high
    is_pos = rng.random((samples, config.n_users)) < config.q_plus
    theta = np.where(is_high, config.pair.high.sample(rng, samples),
                     config.pair.low.sample(rng, samples))

    def sends(service, bias):
        return profile.strategy_for(bias).sends_high(service)

    high_msgs = np.where(
        is_high[:, None],
        np.where(is_pos, sends(ServiceType.HIGH, Bias.POSITIVE),
                 sends(ServiceType.HIGH, Bias.NEGATIVE)),
        np.where(is_pos, sends(ServiceType.LOW, Bias.POSITIVE),
                 sends(ServiceType.LOW, Bias.NEGATIVE)))
    a = np.asarray(rule.actions)[np.count_nonzero(high_msgs, axis=1)]
    focal_pos = is_pos[:, 0]
    mean_cost, se_cost = _mean_stderr((a - theta) ** 2)
    mean_pos, se_pos = _mean_stderr(a[focal_pos])
    mean_neg, se_neg = _mean_stderr(-a[~focal_pos])
    return SimulationReport(
        samples=samples, seed=seed,
        mean_cost=mean_cost, stderr_cost=se_cost,
        mean_utility_negative=mean_neg, stderr_utility_negative=se_neg,
        count_negative=int(samples - focal_pos.sum()),
        mean_utility_positive=mean_pos, stderr_utility_positive=se_pos,
        count_positive=int(focal_pos.sum()),
    )


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


def closed_form_equilibrium_set(n: int, p: float, q: float, dps: int = 60) -> set[str]:
    """Labels of the stable profiles, from ``closed_form_utility`` in mpmath.

    Utilities take means -1 and 1 (the set does not depend on them) and
    ``dps`` digits, and a gain counts as a deviation above 10^-(dps - 8).  At
    the default 60 digits, true gains for N <= 44 exceed 1e-45 and closed-form
    ties come out below 1e-55, so the bound 1e-52 tells them apart.
    """
    import mpmath

    from cheaptalk_lab.game import ALL_PROFILES, PROFILE_LABELS

    with mpmath.workdps(dps):
        pp, qq, one = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(1)
        utility = {(profile, bias): closed_form_utility(
                       idx, bias is Bias.POSITIVE, n, qq, pp, one, -one)
                   for idx, profile in enumerate(ALL_PROFILES, start=1)
                   for bias in Bias}
        eps = mpmath.mpf(10) ** -(dps - 8)
        return {PROFILE_LABELS[profile] for profile in ALL_PROFILES
                if all(utility[profile.with_strategy(bias, alt), bias]
                       - utility[profile, bias] <= eps
                       for bias in Bias for alt in PureStrategy)}


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


def _tail_decay(num, den):
    """(quadratic, linear) decay coefficients of the log tail of num^2/den as
    exact fractions of the scales: a normal log density falls like
    theta^2 / (2 scale^2), a Laplace or logistic one like |theta| / scale."""
    from fractions import Fraction   # on demand: the benchmark loads this file

    def tail(dist):
        scale = Fraction(dist.scale)
        if dist.family.value == "normal":
            return 1 / (2 * scale**2), 0
        return 0, 1 / scale

    (q_num, r_num), (q_den, r_den) = tail(num), tail(den)
    return 2 * q_num - q_den, 2 * r_num - r_den


def ratio_integral_diverges(num, den) -> bool:
    """Whether the squared-ratio integral num^2/den diverges by the tail rule:
    it converges iff the quadratic coefficient is positive, or zero with a
    positive linear rate."""
    quad_coeff, rate = _tail_decay(num, den)
    return not (quad_coeff > 0 or (quad_coeff == 0 and rate > 0))


def ratio_integral_by_quadrature(num, den) -> float:
    """Adaptive quadrature of the squared-ratio integral num^2/den over the line.

    The line is truncated where the integrand's tail falls below ~e^-60, and
    doubling the truncation width must not change the estimate.
    """
    assert not ratio_integral_diverges(num, den), "the integral diverges"
    quad_coeff, rate = _tail_decay(num, den)

    centers = sorted({num.location, den.location})
    width = 12.0 * max(num.scale, den.scale)
    if quad_coeff > 0:
        width = max(width, math.sqrt(60.0 / quad_coeff))
    else:
        width = max(width, 60.0 / rate)
    lo, hi = centers[0] - width, centers[-1] + width

    def integrand(t):
        return math.exp(2.0 * num.log_density(t) - den.log_density(t))

    def run(a, b):
        return integrate.quad(integrand, a, b, points=centers, limit=500,
                              epsabs=1e-13, epsrel=1e-11)

    value, _ = run(lo, hi)
    wide, wide_err = run(lo - width, hi + width)
    assert wide - value <= 1e-8 * max(abs(wide), 1.0), "the estimate grows with the width"
    assert wide_err <= 1e-9 * max(abs(wide), 1.0), f"quadrature error {wide_err:.3e}"
    return wide


def logistic_ratio_integral(mu_num: float, s_num: float, mu_den: float,
                            s_den: float) -> float:
    """The squared-ratio integral of two logistic densities in 40-digit mpmath,
    (s_d / s_n) (2 cosh((m_n - m_d) / s_d) B(2 + r, 2 - r) + 1/3) with
    r = s_n / s_d, from its gamma functions rather than a sine."""
    # on demand: the benchmark loads this file for its closed forms
    import mpmath

    with mpmath.workdps(40):
        mu_num, s_num, mu_den, s_den = map(mpmath.mpf, (mu_num, s_num, mu_den, s_den))
        r = s_num / s_den
        return float(s_den / s_num * (2 * mpmath.cosh((mu_num - mu_den) / s_den)
                                      * mpmath.beta(2 + r, 2 - r) + mpmath.mpf(1) / 3))


def laplace_ratio_integral(mu_num: float, b: float, mu_den: float, c: float) -> float:
    """The squared-ratio integral of two Laplace densities in 40-digit mpmath,
    piece by piece: (c / 2b^2) times the integral of exp(-2|t - m|/b + |t - n|/c),
    two tails of rate 2/b - 1/c beyond the locations and a middle piece of rate
    2/b + 1/c, the exponent being d/c at m and -2d/b at n, d = |m - n|."""
    import mpmath

    with mpmath.workdps(40):
        b, c = mpmath.mpf(b), mpmath.mpf(c)
        d = abs(mpmath.mpf(mu_num) - mpmath.mpf(mu_den))
        at_num, at_den = mpmath.exp(d / c), mpmath.exp(-2 * d / b)
        return float(c / (2 * b * b) * ((at_num + at_den) / (2 / b - 1 / c)
                                        + (at_num - at_den) / (2 / b + 1 / c)))


def normal_ratio_integral_mpmath(mu_num: float, s_num: float, mu_den: float,
                                 s_den: float) -> float:
    """The squared-ratio integral of two normal densities in 40-digit mpmath, in
    variances: v_d exp((m_n - m_d)^2 / (2 v_d - v_n)) / sqrt(v_n (2 v_d - v_n))."""
    import mpmath

    with mpmath.workdps(40):
        v_num, v_den = mpmath.mpf(s_num) ** 2, mpmath.mpf(s_den) ** 2
        spread = 2 * v_den - v_num
        return float(v_den * mpmath.exp((mpmath.mpf(mu_num) - mpmath.mpf(mu_den)) ** 2 / spread)
                     / mpmath.sqrt(v_num * spread))


def normal_log_ratio_integral_mpmath(mu_num: float, s_num: float, mu_den: float,
                                     s_den: float) -> float:
    """The log of the same integral in 40-digit mpmath, (m_n - m_d)^2 /
    (2 v_d - v_n) + log v_d - log(v_n (2 v_d - v_n)) / 2: finite where the
    integral passes the double range."""
    import mpmath

    with mpmath.workdps(40):
        v_num, v_den = mpmath.mpf(s_num) ** 2, mpmath.mpf(s_den) ** 2
        spread = 2 * v_den - v_num
        return float((mpmath.mpf(mu_num) - mpmath.mpf(mu_den)) ** 2 / spread
                     + mpmath.log(v_den) - mpmath.log(v_num * spread) / 2)


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


def log_ratio(pair, theta):
    """Log of the high to the low density at ``theta``, from scipy.stats."""
    # on demand: the benchmark loads this file for its closed forms
    from scipy import stats

    def logpdf(dist):
        family = {"normal": stats.norm, "laplace": stats.laplace,
                  "logistic": stats.logistic}[dist.family.value]
        return family.logpdf(theta, dist.location, dist.scale)
    return logpdf(pair.high) - logpdf(pair.low)


def ic_sums_by_quadrature(schedule) -> tuple[float, float]:
    """Two-period truthfulness sums integrated directly against the densities."""
    assert schedule.horizon == 2
    pair = schedule.pair

    def diff(theta):
        a_low, a_high = schedule.actions_from_log_ratio(log_ratio(pair, theta))
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


def ic_sum_variance(schedule, dist) -> float:
    """Exact variance of the IC sum T (c_low - c_high) + sum_{t<T} (k_low r_t
    + k_high / r_t) over histories drawn from ``dist``, for a schedule of an
    equal-variance normal pair.

    One state's ratio x has log x = g (theta - mid), g = gap / sigma^2, so
    under normal(m, sigma^2) E x^a = exp(a g (m - mid) + a^2 g^2 sigma^2 / 2).
    For s <= t, r_t is r_s times the t - s independent ratios after it, so
    Cov(r_s^a, r_t^b) = M(a + b)^s M(b)^(t - s) - M(a)^s M(b)^t: the variance
    is a double sum over (s, t) of geometric terms.
    """
    pair = schedule.pair
    assert {pair.low.family.value, pair.high.family.value, dist.family.value} == {"normal"}
    assert pair.low.scale == pair.high.scale == dist.scale
    sigma, (_, k_low, _, k_high) = dist.scale, schedule.coefficients
    g = (pair.high.location - pair.low.location) / sigma**2
    mid = (pair.high.location + pair.low.location) / 2

    def m(a):
        return math.exp(a * g * (dist.location - mid) + (a * g * sigma) ** 2 / 2)

    weights = ((1, k_low), (-1, k_high))   # r_t^1 and r_t^-1
    total = 0.0
    for s, t in itertools.product(range(schedule.horizon), repeat=2):
        s, t = min(s, t), max(s, t)
        for (a, k_a), (b, k_b) in itertools.product(weights, repeat=2):
            total += k_a * k_b * (m(a + b) ** s * m(b) ** (t - s) - m(a) ** s * m(b) ** t)
    return total


def cost_by_quadrature_two_periods(schedule) -> float:
    """Per-period expected cost of a two-period schedule, by quadrature."""
    assert schedule.horizon == 2
    pair = schedule.pair
    p = schedule.p_high

    total = 0.0
    for dist, weight, pick in ((pair.high, p, 1), (pair.low, 1.0 - p, 0)):
        a0 = schedule.actions_from_log_ratio(0.0)[pick]
        total += weight * ((a0 - dist.mean) ** 2 + dist.variance)

        def period_two(theta):
            a1 = schedule.actions_from_log_ratio(log_ratio(pair, theta))[pick]
            return ((a1 - dist.mean) ** 2 + dist.variance) * dist.density(theta)

        width = 14.0 * max(pair.low.scale, pair.high.scale)
        lo = min(pair.mu_low, pair.mu_high) - width
        hi = max(pair.mu_low, pair.mu_high) + width
        total += weight * integrate.quad(period_two, lo, hi, limit=300)[0]
    return total / 2.0


def log_excess_mpmath(log_r: float, horizon: int) -> float:
    """log e, e = sum_{t<T} (r^t - 1) = expm1(T L) / expm1(L) - T with L = log r,
    in mpmath with 50 digits beyond those the subtraction cancels."""
    # on demand: the benchmark loads this file for its closed forms
    import mpmath

    lost = max(0, int(-mpmath.log10(mpmath.mpf(log_r) * horizon)))
    with mpmath.workdps(50 + lost):
        log_r = mpmath.mpf(log_r)
        return float(mpmath.log(mpmath.expm1(horizon * log_r) / mpmath.expm1(log_r)
                                - horizon))


def commitment_loss_mpmath(p: float, gap: float, alpha: float, beta: float,
                           horizon: int) -> float:
    """Per-period commitment loss of the float alpha, beta, from their logs
    taken in 60-digit mpmath."""
    import mpmath

    with mpmath.workdps(60):
        return commitment_loss_from_logs_mpmath(p, gap, mpmath.log(alpha), mpmath.log(beta),
                                                horizon)


def commitment_loss_from_logs_mpmath(p: float, gap: float, log_alpha: float,
                                     log_beta: float, horizon: int) -> float:
    """Per-period commitment loss p(1-p) gap^2 x / (x + p(1-p)) with
    x = T ((1 - p) / e_beta + p / e_alpha), each excess sum
    e = sum_{t<T} expm1(t L) summed term by term in 60-digit mpmath from
    L = log alpha or log beta, never from the integrals' values, which may pass
    the double range; an e of 0 leaves the abandoning loss p(1-p) gap^2."""
    import mpmath

    with mpmath.workdps(60):
        p, gap = mpmath.mpf(p), mpmath.mpf(gap)
        pq = p * (1 - p)
        e_a, e_b = (mpmath.fsum(mpmath.expm1(t * mpmath.mpf(log_r)) for t in range(horizon))
                    for log_r in (log_alpha, log_beta))
        if e_a == 0 or e_b == 0:
            return float(pq * gap**2)
        x = horizon * ((1 - p) / e_b + p / e_a)
        return float(pq * gap**2 * x / (x + pq))


def equal_variance_loss_mpmath(p: float, gap: float, variance: float,
                               horizon: int) -> float:
    """Per-period commitment loss of a normal pair with a shared variance,
    gap^2 / (e/T + 1/(p(1-p))) with e = sum_{t<T} expm1(t L) and L = gap^2 /
    variance, summed term by term in 60-digit mpmath."""
    import mpmath

    with mpmath.workdps(60):
        p, e = mpmath.mpf(p), _equal_variance_excess_mpmath(gap, variance, horizon)
        return float(mpmath.mpf(gap) ** 2 / (e / horizon + 1 / (p * (1 - p))))


@functools.lru_cache(maxsize=None)
def _equal_variance_excess_mpmath(gap: float, variance: float, horizon: int):
    import mpmath

    with mpmath.workdps(60):
        log_r = mpmath.mpf(gap) ** 2 / mpmath.mpf(variance)
        return mpmath.fsum(mpmath.expm1(t * log_r) for t in range(horizon))


# ---------------------------------------------------------------------------
# per-period Monte Carlo of the commitment mechanism (same draws as the library)


def prefix_log_ratios(pair, histories) -> np.ndarray:
    """Log likelihood ratio of every prefix of each row's history.

    A (rows, k) array of states gives (rows, k + 1) log ratios, the empty
    prefix (log ratio 0) first.
    """
    steps = log_ratio(pair, histories)
    return np.concatenate(
        [np.zeros((len(histories), 1)), np.cumsum(steps, axis=1)], axis=1)


def per_period_evolving(config: GameConfig, schedule, episodes: int,
                        seed: int) -> EvolvingReport:
    """``simulate_evolving`` through every period's committed action pair.

    Each chunk draws its Binomial(count, p) high-type count, marks that many
    first rows high, and stacks the transposed (T, n) state draws of each
    type into one (count, T) array by episode; it forms both actions of
    every period from the prefix log ratios and keeps the realized message's
    by ``np.where``; the IC sums add a_low - a_high period by period.
    """
    horizon, pair = schedule.horizon, schedule.pair
    cost, low, high = Moments(), Moments(), Moments()
    for count, rng in chunked_generators(seed, episodes, history_chunk(horizon)):
        n_high = int(rng.binomial(count, config.p_high))
        is_high = np.arange(count) < n_high
        theta = np.concatenate([pair.high.sample(rng, (horizon, n_high)).T,
                                pair.low.sample(rng, (horizon, count - n_high)).T])
        a_low, a_high = schedule.actions_from_log_ratio(
            prefix_log_ratios(pair, theta[:, : horizon - 1]))
        a = np.where(is_high[:, None], a_high, a_low)
        cost += Moments.of(np.mean((a - theta) ** 2, axis=1))
        diff_sum = np.sum(a_low - a_high, axis=1)
        low += Moments.of(diff_sum[~is_high])
        high += Moments.of(diff_sum[is_high])
    mean_cost, se_cost = cost.mean_stderr()
    return EvolvingReport(
        episodes=episodes, seed=seed, horizon=horizon,
        mean_period_cost=mean_cost, stderr_period_cost=se_cost,
        loss_estimate=mean_cost - min_expected_cost(config),
        ic=IcResiduals._from_moments(low, high, episodes, seed),
    )


def per_period_ic(schedule, episodes: int, seed: int) -> IcResiduals:
    """``verify_ic`` through every period's committed action pair."""
    def sums(dist, seed_seq):
        acc = Moments()
        for count, rng in chunked_generators(seed_seq, episodes,
                                              history_chunk(schedule.horizon)):
            draws = dist.sample(rng, (schedule.horizon - 1, count)).T
            a_low, a_high = schedule.actions_from_log_ratio(
                prefix_log_ratios(schedule.pair, draws))
            acc += Moments.of(np.sum(a_low - a_high, axis=1))
        return acc

    low_seq, high_seq = np.random.SeedSequence(seed).spawn(2)
    return IcResiduals._from_moments(sums(schedule.pair.low, low_seq),
                                     sums(schedule.pair.high, high_seq),
                                     episodes, seed)


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
