"""Independent references for the benchmark's output checks.

Nothing here calls the package under test.  Each value comes from a route
other than the library's own:

- equilibrium sets from the published per-profile utilities
  (``tests/oracles.py::closed_form_utility``) evaluated with mpmath at 60
  digits, so a deviation gain of 1e-45 still has a sign;
- system losses from the posterior variance of the profile's message count,
  summed in mpmath, and from the paper's closed forms where they exist
  (equal bias shares; one reviewer);
- majority losses by brute force over bias assignments, or by a direct
  binomial sum in mpmath for large reviewer counts;
- commitment losses from the equal-variance closed form, or from separation
  integrals (closed form for normal pairs, mpmath quadrature otherwise)
  followed by a numerical linear solve for the multipliers.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent

# The paper's 16 strategy combinations: (negative-bias, positive-bias) strategy.
# H honest, BH blind high, BL blind low, R reversed.
PROFILES = {
    "SC1": ("BL", "H"), "SC2": ("H", "BH"), "SC3": ("BH", "R"),
    "SC4": ("R", "BL"), "SC5": ("R", "H"), "SC6": ("H", "R"),
    "SC7": ("H", "H"), "SC8": ("BH", "BH"), "SC9": ("BH", "BL"),
    "SC10": ("BL", "BL"), "SC11": ("BL", "BH"), "SC12": ("BH", "H"),
    "SC13": ("BL", "R"), "SC14": ("H", "BL"), "SC15": ("R", "BH"),
    "SC16": ("R", "R"),
}
_LABEL_OF = {pair: label for label, pair in PROFILES.items()}
_STRATEGIES = ("H", "BH", "BL", "R")

# Working precision of the equilibrium references and the smallest gain that
# counts as a profitable deviation.  True gains for N <= 44 are at least
# ~6e-45 (one-sided shares at N=44); ties that are exact in closed
# form come out below 1e-55 at this precision.
_DPS = 60
_GAIN_EPS = mpmath.mpf(10) ** -52

GOLDEN_LOW = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_HIGH = (math.sqrt(5.0) - 1.0) / 2.0


@functools.cache
def oracles():
    """The test suite's closed-form oracles, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        "cheaptalk_test_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sends_high(strategy: str, high_type: bool) -> bool:
    if strategy == "H":
        return high_type
    if strategy == "R":
        return not high_type
    return strategy == "BH"


# ---------------------------------------------------------------------------
# equilibria and system losses, in units of the squared mean gap


@functools.cache
def equilibrium_set(p: float, q: float, n: int) -> tuple[str, ...]:
    """Labels of the stable profiles, in canonical order.

    A profile is stable when no bias class gains by switching its strategy,
    the platform best-responding to the switched profile.  Each utility is
    affine in the two means with every deviation gain proportional to the
    mean gap, so the set depends on (p, q, n) only; the means used here are
    -1 and 1.
    """
    closed_form = oracles().closed_form_utility
    with mpmath.workdps(_DPS):
        pp, qq = mpmath.mpf(p), mpmath.mpf(q)
        one = mpmath.mpf(1)
        utility = {}
        for label in PROFILES:
            idx = int(label[2:])
            for positive in (False, True):
                utility[label, positive] = closed_form(
                    idx, positive, n, qq, pp, one, -one)
        stable = []
        for label, (neg, pos) in PROFILES.items():
            gains = [utility[_LABEL_OF[alt, pos], False] - utility[label, False]
                     for alt in _STRATEGIES if alt != neg]
            gains += [utility[_LABEL_OF[neg, alt], True] - utility[label, True]
                      for alt in _STRATEGIES if alt != pos]
            if max(gains) <= _GAIN_EPS:
                stable.append(label)
    return tuple(stable)


def profile_loss(label: str, p: float, q: float, n: int) -> float:
    """Excess cost of a profile under its best-response rule, per gap^2.

    The best response rates at the posterior mean, so the excess cost is the
    expected posterior variance of the type: sum over counts k of
    p P(k|H) (1-p) P(k|L) / P(k).
    """
    neg, pos = PROFILES[label]
    with mpmath.workdps(_DPS):
        pp, qq = mpmath.mpf(p), mpmath.mpf(q)

        def high_prob(high_type):
            return ((qq if _sends_high(pos, high_type) else 0)
                    + ((1 - qq) if _sends_high(neg, high_type) else 0))

        h_high, h_low = high_prob(True), high_prob(False)
        total = mpmath.mpf(0)
        for k in range(n + 1):
            c = mpmath.binomial(n, k)
            like_high = c * h_high**k * (1 - h_high) ** (n - k)
            like_low = c * h_low**k * (1 - h_low) ** (n - k)
            den = pp * like_high + (1 - pp) * like_low
            if den:
                total += pp * like_high * (1 - pp) * like_low / den
        return float(total)


def symmetric_bias_loss(p: float, n: int) -> float:
    """Paper's worst-equilibrium loss at equal bias shares, per gap^2."""
    with mpmath.workdps(_DPS):
        pp, two_n = mpmath.mpf(p), mpmath.mpf(2) ** n
        return float(max((1 - pp) * pp / (pp + two_n * (1 - pp)),
                         (1 - pp) * pp / (1 - (1 - two_n) * pp)))


def p1_high(q: float) -> float:
    """Paper's prior threshold above which a lone positive reviewer is honest."""
    radicand = (2 * q**3 - 9 * q**2 + 12 * q - 5) / (2 * q - 1)
    return (3.0 - q) / 2.0 - 0.5 * math.sqrt(radicand)


def p1_low(q: float) -> float:
    radicand = (2 * q**3 + 3 * q**2) / (2 * q - 1)
    return 0.5 * math.sqrt(radicand) - q / 2.0


def one_user_loss(p: float, q: float) -> float:
    """Paper's regime-wise worst-equilibrium loss for one reviewer, per gap^2."""
    blind_high = q * (1 - p) * p / (p + (1 - p) * q)
    blind_low = (1 - q) * (1 - p) * p / (1 - q * p)
    if q <= GOLDEN_LOW and p <= p1_high(q):
        return blind_high
    if q >= GOLDEN_HIGH and p >= p1_low(q):
        return blind_low
    return max(blind_high, blind_low)


def one_user_set(p: float, q: float) -> tuple[str, ...]:
    """Paper's one-reviewer equilibrium set for a small positive share."""
    if not q < GOLDEN_LOW:
        raise ValueError("regime table is used for q_plus below (3 - sqrt 5)/2")
    if p <= p1_high(q):
        return ("SC2", "SC4")
    return ("SC1", "SC2", "SC3", "SC4")


@functools.cache
def bayesian_loss(p: float, q: float, n: int) -> float:
    """Worst-equilibrium loss per gap^2, by the closed form where one exists."""
    if q == 0.5:
        return symmetric_bias_loss(p, n)
    if n == 1:
        return one_user_loss(p, q)
    return max(profile_loss(label, p, q, n)
               for label in equilibrium_set(p, q, n))


def _majority_at(p: float, n: int, k: int) -> float:
    """Loss per gap^2 of the majority rating after k positive reviews."""
    if 2 * k > n:
        return 1.0 - p
    if 2 * k < n:
        return p
    return p * (1.0 - p)


def majority_brute_force(p: float, q: float, n: int) -> float:
    total = 0.0
    for combo in itertools.product((False, True), repeat=n):
        weight = math.prod(q if positive else 1.0 - q for positive in combo)
        total += weight * _majority_at(p, n, sum(combo))
    return total


def majority_binomial_sum(p: float, q: float, n: int) -> float:
    with mpmath.workdps(_DPS):
        qq = mpmath.mpf(q)
        return float(mpmath.fsum(
            mpmath.binomial(n, k) * qq**k * (1 - qq) ** (n - k) * _majority_at(p, n, k)
            for k in range(n + 1)))


@functools.cache
def majority_loss(p: float, q: float, n: int) -> float:
    """Majority-vote loss per gap^2 when every reviewer reports their bias."""
    if n <= 12:
        return majority_brute_force(p, q, n)
    return majority_binomial_sum(p, q, n)


def abandon(p: float, mu_low: float, mu_high: float) -> tuple[float, float]:
    """Prior-mean rating and its loss."""
    return p * mu_high + (1 - p) * mu_low, p * (1 - p) * (mu_high - mu_low) ** 2


# ---------------------------------------------------------------------------
# the commitment mechanism


def _exp_ratio(rate: float, horizon: int):
    return mpmath.expm1(horizon * rate) / (horizon * mpmath.expm1(rate))


def equal_variance_loss(p: float, gap: float, variance: float,
                        horizon: int) -> float:
    """Paper's per-period loss d^2 / (R - 1 + 1/(p(1-p))) for a shared variance."""
    d2 = gap * gap
    if horizon == 1:
        return p * (1 - p) * d2
    with mpmath.workdps(30):
        big_r = _exp_ratio(mpmath.mpf(d2) / variance, horizon)
        return float(d2 / (big_r - 1 + 1 / (mpmath.mpf(p) * (1 - p))))


def crossover_threshold(p: float, gap: float, variance: float,
                        horizon: int) -> float:
    with mpmath.workdps(30):
        big_r = _exp_ratio(mpmath.mpf(gap * gap) / variance, horizon)
        return float(max(mpmath.log(p * big_r + 1 - p, 2),
                         mpmath.log((1 - p) * big_r + p, 2)))


def normal_alpha_beta(mu_low, var_low, mu_high, var_high) -> tuple[float, float]:
    """Closed-form separation integrals of low^2/high and high^2/low."""
    ratio = oracles().normal_ratio_integral
    return (ratio(mu_low, var_low, mu_high, var_high),
            ratio(mu_high, var_high, mu_low, var_low))


def _log_density(family: str, location: float, scale: float):
    if family == "laplace":
        return lambda x: -abs((x - location) / scale) - mpmath.log(2 * scale)

    def logistic(x):
        a = -abs((x - location) / scale)
        return a - mpmath.log(scale) - 2 * mpmath.log1p(mpmath.exp(a))
    return logistic


@functools.cache
def quadrature_alpha_beta(family: str, mu_low: float, scale_low: float,
                          mu_high: float, scale_high: float) -> tuple[float, float]:
    """Separation integrals of a Laplace or logistic pair by mpmath quadrature."""
    low = _log_density(family, mu_low, scale_low)
    high = _log_density(family, mu_high, scale_high)
    with mpmath.workdps(20):
        nodes = [-mpmath.inf, mu_low, mu_high, mpmath.inf]
        alpha = mpmath.quad(lambda x: mpmath.exp(2 * low(x) - high(x)), nodes)
        beta = mpmath.quad(lambda x: mpmath.exp(2 * high(x) - low(x)), nodes)
        return float(alpha), float(beta)


def multipliers(p: float, gap: float, alpha: float, beta: float,
                horizon: int) -> tuple[float, float]:
    return oracles().multipliers_by_linear_solve(p, gap, alpha, beta, horizon)


def commitment_loss(p: float, gap: float, alpha: float, beta: float,
                    horizon: int) -> float:
    """Per-period loss from the multipliers' second moments."""
    if horizon == 1:
        return p * (1 - p) * gap * gap
    lam_low, lam_high = multipliers(p, gap, alpha, beta, horizon)
    return oracles().loss_by_moment_sums(p, lam_low, lam_high, alpha, beta,
                                         horizon)


# ---------------------------------------------------------------------------
# one-shot game moments for Monte Carlo checks


def sc1_rule(p: float, n: int, mu_low: float, mu_high: float) -> tuple[float, ...]:
    """Published best-response rule of SC1 at equal bias shares."""
    rule = oracles().rule_half_share(1, n, p, mu_high, mu_low)
    return tuple(float(rule[k]) for k in range(n + 1))


def sc1_moments(p: float, q: float, n: int, mu_low: float, mu_high: float,
                var_low: float, var_high: float) -> dict[str, float]:
    """Expected cost and signed ratings of SC1 under its best response."""
    closed_form = oracles().closed_form_utility
    floor = p * var_high + (1 - p) * var_low
    gap2 = (mu_high - mu_low) ** 2
    with mpmath.workdps(_DPS):
        args = (n, mpmath.mpf(q), mpmath.mpf(p), mpmath.mpf(mu_high),
                mpmath.mpf(mu_low))
        return {
            "cost": floor + gap2 * profile_loss("SC1", p, q, n),
            "utility_negative": float(closed_form(1, False, *args)),
            "utility_positive": float(closed_form(1, True, *args)),
        }
