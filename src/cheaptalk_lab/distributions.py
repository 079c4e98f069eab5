"""Service-state densities: family facts, likelihood ratios and separation integrals.

The service state is a continuous quantity whose density is one of two
candidates (a "low" and a "high" one).  Three location-scale families are
supported; all have full support on the real line, so the two candidates of a
pair automatically share their support.  Everything that depends on the
family lives here: the log density, the variance per squared scale (also read
backwards by ``StateDistribution.from_variance``), the numpy sampler of the
family's name and the tail decay.  ``log_likelihood_ratio`` is the one
likelihood ratio; a history's ratio is the sum of its states' log ratios.

The separation integrals are closed forms for normal pairs (any variances)
and Laplace pairs.  Only logistic and mixed-family pairs are integrated
numerically; that quadrature loads scipy on its first call and is cached per
(numerator, denominator) pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (DivergentIntegral, DivisionOutsideSupport, QuadratureFailure,
                     SeparationOverflow)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Relative tolerance requested from the adaptive integrator.
QUAD_REL_TOL = 1e-10


class Family(str, Enum):
    NORMAL = "normal"
    LAPLACE = "laplace"
    LOGISTIC = "logistic"   # each value names its numpy ``Generator`` sampler


# variance per squared scale: sigma^2, 2 b^2 and s^2 pi^2 / 3
_VARIANCE_PER_SQUARED_SCALE = {Family.NORMAL: 1.0, Family.LAPLACE: 2.0,
                               Family.LOGISTIC: math.pi**2 / 3.0}


@dataclass(frozen=True)
class StateDistribution:
    """One candidate density, parameterized by location and scale.

    ``scale`` is the standard deviation for the normal family, the diversity
    ``b`` for Laplace and the shape ``s`` for the logistic family.
    """

    family: Family
    location: float
    scale: float

    def __post_init__(self):
        # a str family would match none of the ``is Family.X`` branches
        object.__setattr__(self, "family", Family(self.family))
        if not math.isfinite(self.location):
            raise ValueError(f"location must be finite, got {self.location}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @classmethod
    def from_variance(cls, family: Family, location: float,
                      variance: float) -> "StateDistribution":
        """The density of ``family`` with the given mean and variance."""
        if not variance > 0:
            raise ValueError(f"variance must be positive, got {variance}")
        family = Family(family)
        return cls(family, location, math.sqrt(variance / _VARIANCE_PER_SQUARED_SCALE[family]))

    @property
    def mean(self) -> float:
        return self.location

    @property
    def variance(self) -> float:
        return self.scale**2 * _VARIANCE_PER_SQUARED_SCALE[self.family]

    def log_density(self, theta):
        """Log density, vectorized over ``theta``."""
        z = (np.asarray(theta, dtype=float) - self.location) / self.scale
        if self.family is Family.NORMAL:
            out = -0.5 * z**2 - math.log(self.scale) - _LOG_SQRT_2PI
        elif self.family is Family.LAPLACE:
            out = -np.abs(z) - math.log(2.0 * self.scale)
        else:
            # symmetric form of the logistic density, stable for large |z|
            a = -np.abs(z)
            out = a - math.log(self.scale) - 2.0 * np.log1p(np.exp(a))
        return out if out.ndim else float(out)

    def density(self, theta):
        return np.exp(self.log_density(theta))

    def sample(self, rng: np.random.Generator, size=None):
        """Draw from the density with the generator's sampler of the family's name."""
        return getattr(rng, self.family.value)(self.location, self.scale, size)

    def _tail(self) -> tuple[float, float]:
        """(quadratic, linear) exponential decay coefficients of the log tail."""
        if self.family is Family.NORMAL:
            return 1.0 / (2.0 * self.scale**2), 0.0
        return 0.0, 1.0 / self.scale


@dataclass(frozen=True)
class DistributionPair:
    """The low/high candidate densities of one rating problem."""

    low: StateDistribution
    high: StateDistribution

    def __post_init__(self):
        if self.high.mean < self.low.mean:
            raise ValueError("high mean must be >= low mean")

    @property
    def mu_low(self) -> float:
        return self.low.mean

    @property
    def mu_high(self) -> float:
        return self.high.mean

    @property
    def mean_gap(self) -> float:
        return self.high.mean - self.low.mean


def normal_pair(mu_low: float, mu_high: float, var_low: float = 1.0,
                var_high: float = 1.0) -> DistributionPair:
    """Convenience constructor for a pair of normal densities."""
    return DistributionPair(StateDistribution.from_variance(Family.NORMAL, mu_low, var_low),
                            StateDistribution.from_variance(Family.NORMAL, mu_high, var_high))


def log_likelihood_ratio(pair: DistributionPair, theta):
    """Log of the high to the low density at ``theta``, vectorized; a history of
    independent states has the sum of its states' log ratios."""
    if not np.all(np.isfinite(theta)):
        raise DivisionOutsideSupport(f"state {theta!r} is outside the support")
    return pair.high.log_density(theta) - pair.low.log_density(theta)


def _check_converges(num: StateDistribution, den: StateDistribution) -> tuple[float, float]:
    """Tail-decay coefficients of num^2/den; raises if the integral diverges.

    The integrand's log tail behaves like -(2*q_n - q_d) theta^2 - (2*r_n - r_d)|theta|;
    it is integrable iff the quadratic coefficient is positive, or zero with a
    positive linear rate.
    """
    qn, rn = num._tail()
    qd, rd = den._tail()
    quad = 2.0 * qn - qd
    rate = 2.0 * rn - rd
    if quad < 0 or (quad == 0 and rate <= 0):
        raise DivergentIntegral(
            f"integral of {num.family.value}^2/{den.family.value} with scales "
            f"({num.scale}, {den.scale}) does not converge"
        )
    return quad, rate


@functools.lru_cache(maxsize=64)
def _ratio_integral(num: StateDistribution, den: StateDistribution) -> float:
    """Adaptive quadrature of the squared-ratio integral num^2/den over the line."""
    from scipy import integrate   # on demand: closed-form pairs never load scipy

    quad_coeff, rate = _check_converges(num, den)

    centers = sorted({num.location, den.location})
    base = 12.0 * max(num.scale, den.scale)
    # widen until the truncated exponential tail is negligible (~e^-60)
    width = base
    if quad_coeff > 0:
        width = max(width, math.sqrt(60.0 / quad_coeff))
    else:
        width = max(width, 60.0 / rate)
    lo, hi = centers[0] - width, centers[-1] + width

    def integrand(t):
        return math.exp(2.0 * num.log_density(t) - den.log_density(t))

    def run(a, b):
        value, abserr = integrate.quad(
            integrand, a, b, points=centers, limit=500,
            epsabs=1e-13, epsrel=QUAD_REL_TOL / 10.0,
        )
        return value, abserr

    value, abserr = run(lo, hi)
    # doubling the truncation width must not change the estimate; growth
    # signals a divergent (or far-from-converged) integral
    wide, wide_err = run(lo - width, hi + width)
    if wide - value > 1e-8 * max(abs(wide), 1.0):
        raise DivergentIntegral(
            "integral estimate keeps growing with the truncation width"
        )
    if wide_err > 1e-9 * max(abs(wide), 1.0):
        raise QuadratureFailure(
            f"estimated quadrature error {wide_err:.3e} exceeds tolerance"
        )
    return wide


def _closed_form_integral(num: StateDistribution, den: StateDistribution) -> float:
    """The squared-ratio integral num^2/den of a normal or a Laplace pair."""
    _, tail_rate = _check_converges(num, den)
    if num.family is Family.NORMAL:
        # v_d / sqrt(v_n (2 v_d - v_n)) * exp((m_n - m_d)^2 / (2 v_d - v_n)),
        # the prefactor taken as a product of variance ratios, which is exactly
        # 1 for equal variances and does not overflow for large ones
        v_num, v_den = num.scale**2, den.scale**2
        spread = 2.0 * v_den - v_num
        return (math.exp((num.location - den.location) ** 2 / spread)
                * math.sqrt(v_den / v_num * (v_den / spread)))
    # (c / 2b^2) * integral of exp(-2|t - m|/b + |t - n|/c): two tails of rate
    # 2/b - 1/c beyond the locations and, between them, a piece of rate 2/b + 1/c;
    # the exponent is d/c at m and -2d/b at n, d being the locations' distance
    b, c = num.scale, den.scale
    d = abs(num.location - den.location)
    middle_rate = 2.0 / b + 1.0 / c
    at_num, at_den = math.exp(d / c), math.exp(-2.0 * d / b)
    middle = -at_num * math.expm1(-d * middle_rate)   # at_num - at_den, accurately
    return c / (2.0 * b * b) * ((at_num + at_den) / tail_rate + middle / middle_rate)


def alpha_beta(pair: DistributionPair) -> tuple[float, float]:
    """The two squared-ratio separation integrals of the pair.

    Both equal 1 exactly when the densities coincide and exceed 1 otherwise.
    Normal pairs of any variances and Laplace pairs use exact closed forms;
    logistic and mixed-family pairs are integrated numerically, once per pair.
    Raises ``DivergentIntegral`` when an integral does not converge and
    ``SeparationOverflow`` when one converges past the double range.
    """
    low, high = pair.low, pair.high
    closed = low.family is high.family and low.family is not Family.LOGISTIC
    integral = _closed_form_integral if closed else _ratio_integral
    try:
        alpha, beta = integral(low, high), integral(high, low)
    except OverflowError:
        alpha = beta = math.inf
    if math.isinf(alpha) or math.isinf(beta):
        raise SeparationOverflow(
            "a separation integral of the pair "
            + " and ".join(f"{d.family.value}({d.location!r}, scale {d.scale!r})"
                           for d in (low, high))
            + " exceeds the double range")
    return alpha, beta
