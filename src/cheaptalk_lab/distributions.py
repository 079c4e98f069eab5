"""Service-state densities: family facts, likelihood ratios and separation integrals.

The service state is a continuous quantity whose density is one of two
candidates (a "low" and a "high" one).  Three location-scale families are
supported; all have full support on the real line, so the two candidates of a
pair automatically share their support.  Everything that depends on the
family lives here: the log density, the variance per squared scale (also read
backwards by ``StateDistribution.from_variance``), the numpy sampler of the
family's name and the tail decay.  Each family's log density is one formula
of the standardized state, evaluated with ``math`` on a float and in place on
a fresh array of an array (never writing to its input).
``log_likelihood_ratio`` is the one likelihood ratio; a history's ratio is the
sum of its states' log ratios.

The separation integrals are closed forms for every pair of one family, of
any locations and scales; a pair that mixes two families raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

from .errors import DivergentIntegral, SeparationOverflow

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class Family(str, Enum):
    NORMAL = "normal"
    LAPLACE = "laplace"
    LOGISTIC = "logistic"   # each value names its numpy ``Generator`` sampler


# variance per squared scale: sigma^2, 2 b^2 and s^2 pi^2 / 3
_VARIANCE_PER_SQUARED_SCALE = {Family.NORMAL: 1.0, Family.LAPLACE: 2.0,
                               Family.LOGISTIC: math.pi**2 / 3.0}


# Log density of each family at the standardized state z = (theta - location) /
# scale.  A formula reads its functions from ``m``: the ``math`` module for a
# float z, ``_IN_PLACE`` for an array z, which it then overwrites and returns.

def _normal_log_density(z, scale, m):
    z *= z
    z *= -0.5
    z -= math.log(scale)
    z -= _LOG_SQRT_2PI
    return z


def _laplace_log_density(z, scale, m):
    z = m.fabs(z)
    z *= -1.0
    z -= math.log(2.0 * scale)
    return z


def _logistic_log_density(z, scale, m):
    # symmetric form a - log s - 2 log(1 + e^a), a = -|z|, stable for large |z|
    z = m.fabs(z)
    z *= -1.0
    softplus = m.log1p(m.exp(z))
    softplus *= 2.0
    z -= math.log(scale)
    z -= softplus
    return z


_LOG_DENSITY = {Family.NORMAL: _normal_log_density, Family.LAPLACE: _laplace_log_density,
                Family.LOGISTIC: _logistic_log_density}

# the ``math`` functions of the formulas on arrays: in place, but for ``exp``,
# whose argument the logistic formula reads again
_IN_PLACE = SimpleNamespace(fabs=lambda x: np.abs(x, out=x), exp=np.exp,
                            log1p=lambda x: np.log1p(x, out=x))


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
        """Log density by the family's one formula: a float for a scalar
        ``theta``, evaluated with ``math``, and an array for an array,
        evaluated in place on a new array; ``theta`` is never written to."""
        formula = _LOG_DENSITY[self.family]
        if isinstance(theta, (float, int)) or np.ndim(theta) == 0:
            return formula((float(theta) - self.location) / self.scale, self.scale, math)
        z = np.subtract(theta, self.location, dtype=float)
        z /= self.scale
        return formula(z, self.scale, _IN_PLACE)

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
        raise ValueError(f"state {theta!r} is not finite; every density's support is the real line")
    ratio = pair.high.log_density(theta)
    ratio -= pair.low.log_density(theta)
    return ratio


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


def _closed_form_integral(num: StateDistribution, den: StateDistribution) -> float:
    """The squared-ratio integral num^2/den of two densities of one family."""
    _, tail_rate = _check_converges(num, den)
    if num.family is Family.NORMAL:
        # v_d / sqrt(v_n (2 v_d - v_n)) * exp((m_n - m_d)^2 / (2 v_d - v_n)),
        # the prefactor taken as a product of variance ratios, which is exactly
        # 1 for equal variances and does not overflow for large ones
        v_num, v_den = num.scale**2, den.scale**2
        spread = 2.0 * v_den - v_num
        return (math.exp((num.location - den.location) ** 2 / spread)
                * math.sqrt(v_den / v_num * (v_den / spread)))
    if num.family is Family.LOGISTIC:
        # 1/g(z) = e^z + 2 + e^-z for the standard logistic density g, and g^2
        # integrates against e^(cu) to B(2 + c, 2 - c); so, with r = s_n / s_d,
        # (s_d/s_n) (2 cosh((m_n - m_d)/s_d) B(2 + r, 2 - r) + 1/3), where B(2 + r,
        # 2 - r) = r (1 + r) pi |1 - r| / (6 |sin(pi r)|), the sine taken at its
        # smallest angle: r, or |1 - r| or 2 - r from exact differences of scales
        s_n, s_d = num.scale, den.scale
        r, off = s_n / s_d, abs(s_d - s_n) / s_d
        angle = min(off, r, (2.0 * s_d - s_n) / s_d)
        beta = r * (1.0 + r) / 6.0 * (math.pi * off / math.sin(math.pi * angle) if off else 1.0)
        return (2.0 * math.cosh((num.location - den.location) / s_d) * beta + 1.0 / 3.0) / r
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
    Every pair of one family has exact closed forms; a pair of two families
    raises ``ValueError``.  Raises ``DivergentIntegral`` when an integral does
    not converge and ``SeparationOverflow`` when one converges past the double
    range.
    """
    low, high = pair.low, pair.high
    if low.family is not high.family:
        raise ValueError(f"a {low.family.value} and {high.family.value} pair: the families differ")
    try:
        alpha, beta = _closed_form_integral(low, high), _closed_form_integral(high, low)
    except OverflowError:
        alpha = beta = math.inf
    if math.isinf(alpha) or math.isinf(beta):
        raise SeparationOverflow(
            "a separation integral of the pair "
            + " and ".join(f"{d.family.value}({d.location!r}, scale {d.scale!r})"
                           for d in (low, high))
            + " exceeds the double range")
    return alpha, beta
