"""Service-state densities: family facts, likelihood ratios and separation integrals.

The service state is a continuous quantity whose density is one of two
candidates (a "low" and a "high" one).  Three location-scale families are
supported; all have full support on the real line, so the two candidates of a
pair automatically share their support.  Everything that depends on the
family lives here: the log density, the variance per squared scale (also read
backwards by ``StateDistribution.from_variance``), the standard variate and
the log separation integral.  Each family's log density is one formula of the
standardized state, evaluated in place on a fresh array, 0-d for a scalar
state (never writing to its input).  Each family's standard variate is formed
over the whole array: a standard normal, or for Laplace and logistic the
inverse distribution function of the generator's uniforms (Devroye,
*Non-Uniform Random Variate Generation*, 1986, section II.2), which reads the
uniforms that numpy's samplers of those names read, in the same order.
``log_likelihood_ratio`` is the one likelihood ratio; a history's ratio is the
sum of its states' log ratios.

The separation integrals are closed forms in the scale ratio for every pair
of one family, of any locations and scales; each decides its own convergence
exactly, in integers, and a pair that mixes two families raises.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DivergentIntegral, SeparationOverflow

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_MAX = math.log(sys.float_info.max)   # the largest x whose exp is finite


class Family(str, Enum):
    NORMAL = "normal"
    LAPLACE = "laplace"
    LOGISTIC = "logistic"


# variance per squared scale: sigma^2, 2 b^2 and s^2 pi^2 / 3
_VARIANCE_PER_SQUARED_SCALE = {Family.NORMAL: 1.0, Family.LAPLACE: 2.0,
                               Family.LOGISTIC: math.pi**2 / 3.0}


# Log density of each family at the standardized state z = (theta - location) /
# scale, an array that the formula overwrites and returns.

def _normal_log_density(z, scale):
    z *= z
    z *= -0.5
    z -= math.log(scale)
    z -= _LOG_SQRT_2PI
    return z


def _laplace_log_density(z, scale):
    np.abs(z, out=z)
    z *= -1.0
    z -= math.log(2.0 * scale)
    return z


def _logistic_log_density(z, scale):
    # symmetric form a - log s - 2 log(1 + e^a), a = -|z|, stable for large |z|
    np.abs(z, out=z)
    z *= -1.0
    softplus = np.exp(z, out=np.empty_like(z))   # a new array: z is read again
    np.log1p(softplus, out=softplus)
    softplus *= 2.0
    z -= math.log(scale)
    z -= softplus
    return z


_LOG_DENSITY = {Family.NORMAL: _normal_log_density, Family.LAPLACE: _laplace_log_density,
                Family.LOGISTIC: _logistic_log_density}


# Standard variate of each family (location 0, scale 1) as a new array, 0-d for
# size None, holding at most one more array of its size while it is formed.

def _standard_normal(rng, size):
    return np.asarray(rng.standard_normal(size))


def _open_uniforms(rng, size):
    # numpy's Laplace and logistic samplers reject a uniform of 0.0, and so does
    # this: any 0.0 is drawn again from the same generator
    u = np.asarray(rng.random(size))
    while not u.all():
        zeros = u == 0.0
        u[zeros] = rng.random(np.count_nonzero(zeros))
    return u


def _standard_laplace(rng, size):
    # sign(u - 1/2) |log(1 - 2|u - 1/2|)|; the argument of the log is exact
    x = _open_uniforms(rng, size)
    x -= 0.5
    tail = np.abs(x, out=np.empty_like(x))
    tail *= -2.0
    tail += 1.0
    np.log(tail, out=tail)
    return np.copysign(tail, x, out=x)


def _standard_logistic(rng, size):
    u = _open_uniforms(rng, size)
    x = np.subtract(1.0, u, out=np.empty_like(u))
    np.divide(u, x, out=x)
    return np.log(x, out=x)


_STANDARD_VARIATE = {Family.NORMAL: _standard_normal, Family.LAPLACE: _standard_laplace,
                     Family.LOGISTIC: _standard_logistic}


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
        """Log density by the family's one formula, evaluated in place on a new
        array: a float for a scalar ``theta`` and an array for an array;
        ``theta`` is never written to."""
        z = np.subtract(theta, self.location, out=np.empty(np.shape(theta)), dtype=float)
        z /= self.scale
        log_f = _LOG_DENSITY[self.family](z, self.scale)
        return float(log_f) if log_f.ndim == 0 else log_f

    def density(self, theta):
        return np.exp(self.log_density(theta))

    def sample(self, rng: np.random.Generator, size=None):
        """Draw states: the family's standard variate, scaled and shifted in
        place; a float for size None and an array otherwise.

        Normal states are bit-identical to ``rng.normal``.  Laplace and
        logistic states invert the generator's uniforms; they leave the
        generator in the state its sampler of the family's name would, and
        differ from that sampler's states by rounding only.
        """
        x = _STANDARD_VARIATE[self.family](rng, size)
        x *= self.scale
        x += self.location
        return float(x) if x.ndim == 0 else x


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


def _log_separation(num: StateDistribution, den: StateDistribution) -> float:
    """log of the integral of num^2/den over the line, for two densities of one
    family: the order-2 cases of Gil, Alajaji & Linder (Inf. Sci., 2013).

    It reads only r = top/bottom, the exact integer ratio of the scales, and x,
    the locations' distance in the denominator's scale.  Each closed form divides
    by a spread 2 - r^k, k = 2 for the normal family and 1 for the others; it
    raises ``DivergentIntegral`` exactly where 2 bottom^k - top^k <= 0, and the
    spread and |1 - r| are those integers over bottom^k, each rounded once.
    """
    s_n, s_d = float(num.scale), float(den.scale)
    (a, b), (c, d) = s_n.as_integer_ratio(), s_d.as_integer_ratio()
    top, bottom = a * d, b * c   # r = s_n / s_d = top / bottom, exactly
    k = 2 if num.family is Family.NORMAL else 1
    if (room := 2 * bottom**k - top**k) <= 0:   # before dividing: a huge r overflows
        raise DivergentIntegral(
            f"integral of {num.family.value}^2/{den.family.value} with scales "
            f"({num.scale}, {den.scale}) does not converge"
        )
    spread, r, gap = room / bottom**k, s_n / s_d, abs(num.location - den.location)
    x = gap / s_d
    # a difference of logs where the ratio under- or overflows
    log_r = math.log(r) if 1e-300 < r < 1e300 else math.log(s_n) - math.log(s_d)
    if num.family is Family.NORMAL:
        # exp(x^2 / (2 - r^2)) / (r sqrt(2 - r^2))
        return x * x / spread - log_r - 0.5 * math.log(spread)
    if num.family is Family.LAPLACE:
        # e^x (2 + r E) / (r (2 - r)(2 + r)), E = e^(-gap/s_d - 2 gap/s_n): two tails
        # of rate (2 - r)/s_n beyond the locations and, between them, a piece of
        # rate (2 + r)/s_n
        tilt = 2.0 + r * math.exp(-x - 2.0 * gap / s_n)
        return x + math.log(tilt / (spread * (2.0 + r))) - log_r
    # 1/g(z) = e^z + 2 + e^-z for the standard logistic density g, and g^2
    # integrates against e^(cu) to B(2 + c, 2 - c); so (2 cosh(x) B + 1/3) / r, with
    # B = B(2 + r, 2 - r) = (1 + r) pi r |1 - r| / (6 |sin(pi r)|), the sine taken at
    # its smallest angle: r, or |1 - r| or 2 - r from the exact integers
    off = abs(bottom - top) / bottom
    angle = min(off, r, spread)
    beta = (1.0 + r) / 6.0 * (math.pi * r * off / math.sin(math.pi * angle) if r * off else 1.0)
    e = math.exp(-x)
    return x + math.log(beta * (1.0 + e * e) + e / 3.0) - log_r   # 2 cosh(x) = e^x (1 + e^-2x)


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
    log_alpha, log_beta = _log_separation(low, high), _log_separation(high, low)
    if max(log_alpha, log_beta) > _LOG_MAX:
        raise SeparationOverflow(
            "a separation integral of the pair "
            + " and ".join(f"{d.family.value}({d.location!r}, scale {d.scale!r})"
                           for d in (low, high))
            + " exceeds the double range")
    return math.exp(log_alpha), math.exp(log_beta)
