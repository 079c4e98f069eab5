"""Exact order of two bias influences, in decimal arithmetic.

``equilibrium`` imports this module only when floats cannot order two
influences, so neither it nor ``decimal`` loads on the common path.
``Decimal(float)`` is exact and the exponent range is unbounded in practice,
so influences far below the range of a double are compared as they are.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Inexact, localcontext

from .errors import UndecidedEquilibrium
from .game import ServiceType, StrategyProfile, _chance, _senders

MAX_DIGITS = 1000   # precision cap, raised to four times the places of p and q


def influence(profile: StrategyProfile, n: int, p: float, q: float):
    """(D_P, sum of its terms' magnitudes) in the current decimal context.

    post(j+1) - post(j) = p (1-p) (h_H - h_L) g_H(j) g_L(j) / (den(j) den(j+1))
    with g_t(j) = h_t^j (1 - h_t)^(N-1-j).  The context holds p and q and
    their differences exactly (see ``exceeds``), so every rounding is of a
    product, a quotient or a sum of positive numbers.
    """
    one, prior, share = Decimal(1), Decimal(p), Decimal(q)   # exact conversions

    def powers(x):   # x^0 .. x^n, with 0^0 = 1
        out = [one]
        for _ in range(n):
            out.append(out[-1] * x)
        return out

    flags = _senders(profile, ServiceType.HIGH), _senders(profile, ServiceType.LOW)
    h_high, h_low = _chance(share, flags[0]), _chance(share, flags[1])
    c_high, c_low = one - h_high, one - h_low
    ph, pch, pl, pcl = powers(h_high), powers(c_high), powers(h_low), powers(c_low)
    den = [prior * ph[k] * pch[n - k] + (one - prior) * pl[k] * pcl[n - k]
           for k in range(n + 1)]
    jump = prior * (one - prior) * (h_high - h_low)
    total = size = Decimal(0)
    for (positive, negative), weight, own, own_c in ((flags[0], prior, ph, pch),
                                                     (flags[1], one - prior, pl, pcl)):
        s = positive - negative
        if not s:
            continue
        comb = one   # C(N-1, j)
        for j in range(n):
            term = (weight * comb * own[j] * own_c[n - 1 - j] * jump
                    * ph[j] * pch[n - 1 - j] * pl[j] * pcl[n - 1 - j]
                    / (den[j] * den[j + 1]))
            total += s * term
            size += abs(term)
            comb = comb * (n - 1 - j) / (j + 1)
    return total, size


def exceeds(a: StrategyProfile | None, b: StrategyProfile | None, labels: tuple[str, str],
            n: int, p: float, q: float, float_margin: float) -> bool:
    """Whether D_a > D_b, where None stands for an exactly zero influence.

    The precision holds every decimal place of p and q, so 1 - p, 1 - q and
    h_H - h_L are exact.  It starts from the digits the float margin leaves
    undecided and doubles until the difference clears its rounding bound, or
    until no operation rounded, where both influences are exact and an exact
    tie is decided as not raised; past ``MAX_DIGITS``, or four times the
    places where that is more, it raises ``UndecidedEquilibrium``.
    """
    places = max(-Decimal(p).as_tuple().exponent, -Decimal(q).as_tuple().exponent) + 2
    roundings = 8 * n + 64   # per term and in the sums, with room to spare
    digits = max(places, 20 + len(str(roundings))
                 + math.ceil(-math.log10(max(float_margin, 1e-30))))
    while digits <= max(MAX_DIGITS, 4 * places):
        with localcontext(Context(prec=digits, Emin=MIN_EMIN, Emax=MAX_EMAX)) as context:
            (d_a, size_a), (d_b, size_b) = (
                (0, 0) if profile is None else influence(profile, n, p, q)
                for profile in (a, b))
            if not context.flags[Inexact]:   # both exact: a tie is not raised
                return d_a > d_b
            bound = 2 * roundings * Decimal(10) ** (1 - digits) * (size_a + size_b)
            if abs(d_a - d_b) > bound:
                return d_a > d_b
        digits *= 2
    raise UndecidedEquilibrium(
        f"cannot tell whether {labels[0]} or {labels[1]} has the larger bias "
        f"influence at N={n}, p={p!r}, q={q!r}")
