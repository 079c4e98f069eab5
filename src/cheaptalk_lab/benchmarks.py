"""Baseline rating schemes: majority voting and blind abandoning."""

from __future__ import annotations

import math

import numpy as np

from .game import GameConfig, _kernel


def majority_vote_loss(config: GameConfig) -> float:
    """Excess cost of majority voting when every reviewer pushes his bias.

    Positive reviewers always message high and negative ones low, each bias
    equally likely, so the high count is binomial with success chance 1/2.
    It is symmetric about N/2, so each side of a tie holds (1 - tie)/2, and
    the bracket p low + (1 - p) high + p (1 - p) tie is (1 - tie)/2 +
    p (1 - p) tie, exactly 1/2 for odd N, which has no tie.  The tie chance
    C(N, N/2) / 2^N is one expression in lgamma, finite at any N.
    """
    n, p = config.n_users, config.p_high
    tie = (math.exp(math.lgamma(n + 1.0) - 2.0 * math.lgamma(n / 2 + 1.0) - n * math.log(2.0))
           if n % 2 == 0 else 0.0)
    return (((1.0 - tie) / 2.0 + p * (1.0 - p) * tie) * config.mean_gap) * config.mean_gap


def majority_vote_loss_biased(config: GameConfig) -> float:
    """Majority-vote loss when the positive-bias share is not one half.

    Same blind-bias messaging, but the high count is binomial with success
    chance ``q_plus``; reduces to the closed form at q_plus = 1/2.  The
    loss is divided by the window's own sum of its three sides, so it never
    exceeds gap^2.
    """
    n, p = config.n_users, config.p_high
    lo, pmf = _kernel(config).window((True, False))   # positive reviewers message high
    # counts below N/2 (rated low, wrong under high) end at index mid, those above start at top
    mid, top = max(0, (n + 1) // 2 - lo), max(0, n // 2 + 1 - lo)
    below, tie, above = (float(np.add.reduce(pmf[:mid])), float(np.add.reduce(pmf[mid:top])),
                         float(np.add.reduce(pmf[top:])))   # ndarray.sum without its wrapper
    loss = (p * below + (1.0 - p) * above + p * (1.0 - p) * tie) / (below + tie + above)
    return (loss * config.mean_gap) * config.mean_gap


def abandon_scheme(config: GameConfig) -> tuple[float, float]:
    """Fixed prior-mean rating that ignores all reviews, and its loss.

    This is also the single-period truthful commitment for one reviewer: the
    only committed action pair that leaves neither bias a profitable
    misreport is a constant, so that scheme collapses to blind abandoning.
    """
    action = config.prior_mean
    loss = (config.p_high * (1.0 - config.p_high) * config.mean_gap) * config.mean_gap
    return action, loss

