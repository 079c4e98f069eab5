"""Baseline rating schemes: majority voting and blind abandoning."""

from __future__ import annotations

import math

from .game import GameConfig, InferenceRule, _binom_pmf


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


def majority_vote_loss(config: GameConfig) -> float:
    """Excess cost of majority voting when every reviewer pushes his bias.

    Positive reviewers always message high and negative ones low, each bias
    equally likely, so the high count is binomial with success chance 1/2.
    The index bounds follow the closed form exactly: the low side sums counts
    k = 0 .. ceil(N/2 - 1), the high side l = floor(N/2 + 1) .. N, and even N
    adds the tie term.
    """
    n = config.n_users
    p = config.p_high
    upper_low = (n - 1) // 2          # ceil(n/2 - 1)
    lower_high = n // 2 + 1           # floor(n/2 + 1)
    low_tail = sum(math.comb(n, k) for k in range(0, upper_low + 1))
    high_tail = sum(math.comb(n, k) for k in range(lower_high, n + 1))
    bracket = p * low_tail + (1.0 - p) * high_tail
    if n % 2 == 0:
        bracket += p * (1.0 - p) * math.comb(n, n // 2)
    return config.mean_gap**2 * bracket / 2.0**n


def majority_vote_loss_biased(config: GameConfig) -> float:
    """Majority-vote loss when the positive-bias share is not one half.

    Same blind-bias messaging, but the high count is binomial with success
    chance ``q_plus``; reduces to the closed form at q_plus = 1/2.
    """
    n = config.n_users
    p = config.p_high
    q = config.q_plus
    loss = 0.0
    for k in range(n + 1):
        w = _binom_pmf(n, k, q)
        if 2 * k > n:
            loss += w * (1.0 - p)    # rates at the high mean; wrong under low
        elif 2 * k < n:
            loss += w * p
        else:
            loss += w * p * (1.0 - p)
    return config.mean_gap**2 * loss


def abandon_scheme(config: GameConfig) -> tuple[float, float]:
    """Fixed prior-mean rating that ignores all reviews, and its loss.

    This is also the single-period truthful commitment for one reviewer: the
    only committed action pair that leaves neither bias a profitable
    misreport is a constant, so that scheme collapses to blind abandoning.
    """
    action = config.prior_mean
    loss = config.p_high * (1.0 - config.p_high) * config.mean_gap**2
    return action, loss

