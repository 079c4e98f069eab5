"""Seeded simulation of the one-shot game and the multi-period mechanism.

Plain Monte Carlo, no variance reduction, so every estimate is an unbiased
oracle for the matching closed form.  A one-shot sample draws the type, the
focal reviewer's bias, the count of high messages among the other N - 1
(binomial given the type, as each sends high with the same chance) and the
state of the realized type only: the same joint law as drawing every
reviewer's bias, in time and memory independent of N.  Commitment episodes
are drawn as one block of histories per type, never joined into one array.
Draws are partitioned into fixed-size chunks with independent substreams and
reduced in chunk order; reports are therefore bit-identical for a given seed
regardless of the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import Moments, run_chunks
from .evolving import CommitmentSchedule, IcResiduals, _history_sums
from .game import (GameConfig, InferenceRule, ServiceType,
                   StrategyProfile, _check_count, _senders, min_expected_cost)


@dataclass(frozen=True)
class SimulationReport:
    samples: int
    seed: int
    mean_cost: float
    stderr_cost: float
    mean_utility_negative: float
    stderr_utility_negative: float
    count_negative: int
    mean_utility_positive: float
    stderr_utility_positive: float
    count_positive: int


@dataclass(frozen=True)
class EvolvingReport:
    episodes: int
    seed: int
    horizon: int
    mean_period_cost: float
    stderr_period_cost: float
    loss_estimate: float
    ic: IcResiduals


def _realized_states(pair, rng, is_high: np.ndarray) -> np.ndarray:
    """States of each sample's realized density only, high draws before low."""
    theta = np.empty(is_high.shape)
    n_high = int(np.count_nonzero(is_high))
    theta[is_high] = pair.high.sample(rng, n_high)
    theta[~is_high] = pair.low.sample(rng, is_high.size - n_high)
    return theta


def simulate_game(config: GameConfig, profile: StrategyProfile,
                  rule: InferenceRule, samples: int, seed: int,
                  workers: int = 1) -> SimulationReport:
    """Play the one-shot game ``samples`` times and report empirical moments.

    Each sample draws the quality type, the first reviewer's bias, the count
    of high messages among the other reviewers, Binomial(N - 1, h) with h
    the chance of one reviewer messaging high under the type, and a state of
    the realized type.  The rating is ``rule`` at that count plus the first
    reviewer's message; each sample adds the squared rating error and the
    first reviewer's signed rating (bucketed by that reviewer's bias).
    """
    samples, workers = _check_count("samples", samples), _check_count("workers", workers)
    n = config.n_users
    if rule.n_users != n:
        raise ValueError("rule was built for a different number of users")
    actions = rule.action_array
    q = config.q_plus
    high, low = _senders(profile, ServiceType.HIGH), _senders(profile, ServiceType.LOW)
    # h = q [positive class sends high] + (1 - q) [negative class sends high];
    # q + (1 - q) rounds to exactly 1
    h_high, h_low = (q * pos + (1.0 - q) * neg for pos, neg in (high, low))

    def worker(count, rng):
        is_high = rng.random(count) < config.p_high
        focal_pos = rng.random(count) < q
        others = rng.binomial(n - 1, np.where(is_high, h_high, h_low))
        focal = np.where(is_high, np.where(focal_pos, *high), np.where(focal_pos, *low))
        a = actions[others + focal]
        cost = (a - _realized_states(config.pair, rng, is_high)) ** 2
        return Moments.of(cost), Moments.of(a[focal_pos]), Moments.of(-a[~focal_pos])

    cost, pos, neg = run_chunks(seed, samples, worker, workers)
    mean_cost, se_cost = cost.mean_stderr()
    mean_pos, se_pos = pos.mean_stderr()
    mean_neg, se_neg = neg.mean_stderr()
    return SimulationReport(
        samples=samples, seed=seed,
        mean_cost=mean_cost, stderr_cost=se_cost,
        mean_utility_negative=mean_neg, stderr_utility_negative=se_neg,
        count_negative=neg.count,
        mean_utility_positive=mean_pos, stderr_utility_positive=se_pos,
        count_positive=pos.count,
    )


def simulate_evolving(config: GameConfig, schedule, episodes: int, seed: int,
                      workers: int = 1) -> EvolvingReport:
    """Simulate the commitment mechanism with a truthful reviewer.

    Each episode draws the quality type once, then one state per period; the
    platform posts the committed action for the truthful message and incurs
    the squared error.  A chunk draws its high-type histories, then its
    low-type ones, as two blocks it never joins.  The histories double as
    samples for the four truthfulness residuals, being the matching density's
    product measure given the type.  ``config`` must be the schedule's game.
    """
    episodes, workers = _check_count("episodes", episodes), _check_count("workers", workers)
    if config.n_users != 1:
        raise ValueError("the commitment mechanism serves a single reviewer")
    if config.pair != schedule.pair or (isinstance(schedule, CommitmentSchedule)
                                        and config.p_high != schedule.p_high):
        raise ValueError("schedule was built for a different pair or prior")
    horizon, pair = schedule.horizon, schedule.pair

    def worker(count, rng):
        n_high = int(np.count_nonzero(rng.random(count) < config.p_high))
        high_states = pair.high.sample(rng, (n_high, horizon))
        low_states = pair.low.sample(rng, (count - n_high, horizon))
        diff_high, error_high = _history_sums(schedule, high_states, high=True)
        diff_low, error_low = _history_sums(schedule, low_states, high=False)
        cost = Moments.of(error_high / horizon) + Moments.of(error_low / horizon)
        return cost, Moments.of(diff_low), Moments.of(diff_high)

    cost, low, high = run_chunks(seed, episodes, worker, workers)
    mean_cost, se_cost = cost.mean_stderr()
    return EvolvingReport(
        episodes=episodes, seed=seed, horizon=horizon,
        mean_period_cost=mean_cost, stderr_period_cost=se_cost,
        loss_estimate=mean_cost - min_expected_cost(config),
        ic=IcResiduals._from_moments(low, high, episodes, seed),
    )
