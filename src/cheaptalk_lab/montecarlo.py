"""Seeded simulation of the one-shot game and the multi-period mechanism.

Plain Monte Carlo, no variance reduction, so every estimate is an unbiased
oracle for the matching closed form.  Samples within a chunk are
exchangeable, so a chunk draws them as contiguous blocks: its count of the
high type, then per type the count with a positive focal reviewer, and per
(type, focal bias) block how many samples see each count of high messages
among the other N - 1, one multinomial draw over the window of the count's
Binomial(N - 1, h) pmf (``game._CountKernel.window``), then the states of
that type.  That is the same joint law as drawing every reviewer's bias, up
to the window's dropped mass of under 2^-64, with no per-sample count and
chunk memory independent of N.  Commitment episodes are drawn as
one period-major block of histories per type, never joined into one array:
row t of a (T, n) block holds the n episodes' states of period t.  Draws are
partitioned into chunks with independent substreams and reduced in chunk
order; reports are therefore bit-identical for a given seed regardless of
the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import Moments, history_chunk, run_chunks
from .evolving import IcResiduals, _history_sums, _single_reviewer
from .game import (GameConfig, InferenceRule, ServiceType, StrategyProfile,
                   _CountKernel, _actions, _check_count, _senders, min_expected_cost)


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


def simulate_game(config: GameConfig, profile: StrategyProfile,
                  rule: InferenceRule, samples: int, seed: int,
                  workers: int = 1) -> SimulationReport:
    """Play the one-shot game ``samples`` times and report empirical moments.

    A chunk draws its count of the high type, Binomial(count, p).  Then for
    the high type, and after it the low type, it draws the count of samples
    whose first reviewer has the positive bias, Binomial(size, q), which
    take the block's first places.  The count of high messages among the
    other reviewers is Binomial(N - 1, h), h the chance of one reviewer
    messaging high under the type; for the positive and then the negative
    samples one multinomial draw says how many see each count of its
    window, and they are rated ``rule`` at that count plus the first
    reviewer's message.  One state is drawn per sample.  Each sample adds
    the squared rating error and the first reviewer's signed rating
    (bucketed by that reviewer's bias).  The windows are built once per
    call, in time and memory of order sqrt(N), and shared by the workers.
    """
    samples, workers = _check_count("samples", samples), _check_count("workers", workers)
    actions = _actions(rule, config)
    # the count among the others; its window needs no lgamma table
    others = _CountKernel(config.n_users - 1, config.p_high, config.q_plus)
    blocks = []   # per type: its state density, the others' count pmf, ratings
    for service, dist in ((ServiceType.HIGH, config.pair.high), (ServiceType.LOW, config.pair.low)):
        flags = _senders(profile, service)
        lo, pmf = others.window(flags)
        # largest chances first, as the draw of counts stops once every
        # sample is placed; then the rating at each count plus the first
        # reviewer's message, for a positive and for a negative first reviewer
        order = np.argsort(-pmf, kind="stable")
        blocks.append((dist, pmf[order], [actions[order + (lo + sends)] for sends in flags]))

    def worker(count, rng):
        n_high = int(rng.binomial(count, config.p_high))
        parts = []
        for (dist, pmf, ratings), size in zip(blocks, (n_high, count - n_high)):
            n_pos = int(rng.binomial(size, config.q_plus))
            pos, neg = (np.repeat(r, rng.multinomial(m, pmf))
                        for r, m in zip(ratings, (n_pos, size - n_pos)))
            cost = dist.sample(rng, size)
            cost[:n_pos] -= pos
            cost[n_pos:] -= neg
            cost **= 2
            np.negative(neg, out=neg)
            parts.append((Moments.of(cost), Moments.of(pos), Moments.of(neg)))
        return tuple(x + y for x, y in zip(*parts))

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
    the squared error.  A chunk draws its high-type count, Binomial(count, p),
    then its high-type and low-type histories as two (T, n) blocks of one row
    per period, never joined; past T = 32 it holds at most 2^20 states
    (``_rng.history_chunk``), so memory does not grow with the horizon.  The
    histories double as samples for the truthfulness residuals, being the
    matching density's product measure given the type.  ``config`` must have
    the schedule's pair, and its prior if the schedule was solved.
    """
    episodes, workers = _check_count("episodes", episodes), _check_count("workers", workers)
    _single_reviewer(config)
    if config.pair != schedule.pair or schedule.p_high not in (None, config.p_high):
        raise ValueError("schedule was built for a different pair or prior")
    horizon, pair = schedule.horizon, schedule.pair

    def worker(count, rng):
        n_high = int(rng.binomial(count, config.p_high))
        high_states = pair.high.sample(rng, (horizon, n_high))
        low_states = pair.low.sample(rng, (horizon, count - n_high))
        diff_high, error_high = _history_sums(schedule, high_states, high=True)
        diff_low, error_low = _history_sums(schedule, low_states, high=False)
        cost = Moments.of(error_high / horizon) + Moments.of(error_low / horizon)
        return cost, Moments.of(diff_low), Moments.of(diff_high)

    cost, low, high = run_chunks(seed, episodes, worker, workers, history_chunk(horizon))
    mean_cost, se_cost = cost.mean_stderr()
    return EvolvingReport(
        episodes=episodes, seed=seed, horizon=horizon,
        mean_period_cost=mean_cost, stderr_period_cost=se_cost,
        loss_estimate=mean_cost - min_expected_cost(config),
        ic=IcResiduals._from_moments(low, high, episodes, seed),
    )
