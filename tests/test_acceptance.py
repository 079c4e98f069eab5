"""Acceptance suite: one test per headline criterion, at pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import math
import time

import pytest

from cheaptalk_lab.benchmarks import (abandon_scheme, majority_vote_loss)
from cheaptalk_lab.distributions import normal_pair
from cheaptalk_lab.equilibrium import (bayesian_system_loss, enumerate_pbe,
                                       p1_high, p1_low,
                                       sequential_two_user_check,
                                       symmetric_bias_loss, three_type_loss)
from cheaptalk_lab.evolving import (CommitmentSchedule, crossover_threshold,
                                    equal_variance_normal_loss, evolving_loss,
                                    solve_schedule, verify_ic)
from cheaptalk_lab.game import (ALL_PROFILES, Bias, GameConfig,
                                PROFILE_LABELS, SC1, SC2,
                                best_response_rule, expected_platform_cost,
                                expected_user_utility)
from cheaptalk_lab.montecarlo import simulate_game

from oracles import brute_force_majority_loss, closed_form_utility

import numpy as np


def config(n=1, p=0.3, q=0.5, mu_l=-1.0, mu_h=1.0, var_l=1.0, var_h=1.0):
    return GameConfig(n, p, q, normal_pair(mu_l, mu_h, var_l, var_h))


def labels(profiles):
    return {PROFILE_LABELS[p] for p in profiles}


def report(line):
    print(f"\n[PASS] {line}")


def test_criterion_01_benchmark_closed_forms():
    start = time.perf_counter()
    assert abandon_scheme(config())[1] == pytest.approx(0.84, abs=1e-12)
    assert majority_vote_loss(config(n=2)) == pytest.approx(1.42, abs=1e-12)
    for n, want in ((1, 2.0), (2, 1.5), (3, 2.0)):
        assert majority_vote_loss(config(n=n, p=0.5)) == pytest.approx(
            want, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 1: benchmark closed forms (0.84, 1.42, non-monotone "
           f"{2.0, 1.5, 2.0}) in {elapsed * 1000:.1f} ms")


def test_criterion_02_majority_vote_brute_force_oracle():
    for n in range(1, 9):
        for p in (0.2, 0.3, 0.5, 0.77):
            g = config(n=n, p=p)
            assert majority_vote_loss(g) == pytest.approx(
                brute_force_majority_loss(g), abs=1e-12)
    report("criterion 2: majority-vote loss equals the exhaustive bias-draw "
           "expectation for N=1..8 (tol 1e-12)")


def test_criterion_03_pbe_tables():
    for n in (1, 2, 3):
        for p in [x / 10 for x in range(1, 10)]:
            assert labels(enumerate_pbe(config(n=n, p=p))) == {
                "SC1", "SC2", "SC3", "SC4"}, (n, p)

    threshold = p1_high(0.1)
    assert threshold == pytest.approx(0.3477297, abs=1e-6)
    for p in (0.1, 0.2, 0.3, threshold - 1e-6):
        assert labels(enumerate_pbe(config(p=p, q=0.1))) == {"SC2", "SC4"}
    for p in (threshold + 1e-6, 0.4, 0.6, 0.9):
        assert labels(enumerate_pbe(config(p=p, q=0.1))) == {
            "SC1", "SC2", "SC3", "SC4"}

    mirror = p1_low(0.9)
    assert mirror == pytest.approx(0.6522703, abs=1e-6)
    for p in (0.1, 0.5, mirror - 1e-6):
        assert labels(enumerate_pbe(config(p=p, q=0.9))) == {
            "SC1", "SC2", "SC3", "SC4"}
    for p in (mirror + 1e-6, 0.8, 0.9):
        assert labels(enumerate_pbe(config(p=p, q=0.9))) == {"SC1", "SC3"}
    report("criterion 3: equilibrium tables (equal shares, small share with "
           "threshold 0.3477297, large share with 0.6522703)")


def test_criterion_04_worst_equilibrium_loss_formula():
    assert symmetric_bias_loss(1, 0.3, 2.0) == pytest.approx(0.6461538,
                                                             abs=1e-7)
    assert symmetric_bias_loss(1, 0.3, 2.0) == pytest.approx(0.84 / 1.3,
                                                             rel=1e-9, abs=0.0)
    assert symmetric_bias_loss(2, 0.3, 2.0) == pytest.approx(0.84 / 1.9,
                                                             rel=1e-9, abs=0.0)
    losses = [symmetric_bias_loss(n, 0.3, 2.0) for n in range(1, 11)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    for n in (1, 2, 3):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert bayesian_system_loss(config(n=n, p=p)) == pytest.approx(
                symmetric_bias_loss(n, p, 2.0), rel=1e-9, abs=0.0)
    report("criterion 4: worst-equilibrium loss 0.6461538 / 0.4421053, "
           "decreasing in N, generic enumeration matches the formula (1e-9)")


def test_criterion_05_utility_oracle_equivalence():
    checked = 0
    for n in (1, 2, 3):
        for q in (0.1, 0.5, 0.9):
            for p in (0.1, 0.5, 0.9):
                g = config(n=n, p=p, q=q)
                for idx, profile in enumerate(ALL_PROFILES, start=1):
                    rule = best_response_rule(profile, g)
                    for bias in Bias:
                        got = expected_user_utility(profile, rule, bias, g)
                        want = closed_form_utility(
                            idx, bias is Bias.POSITIVE, n, q, p, 1.0, -1.0)
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
                        checked += 1
    report(f"criterion 5: generic utilities match all 16 closed forms "
           f"({checked} comparisons, rel 1e-12)")


def test_criterion_06_commitment_mechanism():
    g = config()
    schedule = solve_schedule(g, 2)
    assert schedule.lambda_low > 0 and schedule.lambda_high > 0
    general = evolving_loss(g, 2)
    normal_form = equal_variance_normal_loss(0.3, 2.0, 1.0, 2)
    assert general == pytest.approx(0.126739, abs=5e-7)
    assert general == pytest.approx(normal_form, rel=1e-9, abs=0.0)

    losses = [evolving_loss(g, t) for t in range(2, 13)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert all(loss < 0.84 for loss in losses)

    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        length = int(rng.integers(0, schedule.horizon))
        source = g.pair.high if rng.random() < 0.5 else g.pair.low
        a_low, a_high = schedule.actions(source.sample(rng, length))
        assert g.mu_low < a_low and a_high < g.mu_high
    report("criterion 6: commitment loss 0.126739 (both routes, 1e-9), "
           "decreasing over T=2..12, below 0.84, positive multipliers, "
           "10^4 sampled action pairs strictly inside the means")


def test_criterion_07_incentive_verification():
    start = time.perf_counter()
    g = config()
    schedule = solve_schedule(g, 2)
    residuals = verify_ic(schedule, 100_000, seed=424242)
    for residual in residuals.binding:
        assert abs(residual.value) <= 3.0 * residual.stderr

    horizon = 2
    broken = CommitmentSchedule(horizon=horizon, pair=g.pair,
                                coefficients=(g.mu_low, 0.0, g.mu_high, 0.0))
    broken_res = verify_ic(broken, 1000, seed=7)
    assert broken_res.positive_low.value == horizon * (g.mu_low - g.mu_high)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"criterion 7: binding residuals within 3 stderr of 0 at 10^5 "
           f"episodes; broken schedule residual exactly {horizon * -2.0} "
           f"({elapsed:.1f} s)")


def test_criterion_08_crossover():
    g = config()
    threshold = crossover_threshold(g, 2)
    assert threshold == pytest.approx(4.304, abs=1e-3)
    assert math.floor(crossover_threshold(g, 2)) == 4
    values = [crossover_threshold(g, t) for t in range(2, 7)]
    assert all(a < b for a, b in zip(values, values[1:]))
    commit = evolving_loss(g, 2)
    for n in range(1, 9):
        bayes = symmetric_bias_loss(n, 0.3, 2.0)
        assert (commit < bayes) == (n <= threshold)
    report("criterion 8: crossover threshold 4.304 (N <= 4), increasing in "
           "the horizon, consistent with direct loss comparison")


def test_criterion_09_three_type_extension():
    assert three_type_loss(2, 2.0) == pytest.approx(0.2916667, abs=1e-7)
    assert three_type_loss(2, 2.0) == pytest.approx(21.0 * 4.0 / 288.0,
                                                    rel=1e-9, abs=0.0)
    assert three_type_loss(3, 2.0) == pytest.approx(41.0 * 4.0 / 960.0,
                                                    rel=1e-9, abs=0.0)
    losses = [three_type_loss(n, 2.0) for n in range(2, 12)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    report("criterion 9: three-type losses 0.2916667 / 0.1708333 (1e-9), "
           "strictly decreasing in N")


def test_criterion_10_monte_carlo_agreement():
    start = time.perf_counter()
    for profile in (SC1, SC2):
        for n in (1, 2):
            g = config(n=n)
            rule = best_response_rule(profile, g)
            rep = simulate_game(g, profile, rule, 10**6, seed=97)
            cost = expected_platform_cost(profile, rule, g)
            assert abs(rep.mean_cost - cost) <= 3.0 * rep.stderr_cost
            for bias, mean, stderr in (
                    (Bias.NEGATIVE, rep.mean_utility_negative,
                     rep.stderr_utility_negative),
                    (Bias.POSITIVE, rep.mean_utility_positive,
                     rep.stderr_utility_positive)):
                want = expected_user_utility(profile, rule, bias, g)
                assert abs(mean - want) <= 3.0 * stderr

    g = config(n=2)
    rule = best_response_rule(SC1, g)
    first = simulate_game(g, SC1, rule, 10**6, seed=1234)
    again = simulate_game(g, SC1, rule, 10**6, seed=1234)
    threaded = simulate_game(g, SC1, rule, 10**6, seed=1234, workers=4)
    assert first == again == threaded
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"criterion 10: 10^6-sample estimates within 3 stderr for "
           f"SC1/SC2 at N=1,2; bit-identical across reruns and worker "
           f"counts ({elapsed:.1f} s)")


def test_criterion_11_sequential_two_reviewer_check():
    for p in [x / 10 for x in range(1, 10)]:
        rep = sequential_two_user_check(config(n=2, p=p))
        for deviation in rep.deviations.values():
            assert deviation.gain <= 1e-12
        assert rep.deviations["plan4"].gain == pytest.approx(0.0, abs=1e-12)
    report("criterion 11: all four sequential deviation gains <= 0 across "
           "the prior sweep, final plan ties exactly")


def test_criterion_12_asymptotics():
    g = config(n=14, var_h=1.5)
    assert bayesian_system_loss(g) < 1e-3
    assert symmetric_bias_loss(14, 0.3, 2.0) < 1e-3
    assert evolving_loss(config(), 20) < 1e-6
    report("criterion 12: game loss below 1e-3 by N=14 and commitment loss "
           "below 1e-6 by T=20")
