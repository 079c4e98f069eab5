import math
import tracemalloc

import numpy as np
import pytest

from cheaptalk_lab.benchmarks import (abandon_scheme, majority_vote_loss,
                                      majority_vote_loss_biased)
from cheaptalk_lab.distributions import normal_pair
from cheaptalk_lab.game import GameConfig

from oracles import brute_force_majority_loss, majority_vote_rule


def config(n=1, p=0.3, q=0.5, mu_l=-1.0, mu_h=1.0):
    return GameConfig(n, p, q, normal_pair(mu_l, mu_h))


class TestMajorityVote:
    def test_rule_cases(self):
        rule = majority_vote_rule(config(n=3))
        assert rule(2) == 1.0 and rule(3) == 1.0
        assert rule(0) == -1.0 and rule(1) == -1.0
        rule = majority_vote_rule(config(n=2))
        assert rule(1) == pytest.approx(-0.4)
        rule = majority_vote_rule(config(n=1))
        assert rule(0) == -1.0

    def test_closed_form_values(self):
        assert majority_vote_loss(config(n=1, p=0.5)) == pytest.approx(2.0, abs=1e-12)
        assert majority_vote_loss(config(n=2, p=0.5)) == pytest.approx(1.5, abs=1e-12)
        assert majority_vote_loss(config(n=3, p=0.5)) == pytest.approx(2.0, abs=1e-12)
        assert majority_vote_loss(config(n=2, p=0.3)) == pytest.approx(1.42, abs=1e-12)
        # odd N: each tail is exactly 2^(N-1), and 2^N is past the double range
        assert majority_vote_loss(config(n=1025, p=0.3)) == 2.0

    @pytest.mark.parametrize("n,bound", [(10, 4.3e-16), (1000, 2.0e-15), (10**6, 3.2e-13)])
    def test_even_counts_match_mpmath(self, n, bound):
        # the tie chance C(N, N/2)/2^N from lgamma, whose rounding grows with N;
        # each bound is the error measured at its count, rounded up
        import mpmath

        with mpmath.workdps(50):
            tie = mpmath.binomial(n, n // 2) / mpmath.mpf(2) ** n
            p = mpmath.mpf(0.3)
            exact = 4 * ((1 - tie) / 2 + p * (1 - p) * tie)
            assert abs(majority_vote_loss(config(n=n)) - exact) <= bound * exact

    def test_memory_does_not_grow_with_the_count(self):
        # the tie chance is one expression: no count-long array is built
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            majority_vote_loss(config(n=10**6))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_equals_brute_force_for_all_counts(self):
        for n in range(1, 9):
            for p in (0.17, 0.3, 0.5, 0.84):
                g = config(n=n, p=p)
                assert majority_vote_loss(g) == pytest.approx(
                    brute_force_majority_loss(g), abs=1e-12)

    def test_biased_variant_reduces_to_closed_form_at_equal_shares(self):
        for n in range(1, 7):
            g = config(n=n, p=0.41)
            assert majority_vote_loss_biased(g) == pytest.approx(
                majority_vote_loss(g), rel=1e-12, abs=0.0)

    def test_biased_variant_equals_brute_force(self):
        for q in (0.1, 0.35, 0.8):
            for n in (1, 2, 3, 5):
                g = config(n=n, p=0.3, q=q)
                assert majority_vote_loss_biased(g) == pytest.approx(
                    brute_force_majority_loss(g), abs=1e-12)

    def test_not_monotone_in_reviewer_count(self):
        losses = [majority_vote_loss(config(n=n, p=0.5)) for n in (1, 2, 3)]
        assert losses[0] > losses[1]
        assert losses[1] < losses[2]

    def test_exceeds_abandon_loss_everywhere(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = config(n=int(rng.integers(1, 10)), p=rng.uniform(0.02, 0.98),
                       mu_l=rng.uniform(-3, 0), mu_h=rng.uniform(0.01, 3))
            assert majority_vote_loss(g) > abandon_scheme(g)[1]

    def test_scales_with_the_squared_mean_gap(self):
        base = majority_vote_loss(config(n=3, mu_l=-0.5, mu_h=0.5))
        for gap in (10.0, 100.0):
            g = config(n=3, mu_l=-gap / 2, mu_h=gap / 2)
            assert majority_vote_loss(g) == pytest.approx(base * gap**2, rel=1e-12, abs=0.0)

    def test_biased_variant_never_exceeds_the_squared_gap(self):
        # the summed lgamma pmf passes 1: these read 4.000000000002102 and
        # 1.1999999992231767 before the loss was divided by that sum
        assert majority_vote_loss_biased(config(n=1001, p=1 - 2**-53, q=0.3)) <= 4.0
        assert majority_vote_loss_biased(config(n=10**6, p=0.3, q=0.3)) == 1.2


class TestGapsWhoseSquareOverflows:
    # gap**2 raised a bare OverflowError past a gap of about 1.34e154; the
    # loss is finite wherever the true loss is, and inf beyond
    def test_a_finite_loss_stays_finite(self):
        g = config(n=101, p=1e-10, q=0.3, mu_l=-5e154, mu_h=5e154)
        unit = config(n=101, p=1e-10, q=0.3, mu_l=-0.5, mu_h=0.5)
        assert abandon_scheme(g)[1] == pytest.approx(1e-10 * (1 - 1e-10) * 1e155 * 1e155,
                                                     rel=1e-12, abs=0.0)
        assert majority_vote_loss_biased(g) == pytest.approx(
            majority_vote_loss_biased(unit) * 1e155 * 1e155, rel=1e-12, abs=0.0)
        huge = config(n=101, p=1e-10, mu_l=-7e153, mu_h=7e153)
        assert majority_vote_loss(huge) == pytest.approx(0.5 * 1.4e154 * 1.4e154,
                                                         rel=1e-12, abs=0.0)

    def test_a_loss_past_the_double_range_is_inf(self):
        g = config(n=101, p=1e-10, mu_l=-5e154, mu_h=5e154)   # gap^2 / 2 = 5e309
        assert majority_vote_loss(g) == math.inf
        assert majority_vote_loss_biased(g) == math.inf


class TestAbandon:
    def test_spec_values(self):
        action, loss = abandon_scheme(config())
        assert action == pytest.approx(-0.4)
        assert loss == pytest.approx(0.84, abs=1e-12)
        assert abandon_scheme(config(p=0.5))[1] == pytest.approx(1.0, abs=1e-12)
        assert abandon_scheme(config(mu_l=1.0, mu_h=1.0))[1] == 0.0

    def test_scales_with_the_squared_mean_gap(self):
        base = abandon_scheme(config(mu_l=-0.5, mu_h=0.5))[1]
        g = config(mu_l=-50, mu_h=50)
        assert abandon_scheme(g)[1] == pytest.approx(base * 100.0**2, rel=1e-12, abs=0.0)


class TestOneShotCommitment:
    """A single-period commitment posts the abandoning rating after either
    message, so both committed actions are ``abandon_scheme``'s action."""

    def test_degenerates_to_the_prior_mean(self):
        action, loss = abandon_scheme(config())
        assert action == pytest.approx(-0.4)
        assert loss == pytest.approx(0.84, abs=1e-12)

    def test_other_parameterizations(self):
        g = GameConfig(1, 0.9, 0.5, normal_pair(0.0, 2.0))
        assert abandon_scheme(g) == pytest.approx((1.8, 0.36))
        g = GameConfig(1, 0.9, 0.5, normal_pair(0.7, 0.7))
        assert abandon_scheme(g) == pytest.approx((0.7, 0.0))

    def test_constant_actions_satisfy_all_four_constraints_exactly(self):
        # with a_low == a_high every expected-difference constraint is zero
        a_low = a_high = abandon_scheme(config())[0]
        for sign in (1.0, -1.0):
            assert sign * (a_low - a_high) == 0.0
