import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cheaptalk_lab.game import (ALL_PROFILES, Bias, GameConfig, PureStrategy,
                                SC1, SC2, SC5, SC7, ServiceType,
                                best_response_rule, expected_platform_cost,
                                expected_user_utility, min_expected_cost,
                                posterior_high, _CountKernel, _kernel, _senders)
from cheaptalk_lab.distributions import normal_pair
from cheaptalk_lab.montecarlo import simulate_game

from oracles import (brute_force_cost, brute_force_utility,
                     closed_form_utility, rule_half_share, rule_one_user,
                     rule_remaining)


def config(n=1, p=0.3, q=0.5, mu_l=-1.0, mu_h=1.0, var_l=1.0, var_h=1.0):
    return GameConfig(n, p, q, normal_pair(mu_l, mu_h, var_l, var_h))


@pytest.mark.parametrize("strategy, under_high, under_low", [
    (PureStrategy.HONEST, ServiceType.HIGH, ServiceType.LOW),
    (PureStrategy.BLIND_HIGH, ServiceType.HIGH, ServiceType.HIGH),
    (PureStrategy.BLIND_LOW, ServiceType.LOW, ServiceType.LOW),
    (PureStrategy.REVERSED, ServiceType.LOW, ServiceType.HIGH),
], ids=lambda x: getattr(x, "name", ""))
def test_each_strategy_is_valued_by_its_message_table(strategy, under_high, under_low):
    assert strategy.message(ServiceType.HIGH) is under_high
    assert strategy.message(ServiceType.LOW) is under_low
    assert strategy.value == (under_high is ServiceType.HIGH, under_low is ServiceType.HIGH)


def test_strategies_keep_their_declaration_order():
    # the order of the deviation witnesses of ``is_pbe`` follows it
    assert [s.name for s in PureStrategy] == ["HONEST", "BLIND_HIGH", "BLIND_LOW", "REVERSED"]


def test_profile_constants_are_all_distinct():
    assert len(set(ALL_PROFILES)) == 16


def test_high_message_prob_examples():
    # with one reviewer, the chance of one high message is his chance of messaging high
    g = config()

    def high_message_prob(profile, service):
        return _kernel(g).pmf(_senders(profile, service))[1]

    assert high_message_prob(SC1, ServiceType.HIGH) == pytest.approx(0.5)
    assert high_message_prob(SC1, ServiceType.LOW) == 0.0
    assert high_message_prob(SC2, ServiceType.LOW) == pytest.approx(0.5)


def test_posterior_examples():
    g = config()
    assert posterior_high(SC1, g, 1) == 1.0
    assert posterior_high(SC1, g, 0) == pytest.approx(0.15 / 0.85, rel=1e-12, abs=0.0)
    g2 = config(n=2)
    assert posterior_high(SC2, g2, 2) == pytest.approx(0.3 / 0.475, rel=1e-12, abs=0.0)


def test_posterior_rejects_bad_count():
    # a bool or a float would index the posterior array, or fail inside numpy
    for k in (2, -1, True, 1.0):
        with pytest.raises(ValueError, match=f"k={k!r} "):
            posterior_high(SC1, config(), k)


def test_off_path_counts_keep_the_prior():
    g = config(n=3)
    # all-honest: mixed counts are impossible under either type
    for k in (1, 2):
        assert posterior_high(SC7, g, k) == g.p_high


def test_posterior_is_prior_when_counts_are_uninformative():
    from cheaptalk_lab.game import SC6, SC8, SC9, SC10, SC11
    for g in (config(n=2, q=0.3), config(n=3, q=0.8)):
        for profile in (SC8, SC9, SC10, SC11):
            for k in range(g.n_users + 1):
                assert posterior_high(profile, g, k) == pytest.approx(g.p_high)
    # opposed strategies cancel only at equal bias shares
    g = config(n=3, q=0.5)
    for profile in (SC5, SC6):
        for k in range(4):
            assert posterior_high(profile, g, k) == pytest.approx(g.p_high)


class TestBestResponseRule:
    def test_spec_values(self):
        rule = best_response_rule(SC1, config())
        assert rule(0) == pytest.approx(-0.6470588235294118, rel=1e-9, abs=0.0)
        assert rule(1) == 1.0
        rule = best_response_rule(SC2, config(n=2))
        assert rule(2) == pytest.approx(0.2631578947368423, rel=1e-9, abs=0.0)
        assert rule(0) == -1.0 and rule(1) == -1.0

    def test_constant_rule_for_opposed_strategies(self):
        g = config(n=2, p=0.37)
        rule = best_response_rule(SC5, g)
        assert all(a == pytest.approx(g.prior_mean) for a in rule.actions)

    def test_matches_half_share_closed_forms(self):
        for n in (1, 2, 3):
            for p in (0.1, 0.5, 0.9):
                g = config(n=n, p=p)
                for idx in range(1, 7):
                    rule = best_response_rule(ALL_PROFILES[idx - 1], g)
                    expected = rule_half_share(idx, n, p, 1.0, -1.0)
                    for k, a in expected.items():
                        assert rule(k) == pytest.approx(a, rel=1e-12, abs=1e-14)

    def test_matches_one_user_closed_forms(self):
        for q in (0.1, 0.5, 0.9):
            for p in (0.1, 0.5, 0.9):
                g = config(n=1, p=p, q=q)
                for idx in range(1, 7):
                    rule = best_response_rule(ALL_PROFILES[idx - 1], g)
                    expected = rule_one_user(idx, q, p, 1.0, -1.0)
                    for k, a in expected.items():
                        assert rule(k) == pytest.approx(a, rel=1e-12, abs=1e-14)

    def test_matches_remaining_combination_closed_forms(self):
        for n in (1, 2, 3):
            for q in (0.1, 0.5, 0.9):
                for p in (0.1, 0.5, 0.9):
                    g = config(n=n, p=p, q=q)
                    for idx in range(7, 17):
                        rule = best_response_rule(ALL_PROFILES[idx - 1], g)
                        expected = rule_remaining(idx, n, q, p, 1.0, -1.0)
                        for k, a in expected.items():
                            assert rule(k) == pytest.approx(a, rel=1e-12, abs=1e-14)

    def test_actions_stay_within_the_mean_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = config(n=int(rng.integers(1, 5)), p=rng.uniform(0.05, 0.95),
                       q=rng.uniform(0.05, 0.95))
            for profile in ALL_PROFILES:
                rule = best_response_rule(profile, g)
                for a in rule.actions:
                    assert g.mu_low - 1e-12 <= a <= g.mu_high + 1e-12


class TestExpectedUtility:
    def test_spec_values(self):
        g = config()
        rule = best_response_rule(SC1, g)
        assert expected_user_utility(SC1, rule, Bias.POSITIVE, g) == pytest.approx(
            -0.15294117647058814, rel=1e-9, abs=0.0)
        g2 = config(n=2)
        rule2 = best_response_rule(SC1, g2)
        assert expected_user_utility(SC1, rule2, Bias.POSITIVE, g2) == pytest.approx(
            -0.2645161290322581, rel=1e-9, abs=0.0)

    def test_constant_rule_gives_the_constant(self):
        g = config(n=3, p=0.62)
        rule = best_response_rule(SC5, g)
        assert expected_user_utility(SC5, rule, Bias.POSITIVE, g) == pytest.approx(
            g.prior_mean)
        assert expected_user_utility(SC5, rule, Bias.NEGATIVE, g) == pytest.approx(
            -g.prior_mean)

    def test_matches_published_closed_forms_everywhere(self):
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

    def test_matches_brute_force_enumeration_with_deviations(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = config(n=int(rng.integers(1, 5)), p=rng.uniform(0.05, 0.95),
                       q=rng.uniform(0.05, 0.95),
                       mu_l=rng.uniform(-3, 0), mu_h=rng.uniform(0.1, 3))
            profile = ALL_PROFILES[rng.integers(0, 16)]
            alternative = list(PureStrategy)[rng.integers(0, 4)]
            rule = best_response_rule(profile, g)
            for bias in Bias:
                # the bias class deviates; the rule still answers ``profile``
                deviated = profile.with_strategy(bias, alternative)
                got = expected_user_utility(deviated, rule, bias, g)
                want = brute_force_utility(deviated, rule, bias, g)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestPlatformCost:
    def test_identical_densities_make_inference_irrelevant(self):
        g = GameConfig(2, 0.3, 0.5, normal_pair(0.0, 0.0, 1.3, 1.3))
        for profile in (SC1, SC2, SC7):
            rule = best_response_rule(profile, g)
            assert expected_platform_cost(profile, rule, g) == pytest.approx(1.3)

    def test_spec_values(self):
        g = config(var_h=1.5)
        rule = best_response_rule(SC5, g)
        assert expected_platform_cost(SC5, rule, g) == pytest.approx(1.99, rel=1e-12, abs=0.0)
        rule = best_response_rule(SC1, g)
        assert expected_platform_cost(SC1, rule, g) == pytest.approx(
            1.15 + 0.84 / 1.7, rel=1e-12, abs=0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = config(n=int(rng.integers(1, 5)), p=rng.uniform(0.05, 0.95),
                       q=rng.uniform(0.05, 0.95), var_l=rng.uniform(0.5, 2),
                       var_h=rng.uniform(0.5, 2))
            profile = ALL_PROFILES[rng.integers(0, 16)]
            rule = best_response_rule(profile, g)
            got = expected_platform_cost(profile, rule, g)
            assert got == pytest.approx(brute_force_cost(profile, rule, g),
                                        rel=1e-12, abs=0.0)

    def test_cost_floor_holds_for_every_profile(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = config(n=int(rng.integers(1, 4)), p=rng.uniform(0.05, 0.95),
                       q=rng.uniform(0.05, 0.95), var_l=rng.uniform(0.5, 2),
                       var_h=rng.uniform(0.5, 2))
            floor = min_expected_cost(g)
            for profile in ALL_PROFILES:
                rule = best_response_rule(profile, g)
                assert expected_platform_cost(profile, rule, g) >= floor - 1e-12

    def test_zero_gap_forces_constant_rules_and_zero_loss(self):
        g = GameConfig(3, 0.4, 0.3, normal_pair(0.5, 0.5, 1.0, 2.0))
        floor = min_expected_cost(g)
        for profile in ALL_PROFILES:
            rule = best_response_rule(profile, g)
            assert all(a == 0.5 for a in rule.actions)
            assert expected_platform_cost(profile, rule, g) == pytest.approx(floor)


@pytest.mark.parametrize("use_rule", [
    lambda rule, g: expected_user_utility(SC1, rule, Bias.POSITIVE, g),
    lambda rule, g: expected_platform_cost(SC1, rule, g),
    lambda rule, g: simulate_game(g, SC1, rule, 100, seed=1),
], ids=["utility", "cost", "simulation"])
@pytest.mark.parametrize("rule_users", [1, 5])
def test_every_rule_taking_function_refuses_a_rule_of_another_count(use_rule, rule_users):
    rule = best_response_rule(SC1, config(n=rule_users))
    with pytest.raises(ValueError, match="^rule was built for a different number of users$"):
        use_rule(rule, config(n=2))


@pytest.mark.parametrize("n_users", [2.5, 2.0, True, "3", 0])
def test_reviewer_count_must_be_an_integer(n_users):
    with pytest.raises(ValueError):
        GameConfig(n_users, 0.3, 0.5, normal_pair(-1.0, 1.0))


class TestCountWindow:
    # the window of the count of high messages that simulate_game draws from
    @staticmethod
    def window(count, h):
        flags = {0.0: (False, False), 1.0: (True, True)}.get(h, (True, False))
        return _CountKernel(count, 0.3, h if 0.0 < h < 1.0 else 0.3).window(flags)

    @pytest.mark.parametrize("h", [0.0, 1e-12, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("count", [1, 63, 10**4, 10**6])
    def test_drops_under_2_to_the_minus_64_and_matches_scipy(self, count, h):
        from scipy import stats

        lo, pmf = self.window(count, h)
        k = np.arange(lo, lo + pmf.size)
        assert 0 <= lo and k[-1] <= count
        dropped = stats.binom.cdf(lo - 1, count, h) + stats.binom.sf(k[-1], count, h)
        assert dropped <= 2.0**-64
        want = stats.binom.pmf(k, count, h)
        # the log terms are summed step by step; 2.3e-12 measured at 10^6
        np.testing.assert_allclose(pmf, want / want.sum(), rtol=1e-11, atol=0.0)
        assert pmf.sum() == pytest.approx(1.0, rel=1e-15, abs=0.0)
        if h in (0.0, 1.0):   # a sure count is one value
            assert (lo, pmf.tolist()) == (int(h * count), [1.0])

    def test_builds_no_count_long_array(self):
        # the kernel's lgamma table would take 8 MB at this count
        kernel = _CountKernel(10**6, 0.3, 0.5)
        tracemalloc.start()
        try:
            lo, pmf = kernel.window((True, False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pmf.size < 10**4 and peak < 2**20, (pmf.size, peak)
