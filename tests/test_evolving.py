import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cheaptalk_lab.benchmarks import abandon_scheme
from cheaptalk_lab.distributions import (DistributionPair, Family,
                                         StateDistribution, alpha_beta,
                                         normal_pair)
from cheaptalk_lab.errors import DegenerateHorizon
from cheaptalk_lab.evolving import (CommitmentSchedule, ConstantSchedule,
                                    _log_geometric_sum, _solve,
                                    crossover_threshold,
                                    equal_variance_normal_loss, evolving_loss,
                                    solve_schedule, verify_ic)
from cheaptalk_lab.game import GameConfig

from oracles import (cost_by_quadrature_two_periods, ic_sums_by_quadrature,
                     loss_by_moment_sums, multipliers_by_linear_solve)


def config(p=0.3, mu_l=-1.0, mu_h=1.0, var_l=1.0, var_h=1.0):
    return GameConfig(1, p, 0.5, normal_pair(mu_l, mu_h, var_l, var_h))


FIG_CONFIG = config()


class TestSolveSchedule:
    def test_reference_values(self):
        s = solve_schedule(FIG_CONFIG, 2)
        assert s.s_alpha == pytest.approx(1.0 + math.exp(4.0), rel=1e-12, abs=0.0)
        assert s.s_beta == s.s_alpha
        assert s.lambda_low > 0 and s.lambda_high > 0

    def test_multipliers_match_an_independent_linear_solve(self):
        rng = np.random.default_rng(53)
        for _ in range(12):
            p = rng.uniform(0.1, 0.9)
            gap = rng.uniform(0.3, 2.5)
            g = config(p=p, mu_l=-gap / 2, mu_h=gap / 2,
                       var_l=1.0, var_h=rng.uniform(0.8, 1.4))
            horizon = int(rng.integers(2, 7))
            s = solve_schedule(g, horizon)
            lam_low, lam_high = multipliers_by_linear_solve(
                p, gap, s.alpha, s.beta, horizon)
            assert s.lambda_low == pytest.approx(lam_low, rel=1e-9, abs=0.0)
            assert s.lambda_high == pytest.approx(lam_high, rel=1e-9, abs=0.0)

    def test_large_horizons_solve_without_overflow(self):
        # from T=179 the geometric sums exceed the double range
        for horizon in (179, 400):
            s = solve_schedule(FIG_CONFIG, horizon)
            assert math.isfinite(s.lambda_low) and math.isfinite(s.lambda_high)
            for log_ratio in (-30.0, 0.0, 30.0):
                a_low, a_high = s.actions_from_log_ratio(log_ratio)
                assert FIG_CONFIG.mu_low <= a_low <= FIG_CONFIG.mu_high
                assert FIG_CONFIG.mu_low <= a_high <= FIG_CONFIG.mu_high

    @pytest.mark.parametrize("log_r", [-30.0, -0.7, -1e-9, 0.0, 1e-9, 0.7, 30.0])
    def test_log_geometric_sum_matches_the_direct_sum(self, log_r):
        for horizon in (1, 2, 5, 40):
            top = max(0.0, (horizon - 1) * log_r)
            direct = top + math.log(math.fsum(math.exp(k * log_r - top)
                                              for k in range(horizon)))
            assert _log_geometric_sum(log_r, horizon) == pytest.approx(
                direct, rel=1e-13, abs=1e-15)

    def test_single_period_is_degenerate(self):
        with pytest.raises(DegenerateHorizon):
            solve_schedule(FIG_CONFIG, 1)

    def test_identical_densities_are_degenerate(self):
        g = GameConfig(1, 0.3, 0.5, normal_pair(0.0, 0.0))
        with pytest.raises(DegenerateHorizon):
            solve_schedule(g, 3)

    def test_requires_one_reviewer(self):
        g = GameConfig(2, 0.3, 0.5, normal_pair(-1, 1))
        with pytest.raises(ValueError):
            solve_schedule(g, 2)


class TestCommitmentActions:
    def test_empty_history_actions_sit_strictly_inside_the_means(self):
        s = solve_schedule(FIG_CONFIG, 2)
        a_low, a_high = s.actions([])
        assert FIG_CONFIG.mu_low < a_low
        assert a_high < FIG_CONFIG.mu_high

    def test_midpoint_history_keeps_unit_ratio(self):
        s = solve_schedule(FIG_CONFIG, 3)
        assert s.actions([0.0]) == pytest.approx(
            s.actions([]), rel=1e-12, abs=0.0)
        assert s.actions([0.0, 0.0]) == pytest.approx(
            s.actions([]), rel=1e-12, abs=0.0)

    def test_high_action_rises_toward_its_supremum_on_favorable_runs(self):
        # as the history ratio blows up the high action increases toward
        # mu_high - lambda_high / (2 p), always staying below mu_high
        s = solve_schedule(FIG_CONFIG, 4)
        gaps = []
        for length in (1, 3, 8, 20):
            _, a_high = s.actions([1.0] * length)
            gaps.append(FIG_CONFIG.mu_high - a_high)
            assert a_high < FIG_CONFIG.mu_high
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        supremum = FIG_CONFIG.mu_high - s.lambda_high / (2 * FIG_CONFIG.p_high)
        assert gaps[-1] == pytest.approx(FIG_CONFIG.mu_high - supremum, rel=1e-9, abs=0.0)

    def test_bounds_hold_over_random_histories(self):
        rng = np.random.default_rng(59)
        for g, horizon in ((FIG_CONFIG, 2), (config(var_h=1.5), 3),
                           (config(p=0.7), 5)):
            s = solve_schedule(g, horizon)
            for _ in range(2500):
                length = int(rng.integers(0, horizon))
                source = g.pair.high if rng.random() < 0.5 else g.pair.low
                hist = source.sample(rng, length)
                a_low, a_high = s.actions(hist)
                assert g.mu_low < a_low
                assert a_high < g.mu_high


class TestEvolvingLoss:
    def test_reference_value(self):
        assert evolving_loss(FIG_CONFIG, 2) == pytest.approx(0.126739, abs=5e-7)

    def test_general_formula_agrees_with_the_normal_closed_form(self):
        for p in (0.1, 0.3, 0.6, 0.9):
            for gap in (1.0, 2.0, 5.0):
                for var in (0.5, 1.0, 2.0):
                    for horizon in (2, 3, 5, 8):
                        g = config(p=p, mu_l=-gap / 2, mu_h=gap / 2,
                                   var_l=var, var_h=var)
                        assert evolving_loss(g, horizon) == pytest.approx(
                            equal_variance_normal_loss(p, gap, var, horizon),
                            rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_normal_closed_form_rejects_a_horizon_below_one(self, horizon):
        # -3 returned 1.06, above the abandoning loss; 0 divided by zero
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            equal_variance_normal_loss(0.3, 2.0, 1.0, horizon)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan, math.inf])
    def test_normal_closed_form_rejects_a_variance_that_is_not_positive(self, variance):
        # 0.0 divided by zero; -1.0 returned 0.975, above the abandoning loss
        with pytest.raises(ValueError, match="variance must be positive"):
            equal_variance_normal_loss(0.3, 2.0, variance, 3)

    def test_loss_matches_the_second_moment_derivation(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            p = rng.uniform(0.15, 0.85)
            gap = rng.uniform(0.5, 2.0)
            g = config(p=p, mu_l=-gap / 2, mu_h=gap / 2)
            horizon = int(rng.integers(2, 6))
            s = solve_schedule(g, horizon)
            direct = loss_by_moment_sums(p, s.lambda_low, s.lambda_high,
                                         s.alpha, s.beta, horizon)
            assert evolving_loss(g, horizon) == pytest.approx(direct, rel=1e-9, abs=0.0)

    def test_two_period_cost_by_quadrature(self):
        for g in (FIG_CONFIG, config(var_h=1.5)):
            s = solve_schedule(g, 2)
            cost = cost_by_quadrature_two_periods(s)
            floor = (g.p_high * g.pair.high.variance
                     + (1 - g.p_high) * g.pair.low.variance)
            assert cost - floor == pytest.approx(evolving_loss(g, 2), rel=1e-8, abs=0.0)

    def test_single_period_routes_to_the_abandoning_loss(self):
        assert evolving_loss(FIG_CONFIG, 1) == pytest.approx(0.84, abs=1e-12)
        assert equal_variance_normal_loss(0.3, 2.0, 1.0, 1) == pytest.approx(0.84, abs=1e-12)

    def test_strictly_decreasing_in_the_horizon(self):
        losses = [evolving_loss(FIG_CONFIG, t) for t in range(2, 13)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_below_the_abandoning_loss_for_all_tested_horizons(self):
        for g in (FIG_CONFIG, config(var_h=1.5), config(p=0.7)):
            abandon = abandon_scheme(g)[1]
            for horizon in range(2, 13):
                assert evolving_loss(g, horizon) < abandon

    def test_vanishes_as_the_gap_grows(self):
        for gap in (2.0, 5.0, 10.0):
            g = config(mu_l=-gap / 2, mu_h=gap / 2)
            assert evolving_loss(g, 3) < evolving_loss(
                config(mu_l=-gap / 4, mu_h=gap / 4), 3)
        assert evolving_loss(config(mu_l=-5, mu_h=5), 2) < 1e-9

    def test_large_horizon_underflows_to_zero_without_error(self):
        for horizon in (400, 500):
            loss = evolving_loss(FIG_CONFIG, horizon)
            # +0.0: a CSV prints -0.0 as "-0"
            assert loss == 0.0 and math.copysign(1.0, loss) == 1.0, horizon

    def test_laplace_and_logistic_pairs_are_supported(self):
        for family, scale_high in ((Family.LAPLACE, 1.5), (Family.LOGISTIC, 1.5)):
            pair = DistributionPair(StateDistribution(family, -1, 1.0),
                                    StateDistribution(family, 1, scale_high))
            g = GameConfig(1, 0.3, 0.5, pair)
            losses = [evolving_loss(g, t) for t in range(2, 8)]
            assert all(a > b for a, b in zip(losses, losses[1:]))
            assert losses[0] < abandon_scheme(g)[1]

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(family=st.sampled_from([Family.NORMAL, Family.LAPLACE]),
           gap=st.floats(0.0, 3.0), scale_low=st.floats(0.5, 2.0),
           ratio=st.floats(0.75, 1.35), p=st.floats(0.01, 0.99))
    def test_between_zero_and_abandoning_and_not_rising_in_the_horizon(
            self, family, gap, scale_low, ratio, p):
        # densities this close to each other leave the commitment system singular
        assume(gap >= 1e-3 or abs(ratio - 1.0) >= 1e-3)
        pair = DistributionPair(StateDistribution(family, -gap / 2, scale_low),
                                StateDistribution(family, gap / 2, scale_low * ratio))
        g = GameConfig(1, p, 0.5, pair)
        losses = [evolving_loss(g, t) for t in range(1, 16)]
        abandon = abandon_scheme(g)[1]
        assert all(0.0 <= loss <= abandon for loss in losses), losses
        assert all(a >= b for a, b in zip(losses, losses[1:])), losses

    def test_loss_follows_from_the_separation_sums(self):
        alpha, beta = alpha_beta(FIG_CONFIG.pair)
        assert _solve(0.3, 2.0, alpha, beta, 2)[2] == pytest.approx(
            evolving_loss(FIG_CONFIG, 2), rel=1e-12, abs=0.0)


class TestCrossover:
    def test_reference_values(self):
        assert crossover_threshold(FIG_CONFIG, 2) == pytest.approx(4.304, abs=1e-3)
        assert math.floor(crossover_threshold(FIG_CONFIG, 2)) == 4

    def test_strictly_increasing_in_the_horizon(self):
        values = [crossover_threshold(FIG_CONFIG, t) for t in range(2, 7)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_gap_threshold_is_zero(self):
        g = config(mu_l=1.0, mu_h=1.0)
        assert crossover_threshold(g, 2) == 0.0

    def test_consistent_with_direct_loss_comparison(self):
        from cheaptalk_lab.equilibrium import symmetric_bias_loss
        threshold = crossover_threshold(FIG_CONFIG, 2)
        commit = evolving_loss(FIG_CONFIG, 2)
        for n in range(1, 9):
            bayes = symmetric_bias_loss(n, FIG_CONFIG.p_high, FIG_CONFIG.mean_gap)
            assert (commit < bayes) == (n <= threshold)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_a_horizon_below_one(self, horizon):
        # -3 returned -0.51; 0 divided by zero
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            crossover_threshold(FIG_CONFIG, horizon)

    def test_requires_an_equal_variance_normal_pair(self):
        with pytest.raises(ValueError):
            crossover_threshold(config(var_h=1.5), 2)


class TestVerifyIc:
    def test_quadrature_confirms_the_binding_equalities(self):
        for g in (FIG_CONFIG, config(var_h=1.5), config(p=0.6)):
            s = solve_schedule(g, 2)
            s_low, s_high = ic_sums_by_quadrature(s)
            assert s_low == pytest.approx(0.0, abs=1e-9)
            assert s_high == pytest.approx(0.0, abs=1e-9)

    def test_solved_schedule_residuals_are_statistically_zero(self):
        s = solve_schedule(FIG_CONFIG, 3)
        residuals = verify_ic(s, 100_000, seed=71)
        for r in residuals.as_list():
            assert abs(r.value) <= 3.0 * r.stderr
        assert residuals.binding == (residuals.positive_low,
                                     residuals.negative_high)

    def test_constant_prior_schedule_has_exactly_zero_residuals(self):
        amount = FIG_CONFIG.prior_mean
        s = ConstantSchedule(horizon=3, pair=FIG_CONFIG.pair,
                             a_low=amount, a_high=amount)
        residuals = verify_ic(s, 2000, seed=5)
        for r in residuals.as_list():
            assert r.value == 0.0
            assert r.stderr == 0.0

    def test_fully_revealing_schedule_violates_by_the_horizon_gap(self):
        horizon = 4
        s = ConstantSchedule(horizon=horizon, pair=FIG_CONFIG.pair,
                             a_low=FIG_CONFIG.mu_low, a_high=FIG_CONFIG.mu_high)
        residuals = verify_ic(s, 2000, seed=6)
        violation = horizon * (FIG_CONFIG.mu_low - FIG_CONFIG.mu_high)
        assert residuals.positive_low.value == violation
        assert residuals.positive_low.stderr == 0.0
        # the negative bias observing high would also rather lie downward
        assert residuals.negative_high.value == violation
        assert residuals.positive_high.value == -violation
        assert residuals.negative_low.value == -violation

    def test_single_episode_reports_no_standard_error(self):
        # one episode cannot estimate a spread; 0.0 would claim an exact answer
        residuals = verify_ic(solve_schedule(FIG_CONFIG, 2), 1, seed=3)
        for r in residuals.as_list():
            assert math.isfinite(r.value)
            assert math.isnan(r.stderr)

    def test_deterministic_given_the_seed(self):
        s = solve_schedule(FIG_CONFIG, 2)
        a = verify_ic(s, 10_000, seed=9)
        b = verify_ic(s, 10_000, seed=9)
        assert a == b


ENTRY_POINTS = {
    "evolving_loss": lambda t: evolving_loss(FIG_CONFIG, t),
    "equal_variance_normal_loss": lambda t: equal_variance_normal_loss(0.3, 2.0, 1.0, t),
    "crossover_threshold": lambda t: crossover_threshold(FIG_CONFIG, t),
    "solve_schedule": lambda t: solve_schedule(FIG_CONFIG, t),
    "ConstantSchedule": lambda t: ConstantSchedule(horizon=t, pair=FIG_CONFIG.pair,
                                                   a_low=0.0, a_high=0.0),
}


class TestHorizonCheck:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("horizon", [2.5, 3.0, True], ids=repr)
    def test_a_horizon_that_is_not_a_whole_number_is_refused(self, entry, horizon):
        # 2.5 gave a loss of 0.0238 and a threshold of 6.85; True the
        # one-period loss; schedules of 2.5 and 3.0 failed later in the
        # Monte Carlo with a TypeError
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            ENTRY_POINTS[entry](horizon)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("horizon", [np.int64(3), np.int32(3), np.uint8(3)], ids=repr)
    def test_numpy_integers_are_horizons(self, entry, horizon):
        assert repr(ENTRY_POINTS[entry](horizon)).replace(repr(horizon), "3") == repr(
            ENTRY_POINTS[entry](3))

    def test_a_zero_horizon_is_refused_before_the_degenerate_one(self):
        with pytest.raises(ValueError, match="horizon must be >= 1") as caught:
            solve_schedule(FIG_CONFIG, 0)
        assert not isinstance(caught.value, DegenerateHorizon)
        with pytest.raises(DegenerateHorizon):
            solve_schedule(FIG_CONFIG, 1)


class TestZeroGap:
    IDENTICAL = GameConfig(1, 0.3, 0.5, normal_pair(0.5, 0.5))

    @pytest.mark.parametrize("horizon", [1, 2, 3, 8, 40])
    def test_identical_densities_cost_nothing_at_any_horizon(self, horizon):
        # horizons from 2 raised DegenerateHorizon: the 2 x 2 system is singular
        loss = evolving_loss(self.IDENTICAL, horizon)
        assert math.copysign(1.0, loss) == 1.0 and loss == 0.0
        assert loss == equal_variance_normal_loss(0.3, 0.0, 1.0, horizon)
        assert crossover_threshold(self.IDENTICAL, horizon) == 0.0

    @pytest.mark.parametrize("horizon", [2, 3])
    @pytest.mark.parametrize("gap", [1e-6, 1e-7, 1e-8])
    def test_nearly_identical_densities_cost_the_abandoning_loss(self, gap, horizon):
        # the commitment system is singular in floats here, and the loss raised
        # DegenerateHorizon; the abandoning loss is its limit as the gap closes
        g = GameConfig(1, 0.3, 0.5, normal_pair(1.0, 1.0 + gap))
        with pytest.raises(DegenerateHorizon):
            solve_schedule(g, horizon)
        assert evolving_loss(g, horizon) == abandon_scheme(g)[1]

    @pytest.mark.parametrize("var_h", [0.5, 1.5])
    @pytest.mark.parametrize("family", list(Family))
    def test_equal_means_with_unequal_scales_keep_their_bits(self, family, var_h):
        pair = DistributionPair(StateDistribution(family, 0.5, 1.0),
                                StateDistribution(family, 0.5, math.sqrt(var_h)))
        g = GameConfig(1, 0.3, 0.5, pair)
        alpha, beta = alpha_beta(pair)
        for horizon in (2, 3, 8):
            # the solved loss these games reported before a zero gap was routed
            solved = _solve(0.3, 0.0, alpha, beta, horizon)[2] + 0.0
            assert evolving_loss(g, horizon).hex() == solved.hex() == (0.0).hex()
