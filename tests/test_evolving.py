import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheaptalk_lab.benchmarks import abandon_scheme
from cheaptalk_lab.distributions import (DistributionPair, Family,
                                         StateDistribution, alpha_beta,
                                         log_alpha_beta, log_likelihood_ratio,
                                         normal_pair)
from cheaptalk_lab.errors import DegenerateHorizon, DivergentIntegral
from cheaptalk_lab.evolving import (CommitmentSchedule, IcResidual, IcResiduals,
                                    _excess, _solve,
                                    crossover_threshold,
                                    equal_variance_normal_loss, evolving_loss,
                                    solve_schedule, verify_ic)
from cheaptalk_lab.game import GameConfig
from cheaptalk_lab.montecarlo import simulate_evolving

from oracles import (commitment_loss_mpmath, cost_by_quadrature_two_periods,
                     equal_variance_loss_mpmath, ic_sums_by_quadrature,
                     log_excess_mpmath, loss_by_moment_sums,
                     multipliers_by_linear_solve)


def config(p=0.3, mu_l=-1.0, mu_h=1.0, var_l=1.0, var_h=1.0):
    return GameConfig(1, p, 0.5, normal_pair(mu_l, mu_h, var_l, var_h))


FIG_CONFIG = config()


class TestSolveSchedule:
    def test_reference_values(self):
        # the geometric separation sums S = T + e of the solve, 1 + e^4 each
        log_alpha, log_beta = log_alpha_beta(FIG_CONFIG.pair)
        s_alpha, s_beta = (2 + _excess(log_r, 2)[0] for log_r in (log_alpha, log_beta))
        assert s_alpha == pytest.approx(1.0 + math.exp(4.0), rel=1e-12, abs=0.0)
        assert s_beta == s_alpha
        s = solve_schedule(FIG_CONFIG, 2)
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

    def test_a_gap_whose_square_overflows_solves(self):
        # alpha, beta = 1.061, 1.075, but gap**2 raised OverflowError in
        # solve_schedule and evolving_loss; with share 0 at T = 10^6 the loss
        # is 0.0, never 0 * inf
        pair = DistributionPair(StateDistribution(Family.LAPLACE, -1e306, 1e307),
                                StateDistribution(Family.LAPLACE, 1e306, 1.2e307))
        g = GameConfig(1, 0.3, 0.5, pair)
        schedule = solve_schedule(g, 3)
        assert all(math.isfinite(c) for c in schedule.coefficients)
        assert evolving_loss(g, 3) == math.inf
        assert evolving_loss(g, 10**6) == 0.0

    # 2.2e-16: the smallest positive math.log of a float separation integral
    @pytest.mark.parametrize("log_r", [2.220446049250313e-16, 1e-8, 0.7, 30.0, 709.0])
    def test_log_excess_matches_mpmath(self, log_r):
        for horizon in (2, 5, 40, 400, 10**6):
            assert _excess(log_r, horizon)[1] == pytest.approx(
                log_excess_mpmath(log_r, horizon), rel=5e-15, abs=0.0)

    @pytest.mark.parametrize("log_r", [-0.7, -1e-16, 0.0])
    def test_excess_of_a_ratio_at_most_one_is_zero(self, log_r):
        # a separation integral is >= 1; below 1 only by rounding
        for horizon in (1, 2, 40):
            assert _excess(log_r, horizon) == (0.0, -math.inf)
        assert _excess(0.7, 1) == (0.0, -math.inf)

    @pytest.mark.parametrize("alpha,beta", [(1.5, 1.0), (1.0, 1.5)])
    def test_a_zero_excess_sum_takes_the_limit_of_a_small_one(self, alpha, beta):
        # e = 0 makes y = T / e infinite; the multipliers, loss and sums are
        # those of the next float above 1, to its e of about T^2 2.2e-16
        limit = _solve(0.3, 2.0, math.log(alpha), math.log(beta), 3)
        near = _solve(0.3, 2.0, math.log(max(alpha, 1.0 + 2**-52)),
                      math.log(max(beta, 1.0 + 2**-52)), 3)
        assert limit[:3] == pytest.approx(near[:3], rel=1e-13, abs=1e-14)
        assert sorted(limit[:2]) == [0.0, 2 * 0.21 * 2.0]
        assert limit[2] == 0.21 * 2.0**2

    def test_single_period_is_degenerate(self):
        with pytest.raises(DegenerateHorizon):
            solve_schedule(FIG_CONFIG, 1)

    def test_identical_densities_are_degenerate(self):
        g = GameConfig(1, 0.3, 0.5, normal_pair(0.0, 0.0))
        with pytest.raises(DegenerateHorizon):
            solve_schedule(g, 3)

    def test_requires_one_reviewer(self):
        # the schedule and its simulation refuse two reviewers alike
        g = GameConfig(2, 0.3, 0.5, normal_pair(-1, 1))
        schedule = solve_schedule(GameConfig(1, 0.3, 0.5, normal_pair(-1, 1)), 3)
        for call in (lambda: solve_schedule(g, 3), lambda: simulate_evolving(g, schedule, 100, 1)):
            with pytest.raises(ValueError,
                               match="^the commitment mechanism serves a single reviewer$"):
                call()


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
        # (the log ratio of runs longer than the schedule covers)
        s = solve_schedule(FIG_CONFIG, 4)
        gaps = []
        for length in (1, 3, 8, 20):
            log_ratio = np.sum(log_likelihood_ratio(FIG_CONFIG.pair, [1.0] * length))
            _, a_high = s.actions_from_log_ratio(log_ratio)
            gaps.append(FIG_CONFIG.mu_high - a_high)
            assert a_high < FIG_CONFIG.mu_high
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        supremum = FIG_CONFIG.mu_high - s.lambda_high / (2 * FIG_CONFIG.p_high)
        assert gaps[-1] == pytest.approx(FIG_CONFIG.mu_high - supremum, rel=1e-9, abs=0.0)

    def test_a_history_past_the_horizon_is_refused(self):
        # a two-period schedule fed 2 and 3 states rated a low message 34.7 and
        # 510.1 for means -1 and +1
        for s in (solve_schedule(FIG_CONFIG, 2), solve_schedule(FIG_CONFIG, 4),
                  CommitmentSchedule(1, FIG_CONFIG.pair, (-0.5, 0.0, 0.5, 0.0))):
            s.actions([0.3] * (s.horizon - 1))
            for length in (s.horizon, s.horizon + 1):
                with pytest.raises(ValueError, match="horizon"):
                    s.actions([0.3] * length)

    @pytest.mark.parametrize("history", [[[0.1, 0.2]], np.array([[0.1, 0.2]]), 0.1],
                             ids=["nested list", "2-D array", "scalar"])
    def test_a_history_that_is_not_one_dimensional_is_refused(self, history):
        # a history was counted by len: both nested ones passed as one state,
        # and a two-period schedule rated them after two, (-0.857, 0.817)
        with pytest.raises(ValueError, match="not a 1-D sequence"):
            solve_schedule(FIG_CONFIG, 2).actions(history)

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

    @pytest.mark.parametrize("variance", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("gap", [1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
    def test_normal_closed_form_matches_mpmath(self, gap, variance):
        # y = T / e is divided from e itself: read from its log, y carried the
        # rounding of log e, 4.0e-14 at gap 5, variance 4, T = 100 (log e = 618.8)
        for p in (0.05, 0.3, 0.7, 0.95):
            for horizon in (1, 2, 3, 10, 100, 1000):
                want = equal_variance_loss_mpmath(p, gap, variance, horizon)
                if want < 1e-280:   # the double result underflows
                    continue
                assert equal_variance_normal_loss(p, gap, variance, horizon) == pytest.approx(
                    want, rel=5e-15, abs=0.0), (p, horizon)

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf], ids=repr)
    def test_normal_closed_form_rejects_a_gap_that_is_not_finite(self, gap):
        # nan returned nan
        with pytest.raises(ValueError, match=rf"^mean_gap must be finite, got {gap!r}$"):
            equal_variance_normal_loss(0.3, gap, 1.0, 3)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, math.nan], ids=repr)
    def test_normal_closed_form_rejects_a_prior_outside_the_unit_interval(self, p):
        # 1.5 returned 0.00396 and -0.2 returned 0.00397
        with pytest.raises(ValueError, match=r"^p_high must lie in \(0, 1\)$"):
            equal_variance_normal_loss(p, 2.0, 1.0, 3)

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
        pair = DistributionPair(StateDistribution(family, -gap / 2, scale_low),
                                StateDistribution(family, gap / 2, scale_low * ratio))
        g = GameConfig(1, p, 0.5, pair)
        losses = [evolving_loss(g, t) for t in range(1, 16)]
        abandon = abandon_scheme(g)[1]
        assert all(0.0 <= loss <= abandon for loss in losses), losses
        assert all(a >= b for a, b in zip(losses, losses[1:])), losses

    @pytest.mark.parametrize("mu_low,horizon,want", [
        (-1.0, 1, 0.84), (1.0, 1, 0.0), (1.0, 2, 0.0), (1.0, 8, 0.0)])
    def test_single_period_and_zero_gap_return_before_the_separation_integrals(
            self, mu_low, horizon, want):
        # alpha diverges for a low variance of 1 against a high one of 3
        g = GameConfig(1, 0.3, 0.5, normal_pair(mu_low, 1.0, 1.0, 3.0))
        with pytest.raises(DivergentIntegral):
            alpha_beta(g.pair)
        assert evolving_loss(g, horizon) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("pair,horizons", [
        *((normal_pair(1.0, 1.0 + d), range(2, 60)) for d in (1e-8, 1e-6, 1e-4, 1e-2)),
        *((DistributionPair(StateDistribution(family, -1.0, 1.0),
                            StateDistribution(family, 1.0, 1.5)), (2, 5, 20))
          for family in (Family.LAPLACE, Family.LOGISTIC)),
        (FIG_CONFIG.pair, (400, 500)),   # past the overflow point: 0.0
    ], ids=["normal-1e-8", "normal-1e-6", "normal-1e-4", "normal-1e-2", "laplace",
            "logistic", "overflow"])
    def test_loss_matches_mpmath(self, pair, horizons):
        g = GameConfig(1, 0.3, 0.5, pair)
        alpha, beta = alpha_beta(pair)
        for horizon in horizons:
            assert evolving_loss(g, horizon) == pytest.approx(commitment_loss_mpmath(
                0.3, g.mean_gap, alpha, beta, horizon), rel=1e-14, abs=0.0), horizon

    def test_loss_follows_from_the_separation_sums(self):
        alpha, beta = alpha_beta(FIG_CONFIG.pair)
        assert _solve(0.3, 2.0, math.log(alpha), math.log(beta), 2)[2] == pytest.approx(
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

    @pytest.mark.parametrize("gap,horizon", [
        (2.0, 2), (2.0, 40), (2.0, 179), (2.0, 180), (2.0, 400), (1e-6, 2), (1e-6, 40)])
    def test_matches_mpmath(self, gap, horizon):
        # from T = 180 at a gap of 2, e / T overflows a double, and the
        # threshold was inf; at a gap of 1e-6 it was off by 1.6e-4 relative
        import mpmath

        g = config(mu_l=-gap / 2, mu_h=gap / 2)
        rate = g.mean_gap**2 / g.pair.low.scale**2
        with mpmath.workdps(50):
            rate = mpmath.mpf(rate)
            excess = mpmath.expm1(horizon * rate) / mpmath.expm1(rate) - horizon
            want = float(mpmath.log1p(0.7 * excess / horizon) / mpmath.log(2))
        assert crossover_threshold(g, horizon) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_a_horizon_below_one(self, horizon):
        # -3 returned -0.51; 0 divided by zero
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            crossover_threshold(FIG_CONFIG, horizon)

    def test_requires_an_equal_variance_normal_pair(self):
        with pytest.raises(ValueError):
            crossover_threshold(config(var_h=1.5), 2)

    def test_a_gap_whose_square_overflows(self):
        # mean_gap**2 raised a bare OverflowError in both; log r is now a
        # product of two finite factors, inf where it overflows
        assert equal_variance_normal_loss(0.3, 2e306, 1e300, 3) == 0.0
        assert crossover_threshold(config(mu_l=-1e154, mu_h=1e154), 3) == math.inf


class TestScheduleFields:
    def test_solved_fields_and_residual_names_keep_their_meaning(self):
        # bench/workloads.py reads these fields and the four residual names,
        # and bench/test_checks.py replaces lambda_high and positive_low
        solved = solve_schedule(FIG_CONFIG, 3)
        assert [f.name for f in dataclasses.fields(CommitmentSchedule)] == [
            "horizon", "pair", "coefficients", "p_high", "lambda_low", "lambda_high"]
        assert dataclasses.replace(solved, lambda_high=0.25).lambda_high == 0.25
        assert (solved.alpha, solved.beta) == alpha_beta(FIG_CONFIG.pair)
        by_hand = CommitmentSchedule(3, FIG_CONFIG.pair, (-0.5, 0.0, 0.5, 0.0))
        for name in ("lambda_low", "lambda_high", "p_high"):
            assert getattr(solved, name) is not None and getattr(by_hand, name) is None
        ic = verify_ic(solved, 1_000, seed=5)
        low, high = ic.positive_low, ic.negative_high
        assert ic.as_list() == [low, IcResidual(-high.value, high.stderr),
                                IcResidual(-low.value, low.stderr), high]
        assert [f.name for f in dataclasses.fields(IcResiduals)] == [
            "positive_low", "negative_high", "episodes", "seed"]

    def test_a_replaced_multiplier_moves_the_actions(self):
        # the coefficients were stored beside the multipliers they were solved
        # into, so a replaced lambda_high kept the old actions
        solved = solve_schedule(FIG_CONFIG, 3)
        moved = dataclasses.replace(solved, lambda_high=2 * solved.lambda_high)
        p = FIG_CONFIG.p_high
        (c_low, k_low, c_high, k_high), got = solved.coefficients, moved.coefficients
        assert got[1] == pytest.approx(2 * k_low, rel=1e-15, abs=0.0) and got[1] != k_low
        assert got[2] == FIG_CONFIG.mu_high - 2 * solved.lambda_high / (2 * p) != c_high
        assert (got[0], got[3]) == (c_low, k_high)
        assert moved.actions([0.3]) != solved.actions([0.3])

    def test_multipliers_without_a_prior_are_refused(self):
        by_hand = CommitmentSchedule(3, FIG_CONFIG.pair, (-0.5, 0.0, 0.5, 0.0))
        for call in (lambda: dataclasses.replace(by_hand, lambda_high=0.25),
                     lambda: CommitmentSchedule(3, FIG_CONFIG.pair)):
            with pytest.raises(ValueError, match="coefficients, or a prior"):
                call()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.5", 1j], ids=repr)
    @pytest.mark.parametrize("index,name", enumerate(["c_low", "k_low", "c_high", "k_high"]))
    def test_a_coefficient_that_is_not_a_finite_real_is_refused(self, index, name, value):
        # a nan c_low gave verify_ic a residual of (nan, 0.0); an inf one
        # warned inside Moments.of and gave nan
        coefficients = [-0.5, 0.0, 0.5, 0.0]
        coefficients[index] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CommitmentSchedule(3, FIG_CONFIG.pair, tuple(coefficients))


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
        s = CommitmentSchedule(horizon=3, pair=FIG_CONFIG.pair,
                               coefficients=(amount, 0.0, amount, 0.0))
        residuals = verify_ic(s, 2000, seed=5)
        for r in residuals.as_list():
            assert r.value == 0.0
            assert r.stderr == 0.0

    def test_fully_revealing_schedule_violates_by_the_horizon_gap(self):
        horizon = 4
        s = CommitmentSchedule(horizon=horizon, pair=FIG_CONFIG.pair,
                               coefficients=(FIG_CONFIG.mu_low, 0.0, FIG_CONFIG.mu_high, 0.0))
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
    "CommitmentSchedule": lambda t: dataclasses.replace(solve_schedule(FIG_CONFIG, 3), horizon=t),
    "ConstantSchedule": lambda t: CommitmentSchedule(horizon=t, pair=FIG_CONFIG.pair,
                                                     coefficients=(0.0, 0.0, 0.0, 0.0)),
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

    @pytest.mark.parametrize("entry", ["CommitmentSchedule", "ConstantSchedule"])
    def test_a_schedule_of_horizon_zero_is_refused(self, entry):
        # a solved schedule replaced to horizon 0 was accepted, and verify_ic
        # then failed inside numpy with "negative dimensions"
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            ENTRY_POINTS[entry](0)

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
    def test_densities_equal_in_floats_cost_the_abandoning_loss(self, horizon):
        # at a gap of 1e-8 both separation integrals round to 1.0, but their
        # logs, about 1.0e-16, do not: the schedule solves, and its loss is
        # the abandoning loss, the loss's limit as the gap closes
        g = GameConfig(1, 0.3, 0.5, normal_pair(1.0, 1.0 + 1e-8))
        assert alpha_beta(g.pair) == (1.0, 1.0)
        log_alpha, log_beta = log_alpha_beta(g.pair)
        assert log_alpha == log_beta == pytest.approx(1e-16, rel=0.01, abs=0.0)
        s = solve_schedule(g, horizon)
        assert math.isfinite(s.lambda_low) and math.isfinite(s.lambda_high)
        assert evolving_loss(g, horizon) == abandon_scheme(g)[1]

    @pytest.mark.parametrize("horizon", [2, 3])
    @pytest.mark.parametrize("gap", [1e-6, 1e-7])
    def test_nearly_identical_densities_cost_at_most_the_abandoning_loss(self, gap, horizon):
        # these raised DegenerateHorizon and cost the abandoning loss exactly;
        # their separation integrals exceed 1 in floats, and the excess sums
        # solve them
        g = GameConfig(1, 0.3, 0.5, normal_pair(1.0, 1.0 + gap))
        s = solve_schedule(g, horizon)
        assert math.isfinite(s.lambda_low) and math.isfinite(s.lambda_high)
        loss = evolving_loss(g, horizon)
        assert loss <= abandon_scheme(g)[1]
        assert loss == pytest.approx(commitment_loss_mpmath(
            0.3, g.mean_gap, s.alpha, s.beta, horizon), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("var_h", [0.5, 1.5])
    @pytest.mark.parametrize("family", list(Family))
    def test_equal_means_with_unequal_scales_keep_their_bits(self, family, var_h):
        pair = DistributionPair(StateDistribution(family, 0.5, 1.0),
                                StateDistribution(family, 0.5, math.sqrt(var_h)))
        g = GameConfig(1, 0.3, 0.5, pair)
        alpha, beta = alpha_beta(pair)
        for horizon in (2, 3, 8):
            # the solved loss these games reported before a zero gap was routed
            solved = _solve(0.3, 0.0, math.log(alpha), math.log(beta), horizon)[2]
            assert evolving_loss(g, horizon).hex() == solved.hex() == (0.0).hex()
