import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from cheaptalk_lab.distributions import (DistributionPair, Family,
                                         StateDistribution, _log_separation,
                                         alpha_beta, log_likelihood_ratio,
                                         normal_pair)
from cheaptalk_lab.errors import DivergentIntegral, SeparationOverflow

from oracles import (laplace_ratio_integral, logistic_ratio_integral,
                     normal_ratio_integral, normal_ratio_integral_mpmath,
                     ratio_integral_by_quadrature, ratio_integral_diverges)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_density_peaks():
    assert StateDistribution(Family.NORMAL, 0, 1).density(0.0) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-12, abs=0.0)
    assert StateDistribution(Family.LAPLACE, 0, 1).density(0.0) == pytest.approx(0.5)
    assert StateDistribution(Family.LOGISTIC, 0, 1).density(0.0) == pytest.approx(0.25)


def test_variances_follow_family_formulas():
    assert StateDistribution(Family.NORMAL, 0, 2.0).variance == pytest.approx(4.0)
    assert StateDistribution(Family.LAPLACE, 0, 2.0).variance == pytest.approx(8.0)
    assert StateDistribution(Family.LOGISTIC, 0, 2.0).variance == pytest.approx(
        4.0 * math.pi**2 / 3.0)


def test_a_family_name_becomes_its_member():
    # kept as a str, "normal" took the logistic variance and the Laplace
    # separation integral
    dist = StateDistribution("normal", 0.0, 1.0)
    assert dist.family is Family.NORMAL
    assert dist.variance == 1.0
    pair = DistributionPair(StateDistribution("normal", -1.0, 1.0),
                            StateDistribution("normal", 1.0, 1.0))
    assert alpha_beta(pair) == alpha_beta(normal_pair(-1.0, 1.0))


def test_an_unknown_family_is_rejected_at_construction():
    with pytest.raises(ValueError):
        StateDistribution("gauss", 0.0, 1.0)


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        StateDistribution(Family.NORMAL, 0, 0.0)
    with pytest.raises(ValueError):
        StateDistribution(Family.LAPLACE, 0, -1.0)


@pytest.mark.parametrize("location, scale", [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
    (0.0, math.nan), (0.0, math.inf),
])
def test_nonfinite_parameters_are_rejected_at_construction(location, scale):
    with pytest.raises(ValueError):
        StateDistribution(Family.NORMAL, location, scale)


def test_normal_pair_rejects_a_nan_mean():
    # accepted before, after which every profile was certified with loss nan
    with pytest.raises(ValueError):
        normal_pair(math.nan, 1.0)


def test_pair_requires_ordered_means():
    with pytest.raises(ValueError):
        normal_pair(1.0, -1.0)


def test_density_integrates_to_one_across_random_parameters():
    rng = np.random.default_rng(7)
    for family in Family:
        for _ in range(6):
            loc = rng.uniform(-4, 4)
            scale = rng.uniform(0.2, 3.0)
            dist = StateDistribution(family, loc, scale)
            total, _ = integrate.quad(dist.density, loc - 60 * scale,
                                      loc + 60 * scale, limit=300)
            assert total == pytest.approx(1.0, abs=1e-8)


def test_density_matches_moments_by_quadrature():
    dist = StateDistribution(Family.LOGISTIC, 0.7, 1.3)
    mean, _ = integrate.quad(lambda t: t * dist.density(t), -200, 200, limit=300)
    var, _ = integrate.quad(lambda t: (t - dist.mean) ** 2 * dist.density(t),
                            -200, 200, limit=300)
    assert mean == pytest.approx(dist.mean, abs=1e-9)
    assert var == pytest.approx(dist.variance, rel=1e-9, abs=0.0)


class TestFromVariance:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("variance", [1e-6, 0.3, 2.0 / 3.0, 1.0, 1.5, 7.0, 1e6])
    def test_round_trips_the_variance(self, family, variance):
        dist = StateDistribution.from_variance(family, 0.7, variance)
        assert dist.family is family and dist.location == 0.7
        assert dist.variance == pytest.approx(variance, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan])
    def test_rejects_a_variance_that_is_not_positive(self, variance):
        with pytest.raises(ValueError):
            StateDistribution.from_variance(Family.LAPLACE, 0.0, variance)


class TestLikelihoodRatio:
    def test_symmetric_midpoint(self):
        pair = normal_pair(-1, 1)
        assert math.exp(log_likelihood_ratio(pair, 0.0)) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_matches_exponential_form(self):
        pair = normal_pair(-1, 1)
        assert math.exp(log_likelihood_ratio(pair, 1.0)) == pytest.approx(
            math.exp(2), rel=1e-12, abs=0.0)
        assert math.exp(log_likelihood_ratio(pair, -1.0)) == pytest.approx(
            math.exp(-2), rel=1e-12, abs=0.0)

    def test_rejects_nonfinite_state(self):
        pair = normal_pair(-1, 1)
        with pytest.raises(ValueError, match="not finite"):
            log_likelihood_ratio(pair, math.inf)
        with pytest.raises(ValueError, match="not finite"):
            np.sum(log_likelihood_ratio(pair, [0.0, math.nan]))

    @pytest.mark.parametrize("low,high", [
        (Family.NORMAL, Family.NORMAL), (Family.LAPLACE, Family.LAPLACE),
        (Family.LOGISTIC, Family.LOGISTIC), (Family.LOGISTIC, Family.NORMAL),
    ], ids=["normal", "laplace", "logistic", "logistic-normal"])
    def test_history_ratio_is_product_of_pointwise_ratios(self, low, high):
        rng = np.random.default_rng(11)
        pair = DistributionPair(StateDistribution(low, -0.5, 1.1),
                                StateDistribution(high, 0.8, 0.9))
        thetas = rng.normal(0, 2, size=9)
        product = math.prod(math.exp(log_likelihood_ratio(pair, t)) for t in thetas)
        assert math.exp(np.sum(log_likelihood_ratio(pair, thetas))) == pytest.approx(
            product, rel=1e-10, abs=0.0)
        assert np.sum(log_likelihood_ratio(pair, [])) == 0.0

    def test_long_history_stays_finite_in_log_space(self):
        pair = normal_pair(-1, 1)
        log_ratio = np.sum(log_likelihood_ratio(pair, [1.0] * 500))
        assert log_ratio == pytest.approx(1000.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("low,high", list(itertools.product(Family, repeat=2)),
                             ids=lambda family: family.value)
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(mu_low=st.floats(-5.0, 5.0), gap=st.floats(0.0, 5.0),
           scales=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           offsets=st.lists(st.tuples(st.booleans(), st.floats(-40.0, 40.0)),
                            min_size=1, max_size=12))
    def test_array_ratio_is_the_difference_of_scalar_densities(
            self, low, high, mu_low, gap, scales, offsets):
        pair = DistributionPair(StateDistribution(low, mu_low, scales[0]),
                                StateDistribution(high, mu_low + gap, scales[1]))
        # states within 40 scales of either density's location
        dists = (pair.low, pair.high)
        thetas = [dists[at_high].location + u * dists[at_high].scale
                  for at_high, u in offsets]
        got = log_likelihood_ratio(pair, np.array(thetas))
        for value, theta in zip(got, thetas):
            want = pair.high.log_density(theta) - pair.low.log_density(theta)
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (theta, value, want)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("theta", [0.3, -7, np.float64(2.5), np.int64(3),
                                       np.array(0.3)])
    def test_a_scalar_state_gives_a_python_float(self, family, theta):
        pair = DistributionPair(StateDistribution(family, -1.0, 1.0),
                                StateDistribution(family, 1.0, 1.5))
        assert type(pair.low.log_density(theta)) is float
        assert type(log_likelihood_ratio(pair, theta)) is float
        assert log_likelihood_ratio(pair, theta) == pytest.approx(
            log_likelihood_ratio(pair, np.array([theta]))[0], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("family", list(Family))
    def test_a_scalar_state_is_exactly_its_array_element(self, family):
        # one route for both: evaluated with ``math``, 112 of these logistic
        # scalar densities differed from their array elements by up to 2 ulps
        pair = DistributionPair(StateDistribution(family, -1.0, 1.0),
                                StateDistribution(family, 1.0, 1.5))
        states = np.random.default_rng(17).normal(0.0, 4.0, 5000)
        for value in (pair.low.log_density, pair.high.log_density,
                      lambda theta: log_likelihood_ratio(pair, theta)):
            assert [value(float(theta)) for theta in states] == value(states).tolist()

    @pytest.mark.parametrize("family", list(Family))
    def test_the_states_are_never_written_to(self, family):
        pair = DistributionPair(StateDistribution(family, -1.0, 1.0),
                                StateDistribution(family, 1.0, 1.5))
        states = np.random.default_rng(2).normal(0.0, 3.0, size=(50, 4))
        kept = states.copy()
        ratio = log_likelihood_ratio(pair, states[:, :3])
        assert np.array_equal(states, kept)
        assert not np.shares_memory(ratio, states)
        for dist in (pair.low, pair.high):
            assert not np.shares_memory(dist.log_density(states), states)
        assert np.array_equal(states, kept)

    @pytest.mark.parametrize("family", list(Family))
    def test_read_only_and_integer_states_are_accepted(self, family):
        pair = DistributionPair(StateDistribution(family, -1.0, 1.0),
                                StateDistribution(family, 1.0, 1.5))
        row = np.arange(-3, 4)
        want = [log_likelihood_ratio(pair, float(t)) for t in row]
        read_only = np.broadcast_to(row.astype(float), (2, row.size))
        assert not read_only.flags.writeable
        np.testing.assert_allclose(log_likelihood_ratio(pair, read_only),
                                   [want, want], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(log_likelihood_ratio(pair, row), want,
                                   rtol=1e-12, atol=1e-12)
        assert np.array_equal(row, np.arange(-3, 4))


class TestAlphaBeta:
    def test_identical_densities_give_one(self):
        for family in Family:
            alpha, beta = alpha_beta(DistributionPair(StateDistribution(family, 0.3, 1.2),
                                                      StateDistribution(family, 0.3, 1.2)))
            assert alpha == pytest.approx(1.0, rel=1e-12, abs=0.0)
            assert beta == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_equal_variance_normal_closed_form(self):
        alpha, beta = alpha_beta(normal_pair(-1, 1, 1, 1))
        assert alpha == pytest.approx(math.exp(4.0), rel=1e-12, abs=0.0)
        assert beta == alpha

    def test_quadrature_path_reproduces_the_equal_variance_closed_form(self):
        # the quadrature the closed forms are checked against, itself checked
        # on randomized equal-variance pairs
        rng = np.random.default_rng(19)
        for _ in range(8):
            mu_l = rng.uniform(-2, 0)
            mu_h = mu_l + rng.uniform(0.1, 3.0)
            sigma = rng.uniform(0.5, 2.0)
            low = StateDistribution(Family.NORMAL, mu_l, sigma)
            high = StateDistribution(Family.NORMAL, mu_h, sigma)
            want = math.exp((mu_h - mu_l) ** 2 / sigma**2)
            assert ratio_integral_by_quadrature(low, high) == pytest.approx(
                want, rel=1e-8, abs=0.0)
            assert ratio_integral_by_quadrature(high, low) == pytest.approx(
                want, rel=1e-8, abs=0.0)

    def test_quadrature_matches_closed_form_on_random_normal_pairs(self):
        # the closed form against the quadrature it replaced, and against the
        # oracle's own closed form
        rng = np.random.default_rng(23)
        for _ in range(8):
            mu_l = rng.uniform(-2, 0)
            mu_h = mu_l + rng.uniform(0, 3)
            var_l = rng.uniform(0.5, 1.5)
            var_h = var_l * rng.uniform(0.75, 1.6)
            pair = normal_pair(mu_l, mu_h, var_l, var_h)
            alpha, beta = alpha_beta(pair)
            assert alpha == pytest.approx(
                ratio_integral_by_quadrature(pair.low, pair.high), rel=1e-12, abs=0.0)
            assert beta == pytest.approx(
                ratio_integral_by_quadrature(pair.high, pair.low), rel=1e-12, abs=0.0)
            assert alpha == pytest.approx(
                normal_ratio_integral(mu_l, var_l, mu_h, var_h), rel=1e-12, abs=0.0)
            assert beta == pytest.approx(
                normal_ratio_integral(mu_h, var_h, mu_l, var_l), rel=1e-12, abs=0.0)

    def test_quadrature_matches_closed_form_on_random_laplace_pairs(self):
        self.check_random_pairs_against_quadrature(Family.LAPLACE)

    def test_quadrature_matches_closed_form_on_random_logistic_pairs(self):
        self.check_random_pairs_against_quadrature(Family.LOGISTIC)

    @staticmethod
    def check_random_pairs_against_quadrature(family):
        rng = np.random.default_rng(29)
        pairs = [DistributionPair(StateDistribution(family, 0.4, 1.0),
                                  StateDistribution(family, 0.4, 1.3))]
        for _ in range(8):
            mu_l = rng.uniform(-2, 0)
            scale_l = rng.uniform(0.5, 1.5)
            pairs.append(DistributionPair(
                StateDistribution(family, mu_l, scale_l),
                StateDistribution(family, mu_l + rng.uniform(0, 3),
                                  scale_l * rng.uniform(0.6, 1.6))))
        for pair in pairs:
            alpha, beta = alpha_beta(pair)
            assert alpha == pytest.approx(
                ratio_integral_by_quadrature(pair.low, pair.high), rel=1e-12, abs=0.0)
            assert beta == pytest.approx(
                ratio_integral_by_quadrature(pair.high, pair.low), rel=1e-12, abs=0.0)

    def test_unequal_variance_normal_golden_values(self):
        pair = normal_pair(-1, 1, 1.0, 1.5)
        alpha, beta = alpha_beta(pair)
        assert alpha == pytest.approx(7.837277511182514, rel=1e-12, abs=0.0)
        assert beta == pytest.approx(3442.1137925230114, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("args", [(-1, 1, 1, 1.8), (-2, 2, 1, 1.5),
                                      (-1, 1, 0.6, 1.0)])
    def test_convergent_normal_pairs_peaking_far_out_do_not_diverge(self, args):
        # the quadrature's widen-and-compare check called these divergent
        mu_l, mu_h, var_l, var_h = args
        alpha, beta = alpha_beta(normal_pair(*args))
        assert alpha == pytest.approx(
            normal_ratio_integral(mu_l, var_l, mu_h, var_h), rel=1e-12, abs=0.0)
        assert beta == pytest.approx(
            normal_ratio_integral(mu_h, var_h, mu_l, var_l), rel=1e-12, abs=0.0)

    def test_laplace_and_logistic_golden_values(self):
        pair = DistributionPair(StateDistribution(Family.LAPLACE, -1, 1.0),
                                StateDistribution(Family.LAPLACE, 1, 1.5))
        alpha, beta = alpha_beta(pair)
        assert alpha == pytest.approx(3.2060585595763884, rel=1e-12, abs=0.0)
        assert beta == pytest.approx(5.669461857026858, rel=1e-12, abs=0.0)

        pair = DistributionPair(StateDistribution(Family.LOGISTIC, -1, 1.0),
                                StateDistribution(Family.LOGISTIC, 1, 1.5))
        alpha, beta = alpha_beta(pair)
        assert alpha == pytest.approx(1.8627897661148847, rel=1e-12, abs=0.0)
        assert beta == pytest.approx(5.146924865753686, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r", [1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-6,
                                   1.5, 1.9, 1.999, 1.999999])
    def test_logistic_closed_form_matches_mpmath(self, r):
        # r is the numerator's scale over the denominator's; the numerator
        # sits t denominator scales below (alpha) or above (beta) it
        s_den = 1.3
        for t in (0.0, 1.0, 5.0):
            for shift in (-t * s_den, t * s_den):
                num = StateDistribution(Family.LOGISTIC, 0.2 + shift, r * s_den)
                den = StateDistribution(Family.LOGISTIC, 0.2, s_den)
                want = logistic_ratio_integral(num.location, num.scale,
                                               den.location, den.scale)
                assert math.exp(_log_separation(num, den)) == pytest.approx(
                    want, rel=1e-12, abs=0.0), (t, shift)

    @pytest.mark.parametrize("u", [1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-6,
                                   1.5, 1.9, 1.999, 2.0 - 1e-6])
    def test_laplace_closed_form_matches_mpmath(self, u):
        # u is the numerator's scale over the denominator's; the numerator
        # sits t denominator scales below or above it
        s_den = 1.3
        for t in (0.0, 1e-3, 1.0, 5.0, 23.0):
            for shift in (-t * s_den, t * s_den):
                num = StateDistribution(Family.LAPLACE, 0.2 + shift, u * s_den)
                den = StateDistribution(Family.LAPLACE, 0.2, s_den)
                want = laplace_ratio_integral(num.location, num.scale,
                                              den.location, den.scale)
                assert math.exp(_log_separation(num, den)) == pytest.approx(
                    want, rel=1e-12, abs=0.0), (t, shift)

    @pytest.mark.parametrize("rho", [1e-9, 1e-3, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-6, 1.2, 1.3])
    def test_normal_closed_form_matches_mpmath(self, rho):
        s_den = 1.3
        for t in (0.0, 1e-3, 1.0, 3.0):
            for shift in (-t * s_den, t * s_den):
                num = StateDistribution(Family.NORMAL, 0.2 + shift, rho * s_den)
                den = StateDistribution(Family.NORMAL, 0.2, s_den)
                want = normal_ratio_integral_mpmath(num.location, num.scale,
                                                    den.location, den.scale)
                assert math.exp(_log_separation(num, den)) == pytest.approx(
                    want, rel=1e-12, abs=0.0), (t, shift)

    @pytest.mark.parametrize("family", list(Family))
    def test_divergence_is_where_the_tail_rule_puts_it(self, family):
        # scale ratios around the boundary, sqrt 2 for the normal family and 2
        # for the others, and far past it either way; the pair's two integrals
        # diverge exactly where the oracle's exact tail decay says so
        edge = math.sqrt(2.0) if family is Family.NORMAL else 2.0
        ratios = [edge * (1.0 + sign * eps) for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.1)
                  for sign in (-1.0, 1.0)] + [1e-300, 1e300]
        cases = [(ratio * s_den, s_den) for ratio in ratios for s_den in (1.0, 0.7, 3.1)]
        # the floats next to the edge, in ratios exact with a unit denominator
        cases += [(math.nextafter(edge, 0.0), 1.0), (edge, 1.0), (math.nextafter(edge, 3.0), 1.0)]
        # the 41 floats within 20 ulps of the edge times s_d, for s_d over the
        # binades from 2^-60 to 2^60: where fl(s_n / s_d) rounds onto the edge,
        # a rule on the float ratio decides some of them wrongly
        mantissas = np.random.default_rng(3).uniform(1.0, 2.0, 8)
        for s_den in [7.3253343077752735] + [math.ldexp(float(m), e) for m in mantissas
                                              for e in range(-60, 61, 4)]:
            s_num = edge * s_den
            for _ in range(20):
                s_num = math.nextafter(s_num, 0.0)
            for _ in range(41):
                cases.append((s_num, s_den))
                s_num = math.nextafter(s_num, math.inf)
        for s_num, s_den in cases:
            for low, high in ((s_num, s_den), (s_den, s_num)):
                pair = DistributionPair(StateDistribution(family, -1.0, low),
                                        StateDistribution(family, 1.0, high))
                diverges = (ratio_integral_diverges(pair.low, pair.high)
                            or ratio_integral_diverges(pair.high, pair.low))
                raised = False
                try:
                    alpha_beta(pair)
                except SeparationOverflow:
                    pass
                except DivergentIntegral:
                    raised = True
                assert raised == diverges, (low, high)

    def test_a_normal_pair_just_inside_the_edge_converges_to_its_value(self):
        # r = s_n / s_d rounds to fl(sqrt 2), but 2 s_d^2 - s_n^2 > 0
        num = StateDistribution(Family.NORMAL, 0.0, 10.35958712697272)
        den = StateDistribution(Family.NORMAL, 0.0, 7.3253343077752735)
        want = normal_ratio_integral_mpmath(0.0, num.scale, 0.0, den.scale)
        assert want == pytest.approx(242125862.380760876, rel=1e-15, abs=0.0)
        assert alpha_beta(DistributionPair(den, num))[1] == pytest.approx(
            want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ulps", [1, 2, 7, 100, 10**4, 10**8])
    def test_normal_pairs_near_the_edge_match_mpmath(self, ulps):
        # s_n the ulps-th float below sqrt(2) s_d, and the locations
        # sqrt(c spread) denominator scales apart, so that the exponent
        # x^2 / spread is c
        for s_den in (1.3, 7.3253343077752735, math.ldexp(0.9, -40), math.ldexp(1.7, 50)):
            s_num = math.sqrt(2.0) * s_den
            while 2 * Fraction(s_den) ** 2 <= Fraction(s_num) ** 2:   # the edge's float below
                s_num = math.nextafter(s_num, 0.0)
            s_num -= (ulps - 1) * math.ulp(s_num)
            spread = float(2 - (Fraction(s_num) / Fraction(s_den)) ** 2)
            for c in (0.0, 1.0, 30.0):
                num = StateDistribution(Family.NORMAL, 0.2 + math.sqrt(c * spread) * s_den, s_num)
                den = StateDistribution(Family.NORMAL, 0.2, s_den)
                want = normal_ratio_integral_mpmath(num.location, num.scale,
                                                    den.location, den.scale)
                assert math.exp(_log_separation(num, den)) == pytest.approx(
                    want, rel=1e-12, abs=0.0), (s_den, c)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(family=st.sampled_from(list(Family)),
           locations=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           scales=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           k=st.integers(-1000, 1000))
    def test_scaling_a_pair_by_a_power_of_two_changes_nothing(self, family, locations,
                                                             scales, k):
        # the integrals read only the scale ratio and the locations' distance in
        # scales, so 2^k times both locations and both scales gives the same
        # bits, or the same error; a form in squared scales raises
        # ZeroDivisionError for some such pairs, and disagrees with others
        values = (*sorted(locations), *scales)
        scaled = tuple(math.ldexp(v, k) for v in values)
        assume(all(math.ldexp(v, -k) == w for v, w in zip(scaled, values)))

        def outcome(low_location, high_location, low_scale, high_scale):
            try:
                return alpha_beta(DistributionPair(
                    StateDistribution(family, low_location, low_scale),
                    StateDistribution(family, high_location, high_scale)))
            except (DivergentIntegral, SeparationOverflow) as error:
                return type(error)

        assert outcome(*scaled) == outcome(*values)

    @pytest.mark.parametrize("family, want", [
        (Family.NORMAL, math.e),
        (Family.LAPLACE, math.e * (2.0 + math.exp(-3.0)) / 3.0),             # 1.8572996467...
        (Family.LOGISTIC, math.e / 3.0 * (1.0 + math.exp(-1.0) + math.exp(-2.0))),   # 1.3620537565...
    ], ids=lambda x: getattr(x, "value", ""))
    def test_pairs_of_scales_whose_squares_underflow(self, family, want):
        # one scale apart; the squared scales underflow to 0.0
        tiny = 1e-170
        alpha, beta = alpha_beta(DistributionPair(StateDistribution(family, 0.0, tiny),
                                                  StateDistribution(family, tiny, tiny)))
        assert alpha == pytest.approx(want, rel=1e-12, abs=0.0)
        assert beta == alpha

    @pytest.mark.parametrize("family, log_constant", [
        (Family.NORMAL, -0.5 * math.log(2.0)),     # 1 / (r sqrt 2)
        (Family.LAPLACE, -math.log(2.0)),          # 1 / (2 r)
        (Family.LOGISTIC, math.log(2.0 / 3.0)),    # (2 B(2, 2) + 1/3) / r
    ], ids=lambda x: getattr(x, "value", ""))
    def test_a_scale_ratio_that_underflows(self, family, log_constant):
        # r = 1e-400 rounds to 0.0, yet the integral is a constant over r
        num = StateDistribution(family, 0.0, 1e-200)
        den = StateDistribution(family, 0.0, 1e200)
        assert _log_separation(num, den) == pytest.approx(
            400.0 * math.log(10.0) + log_constant, rel=1e-14, abs=0.0)

    def test_a_distance_far_below_the_scale_gives_one(self):
        # the squared scales overflow, the distance in scales is 1e-200
        pair = DistributionPair(StateDistribution(Family.NORMAL, 0.0, 1e200),
                                StateDistribution(Family.NORMAL, 1.0, 1e200))
        assert alpha_beta(pair) == (1.0, 1.0)

    @pytest.mark.parametrize("gap", [1e-6, 0.3, 2.0, 9.0])
    def test_equal_scale_logistic_pairs_have_the_sinh_form(self, gap):
        scale = 0.7
        alpha, beta = alpha_beta(DistributionPair(
            StateDistribution(Family.LOGISTIC, -0.4, scale),
            StateDistribution(Family.LOGISTIC, -0.4 + gap, scale)))
        want = 1.0 + 4.0 / 3.0 * math.sinh(gap / (2.0 * scale)) ** 2
        assert alpha == pytest.approx(want, rel=1e-12, abs=0.0)
        assert beta == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("low, high", [(Family.NORMAL, Family.LOGISTIC),
                                           (Family.LOGISTIC, Family.LAPLACE)])
    def test_a_pair_of_two_families_is_refused(self, low, high):
        pair = DistributionPair(StateDistribution(low, -1.0, 1.0),
                                StateDistribution(high, 1.0, 1.0))
        with pytest.raises(ValueError, match="families"):
            alpha_beta(pair)

    def test_importing_and_running_closed_form_configs_leaves_scipy_unloaded(self, tmp_path):
        # every config, Figure 4's logistic pairs included, runs with scipy
        # unimportable
        configs = [str(path) for path in sorted(CONFIG_DIR.glob("*.yaml"))]
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import cheaptalk_lab.cli\n"
            "from cheaptalk_lab import harness\n"
            f"for config in {configs!r}:\n"
            f"    harness.run(harness.load_experiment(config), out_dir={str(tmp_path)!r})\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert len(list(tmp_path.glob("*.csv"))) == len(configs)

    def test_both_exceed_one_for_distinct_densities(self):
        rng = np.random.default_rng(5)
        for family in Family:
            for _ in range(4):
                low = StateDistribution(family, rng.uniform(-1, 0),
                                        rng.uniform(0.6, 1.2))
                high = StateDistribution(family, rng.uniform(0.2, 1.5),
                                         low.scale * rng.uniform(0.85, 1.3))
                alpha, beta = alpha_beta(DistributionPair(low, high))
                assert alpha > 1.0
                assert beta > 1.0

    @pytest.mark.parametrize("pair", [
        normal_pair(-1.0, 1.0, 1.995, 1.0),   # converges: 2 v_d - v_n = 0.005
        normal_pair(-20.0, 20.0),
        DistributionPair(StateDistribution(Family.LAPLACE, -400.0, 1.0),
                         StateDistribution(Family.LAPLACE, 400.0, 1.0)),
        DistributionPair(StateDistribution(Family.LOGISTIC, -800.0, 1.0),
                         StateDistribution(Family.LOGISTIC, 800.0, 1.0)),
    ])
    def test_integrals_past_the_double_range_raise_a_package_error(self, pair):
        with pytest.raises(SeparationOverflow, match=pair.low.family.value):
            alpha_beta(pair)

    def test_divergence_conditions_for_normals(self):
        with pytest.raises(DivergentIntegral):
            alpha_beta(normal_pair(-1, 1, 2.0, 1.0))   # var_low = 2 var_high
        with pytest.raises(DivergentIntegral):
            alpha_beta(normal_pair(-1, 1, 1.0, 2.5))   # var_high > 2 var_low

    def test_divergence_for_exponential_tails(self):
        pair = DistributionPair(StateDistribution(Family.LAPLACE, -1, 1.0),
                                StateDistribution(Family.LAPLACE, 1, 0.5))
        with pytest.raises(DivergentIntegral):
            alpha_beta(pair)
        pair = DistributionPair(StateDistribution(Family.LOGISTIC, -1, 1.0),
                                StateDistribution(Family.LOGISTIC, 1, 2.5))
        # beta diverges: 2/s_high - 1/s_low < 0 needs s_high > 2 s_low
        alpha, beta = alpha_beta(DistributionPair(
            StateDistribution(Family.LOGISTIC, -1, 1.0),
            StateDistribution(Family.LOGISTIC, 1, 1.9)))
        assert math.isfinite(alpha) and math.isfinite(beta)
        with pytest.raises(DivergentIntegral):
            alpha_beta(DistributionPair(
                StateDistribution(Family.LOGISTIC, -1, 0.4),
                StateDistribution(Family.LOGISTIC, 1, 1.0)))


class TestSampling:
    def test_normal_sample_mean_within_clt_bound(self):
        rng = np.random.default_rng(101)
        draws = StateDistribution(Family.NORMAL, 0, 1).sample(rng, 10**6)
        assert abs(draws.mean()) < 4.0 / math.sqrt(10**6)

    def test_laplace_sample_variance_near_two(self):
        rng = np.random.default_rng(102)
        draws = StateDistribution(Family.LAPLACE, 0, 1).sample(rng, 10**6)
        assert draws.var() == pytest.approx(2.0, rel=0.05, abs=0.0)

    def test_same_seed_gives_identical_sequences(self):
        for family in Family:
            dist = StateDistribution(family, 0.4, 1.7)
            a = dist.sample(np.random.default_rng(9), 1000)
            b = dist.sample(np.random.default_rng(9), 1000)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", list(Family))
    def test_sample_is_the_generator_method_of_the_family_name(self, family):
        dist = StateDistribution(family, -0.4, 1.3)
        expected = getattr(np.random.default_rng(17), family.value)(-0.4, 1.3, (5, 3))
        np.testing.assert_array_equal(dist.sample(np.random.default_rng(17), (5, 3)), expected)

    def test_sample_moments_match_declared_moments(self):
        rng = np.random.default_rng(103)
        for family in Family:
            dist = StateDistribution(family, -0.7, 1.4)
            draws = dist.sample(rng, 10**6)
            assert draws.mean() == pytest.approx(dist.mean, abs=0.02)
            assert draws.var() == pytest.approx(dist.variance, rel=0.03, abs=0.0)
