import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from cheaptalk_lab.distributions import (DistributionPair, Family,
                                         StateDistribution, alpha_beta,
                                         log_likelihood_ratio, normal_pair)
from cheaptalk_lab.errors import (DivergentIntegral, DivisionOutsideSupport,
                                  SeparationOverflow)

from oracles import normal_ratio_integral

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
        with pytest.raises(DivisionOutsideSupport):
            log_likelihood_ratio(pair, math.inf)
        with pytest.raises(DivisionOutsideSupport):
            np.sum(log_likelihood_ratio(pair, [0.0, math.nan]))

    def test_history_ratio_is_product_of_pointwise_ratios(self):
        rng = np.random.default_rng(11)
        pair = DistributionPair(
            StateDistribution(Family.LAPLACE, -0.5, 1.1),
            StateDistribution(Family.LAPLACE, 0.8, 0.9),
        )
        thetas = rng.normal(0, 2, size=9)
        product = math.prod(math.exp(log_likelihood_ratio(pair, t)) for t in thetas)
        assert math.exp(np.sum(log_likelihood_ratio(pair, thetas))) == pytest.approx(
            product, rel=1e-10, abs=0.0)
        assert np.sum(log_likelihood_ratio(pair, [])) == 0.0

    def test_long_history_stays_finite_in_log_space(self):
        pair = normal_pair(-1, 1)
        log_ratio = np.sum(log_likelihood_ratio(pair, [1.0] * 500))
        assert log_ratio == pytest.approx(1000.0, rel=1e-12, abs=0.0)


class TestAlphaBeta:
    def test_identical_densities_give_one(self):
        alpha, beta = alpha_beta(normal_pair(0.3, 0.3, 1.2, 1.2))
        assert alpha == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert beta == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_equal_variance_normal_closed_form(self):
        alpha, beta = alpha_beta(normal_pair(-1, 1, 1, 1))
        assert alpha == pytest.approx(math.exp(4.0), rel=1e-12, abs=0.0)
        assert beta == alpha

    def test_quadrature_path_reproduces_the_equal_variance_closed_form(self):
        # the public entry point uses the closed form for every normal pair,
        # so drive the integrator directly on randomized equal-variance pairs
        from cheaptalk_lab.distributions import _ratio_integral

        rng = np.random.default_rng(19)
        for _ in range(8):
            mu_l = rng.uniform(-2, 0)
            mu_h = mu_l + rng.uniform(0.1, 3.0)
            sigma = rng.uniform(0.5, 2.0)
            low = StateDistribution(Family.NORMAL, mu_l, sigma)
            high = StateDistribution(Family.NORMAL, mu_h, sigma)
            want = math.exp((mu_h - mu_l) ** 2 / sigma**2)
            assert _ratio_integral(low, high) == pytest.approx(want, rel=1e-8, abs=0.0)
            assert _ratio_integral(high, low) == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_quadrature_matches_closed_form_on_random_normal_pairs(self):
        # the closed form against the quadrature it replaced, and against the
        # oracle's own closed form
        from cheaptalk_lab.distributions import _ratio_integral

        rng = np.random.default_rng(23)
        for _ in range(8):
            mu_l = rng.uniform(-2, 0)
            mu_h = mu_l + rng.uniform(0, 3)
            var_l = rng.uniform(0.5, 1.5)
            var_h = var_l * rng.uniform(0.75, 1.6)
            pair = normal_pair(mu_l, mu_h, var_l, var_h)
            alpha, beta = alpha_beta(pair)
            assert alpha == pytest.approx(
                _ratio_integral(pair.low, pair.high), rel=1e-12, abs=0.0)
            assert beta == pytest.approx(
                _ratio_integral(pair.high, pair.low), rel=1e-12, abs=0.0)
            assert alpha == pytest.approx(
                normal_ratio_integral(mu_l, var_l, mu_h, var_h), rel=1e-12, abs=0.0)
            assert beta == pytest.approx(
                normal_ratio_integral(mu_h, var_h, mu_l, var_l), rel=1e-12, abs=0.0)

    def test_quadrature_matches_closed_form_on_random_laplace_pairs(self):
        from cheaptalk_lab.distributions import _ratio_integral

        rng = np.random.default_rng(29)
        pairs = [DistributionPair(StateDistribution(Family.LAPLACE, 0.4, 1.0),
                                  StateDistribution(Family.LAPLACE, 0.4, 1.3))]
        for _ in range(8):
            mu_l = rng.uniform(-2, 0)
            scale_l = rng.uniform(0.5, 1.5)
            pairs.append(DistributionPair(
                StateDistribution(Family.LAPLACE, mu_l, scale_l),
                StateDistribution(Family.LAPLACE, mu_l + rng.uniform(0, 3),
                                  scale_l * rng.uniform(0.6, 1.6))))
        for pair in pairs:
            alpha, beta = alpha_beta(pair)
            assert alpha == pytest.approx(
                _ratio_integral(pair.low, pair.high), rel=1e-12, abs=0.0)
            assert beta == pytest.approx(
                _ratio_integral(pair.high, pair.low), rel=1e-12, abs=0.0)

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
        assert alpha == pytest.approx(1.8627897661148847, rel=1e-8, abs=0.0)
        assert beta == pytest.approx(5.146924865753686, rel=1e-8, abs=0.0)

    def test_a_logistic_pair_is_integrated_once(self, monkeypatch):
        from scipy import integrate

        from cheaptalk_lab.distributions import _ratio_integral

        calls = []
        quad = integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(integrate, "quad", counting_quad)
        _ratio_integral.cache_clear()
        pair = DistributionPair(StateDistribution(Family.LOGISTIC, -1, 1.0),
                                StateDistribution(Family.LOGISTIC, 1, 1.5))
        first = alpha_beta(pair)
        integrated = len(calls)
        assert integrated > 0
        assert alpha_beta(pair) == first
        assert len(calls) == integrated

    def test_importing_and_running_closed_form_configs_leaves_scipy_unloaded(self, tmp_path):
        script = (
            "import sys\n"
            "import cheaptalk_lab.cli\n"
            "from cheaptalk_lab import harness\n"
            f"harness.run(harness.load_experiment({str(CONFIG_DIR / 'figure3.yaml')!r}),"
            f" out_dir={str(tmp_path)!r})\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "figure3.csv").exists()

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
