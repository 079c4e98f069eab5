import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheaptalk_lab._rng import (CHUNK_SIZE, STATE_BUDGET, Moments, chunked_generators,
                                history_chunk)
from cheaptalk_lab.distributions import (DistributionPair, Family,
                                         StateDistribution, normal_pair)
from cheaptalk_lab.evolving import (CommitmentSchedule, _history_sums, solve_schedule,
                                    verify_ic)
from cheaptalk_lab.game import (Bias, GameConfig, SC1, SC2, SC5, SC7,
                                best_response_rule, expected_platform_cost,
                                expected_user_utility, min_expected_cost)
from cheaptalk_lab.montecarlo import simulate_evolving, simulate_game

from oracles import per_period_evolving, per_period_ic, per_reviewer_simulation

# seeds and sample counts in [1, 3 * CHUNK_SIZE + 1], for worker-count checks;
# the chunk count is drawn first so that most draws span several chunks
WORKER_PROPERTY = settings(derandomize=True, deadline=None, max_examples=15)
SEEDS = st.integers(0, 2**32 - 1)
SAMPLES = st.integers(0, 3).flatmap(lambda full: st.integers(
    full * CHUNK_SIZE + 1, min((full + 1) * CHUNK_SIZE, 3 * CHUNK_SIZE + 1)))


def config(n=1, p=0.3, q=0.5, var_h=1.0):
    return GameConfig(n, p, q, normal_pair(-1.0, 1.0, 1.0, var_h))


def z_score(estimate, stderr, reference):
    return abs(estimate - reference) / stderr


class TestSimulateGame:
    def test_matches_closed_forms_within_three_stderr(self):
        g = config(n=2)
        rule = best_response_rule(SC1, g)
        report = simulate_game(g, SC1, rule, 200_000, seed=11)
        assert z_score(report.mean_cost, report.stderr_cost,
                       expected_platform_cost(SC1, rule, g)) < 3.0
        assert z_score(report.mean_utility_positive, report.stderr_utility_positive,
                       expected_user_utility(SC1, rule, Bias.POSITIVE, g)) < 3.0
        assert z_score(report.mean_utility_negative, report.stderr_utility_negative,
                       expected_user_utility(SC1, rule, Bias.NEGATIVE, g)) < 3.0

    def test_constant_rule_reaches_the_abandoning_cost(self):
        g = config(var_h=1.5)
        rule = best_response_rule(SC5, g)
        report = simulate_game(g, SC5, rule, 200_000, seed=13)
        # prior-mean rating: cost = floor + abandoning loss
        reference = min_expected_cost(g) + 0.84
        assert z_score(report.mean_cost, report.stderr_cost, reference) < 3.0

    def test_single_sample_runs(self):
        g = config()
        rule = best_response_rule(SC1, g)
        a = simulate_game(g, SC1, rule, 1, seed=3)
        b = simulate_game(g, SC1, rule, 1, seed=3)
        assert a == b
        assert a.count_negative + a.count_positive == 1

    def test_bit_identical_across_reruns_and_worker_counts(self):
        g = config(n=3, q=0.4)
        rule = best_response_rule(SC2, g)
        base = simulate_game(g, SC2, rule, 120_001, seed=17)
        again = simulate_game(g, SC2, rule, 120_001, seed=17)
        threaded = simulate_game(g, SC2, rule, 120_001, seed=17, workers=4)
        assert base == again
        assert base == threaded

    def test_disjoint_seeds_agree_statistically(self):
        g = config(n=2)
        rule = best_response_rule(SC2, g)
        a = simulate_game(g, SC2, rule, 150_000, seed=100)
        b = simulate_game(g, SC2, rule, 150_000, seed=20_000)
        combined = np.hypot(a.stderr_cost, b.stderr_cost)
        assert abs(a.mean_cost - b.mean_cost) < 4.0 * combined

    def test_unbiasedness_across_many_seeds(self):
        # three-stderr coverage should fail only for a few percent of seeds
        g = config(n=1)
        rule = best_response_rule(SC1, g)
        reference = expected_platform_cost(SC1, rule, g)
        misses = 0
        for seed in range(60):
            report = simulate_game(g, SC1, rule, 20_000, seed=seed)
            if z_score(report.mean_cost, report.stderr_cost, reference) > 3.0:
                misses += 1
        assert misses <= 2

    def test_rejects_empty_sample_request(self):
        g = config()
        rule = best_response_rule(SC1, g)
        with pytest.raises(ValueError):
            simulate_game(g, SC1, rule, 0, seed=1)

    @pytest.mark.parametrize("rule_users", [1, 5])
    def test_rejects_a_rule_built_for_another_count(self, rule_users):
        # a longer rule ran and returned a cost; a shorter one raised IndexError
        g = config(n=2)
        rule = best_response_rule(SC1, config(n=rule_users))
        with pytest.raises(ValueError, match="different number of users"):
            simulate_game(g, SC1, rule, 1_000, seed=1)

    @WORKER_PROPERTY
    @given(seed=SEEDS, samples=SAMPLES, n=st.integers(1, 6),
           profile=st.sampled_from([SC1, SC2, SC5, SC7]))
    def test_reports_are_bit_identical_across_worker_counts(self, seed, samples,
                                                             n, profile):
        g = config(n=n, q=0.4)
        rule = best_response_rule(profile, g)
        # repr tells every float bit apart and treats nan stderrs as equal
        reports = {repr(simulate_game(g, profile, rule, samples, seed, workers=w))
                   for w in (1, 2, 3)}
        assert len(reports) == 1

    def test_peak_memory_does_not_grow_with_the_reviewer_count(self):
        peaks = []
        for n in (2, 10**4):
            g = config(n=n)
            rule = best_response_rule(SC1, g)
            simulate_game(g, SC1, rule, 65_536, seed=5)   # warm-up
            tracemalloc.start()
            try:
                simulate_game(g, SC1, rule, 65_536, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks

    def test_warm_peak_memory_holds_no_per_call_copy_of_the_rule(self):
        # each call built an (N + 1)-float array of the rule: 120 KiB here
        peaks = []
        for n in (2, 15_000):
            g = config(n=n)
            rule = best_response_rule(SC1, g)
            simulate_game(g, SC1, rule, 65_536, seed=5)   # warm-up
            tracemalloc.start()
            try:
                simulate_game(g, SC1, rule, 65_536, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks

    def test_binomial_count_agrees_with_per_reviewer_draws(self):
        # the oracle draws every reviewer's bias; the two samplers share only
        # the config and its state samplers, so this checks the binomial count
        for profile in (SC1, SC2, SC5, SC7):
            for n in (1, 2, 5, 64):
                for q in (0.3, 0.5):
                    g = config(n=n, q=q, var_h=1.5)
                    rule = best_response_rule(profile, g)
                    collapsed = simulate_game(g, profile, rule, 100_000, seed=41)
                    oracle = per_reviewer_simulation(g, profile, rule, 100_000, seed=43)
                    for field in ("cost", "utility_negative", "utility_positive"):
                        a = getattr(collapsed, f"mean_{field}")
                        b = getattr(oracle, f"mean_{field}")
                        se = np.hypot(getattr(collapsed, f"stderr_{field}"),
                                      getattr(oracle, f"stderr_{field}"))
                        # 1e-12 covers the rounding of constant ratings (se 0)
                        assert abs(a - b) <= 4.0 * se + 1e-12, (profile, n, q, field)


    def test_a_large_game_matches_the_closed_forms_within_four_stderr(self):
        g = config(n=10**4, q=0.4, var_h=1.5)
        for profile in (SC1, SC2):
            rule = best_response_rule(profile, g)
            report = simulate_game(g, profile, rule, 200_000, seed=47)
            assert z_score(report.mean_cost, report.stderr_cost,
                           expected_platform_cost(profile, rule, g)) < 4.0
            for bias, mean, stderr in (
                    (Bias.POSITIVE, report.mean_utility_positive,
                     report.stderr_utility_positive),
                    (Bias.NEGATIVE, report.mean_utility_negative,
                     report.stderr_utility_negative)):
                want = expected_user_utility(profile, rule, bias, g)
                assert abs(mean - want) <= 4.0 * stderr + 1e-12, (profile, bias)

    @pytest.mark.parametrize("q", [0.1, 0.4, 0.5])
    def test_the_positive_count_is_binomial_in_the_share(self, q):
        # each block draws its positive count; their sum over the chunks is
        # Binomial(samples, q)
        g = config(n=3, q=q)
        rule = best_response_rule(SC1, g)
        samples = 2 * CHUNK_SIZE + 1_001
        sd = math.sqrt(samples * q * (1 - q))
        for seed in range(8):
            report = simulate_game(g, SC1, rule, samples, seed)
            assert report.count_positive + report.count_negative == samples
            assert abs(report.count_positive - samples * q) <= 4.0 * sd, seed

    @pytest.mark.parametrize("n", [1, 2])
    def test_constant_utilities_are_exact_with_zero_stderr(self, n):
        # a rating the bias cannot move is one value in every sample; the sum
        # of squares form reported it 2 ulps off with a stderr of 1e-19
        constant = {1: [(SC1, Bias.NEGATIVE), (SC2, Bias.POSITIVE),
                        (SC5, Bias.POSITIVE), (SC5, Bias.NEGATIVE)],
                    2: [(SC5, Bias.POSITIVE), (SC5, Bias.NEGATIVE)]}[n]
        g = config(n=n)
        for profile, bias in constant:
            rule = best_response_rule(profile, g)
            want = expected_user_utility(profile, rule, bias, g)
            for seed in range(3):
                report = simulate_game(g, profile, rule, 300_001, seed)
                name = bias.name.lower()
                assert getattr(report, f"mean_utility_{name}") == want
                assert getattr(report, f"stderr_utility_{name}") == 0.0


class TestMoments:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=SEEDS, exponent=st.integers(0, 12), sign=st.sampled_from([-1, 1]),
           sd=st.sampled_from([1e-3, 1.0, 1e3]), size=st.integers(2, 3_000),
           cut=st.floats(0.0, 1.0))
    def test_far_from_zero_matches_the_two_pass_reference(self, seed, exponent, sign,
                                                          sd, size, cut):
        # the sum of squares form was 41 % off at a shift of 1e8; what is left
        # is the rounding of the two parts' means, at most about an ulp of
        # the shift over the sd
        values = sign * 10.0**exponent + sd * np.random.default_rng(seed).standard_normal(size)
        split = int(cut * size)
        mean, stderr = (Moments.of(values[:split]) + Moments.of(values[split:])).mean_stderr()
        want_sd = values.std(ddof=1)
        want_stderr = want_sd / math.sqrt(size)
        ulp = np.spacing(np.max(np.abs(values)))
        assert abs(stderr - want_stderr) <= (1e-12 + 2 * ulp / want_sd) * want_stderr
        assert abs(mean - math.fsum(values) / size) <= 4 * ulp

    @pytest.mark.parametrize("value", [0.1, -2.0 / 3.0, 1e8 + 0.3, 7.0])
    def test_a_constant_sample_has_its_exact_mean_and_no_spread(self, value):
        parts = [Moments.of(np.full(count, value)) for count in (CHUNK_SIZE, 3, 1, 0, 17)]
        merged = sum(parts, Moments())
        assert merged.count == CHUNK_SIZE + 21
        assert merged.mean_stderr() == (value, 0.0)

    def test_empty_and_single_samples(self):
        assert all(math.isnan(x) for x in Moments().mean_stderr())
        mean, stderr = (Moments() + Moments.of(np.array([2.5])) + Moments()).mean_stderr()
        assert mean == 2.5 and math.isnan(stderr)

    def test_a_sample_holding_nan_has_no_standard_error(self):
        # the clamp of a rounded M2 at 0 turned a nan M2 into 0.0, which
        # claimed an exact mean
        for moments in (Moments.of(np.array([1.0, math.nan, 2.0])),
                        Moments.of(np.array([math.nan])) + Moments.of(np.array([1.0, 2.0]))):
            assert all(math.isnan(x) for x in moments.mean_stderr())


class TestSimulateEvolving:
    def test_matches_the_closed_form_loss(self):
        g = config()
        schedule = solve_schedule(g, 2)
        report = simulate_evolving(g, schedule, 150_000, seed=23)
        assert z_score(report.mean_period_cost, report.stderr_period_cost,
                       min_expected_cost(g) + 0.126739) < 3.0
        assert report.loss_estimate == pytest.approx(
            report.mean_period_cost - min_expected_cost(g))

    def test_single_period_constant_schedule_recovers_the_abandoning_loss(self):
        g = config()
        schedule = CommitmentSchedule(horizon=1, pair=g.pair,
                                      coefficients=(g.prior_mean, 0.0, g.prior_mean, 0.0))
        report = simulate_evolving(g, schedule, 150_000, seed=29)
        assert z_score(report.mean_period_cost, report.stderr_period_cost,
                       min_expected_cost(g) + 0.84) < 3.0

    def test_ic_residuals_track_the_schedule(self):
        g = config()
        schedule = solve_schedule(g, 3)
        report = simulate_evolving(g, schedule, 100_000, seed=31)
        for residual in report.ic.as_list():
            assert abs(residual.value) <= 3.0 * residual.stderr

    def test_bit_identical_reports(self):
        g = config()
        schedule = solve_schedule(g, 2)
        a = simulate_evolving(g, schedule, 60_000, seed=37)
        b = simulate_evolving(g, schedule, 60_000, seed=37)
        threaded = simulate_evolving(g, schedule, 60_000, seed=37, workers=3)
        assert a == b
        assert a == threaded

    @WORKER_PROPERTY
    @given(seed=SEEDS, samples=SAMPLES, horizon=st.integers(2, 3))
    def test_reports_are_bit_identical_across_worker_counts(self, seed, samples,
                                                             horizon):
        g = config()
        schedule = solve_schedule(g, horizon)
        reports = {repr(simulate_evolving(g, schedule, samples, seed, workers=w))
                   for w in (1, 2, 3)}
        assert len(reports) == 1

    @pytest.mark.parametrize("mismatch", [
        GameConfig(2, 0.3, 0.5, normal_pair(-1.0, 1.0)),
        GameConfig(1, 0.3, 0.5, normal_pair(-3.0, 3.0, 1.0, 2.0)),
        GameConfig(1, 0.4, 0.5, normal_pair(-1.0, 1.0)),
    ], ids=["users", "pair", "prior"])
    def test_rejects_a_config_the_schedule_was_not_built_for(self, mismatch):
        # the foreign pair reported a loss estimate of -0.297
        schedule = solve_schedule(config(), 3)
        with pytest.raises(ValueError):
            simulate_evolving(mismatch, schedule, 1_000, seed=1)

    def test_constant_schedule_runs_under_any_prior(self):
        g = config(p=0.6)
        schedule = CommitmentSchedule(horizon=2, pair=g.pair, coefficients=(-0.5, 0.0, 0.5, 0.0))
        assert simulate_evolving(g, schedule, 1_000, seed=1).episodes == 1_000


def _pair(family, scale_high):
    return DistributionPair(StateDistribution(family, -1.0, 1.0),
                            StateDistribution(family, 1.0, scale_high))


ORACLE_PAIRS = {"normal": normal_pair(-1.0, 1.0, 1.0, 1.3),
                "laplace": _pair(Family.LAPLACE, 1.2),
                "logistic": _pair(Family.LOGISTIC, 1.2)}
ORACLE_CASES = [(name, horizon, kind)
                for name in ORACLE_PAIRS for horizon in (1, 2, 3, 8)
                for kind in ("solved", "constant")
                if horizon > 1 or kind == "constant"]


def _oracle_schedule(name, horizon, kind):
    g = GameConfig(1, 0.3, 0.5, ORACLE_PAIRS[name])
    if kind == "solved":
        return g, solve_schedule(g, horizon)
    return g, CommitmentSchedule(horizon=horizon, pair=g.pair, coefficients=(-0.4, 0.0, 0.7, 0.0))


def _assert_same_estimate(got, want, stderr):
    # 1e-9 of the stderr; the few ulps cover T * c against a sum of T copies
    # of c, where a constant residual has stderr 0
    assert abs(got - want) <= 1e-9 * stderr + 4 * np.spacing(abs(want)), (got, want)


COUNT_GAME = config()
COUNT_RULE = best_response_rule(SC1, COUNT_GAME)
COUNT_SCHEDULE = solve_schedule(COUNT_GAME, 2)
COUNT_ENTRY_POINTS = {   # name of the count -> the call with that count
    "samples": lambda c: simulate_game(COUNT_GAME, SC1, COUNT_RULE, c, 1),
    "workers (game)": lambda c: simulate_game(COUNT_GAME, SC1, COUNT_RULE, 10, 1, workers=c),
    "episodes": lambda c: simulate_evolving(COUNT_GAME, COUNT_SCHEDULE, c, 1),
    "workers (evolving)": lambda c: simulate_evolving(COUNT_GAME, COUNT_SCHEDULE, 10, 1,
                                                      workers=c),
    "mc_episodes": lambda c: verify_ic(COUNT_SCHEDULE, c, 1),
}


class TestCountCheck:
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("count", [0, -3, 2.5, 1.0, True], ids=repr)
    def test_a_count_that_is_not_a_whole_number_from_one_is_refused(self, entry, count):
        # True ran one sample; 2.5 and 1.0 failed inside numpy with a TypeError;
        # no worker count was refused
        name = entry.split()[0]
        with pytest.raises(ValueError, match=f"{name} must be >= 1 and an integer"):
            COUNT_ENTRY_POINTS[entry](count)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("count", [np.int64(3), np.uint8(3)], ids=repr)
    def test_numpy_integers_are_counts(self, entry, count):
        assert repr(COUNT_ENTRY_POINTS[entry](count)) == repr(COUNT_ENTRY_POINTS[entry](3))


class TestHistoryChunks:
    def test_up_to_32_periods_the_partition_is_the_one_shot_partition(self):
        # every seeded test and the benchmark use T <= 8, so their streams stay
        for horizon in (1, 2, 3, 8, 31, 32):
            assert history_chunk(horizon) == CHUNK_SIZE
            total = 2 * CHUNK_SIZE + 5
            assert ([count for count, _ in chunked_generators(7, total, history_chunk(horizon))]
                    == [count for count, _ in chunked_generators(7, total)])

    @pytest.mark.parametrize("horizon", [33, 128, 1_000, STATE_BUDGET, 10 * STATE_BUDGET])
    def test_longer_histories_fill_the_state_budget(self, horizon):
        size = history_chunk(horizon)
        assert 1 <= size < CHUNK_SIZE
        assert size * horizon <= STATE_BUDGET or size == 1
        assert (size + 1) * horizon > STATE_BUDGET

    def test_peak_memory_does_not_grow_with_the_horizon(self):
        # a 32,768 x T block of states per chunk: 68.6 MiB at T = 1,000 and
        # 3,000 episodes, against 23.3 MiB at T = 32; the shared mean gap
        # keeps every ratio finite, so the actions move in all 999 periods
        pair = DistributionPair(StateDistribution(Family.LAPLACE, -0.05, 1.0),
                                StateDistribution(Family.LAPLACE, 0.05, 1.0))
        peaks = []
        for horizon, episodes in ((32, CHUNK_SIZE), (1_000, 3_000)):
            schedule = SimpleNamespace(horizon=horizon, pair=pair,
                                       coefficients=(-1.0, 0.5, 1.0, -0.5))
            verify_ic(schedule, episodes, seed=2)   # warm-up
            tracemalloc.start()
            try:
                verify_ic(schedule, episodes, seed=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks


class TestHistoryKernel:
    """The history kernel's sums of r and 1/r against every period's actions,
    on the same draws; 1_001 episodes fill one chunk, 2 * CHUNK_SIZE + 17
    span three."""

    @pytest.mark.parametrize("episodes", [1_001, 2 * CHUNK_SIZE + 17])
    @pytest.mark.parametrize("name,horizon,kind", ORACLE_CASES)
    def test_simulate_evolving_matches_the_per_period_oracle(self, name, horizon,
                                                             kind, episodes):
        g, schedule = _oracle_schedule(name, horizon, kind)
        got = simulate_evolving(g, schedule, episodes, seed=3)
        want = per_period_evolving(g, schedule, episodes, seed=3)
        se = want.stderr_period_cost
        _assert_same_estimate(got.mean_period_cost, want.mean_period_cost, se)
        _assert_same_estimate(got.stderr_period_cost, se, se)
        _assert_same_estimate(got.loss_estimate, want.loss_estimate, se)
        for a, b in zip(got.ic.as_list(), want.ic.as_list()):
            _assert_same_estimate(a.value, b.value, b.stderr)
            _assert_same_estimate(a.stderr, b.stderr, b.stderr)

    @pytest.mark.parametrize("episodes", [1_001, 2 * CHUNK_SIZE + 17])
    @pytest.mark.parametrize("name,horizon,kind", ORACLE_CASES)
    def test_verify_ic_matches_the_per_period_oracle(self, name, horizon, kind,
                                                     episodes):
        _, schedule = _oracle_schedule(name, horizon, kind)
        got = verify_ic(schedule, episodes, seed=4)
        want = per_period_ic(schedule, episodes, seed=4)
        for a, b in zip(got.as_list(), want.as_list()):
            _assert_same_estimate(a.value, b.value, b.stderr)
            _assert_same_estimate(a.stderr, b.stderr, b.stderr)

    @pytest.mark.parametrize("name", list(ORACLE_PAIRS))
    def test_the_states_are_never_written_to(self, name):
        # the kernel reads every state again for the squared error after
        # taking the history's log ratios
        _, schedule = _oracle_schedule(name, 3, "solved")
        states = schedule.pair.low.sample(np.random.default_rng(6), (500, 3))
        kept = states.copy()
        _history_sums(schedule, states, high=False)
        assert np.array_equal(states, kept)

    @pytest.mark.parametrize("a_low,a_high", [(0.0, 0.0), (-20.0, 20.0)])
    def test_constant_schedule_survives_an_overflowing_ratio(self, a_low, a_high):
        # r would overflow to inf and 1/r to 0 from the first period on; a
        # constant schedule takes no ratio, and a zero coefficient never meets
        # them as 0 * inf
        horizon = 8
        pair = normal_pair(-20.0, 20.0)
        g = GameConfig(1, 0.3, 0.5, pair)
        schedule = CommitmentSchedule(horizon=horizon, pair=pair,
                                      coefficients=(a_low, 0.0, a_high, 0.0))
        gap = horizon * (a_low - a_high)
        with np.errstate(invalid="raise"):
            report = simulate_evolving(g, schedule, 2_000, seed=8)
            residuals = verify_ic(schedule, 2_000, seed=9)
        assert math.isfinite(report.mean_period_cost)
        for ic in (report.ic, residuals):
            assert [r.value for r in ic.as_list()] == [gap, -gap, -gap, gap]
            assert [r.stderr for r in ic.as_list()] == [0.0] * 4
