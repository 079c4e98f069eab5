import decimal
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cheaptalk_lab import _exact, equilibrium
from cheaptalk_lab.distributions import (DistributionPair, Family, StateDistribution,
                                         normal_pair)
from cheaptalk_lab.equilibrium import (MAX_LOSS_REDUCTION_ONE_USER,
                                       BiasThresholds, DeviationWitness,
                                       PbeCertificate, bayesian_system_loss,
                                       bias_thresholds, enumerate_pbe, is_pbe,
                                       one_user_loss, p1_high, p1_low,
                                       sequential_two_user_check,
                                       symmetric_bias_loss, three_type_loss)
from cheaptalk_lab.errors import OutOfRegime, UndecidedEquilibrium
from cheaptalk_lab.game import (ALL_PROFILES, Bias, GameConfig,
                                PROFILE_LABELS, PROFILES_BY_LABEL, PureStrategy, SC1,
                                SC2, SC3, SC4, SC5, SC7, ServiceType, StrategyProfile, _senders,
                                best_response_rule, expected_user_utility)
from cheaptalk_lab.benchmarks import (abandon_scheme, majority_vote_loss,
                                      majority_vote_loss_biased)

from oracles import (closed_form_equilibrium_set, sequential_utilities,
                     three_type_loss_direct)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

GOLDEN_LOW = (3.0 - math.sqrt(5.0)) / 2.0


def config(n=1, p=0.3, q=0.5, mu_l=-1.0, mu_h=1.0, var_l=1.0, var_h=1.0):
    return GameConfig(n, p, q, normal_pair(mu_l, mu_h, var_l, var_h))


def deviation_gains(profile, g):
    """Utility change of every class deviation from ``profile``, read from the
    game's deviation table."""
    game = equilibrium._LogGame(g.n_users, g.p_high, g.q_plus)
    return game.gains(ALL_PROFILES.index(profile), g.mean_gap)


def labels(profiles):
    return {PROFILE_LABELS[p] for p in profiles}


# each profile and its partner under relabelling every message
MIRRORS = (("SC1", "SC3"), ("SC2", "SC4"), ("SC5", "SC6"), ("SC7", "SC16"),
           ("SC8", "SC10"), ("SC9", "SC11"), ("SC12", "SC13"), ("SC14", "SC15"))


def relabelled(profile):
    """``profile`` with every message relabelled: honest <-> reversed and
    blind-high <-> blind-low, in both classes."""
    def flip(strategy):
        return PureStrategy(tuple(not sends for sends in strategy.value))

    return StrategyProfile(flip(profile.negative), flip(profile.positive))


def influence(game, profile):
    """(sign, log|D|) of an influence whose one nonzero part is its value."""
    signs, logs = game.influences
    i = ALL_PROFILES.index(profile)
    (t,) = np.flatnonzero(signs[i])
    return signs[i, t], logs[i, t]


def reference_parts(game, profile):
    """(type, sign, log-magnitude) of each nonzero part of D_P, one profile at
    a time: the float reference for the engine's one pass over all profiles."""
    def rank(flags):
        positive, negative = flags
        if positive != negative:
            return 1, (q - 0.5 if positive else 0.5 - q)
        return 2 * positive, 0.0

    def logsumexp(x):
        top = float(x.max())
        return top if top == -math.inf else top + math.log(float(np.exp(x - top).sum()))

    p, q = game.p, game.q
    high, low = _senders(profile, ServiceType.HIGH), _senders(profile, ServiceType.LOW)
    s_high, s_low = high[0] - high[1], low[0] - low[1]
    if ((s_high == 0 and s_low == 0) or rank(high) == rank(low)
            or (p == 0.5 and low == (not high[0], not high[1]) and s_high == -s_low)):
        return []
    up = 1 if rank(high) > rank(low) else -1
    log_odds = game.log_prior[0] - game.log_prior[1] + game.powers(high) - game.powers(low)
    hi, lo = (log_odds[1:], log_odds[:-1]) if up > 0 else (log_odds[:-1], log_odds[1:])
    (lh_high, lc_high), (lh_low, lc_low) = game.log_chance[high], game.log_chance[low]
    step = abs((lh_high - lc_high) - (lh_low - lc_low))
    log_jump = (-np.logaddexp(0.0, -hi) - np.logaddexp(0.0, lo)
                + equilibrium._log1mexp(step))
    return [(t, s * up, logsumexp(game.log_prior[t] + game.others.log_comb
                                  + game.others.powers(flags) + log_jump))
            for t, (s, flags) in enumerate(((s_high, high), (s_low, low))) if s]


class ReferenceGame(equilibrium._LogGame):
    """A game whose influences come from ``reference_parts``."""

    @functools.cached_property
    def influences(self):
        signs, logs = np.zeros((16, 2)), np.full((16, 2), -math.inf)
        for i, profile in enumerate(ALL_PROFILES):
            for t, sign, log in reference_parts(self, profile):
                signs[i, t], logs[i, t] = sign, log
        return signs, logs


class TestIsPbe:
    def test_certificate_for_the_first_table_entry(self):
        result = is_pbe(SC1, config())
        assert isinstance(result, PbeCertificate)
        assert result.max_deviation_gain <= 1e-12
        assert result.deviations_checked == 6

    def test_all_honest_is_never_stable(self):
        for n in (1, 2, 3):
            for q in (0.2, 0.5, 0.8):
                g = config(n=n, q=q)
                result = is_pbe(SC7, g)
                assert isinstance(result, DeviationWitness)
                assert result.bias is Bias.NEGATIVE
                assert result.alternative is PureStrategy.BLIND_LOW
                p = g.p_high
                expected_gain = ((1 - p) * p * q * (1 - q) ** (n - 1) * g.mean_gap
                                 / (1 - p * (1 - (1 - q) ** n)))
                assert result.gain == pytest.approx(expected_gain, rel=1e-12, abs=0.0)

    def test_degenerate_gap_makes_everything_an_equilibrium(self):
        g = GameConfig(2, 0.3, 0.4, normal_pair(0.2, 0.2))
        for profile in ALL_PROFILES:
            assert isinstance(is_pbe(profile, g), PbeCertificate)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 30])
    def test_certificates_are_exactly_the_enumerated_set(self, n):
        # is_pbe decides on its own game, apart from enumerate_pbe's cached
        # sets; p = 1/2 + 2^-45 with q in {0.1, 0.3} at N = 30 needs the
        # exact fallback
        for p in (0.1, 0.3, 0.5, 0.5 + 2.0**-45, 0.7):
            for q in (0.1, 0.3, 0.5, 0.7):
                for gap in (0.0, 2.0):
                    g = config(n=n, p=p, q=q, mu_h=-1.0 + gap)
                    members = enumerate_pbe(g)
                    for profile in ALL_PROFILES:
                        certified = isinstance(is_pbe(profile, g), PbeCertificate)
                        assert certified == (profile in members), (p, q, gap, profile)

    def test_the_witness_is_the_first_raising_deviation(self):
        # biases negative first, alternatives in declaration order
        for n in (1, 2, 3):
            for p in (0.1, 0.3, 0.7):
                for q in (0.2, 0.6):
                    g = config(n=n, p=p, q=q)
                    for profile in ALL_PROFILES:
                        result = is_pbe(profile, g)
                        first = next((key for key, gain in deviation_gains(profile, g).items()
                                      if gain > 1e-12), None)
                        if first is None:
                            assert isinstance(result, PbeCertificate), (g, profile)
                        else:
                            assert (result.bias, result.alternative) == first, (g, profile)

    def test_decides_on_one_game(self, monkeypatch):
        built = []

        class CountingGame(equilibrium._LogGame):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(equilibrium, "_LogGame", CountingGame)
        monkeypatch.setattr(equilibrium, "enumerate_pbe", None)
        assert isinstance(is_pbe(SC1, config(n=5)), PbeCertificate)
        assert isinstance(is_pbe(SC7, config(n=5)), DeviationWitness)
        assert built == [(5, 0.3, 0.5)] * 2

    def test_gains_match_direct_utility_differences(self):
        g = config(n=2, p=0.6, q=0.3)
        gains = deviation_gains(SC2, g)
        base = expected_user_utility(SC2, best_response_rule(SC2, g),
                                     Bias.POSITIVE, g)
        candidate = SC2.with_strategy(Bias.POSITIVE, PureStrategy.REVERSED)
        alt = expected_user_utility(candidate, best_response_rule(candidate, g),
                                    Bias.POSITIVE, g)
        assert gains[(Bias.POSITIVE, PureStrategy.REVERSED)] == pytest.approx(
            alt - base, rel=1e-12, abs=1e-14)


class TestEnumeration:
    def test_equal_shares_table_for_all_counts(self):
        for n in (1, 2, 3, 13, 26, 39):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                got = labels(enumerate_pbe(config(n=n, p=p)))
                assert got == {"SC1", "SC2", "SC3", "SC4"}, (n, p)

    def test_small_share_table_with_one_reviewer(self):
        threshold = p1_high(0.1)
        assert labels(enumerate_pbe(config(p=0.2, q=0.1))) == {"SC2", "SC4"}
        assert labels(enumerate_pbe(config(p=0.6, q=0.1))) == {"SC1", "SC2",
                                                               "SC3", "SC4"}
        assert labels(enumerate_pbe(config(p=threshold - 1e-6, q=0.1))) == {
            "SC2", "SC4"}
        assert labels(enumerate_pbe(config(p=threshold + 1e-6, q=0.1))) == {
            "SC1", "SC2", "SC3", "SC4"}

    def test_large_share_table_with_one_reviewer(self):
        threshold = p1_low(0.9)
        assert labels(enumerate_pbe(config(p=threshold - 1e-6, q=0.9))) == {
            "SC1", "SC2", "SC3", "SC4"}
        assert labels(enumerate_pbe(config(p=threshold + 1e-6, q=0.9))) == {
            "SC1", "SC3"}

    def test_only_the_six_viable_combinations_ever_appear(self):
        for n in (1, 2, 3):
            for q in (0.1, 0.3, 0.5, 0.7, 0.9):
                for p in [x / 10 for x in range(1, 10)]:
                    got = labels(enumerate_pbe(config(n=n, p=p, q=q)))
                    assert got <= {"SC1", "SC2", "SC3", "SC4", "SC5", "SC6"}
                    assert got, f"no equilibrium at n={n} q={q} p={p}"

    def test_blind_high_low_always_stable_in_the_small_share_regime(self):
        for p in [x / 10 for x in range(1, 10)]:
            got = labels(enumerate_pbe(config(p=p, q=0.25)))
            assert {"SC2", "SC4"} <= got
            inner = {"SC1", "SC3"} <= got
            assert inner == (p >= p1_high(0.25) - 1e-12)


class TestInfluenceEngine:
    """Stability from the 16 bias influences, against independent routes."""

    @pytest.mark.parametrize("n", [14, 25, 30, 42, 44])
    def test_sets_match_the_mpmath_oracle(self, n):
        # the grid where the float utility-difference engine certified
        # spurious profiles
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for q in (0.1, 0.3, 0.5, 0.7, 0.9):
                got = labels(enumerate_pbe(config(n=n, p=p, q=q)))
                assert got == closed_form_equilibrium_set(n, p, q), (n, p, q)

    @pytest.mark.parametrize("n", [*range(1, 45), 100, 1030, 4096])
    def test_one_pass_matches_the_per_profile_route(self, n, monkeypatch):
        # the comparisons floats cannot order are answered by a stand-in that
        # records them, so the two tables are compared decision by decision;
        # the engine computes one row per relabelling orbit and copies it to
        # the partner, so each row is held to its carrier's reference value
        asked = []
        monkeypatch.setattr(_exact, "exceeds",
                            lambda *args: asked.append(args[2]) or len(asked) % 2 == 1)
        orbit = equilibrium._ORBIT
        for p in (0.05, 0.3, 0.5, 0.7, 0.7 - 0.2, 0.5 + 2.0**-52, 0.5 - 2.0**-52):
            for q in (0.1, 0.3, 0.5, 0.7, 0.9):
                game, reference = equilibrium._LogGame(n, p, q), ReferenceGame(n, p, q)
                (signs, logs), (want_signs, want_logs) = game.influences, reference.influences
                assert np.array_equal(signs, signs[orbit]), (p, q)
                assert np.array_equal(logs, logs[orbit]), (p, q)
                assert np.array_equal(signs, want_signs), (p, q)
                want_logs = want_logs[orbit]
                finite = np.isfinite(want_logs)
                assert np.array_equal(logs[~finite], want_logs[~finite]), (p, q)
                assert np.all(np.abs(logs[finite] - want_logs[finite])
                              <= 4 * np.spacing(np.abs(want_logs[finite]))), (p, q)
                asked.clear()
                got, first = game.raised(), list(asked)
                asked.clear()
                assert np.array_equal(got, reference.raised()) and asked == first, (p, q)

    def test_influences_floats_cannot_order_are_ordered_exactly(self, monkeypatch):
        # just off p = 1/2 the two parts of SC5's influence cancel to 1e-14
        # of their size, yet the oracle keeps SC4; 0.7 - 0.2 is the prior
        # 1/2 - 2^-54 that float arithmetic makes of a 1/2 (as do 1 - 0.3 - 0.2
        # and a linspace step), where the oracle drops SC2 and SC4 at N = 30
        calls = []
        exact = _exact.exceeds
        monkeypatch.setattr(_exact, "exceeds",
                            lambda *args: calls.append(args) or exact(*args))
        for p in (0.5 + 2.0**-45, 0.7 - 0.2):
            calls.clear()
            equilibrium._stable_profiles.cache_clear()
            for n in (3, 30):
                for q in (0.1, 0.3):
                    got = labels(enumerate_pbe(config(n=n, p=p, q=q)))
                    assert got == closed_form_equilibrium_set(n, p, q), (p, n, q)
                    if p > 0.5:
                        assert "SC4" in got
            assert calls, p

    @staticmethod
    def _inexact_tie(*args):
        # two influences that tie and round at every precision, so no
        # comparison of two profiles ever clears its rounding bound
        third = decimal.Decimal(1) / 3
        return third, third

    def test_an_undecidable_comparison_raises(self, monkeypatch):
        monkeypatch.setattr(_exact, "influence", self._inexact_tie)
        equilibrium._stable_profiles.cache_clear()
        with pytest.raises(UndecidedEquilibrium, match=r"SC\d+ or SC\d+"):
            enumerate_pbe(config(n=30, p=0.5 + 2.0**-45, q=0.1))
        equilibrium._stable_profiles.cache_clear()

    def test_an_undecidable_comparison_raises_in_is_pbe(self, monkeypatch):
        # only the profile's own row is decided: SC4's has one comparison that
        # floats cannot order, SC1's has none
        monkeypatch.setattr(_exact, "influence", self._inexact_tie)
        with pytest.raises(UndecidedEquilibrium, match=r"SC5 or SC4"):
            is_pbe(SC4, config(n=30, p=0.5 + 2.0**-45, q=0.1))
        assert isinstance(is_pbe(SC1, config(n=30, p=0.5 + 2.0**-45, q=0.1)), PbeCertificate)

    def test_the_precision_doubles_up_to_the_cap(self, monkeypatch):
        # a profile against itself never clears the rounding bound, so every
        # doubling up to MAX_DIGITS runs, each with one influence per side
        precisions = []
        influence = _exact.influence
        monkeypatch.setattr(_exact, "influence", lambda *args: precisions.append(
            decimal.getcontext().prec) or influence(*args))
        with pytest.raises(UndecidedEquilibrium, match="SC1 or SC1"):
            _exact.exceeds(SC1, SC1, ("SC1", "SC1"), 3, 0.3, 0.1, 1e-10)
        assert len(precisions) == 10
        first = precisions[0]
        assert precisions == [first * 2**(i // 2) for i in range(10)]
        assert first * 2**4 <= _exact.MAX_DIGITS < first * 2**5

    @pytest.mark.parametrize("n", range(1, 8))
    def test_shares_of_1e_300_are_decided(self, n):
        # the precision started at the ~1,051 decimal places of 1e-300, past
        # the 1,000-digit cap, so UndecidedEquilibrium was raised without a
        # comparison; the oracle needs as many digits to hold the shares
        equilibrium._stable_profiles.cache_clear()
        for p, q in ((1e-300, 1e-300), (0.3, 1e-300), (1e-300, 0.3)):
            got = labels(enumerate_pbe(config(n=n, p=p, q=q)))
            assert got == closed_form_equilibrium_set(n, p, q, dps=1300), (n, p, q)

    def test_a_share_of_1e_300_is_decided_at_64_reviewers(self):
        # a 1,300-digit oracle reads a tie here, as the SC2 -> SC6 gain is
        # about 1e-9583; at 20,000 digits it gives this set
        equilibrium._stable_profiles.cache_clear()
        assert labels(enumerate_pbe(config(n=64, p=0.3, q=1e-300))) == {"SC1", "SC3"}

    @pytest.mark.parametrize("p", [0.25, 0.75])
    @pytest.mark.parametrize("q", [0.25, 0.75])
    def test_an_exact_tie_is_decided_as_not_raised(self, p, q):
        # two influences are exactly equal here, so no precision ever cleared
        # the rounding bound and enumerate_pbe raised UndecidedEquilibrium
        equilibrium._stable_profiles.cache_clear()
        assert labels(enumerate_pbe(config(p=p, q=q))) == {"SC1", "SC2", "SC3", "SC4"}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_games_match_the_mpmath_oracle_on_a_fine_grid(self, n):
        shares = [i / 20 for i in range(1, 20)]   # holds 1/4 and 3/4 exactly
        for p in shares:
            for q in shares:
                got = labels(enumerate_pbe(config(n=n, p=p, q=q)))
                assert got == closed_form_equilibrium_set(n, p, q), (n, p, q)

    def test_is_pbe_decides_only_its_own_row_exactly(self, monkeypatch):
        # the whole table needs 16 exact comparisons here, a row at most six
        g = config(n=30, p=0.5 + 2.0**-45, q=0.1)
        table = equilibrium._LogGame(g.n_users, g.p_high, g.q_plus).raised()
        calls, total = [], 0
        exact = _exact.exceeds
        monkeypatch.setattr(_exact, "exceeds",
                            lambda *args: calls.append(args[2]) or exact(*args))
        for i, profile in enumerate(ALL_PROFILES):
            calls.clear()
            result = is_pbe(profile, g)
            assert len(calls) <= 6 and all(b == PROFILE_LABELS[profile] for _, b in calls)
            total += len(calls)
            gains = deviation_gains(profile, g)
            if table[i].any():
                bias, alt = equilibrium._alternatives(profile)[np.flatnonzero(table[i])[0]]
                assert result == DeviationWitness(profile, bias, alt, gains[bias, alt])
            else:
                assert result == PbeCertificate(profile, best_response_rule(profile, g), 6,
                                                max(gains.values()))
        assert total == 16   # the comparisons the whole table needs, each made once

    def test_large_counts_do_not_overflow(self):
        g = config(n=1030, p=0.3, q=0.5)
        assert labels(enumerate_pbe(g)) == {"SC1", "SC2", "SC3", "SC4"}
        assert math.isfinite(bayesian_system_loss(g))

    def test_memory_of_a_large_count_solve_stays_bounded(self):
        # 10.7 MiB, mostly the game's cached count-long arrays: the orbits
        # are passed over in row groups of bounded size, one at a time here;
        # all five active orbits in one pass peak at 19 MiB
        g = config(n=10**5, p=0.3, q=0.3)
        equilibrium._stable_profiles.cache_clear()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            enumerate_pbe(g), bayesian_system_loss(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
            equilibrium._stable_profiles.cache_clear()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("n", [1030, 4096])
    def test_gains_are_the_utility_changes_past_the_float_binomial(self, n):
        # C(N, k) exceeds the double range from N = 1030; the rules and
        # utilities read the log-space count kernel, as the influences do
        g = config(n=n, p=0.3, q=0.5)

        def utility(prof, bias):
            return expected_user_utility(prof, best_response_rule(prof, g), bias, g)

        for profile in (SC1, SC2, SC5, SC7):
            for (bias, alt), gain in deviation_gains(profile, g).items():
                direct = utility(profile.with_strategy(bias, alt), bias) - utility(profile, bias)
                assert gain == pytest.approx(direct, rel=0.0, abs=1e-12), (profile, bias, alt)

    @pytest.mark.parametrize("n", [1030, 4096])
    def test_majority_and_certificate_past_the_float_binomial(self, n):
        g = config(n=n, p=0.3, q=0.5)
        assert majority_vote_loss_biased(g) == pytest.approx(
            majority_vote_loss(g), rel=1e-10, abs=0.0)
        assert isinstance(is_pbe(SC1, g), PbeCertificate)

    @PROPERTY
    @given(n=st.integers(1, 10**4), p=st.floats(0.01, 0.99))
    def test_equal_shares_give_the_four_profile_table(self, n, p):
        assert labels(enumerate_pbe(config(n=n, p=p))) == {"SC1", "SC2", "SC3", "SC4"}

    def test_the_orbits_pair_each_profile_with_its_relabelling(self):
        assert {frozenset((PROFILE_LABELS[a], PROFILE_LABELS[relabelled(a)]))
                for a in ALL_PROFILES} == {frozenset(pair) for pair in MIRRORS}
        assert [ALL_PROFILES[i] for i in equilibrium._ORBIT] == [
            min(a, relabelled(a), key=ALL_PROFILES.index) for a in ALL_PROFILES]

    @PROPERTY
    @given(n=st.integers(1, 2000), p=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99))
    def test_relabelling_the_messages_keeps_the_influence(self, n, p, q):
        # the engine computes one row per orbit and copies it to the partner,
        # so the symmetry is checked on the per-profile route, which computes
        # each profile on its own; the posterior variance is one row's sum
        game = ReferenceGame(n, p, q)
        for a, b in MIRRORS:
            parts_a = reference_parts(game, PROFILES_BY_LABEL[a])
            parts_b = reference_parts(game, PROFILES_BY_LABEL[b])
            assert [part[:2] for part in parts_a] == [part[:2] for part in parts_b], (a, b)
            for (*_, log_a), (*_, log_b) in zip(parts_a, parts_b):
                assert log_a == pytest.approx(log_b, rel=0.0, abs=1e-9), (a, b)
            rows = [ALL_PROFILES.index(PROFILES_BY_LABEL[label]) for label in (a, b)]
            assert game.log_posterior_variance(rows[:1]) == pytest.approx(
                game.log_posterior_variance(rows[1:]), rel=1e-12, abs=0.0), (a, b)

    def test_the_stable_set_is_closed_under_relabelling(self, monkeypatch):
        for n in (1, 2, 3, 30, 200):
            for p in (0.1, 0.3, 0.5, 0.5 + 2.0**-45, 0.5 - 2.0**-53, 0.7):
                for q in (0.1, 0.3, 0.5, 0.5 + 2.0**-45, 0.5 - 2.0**-53, 0.7):
                    got = set(enumerate_pbe(config(n=n, p=p, q=q)))
                    assert {relabelled(a) for a in got} == got, (n, p, q)
        # one exact comparison per orbit pair, where both partners' rows made 16
        calls = []
        exact = _exact.exceeds
        monkeypatch.setattr(_exact, "exceeds",
                            lambda *args: calls.append(args[2]) or exact(*args))
        equilibrium._stable_profiles.cache_clear()
        enumerate_pbe(config(n=30, p=0.5 + 2.0**-45, q=0.1))
        assert len(calls) == 8

    @PROPERTY
    @given(n=st.integers(1, 2000), p=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99))
    def test_swapping_types_and_biases_maps_sc1_to_sc2(self, n, p, q):
        sign_one, log_one = influence(equilibrium._LogGame(n, p, q), SC1)
        sign_two, log_two = influence(equilibrium._LogGame(n, 1.0 - p, 1.0 - q), SC2)
        assert sign_one == sign_two
        assert log_one == pytest.approx(log_two, rel=0.0, abs=1e-9)

    @PROPERTY
    @given(n=st.integers(1, 6), p=st.floats(0.05, 0.95), q=st.floats(0.05, 0.95),
           mu_l=st.floats(-3.0, 0.0), gap=st.floats(0.1, 3.0),
           index=st.integers(0, 15))
    def test_gains_are_the_influence_changes(self, n, p, q, mu_l, gap, index):
        # gap (1 - q) dD for the positive class and gap q dD for the negative
        # one equal the differences of the rules' expected utilities
        g = config(n=n, p=p, q=q, mu_l=mu_l, mu_h=mu_l + gap)
        profile = ALL_PROFILES[index]

        def utility(prof, bias):
            return expected_user_utility(prof, best_response_rule(prof, g), bias, g)

        for (bias, alt), gain in deviation_gains(profile, g).items():
            direct = utility(profile.with_strategy(bias, alt), bias) - utility(profile, bias)
            assert gain == pytest.approx(direct, rel=0.0, abs=1e-12)

    def test_importing_and_solving_loads_no_exact_arithmetic(self):
        script = (
            "import sys\n"
            "import cheaptalk_lab.cli\n"
            "import cheaptalk_lab as lab\n"
            "g = lab.GameConfig(40, 0.3, 0.7, lab.normal_pair(-1.0, 1.0, 1.0, 1.5))\n"
            "lab.enumerate_pbe(g), lab.bayesian_system_loss(g)\n"
            "lab.alpha_beta(g.pair), lab.evolving_loss(lab.GameConfig(1, 0.3, 0.5, g.pair), 4)\n"
            "assert 'decimal' not in sys.modules, 'decimal was imported'\n"
            "assert 'fractions' not in sys.modules, 'fractions was imported'\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestThresholds:
    def test_limit_and_point_values(self):
        assert p1_high(0.0) == pytest.approx(1.5 - math.sqrt(5) / 2, rel=1e-12, abs=0.0)
        assert p1_high(0.1) == pytest.approx(1.45 - math.sqrt(4.86) / 2, rel=1e-12, abs=0.0)
        assert p1_low(0.9) == pytest.approx(math.sqrt(4.86) / 2 - 0.45, rel=1e-12, abs=0.0)

    def test_symmetry(self):
        for q in np.linspace(0.5 + 1e-6, 1.0 - 1e-9, 40):
            assert p1_low(q) == pytest.approx(1.0 - p1_high(1.0 - q), abs=1e-12)

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            p1_high(0.5)
        with pytest.raises(OutOfRegime):
            p1_low(0.5)
        with pytest.raises(OutOfRegime):
            p1_low(0.3)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_record_needs_a_share_inside_the_unit_interval(self, q):
        with pytest.raises(ValueError):
            bias_thresholds(q)

    def test_threshold_record(self):
        t = bias_thresholds(0.1)
        assert t.p1_low is None
        assert 0.0 <= t.p1_high < 1.0
        t = bias_thresholds(0.9)
        assert t.p1_high is None
        assert t.p1_low == pytest.approx(0.6522703842524302, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("q", [GOLDEN_LOW + 1e-9, 0.4, 0.5 - 1e-6, 0.5, 0.6,
                                   1.0 - GOLDEN_LOW - 1e-9])
    def test_no_threshold_between_the_golden_shares(self, q):
        # p1_high(0.4) = -0.0748 and p1_high(0.5 - 1e-6) = -352 were offered as
        # thresholds; no prior in (0, 1) reaches either
        assert bias_thresholds(q) == BiasThresholds(p1_high=None, p1_low=None)

    def test_thresholds_are_priors_up_to_the_golden_shares(self):
        for q in np.linspace(1e-9, GOLDEN_LOW, 30):
            t = bias_thresholds(q)
            assert t.p1_low is None and 0.0 <= t.p1_high < 1.0
            t = bias_thresholds(1.0 - q)
            assert t.p1_high is None and 0.0 < t.p1_low <= 1.0

    def test_in_unit_interval_in_the_small_share_regime(self):
        for q in np.linspace(0.0, GOLDEN_LOW - 1e-9, 30):
            assert 0.0 <= p1_high(q) < 1.0


class TestSystemLoss:
    def test_symmetric_closed_form_values(self):
        assert symmetric_bias_loss(1, 0.3, 2.0) == pytest.approx(
            0.84 / 1.3, rel=1e-12, abs=0.0)
        assert symmetric_bias_loss(2, 0.3, 2.0) == pytest.approx(
            0.84 / 1.9, rel=1e-12, abs=0.0)
        assert symmetric_bias_loss(1, 0.3, 0.0) == 0.0

    @pytest.mark.parametrize("n", [-3, 0, True, 2.5], ids=repr)
    def test_symmetric_closed_form_needs_a_reviewer_count(self, n):
        # -3 gave 2.17 and 0 gave 0.84, the abandoning loss; True gave N = 1's 0.646
        with pytest.raises(ValueError, match="n_users must be >= 1"):
            symmetric_bias_loss(n, 0.3, 2.0)

    def test_generic_enumeration_matches_the_closed_form(self):
        for n in (1, 2, 3, 13, 26, 39):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                g = config(n=n, p=p, var_h=1.5)
                # abs=0: from N=26 the loss is below approx's default 1e-12
                assert bayesian_system_loss(g) == pytest.approx(
                    symmetric_bias_loss(n, p, 2.0), rel=1e-12, abs=0.0), (n, p)

    def test_log_space_loss_matches_the_closed_form_at_large_counts(self):
        for n in (44, 64, 256, 1024, 4096):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                g = config(n=n, p=p, var_h=1.5)
                assert bayesian_system_loss(g) == pytest.approx(
                    symmetric_bias_loss(n, p, 2.0), rel=1e-9, abs=0.0), (n, p)

    def test_no_spurious_equilibrium_inflates_the_loss(self):
        # the 1e-12 gain tolerance once certified all 16 profiles here: 0.84
        loss = bayesian_system_loss(GameConfig(42, 0.3, 0.5, normal_pair(-1, 1, 1, 1.5)))
        assert loss == pytest.approx(symmetric_bias_loss(42, 0.3, 2.0), rel=1e-9, abs=0.0)
        assert loss == pytest.approx(6.37e-13, rel=1e-3, abs=0.0)

    def test_one_user_loss_matches_enumeration_off_the_thresholds(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            q = rng.uniform(0.02, 0.98)
            p = rng.uniform(0.02, 0.98)
            # regime boundaries are tested separately; stay away from them
            if q < 0.5 and abs(p - p1_high(q)) < 1e-3:
                continue
            if q > 0.5 and abs(p - p1_low(q)) < 1e-3:
                continue
            g = config(p=p, q=q)
            assert bayesian_system_loss(g) == pytest.approx(
                one_user_loss(p, q, 2.0), rel=1e-10, abs=0.0)

    def test_one_user_loss_reduces_to_the_symmetric_form(self):
        for p in (0.1, 0.4, 0.8):
            assert one_user_loss(p, 0.5, 2.0) == pytest.approx(
                symmetric_bias_loss(1, p, 2.0), rel=1e-12, abs=0.0)

    def test_strictly_decreasing_in_the_reviewer_count(self):
        losses = [symmetric_bias_loss(n, 0.3, 2.0) for n in range(1, 11)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_closed_forms_stay_finite_where_two_to_the_n_overflows(self):
        for n in (1024, 5000):
            for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                loss = symmetric_bias_loss(n, p, 2.0)
                assert math.isfinite(loss) and loss >= 0.0
            loss = three_type_loss(n, 2.0)
            assert math.isfinite(loss) and loss >= 0.0

    def test_dominated_by_both_benchmarks(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            p = rng.uniform(0.05, 0.95)
            q = rng.uniform(0.05, 0.95)
            g = config(n=n, p=p, q=q)
            bayes = bayesian_system_loss(g)
            abandon = abandon_scheme(g)[1]
            majority = majority_vote_loss(g)
            assert bayes < abandon < majority

    @PROPERTY
    @given(n=st.integers(1, 2000), p=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99))
    def test_dominated_by_the_biased_majority_and_abandoning_at_any_count(self, n, p, q):
        g = config(n=n, p=p, q=q)
        assert bayesian_system_loss(g) <= min(majority_vote_loss_biased(g),
                                              abandon_scheme(g)[1])

    @settings(PROPERTY, max_examples=200)
    @given(n=st.integers(1, 299), p=st.floats(0.01, 0.99))
    def test_equal_shares_loss_does_not_rise_with_the_count(self, n, p):
        # only at q = 1/2: otherwise it can rise, e.g. p = q = 0.01 gives
        # 0.0199 at N = 1 and 0.0388 at N = 2
        assert bayesian_system_loss(config(n=n + 1, p=p)) <= \
            bayesian_system_loss(config(n=n, p=p))

    def test_zero_gap_means_zero_loss(self):
        g = GameConfig(2, 0.3, 0.5, normal_pair(1.0, 1.0))
        assert bayesian_system_loss(g) == pytest.approx(0.0, abs=1e-14)

    def test_a_gap_whose_square_overflows(self):
        # gap**2 raised a bare OverflowError past a gap of about 1.34e154; the
        # loss is finite wherever the true loss is, and inf beyond
        pair = DistributionPair(StateDistribution(Family.LAPLACE, -1e306, 1e307),
                                StateDistribution(Family.LAPLACE, 1e306, 1.2e307))
        assert bayesian_system_loss(GameConfig(1, 0.3, 0.5, pair)) == math.inf
        assert symmetric_bias_loss(3, 0.3, 1.4e154) == pytest.approx(
            symmetric_bias_loss(3, 0.3, 1.4) * 1e154 * 1e154, rel=1e-12, abs=0.0)
        assert one_user_loss(0.3, 0.1, 1.4e154) == pytest.approx(
            one_user_loss(0.3, 0.1, 1.4) * 1e154 * 1e154, rel=1e-12, abs=0.0)


class TestLossReduction:
    def test_coefficient(self):
        assert MAX_LOSS_REDUCTION_ONE_USER == pytest.approx(math.sqrt(5) - 2, rel=1e-12, abs=0.0)

    def test_grid_search_approaches_the_coefficient(self):
        gap = 2.0
        best = 0.0
        for q in [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5 - 1e-6]:
            grid = list(np.linspace(0.01, 0.99, 197))
            if 0.0 < p1_high(q) < 1.0:   # a prior only below GOLDEN_LOW: p1_high(0.4) < 0
                grid.append(p1_high(q))
            for p in grid:
                reduction = p * (1 - p) * gap**2 - one_user_loss(p, q, gap)
                best = max(best, reduction)
        assert best <= 4 * (math.sqrt(5) - 2) + 1e-9
        assert best == pytest.approx(4 * (math.sqrt(5) - 2), abs=1e-3)

    def test_attained_at_the_threshold_in_the_vanishing_share_limit(self):
        gap = 2.0
        q = 1e-4
        p = p1_high(q)
        reduction = p * (1 - p) * gap**2 - one_user_loss(p, q, gap)
        assert reduction == pytest.approx(4 * (math.sqrt(5) - 2), abs=1e-3)

    def test_zero_gap_gives_zero_reduction(self):
        assert one_user_loss(0.3, 0.2, 0.0) == 0.0

    @pytest.mark.parametrize("share", [0.0, 1.0, -0.0748, 1.5, math.nan], ids=repr)
    def test_closed_form_losses_refuse_shares_outside_the_unit_interval(self, share):
        # p1_high(0.4) = -0.0748 gave a negative loss, -0.187; p = 1.5 gave a
        # symmetric-bias loss of 1.2
        for name, args in (("p_high", (share, 0.4)), ("q_plus", (0.3, share))):
            message = rf"^{name} must lie in \(0, 1\)$"
            with pytest.raises(ValueError, match=message):
                one_user_loss(*args, 2.0)
            with pytest.raises(ValueError, match=message):
                GameConfig(1, *args, normal_pair(-1.0, 1.0))
        with pytest.raises(ValueError, match=r"^p_high must lie in \(0, 1\)$"):
            symmetric_bias_loss(3, share, 2.0)

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("loss,name", [
        (lambda gap: one_user_loss(0.3, 0.2, gap), "mean_gap"),
        (lambda gap: symmetric_bias_loss(3, 0.3, gap), "mean_gap"),
        (lambda gap: three_type_loss(3, gap), "delta"),
    ], ids=["one_user_loss", "symmetric_bias_loss", "three_type_loss"])
    def test_closed_form_losses_refuse_a_gap_that_is_not_finite(self, loss, name, gap):
        # nan returned nan and an infinite gap inf
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {gap!r}$"):
            loss(gap)


class TestSequentialCheck:
    def test_matches_closed_forms(self):
        report = sequential_two_user_check(config(n=2))
        expected = sequential_utilities(0.3, 1.0, -1.0)
        for name, want in expected.items():
            assert report.deviations[name].utility == pytest.approx(
                want, rel=1e-12, abs=1e-14)
        assert report.baseline_utility == pytest.approx(-0.2645161290322581,
                                                        rel=1e-9, abs=0.0)
        assert report.deviations["plan1"].gain == pytest.approx(-0.1354838709677,
                                                                rel=1e-9, abs=0.0)

    def test_no_plan_gains_across_the_prior_sweep(self):
        for p in [x / 10 for x in range(1, 10)]:
            report = sequential_two_user_check(config(n=2, p=p))
            assert report.max_gain <= 1e-12
            assert report.deviations["plan4"].gain == pytest.approx(0.0, abs=1e-12)

    def test_requires_two_reviewers_with_equal_shares(self):
        with pytest.raises(ValueError):
            sequential_two_user_check(config(n=1))
        with pytest.raises(ValueError):
            sequential_two_user_check(config(n=2, q=0.4))


class TestThreeTypeLoss:
    def test_values(self):
        assert three_type_loss(2, 2.0) == pytest.approx(0.2916666666666667,
                                                        rel=1e-12, abs=0.0)
        assert three_type_loss(3, 2.0) == pytest.approx(0.17083333333333334,
                                                        rel=1e-12, abs=0.0)
        assert three_type_loss(4, 0.0) == 0.0

    def test_matches_the_rating_rule_derivation(self):
        for n in range(2, 9):
            for delta in (1.0, 2.0, 5.0):
                assert three_type_loss(n, delta) == pytest.approx(
                    three_type_loss_direct(n, delta), rel=1e-12, abs=0.0)

    def test_strictly_decreasing_and_vanishing(self):
        losses = [three_type_loss(n, 2.0) for n in range(2, 16)]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert three_type_loss(40, 2.0) < 1e-11

    def test_rejects_single_reviewer(self):
        with pytest.raises(ValueError):
            three_type_loss(1, 2.0)

    def test_a_numpy_count_gives_the_int_result(self):
        assert three_type_loss(np.int64(3), 2.0) == three_type_loss(3, 2.0)

    @pytest.mark.parametrize("n", [3.0, 2.5, True], ids=repr)
    def test_rejects_a_count_that_is_not_a_whole_number(self, n):
        # 3.0 and 2.5 raised a TypeError from ldexp
        with pytest.raises(ValueError, match="n_users must be >= 1 and an integer"):
            three_type_loss(n, 2.0)

    def test_rejects_a_negative_gap(self):
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            three_type_loss(3, -2.0)
