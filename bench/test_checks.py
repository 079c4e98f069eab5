"""Each output check of the benchmark counts a wrong answer as failed.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py

Every test feeds a checker the program's real output, which must pass, and
then a copy with one defect (a spurious profile, a value moved in its sixth
digit, a report that differs between worker counts), which must not.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def nudge(value: float, digit: int = 6) -> float:
    """The value moved by one unit in its ``digit``-th significant digit."""
    return value * (1.0 + 10.0 ** (1 - digit))


def outputs(ops, state):
    """Run each operation once; returns {kind: output} with checks applied."""
    out = {}
    for op in ops:
        out[op.kind] = op.prepare(state)()
        assert op.check(out[op.kind], state) == [], op.kind
    return out


@pytest.fixture(scope="module")
def state():
    return run.fresh_package()


# ---------------------------------------------------------------------------
# large_population


def test_solve_check_rejects_spurious_profile_and_nudged_losses(state):
    op = workloads._solve_op("p0.3-q0.5-N8", 0.3, 0.5, 8, 1.5, 1.4)
    stable, loss, majority = outputs([op], state)[op.kind]
    assert op.check((stable + ("SC8",), loss, majority), state)
    assert op.check((stable[1:], loss, majority), state)
    assert op.check((stable, nudge(loss), majority), state)
    assert op.check((stable, loss, nudge(majority)), state)


def test_small_equal_share_loss_is_compared_in_units_of_the_costs(state):
    # at N=40 the loss is ~1e-12 and carries the rounding of two O(1) costs
    op = workloads._solve_op("p0.3-q0.5-N40", 0.3, 0.5, 40, 1.0, 1.5)
    stable, loss, majority = outputs([op], state)[op.kind]
    assert op.check((stable, loss + 1e-12, majority), state)


def test_failed_calls_are_counted_and_left_out_of_the_timings():
    good = workloads.Op("good", lambda state: lambda: 1, lambda out, state: [])
    wrong = workloads.Op("wrong", lambda state: lambda: 2,
                         lambda out, state: ["wrong answer"])

    def raising(state):
        def call():
            raise ValueError("out of range")
        return call

    raises = workloads.Op("raises", raising, lambda out, state: [])
    tally = run.Tally()
    run.run_round([good, wrong, raises], lambda: None, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert set(tally.seconds) == set(tally.refs) == {"good"}
    assert [kind for kind, _ in tally.problems] == ["wrong", "raises"]


# ---------------------------------------------------------------------------
# paper_configs


@pytest.fixture(scope="module")
def paper_csv(state, tmp_path_factory):
    out = tmp_path_factory.mktemp("csv")
    ops = workloads.paper_configs(seed=5, root=BENCH.parent, out_dir=out)
    outputs(ops, state)
    return {path.stem: path.read_text() for path in out.glob("*.csv")}


def rewrite(text: str, row: int, col: int, fn) -> str:
    table = list(csv.reader(io.StringIO(text)))
    table[row][col] = fn(table[row][col])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def test_every_bundled_config_has_a_reference(paper_csv):
    configs = {p.stem for p in (BENCH.parent / "configs").glob("*.yaml")}
    assert set(paper_csv) == configs
    assert set(workloads.paper_tables()) | {"simulate_sc1"} == configs


@pytest.mark.parametrize("stem,row,col", [
    ("figure3", 5, 4),          # unequal-variance normal commitment loss
    ("figure4", 3, 3),          # Laplace commitment loss
    ("figure6", 8, 5),          # asymmetric-share Bayesian loss
    ("evolving_gap", 1, 4),     # equal-variance loss of 1.8e-45
    ("benchmark_counts", 4, 1),  # majority loss
])
def test_table_check_rejects_a_sixth_digit_change(paper_csv, stem, row, col):
    header, rows = workloads.paper_tables()[stem]
    text = paper_csv[stem]
    assert workloads.check_table(text, header, rows) == []
    wrong = rewrite(text, row, col, lambda x: f"{nudge(float(x)):.9g}")
    assert workloads.check_table(wrong, header, rows)


def test_table_check_rejects_a_spurious_profile(paper_csv):
    header, rows = workloads.paper_tables()["pbe_one_reviewer"]
    wrong = rewrite(paper_csv["pbe_one_reviewer"], 1, 1, lambda x: x + "+SC8")
    assert workloads.check_table(wrong, header, rows)


def test_commitment_columns_must_not_rise_with_the_horizon(paper_csv):
    text = paper_csv["figure4"]
    assert workloads.check_commitment_columns(text, ["laplace_loss"], 0.84) == []
    wrong = rewrite(text, 9, 3, lambda x: "0.5")
    assert workloads.check_commitment_columns(wrong, ["laplace_loss"], 0.84)


def test_simulation_table_rejects_an_estimate_off_by_ten_stderr(paper_csv):
    expected = ref.sc1_moments(0.3, 0.5, 2, -1.0, 1.0, 1.0, 1.0)
    text = paper_csv["simulate_sc1"]
    assert workloads.check_simulation_table(text, expected) == []
    table = list(csv.reader(io.StringIO(text)))
    shift = 10 * float(table[1][2])
    wrong = rewrite(text, 1, 1, lambda x: f"{float(x) + shift:.9g}")
    assert workloads.check_simulation_table(wrong, expected)


# ---------------------------------------------------------------------------
# game_sampling and commitment_sampling


@pytest.fixture(scope="module")
def simulated(state):
    ops = workloads.game_sampling(seed=7) + workloads.commitment_sampling(seed=7)
    return ops, outputs(ops, state)


def test_game_check_rejects_worker_dependent_reports(state, simulated):
    ops, out = simulated
    w2 = next(op for op in ops if op.kind == "game-N2-w2")
    report = out["game-N2-w2"]
    other = dataclasses.replace(report, mean_cost=nudge(report.mean_cost, 12))
    assert w2.check(other, state)


def test_game_check_rejects_an_estimate_off_by_ten_stderr(state, simulated):
    ops, out = simulated
    w1 = next(op for op in ops if op.kind == "game-N64-w1")
    report = out["game-N64-w1"]
    shifted = report.mean_utility_positive + 10 * report.stderr_utility_positive
    assert w1.check(dataclasses.replace(report, mean_utility_positive=shifted), state)


def test_schedule_check_rejects_nudged_multipliers(state, simulated):
    ops, out = simulated
    op = next(op for op in ops if op.kind == "schedule-logistic")
    schedule = out["schedule-logistic"]
    wrong = dataclasses.replace(schedule, lambda_high=nudge(schedule.lambda_high))
    assert op.check(wrong, state)


def test_ic_check_rejects_a_violated_constraint(state, simulated):
    ops, out = simulated
    op = next(op for op in ops if op.kind == "ic-laplace")
    ic = out["ic-laplace"]
    r = ic.positive_low
    wrong = dataclasses.replace(
        ic, positive_low=dataclasses.replace(r, value=r.value + 10 * r.stderr))
    assert op.check(wrong, state)


# ---------------------------------------------------------------------------
# the references agree with each other


@pytest.mark.parametrize("p,q", [(0.2, 0.1), (0.5, 0.1), (0.3, 0.3),
                                 (0.3, 0.7), (0.8, 0.9)])
def test_one_reviewer_closed_form_matches_the_equilibrium_table(p, q):
    worst = max(ref.profile_loss(x, p, q, 1) for x in ref.equilibrium_set(p, q, 1))
    assert worst == pytest.approx(ref.one_user_loss(p, q), rel=1e-12)


@pytest.mark.parametrize("n", [2, 7, 40, 44])
def test_equal_share_closed_form_matches_the_equilibrium_table(n):
    assert ref.equilibrium_set(0.3, 0.5, n) == ("SC1", "SC2", "SC3", "SC4")
    worst = max(ref.profile_loss(x, 0.3, 0.5, n)
                for x in ref.equilibrium_set(0.3, 0.5, n))
    assert worst == pytest.approx(ref.symmetric_bias_loss(0.3, n), rel=1e-12)


@pytest.mark.parametrize("q,n", [(0.5, 8), (0.7, 9), (0.1, 12)])
def test_majority_brute_force_matches_the_binomial_sum(q, n):
    assert ref.majority_brute_force(0.3, q, n) == pytest.approx(
        ref.majority_binomial_sum(0.3, q, n), rel=1e-12)


def test_equal_variance_closed_form_matches_the_linear_solve():
    alpha, beta = ref.normal_alpha_beta(-1.0, 1.0, 1.0, 1.0)
    for horizon in (2, 5, 9):
        assert ref.commitment_loss(0.3, 2.0, alpha, beta, horizon) == pytest.approx(
            ref.equal_variance_loss(0.3, 2.0, 1.0, horizon), rel=1e-9)
