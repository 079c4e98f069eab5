"""The benchmark's four workloads: inputs, operations and output checks.

A workload is a fixed list of operations, built once from the seed.  One
round runs every operation once, in order, on a freshly imported package.
Each operation has two parts: ``prepare`` builds the program's inputs from
the fresh modules (untimed) and returns the timed call; ``check`` compares
the call's output with an independent reference from ``reference`` and
returns the problems found, none when the output is right.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

import reference as ref

# CSV floats carry nine significant digits: rounding moves them by <= 5e-9.
CSV_RTOL = 1e-8
# Losses built on adaptive quadrature (program) against mpmath (reference).
QUAD_RTOL = 1e-7
# Absolute accuracy of a loss computed as the difference of two O(1) costs,
# in units of those costs (floor + gap^2).
CANCEL_ATOL = 1e-14
# Largest |z| accepted between a Monte Carlo estimate and its closed form.
Z_BOUND = 6.0


@dataclass
class Op:
    kind: str
    prepare: Callable[[dict], Callable[[], object]]
    check: Callable[[object, dict], list]
    workers: int = 1


def close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


def _problem(what, got, want):
    return [f"{what}: got {got!r}, want {want!r}"]


# ---------------------------------------------------------------------------
# paper_configs: every bundled config through the command line


class Num:
    """An expected CSV number with its tolerance."""

    def __init__(self, value, rtol=CSV_RTOL, atol=0.0):
        self.value, self.rtol, self.atol = float(value), rtol, atol

    def matches(self, text: str) -> bool:
        try:
            got = float(text)
        except ValueError:
            return False
        return close(got, self.value, self.rtol, self.atol)

    def __repr__(self):
        return f"{self.value!r}"


def _bayes(p, q, n, gap2, floor):
    """Expected Bayesian loss cell: relative, or absolute in the costs' units."""
    return Num(gap2 * ref.bayesian_loss(p, q, n),
               atol=CANCEL_ATOL * (floor + gap2))


def paper_tables() -> dict:
    """Expected (header, rows) of each bundled config's CSV.

    Cells are strings (exact) or ``Num``.  The game defaults are p_high 0.3,
    q_plus 0.5 and the normal pair (-1, 1) with unit variances.
    """
    p, gap2, floor = 0.3, 4.0, 1.0
    _, abandon = ref.abandon(p, -1.0, 1.0)
    abandon = Num(abandon)
    counts = range(1, 9)
    t = {}
    t["benchmark_counts"] = (
        ["n_users", "majority_loss", "abandon_action", "abandon_loss"],
        [[Num(n), Num(gap2 * ref.majority_loss(p, 0.5, n)),
          Num(ref.abandon(p, -1.0, 1.0)[0]), abandon] for n in counts])
    t["compare_counts"] = (
        ["n_users", "bayesian_loss", "evolving_loss_T2", "majority_loss",
         "abandon_loss", "crossover_threshold"],
        [[Num(n), _bayes(p, 0.5, n, gap2, floor),
          Num(ref.equal_variance_loss(p, 2.0, 1.0, 2)),
          Num(gap2 * ref.majority_loss(p, 0.5, n)), abandon,
          Num(ref.crossover_threshold(p, 2.0, 1.0, 2))] for n in counts])

    def gap_rows(horizons, with_abandon):
        rows = []
        for mu_low in [x / 2.0 for x in range(-10, 0)]:
            gap = 1.0 - mu_low
            row = [Num(mu_low)] + [Num(ref.equal_variance_loss(p, gap, 1.0, h))
                                   for h in horizons]
            if with_abandon:
                row.append(Num(ref.abandon(p, mu_low, 1.0)[1]))
            rows.append(row)
        return rows

    t["evolving_gap"] = (
        ["mu_low", "loss_T2", "loss_T3", "loss_T4", "loss_T6", "abandon_loss"],
        gap_rows((2, 3, 4, 6), True))
    t["figure2"] = (
        ["mu_low"] + [f"loss_T{h}" for h in range(2, 7)],
        gap_rows(range(2, 7), False))
    t["evolving_horizon"] = (
        ["horizon", "evolving_loss", "abandon_loss"],
        [[Num(h), Num(ref.equal_variance_loss(p, 2.0, 1.0, h)), abandon]
         for h in range(2, 13)])

    ab_small = ref.normal_alpha_beta(-1.0, 1.0, 1.0, 2.0 / 3.0)
    ab_large = ref.normal_alpha_beta(-1.0, 1.0, 1.0, 1.5)
    t["figure3"] = (
        ["horizon", "abandon_loss", "evolving_var_high_0.666667",
         "evolving_var_high_1", "evolving_var_high_1.5"],
        [[Num(h), abandon, Num(ref.commitment_loss(p, 2.0, *ab_small, h)),
          Num(ref.equal_variance_loss(p, 2.0, 1.0, h)),
          Num(ref.commitment_loss(p, 2.0, *ab_large, h))]
         for h in range(2, 11)])

    ab_logistic = ref.quadrature_alpha_beta("logistic", -1.0, 1.0, 1.0, 1.5)
    ab_laplace = ref.quadrature_alpha_beta("laplace", -1.0, 1.0, 1.0, 1.5)
    t["figure4"] = (
        ["horizon", "abandon_loss", "logistic_loss", "laplace_loss"],
        [[Num(h), abandon,
          Num(ref.commitment_loss(p, 2.0, *ab_logistic, h), QUAD_RTOL),
          Num(ref.commitment_loss(p, 2.0, *ab_laplace, h), QUAD_RTOL)]
         for h in range(2, 11)])

    floor_15 = p * 1.5 + (1 - p) * 1.0
    t["figure5"] = (
        ["count", "bayesian_loss_at_N", "evolving_loss_at_T"],
        [[Num(n), _bayes(p, 0.5, n, gap2, floor_15),
          Num(ref.commitment_loss(p, 2.0, *ab_large, n))] for n in counts])
    shares = (0.1, 0.5, 0.7)
    t["figure6"] = (
        ["n_users", "abandon_loss"] + [f"majority_q{q:g}" for q in shares]
        + [f"bayesian_q{q:g}" for q in shares],
        [[Num(n), abandon]
         + [Num(gap2 * ref.majority_loss(p, q, n)) for q in shares]
         + [_bayes(p, q, n, gap2, floor_15) for q in shares] for n in counts])
    t["loss_vs_count"] = (
        ["n_users", "bayesian_loss"],
        [[Num(n), _bayes(p, 0.5, n, gap2, floor)] for n in range(1, 11)])

    rows = []
    for p_high in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.34, 0.35, 0.4, 0.5,
                   0.6, 0.7, 0.8, 0.9):
        stable = ref.equilibrium_set(p_high, 0.1, 1)
        if stable != ref.one_user_set(p_high, 0.1):
            raise AssertionError(f"references disagree at p_high={p_high}")
        rows.append([Num(p_high), "+".join(stable),
                     Num(gap2 * ref.one_user_loss(p_high, 0.1),
                         atol=CANCEL_ATOL * (floor + gap2))])
    t["pbe_one_reviewer"] = (["p_high", "pbe_set", "system_loss"], rows)
    return t


def check_table(text: str, header, rows) -> list:
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != header:
        return _problem("header", table[0] if table else None, header)
    body = table[1:]
    if len(body) != len(rows):
        return _problem("row count", len(body), len(rows))
    problems = []
    for i, (got_row, want_row) in enumerate(zip(body, rows)):
        if len(got_row) != len(want_row):
            problems += _problem(f"row {i} width", len(got_row), len(want_row))
            continue
        for col, got, want in zip(header, got_row, want_row):
            ok = want.matches(got) if isinstance(want, Num) else got == want
            if not ok:
                problems += _problem(f"row {i} {col}", got, want)
    return problems


def check_commitment_columns(text: str, columns, abandon: float) -> list:
    """0 < loss <= abandoning loss, and no rise with the horizon."""
    table = list(csv.reader(io.StringIO(text)))
    problems = []
    for col in columns:
        idx = table[0].index(col)
        values = [float(row[idx]) for row in table[1:]]
        if not all(0.0 < v <= abandon for v in values):
            problems.append(f"{col}: outside (0, abandon loss]: {values}")
        if any(b > a for a, b in zip(values, values[1:])):
            problems.append(f"{col}: rises with the horizon: {values}")
    return problems


def check_simulation_table(text: str, expected: dict) -> list:
    """Reference column to CSV precision; estimates within Z_BOUND stderr."""
    table = list(csv.reader(io.StringIO(text)))
    header = ["quantity", "estimate", "stderr", "reference", "z_score"]
    if not table or table[0] != header:
        return _problem("header", table[0] if table else None, header)
    rows = {row[0]: row for row in table[1:]}
    if sorted(rows) != sorted(expected):
        return _problem("quantities", sorted(rows), sorted(expected))
    problems = []
    for name, want in expected.items():
        est, se, reported, z = (float(x) for x in rows[name][1:])
        if not close(reported, want, CSV_RTOL):
            problems += _problem(f"{name} reference", reported, want)
        if not (se > 0 and abs(est - want) <= Z_BOUND * se):
            problems += _problem(f"{name} |z|", (est - want) / se, Z_BOUND)
        if not close(z, (est - reported) / se, 1e-6, 1e-5):
            problems += _problem(f"{name} z_score", z, (est - reported) / se)
    return problems


def paper_configs(seed: int, root: Path, out_dir: Path) -> list[Op]:
    """One operation per bundled config, run through ``cli.main``.

    The seed only overrides the Monte Carlo seed of the simulate scenario;
    the configs themselves are the paper's and stay fixed.
    """
    tables = paper_tables()
    sim_seed = random.Random(seed).randrange(2**31)
    sim_expected = ref.sc1_moments(0.3, 0.5, 2, -1.0, 1.0, 1.0, 1.0)
    stems = sorted(tables) + ["simulate_sc1"]
    ops = []
    for stem in stems:
        config = root / "configs" / f"{stem}.yaml"
        scenario = yaml.safe_load(config.read_text())["scenario"]
        argv = [scenario, "--config", str(config), "--out", str(out_dir)]
        if scenario == "simulate":
            argv += ["--seed", str(sim_seed)]
        csv_path = out_dir / f"{stem}.csv"

        def prepare(state, argv=argv, csv_path=csv_path):
            main = state["cli"].main
            csv_path.unlink(missing_ok=True)   # no stale file can pass

            def call():
                printed = io.StringIO()
                with contextlib.redirect_stdout(printed):
                    code = main(list(argv))
                return code, printed.getvalue()
            return call

        def check(output, state, stem=stem, csv_path=csv_path):
            code, printed = output
            if code != 0:
                return _problem("exit code", code, 0)
            if printed.split() != [str(csv_path)]:
                return _problem("printed paths", printed.split(), [str(csv_path)])
            text = csv_path.read_text()
            if stem == "simulate_sc1":
                return check_simulation_table(text, sim_expected)
            problems = check_table(text, *tables[stem])
            if stem == "figure4":
                abandon = ref.abandon(0.3, -1.0, 1.0)[1]
                problems += check_commitment_columns(
                    text, ["logistic_loss", "laplace_loss"], abandon)
            return problems

        ops.append(Op(stem, prepare, check))
    return ops


# ---------------------------------------------------------------------------
# large_population: equilibrium solves over a spread of reviewer counts

# (p_high, q_plus) points where the program's equilibrium sets are right for
# every N up to 40.  Elsewhere the 1e-12 deviation tolerance certifies extra
# profiles from N = 14, and at q = 0.5 from N = 42 (see the README).
POPULATION_GRID = ((0.3, 0.1), (0.3, 0.3), (0.3, 0.5),
                   (0.7, 0.5), (0.7, 0.7), (0.7, 0.9))
POPULATION_COUNTS = (1, 3, 8, 21, 40)


def _solve_op(kind, p, q, n, mu, var_high):
    gap2 = (2.0 * mu) ** 2
    floor = p * var_high + (1 - p) * 1.0
    want_set = ref.equilibrium_set(p, q, n)
    want_loss = gap2 * ref.bayesian_loss(p, q, n)
    want_majority = gap2 * ref.majority_loss(p, q, n)

    def prepare(state):
        lab = state["lab"]
        config = lab.GameConfig(n, p, q, lab.normal_pair(-mu, mu, 1.0, var_high))
        labels = lab.PROFILE_LABELS

        def call():
            stable = tuple(labels[x] for x in lab.enumerate_pbe(config))
            return (stable, lab.bayesian_system_loss(config),
                    lab.majority_vote_loss_biased(config))
        return call

    def check(output, state):
        stable, loss, majority = output
        problems = []
        if stable != want_set:
            problems += _problem("equilibrium set", stable, want_set)
        if not close(loss, want_loss, 1e-9, CANCEL_ATOL * (floor + gap2)):
            problems += _problem("bayesian loss", loss, want_loss)
        if not close(majority, want_majority, 1e-12):
            problems += _problem("majority loss", majority, want_majority)
        return problems

    return Op(kind, prepare, check)


def large_population(seed: int) -> list[Op]:
    """One operation per (p, q, N): equilibrium set, Bayesian and majority loss.

    The seed draws each solve's normal pair: means -mu and mu with mu in
    [1, 2] and the high variance in [1.2, 1.8].  Equilibrium sets do not
    depend on them; losses scale with the squared gap.
    """
    rng = random.Random(seed)
    ops = []
    for p, q in POPULATION_GRID:
        for n in POPULATION_COUNTS:
            ops.append(_solve_op(f"p{p}-q{q}-N{n}", p, q, n,
                                 rng.uniform(1.0, 2.0), rng.uniform(1.2, 1.8)))
    return ops


# ---------------------------------------------------------------------------
# game_sampling and commitment_sampling: Monte Carlo of the one-shot game and
# of the commitment mechanism

GAME_RUNS = ((2, 1_000_000), (64, 200_000))   # (reviewer count, samples)
EVOLVING_HORIZON = 3
EVOLVING_EPISODES = 200_000


def _game_ops(rng) -> list[Op]:
    p, q, var_high = 0.3, 0.5, 1.5
    ops = []
    for n, samples in GAME_RUNS:
        sim_seed = rng.randrange(2**31)
        rule = ref.sc1_rule(p, n, -1.0, 1.0)
        expected = ref.sc1_moments(p, q, n, -1.0, 1.0, 1.0, var_high)
        for workers in (1, 2):
            def prepare(state, n=n, samples=samples, sim_seed=sim_seed,
                        rule=rule, workers=workers):
                lab = state["lab"]
                config = lab.GameConfig(n, p, q, lab.normal_pair(-1.0, 1.0, 1.0, var_high))
                inference = lab.InferenceRule(rule)
                return lambda: lab.simulate_game(
                    config, lab.SC1, inference, samples, sim_seed, workers=workers)

            def check(report, state, n=n, samples=samples, expected=expected,
                      workers=workers):
                key = f"game-N{n}"
                if workers == 1:
                    state[key] = report
                elif report != state.get(key):
                    return ["report differs from the single-worker report"]
                problems = []
                if report.count_negative + report.count_positive != samples:
                    problems += _problem("bias counts",
                                         report.count_negative + report.count_positive,
                                         samples)
                for name, est, se in (
                        ("cost", report.mean_cost, report.stderr_cost),
                        ("utility_negative", report.mean_utility_negative,
                         report.stderr_utility_negative),
                        ("utility_positive", report.mean_utility_positive,
                         report.stderr_utility_positive)):
                    if not (se > 0 and abs(est - expected[name]) <= Z_BOUND * se):
                        problems += _problem(f"{name} |z|",
                                             (est - expected[name]) / se, Z_BOUND)
                return problems

            ops.append(Op(f"game-N{n}-w{workers}", prepare, check,
                          workers=workers))
    return ops


def _ic_problems(residuals) -> list:
    problems = []
    for name in ("positive_low", "positive_high", "negative_low", "negative_high"):
        r = getattr(residuals, name)
        if not (r.stderr > 0 and abs(r.value) <= Z_BOUND * r.stderr):
            problems += _problem(f"IC {name} |z|", r.value / r.stderr, Z_BOUND)
    return problems


def _evolving_ops(rng, family: str) -> list[Op]:
    p, horizon, episodes = 0.3, EVOLVING_HORIZON, EVOLVING_EPISODES
    # Below 4/3 the likelihood ratio has a finite fourth moment under the low
    # density, so the standard errors of the cost and the residuals are
    # reliable; above it, |z| runs past 5 on a few seeds in a hundred.
    scale_high = rng.uniform(1.1, 1.3)
    sim_seed, ic_seed = rng.randrange(2**31), rng.randrange(2**31)
    alpha, beta = ref.quadrature_alpha_beta(family, -1.0, 1.0, 1.0, scale_high)
    # Residual standard errors mislead once the likelihood ratio's moments
    # across the horizon approach the episode count.
    if max(alpha, beta) ** (horizon - 1) * 1000 > episodes:
        raise ValueError(f"{family} pair too separated for the IC check")
    lam_low, lam_high = ref.multipliers(p, 2.0, alpha, beta, horizon)
    loss = ref.commitment_loss(p, 2.0, alpha, beta, horizon)

    def variance(scale):
        return 2 * scale**2 if family == "laplace" else scale**2 * math.pi**2 / 3
    floor = p * variance(scale_high) + (1 - p) * variance(1.0)

    def game(lab):
        fam = lab.Family(family)
        pair = lab.DistributionPair(lab.StateDistribution(fam, -1.0, 1.0),
                                    lab.StateDistribution(fam, 1.0, scale_high))
        return lab.GameConfig(1, p, 0.5, pair)

    def prepare_schedule(state):
        config = game(state["lab"])
        return lambda: state["lab"].solve_schedule(config, horizon)

    def check_schedule(schedule, state):
        state[family] = schedule
        problems = []
        for name, got, want, rtol in (("alpha", schedule.alpha, alpha, 1e-8),
                                      ("beta", schedule.beta, beta, 1e-8),
                                      ("lambda_low", schedule.lambda_low, lam_low, 1e-7),
                                      ("lambda_high", schedule.lambda_high, lam_high, 1e-7)):
            if not close(got, want, rtol):
                problems += _problem(name, got, want)
        return problems

    def prepare_evolving(state):
        config, schedule = game(state["lab"]), state[family]
        return lambda: state["lab"].simulate_evolving(config, schedule, episodes,
                                                      sim_seed)

    def check_evolving(report, state):
        se = report.stderr_period_cost
        problems = []
        if not (se > 0 and abs(report.mean_period_cost - floor - loss) <= Z_BOUND * se):
            problems += _problem("period cost |z|",
                                 (report.mean_period_cost - floor - loss) / se, Z_BOUND)
        if not close(report.loss_estimate, report.mean_period_cost - floor, 0, 1e-12):
            problems += _problem("loss estimate", report.loss_estimate,
                                 report.mean_period_cost - floor)
        return problems + _ic_problems(report.ic)

    def prepare_ic(state):
        schedule = state[family]
        return lambda: state["lab"].verify_ic(schedule, episodes, ic_seed)

    def check_ic(residuals, state):
        return _ic_problems(residuals)

    return [Op(f"schedule-{family}", prepare_schedule, check_schedule),
            Op(f"evolving-{family}", prepare_evolving, check_evolving),
            Op(f"ic-{family}", prepare_ic, check_ic)]


def game_sampling(seed: int) -> list[Op]:
    """Monte Carlo runs of SC1 at N=2 and N=64, each with 1 and 2 workers.

    The seed draws the Monte Carlo seed of each reviewer count.
    """
    return _game_ops(random.Random(seed))


def commitment_sampling(seed: int) -> list[Op]:
    """The commitment mechanism for a Laplace and a logistic pair: schedule,
    Monte Carlo of the episodes and of the incentive constraints.

    The seed draws the high scale of each pair in [1.1, 1.3] and the Monte
    Carlo seeds.
    """
    rng = random.Random(seed)
    return _evolving_ops(rng, "laplace") + _evolving_ops(rng, "logistic")
