import csv
import math
import os
from pathlib import Path

import pytest
import yaml

from cheaptalk_lab import (DistributionPair, Family, GameConfig,
                           SeparationOverflow, StateDistribution, alpha_beta,
                           evolving_loss, harness, solve_schedule)
from cheaptalk_lab.cli import main
from cheaptalk_lab.harness import (ConfigError, build_game, load_experiment,
                                   run, write_csv)

from oracles import commitment_loss_from_logs_mpmath, normal_log_ratio_integral_mpmath

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def write_yaml(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_loads_shipped_config(self):
        cfg = load_experiment(CONFIG_DIR / "pbe_one_reviewer.yaml")
        assert cfg.scenario == "pbe"
        assert cfg.sweep_axis == "p_high"
        assert cfg.game["q_plus"] == 0.1

    def test_cli_overrides_take_precedence(self):
        cfg = load_experiment(CONFIG_DIR / "simulate_sc1.yaml",
                              seed=7, samples=500)
        assert cfg.options["seed"] == 7
        assert cfg.options["samples"] == 500

    @pytest.mark.parametrize("scenario", ["nonsense", "figure"])
    def test_unknown_scenario_rejected(self, tmp_path, scenario):
        # "figure" read its table from options.figure, defaulting to fig6
        path = write_yaml(tmp_path, f"scenario: {scenario}\n")
        with pytest.raises(ConfigError):
            load_experiment(path)

    def test_unknown_axis_rejected(self, tmp_path):
        path = write_yaml(tmp_path,
                          "scenario: pbe\nsweep:\n  axis: bogus\n  values: [1]\n")
        with pytest.raises(ConfigError):
            load_experiment(path)

    @pytest.mark.parametrize("values", ["5", "0.3", "abc", "{a: 1}", "0", "false", "{}"])
    def test_sweep_values_that_are_not_a_list_rejected(self, tmp_path, values):
        # a number ended in a TypeError traceback, text swept its characters,
        # and a false value was read as no values
        path = write_yaml(tmp_path,
                          f"scenario: pbe\nsweep:\n  axis: p_high\n  values: {values}\n")
        with pytest.raises(ConfigError, match="sweep.values"):
            load_experiment(path)

    def test_the_c_and_python_loaders_read_the_same(self, tmp_path, monkeypatch):
        # the C loader is chosen where PyYAML has libyaml; both must give the
        # same experiments and refuse the same malformed files
        loaders = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
        bad = write_yaml(tmp_path, "scenario: pbe\ngame: [1, 2\n")
        read = []
        for loader in loaders:
            monkeypatch.setattr(harness, "_YAML_LOADER", loader)
            read.append([load_experiment(path) for path in sorted(CONFIG_DIR.glob("*.yaml"))])
            with pytest.raises(ConfigError, match="cannot read"):
                load_experiment(bad)
        assert len(read[0]) == 12
        assert all(configs == read[0] for configs in read)

    @pytest.mark.parametrize("text, key", [
        ("scenario: pbe\nsweep:\n  axis: horizon\n  values: [2]\n", "axis 'horizon'"),
        ("scenario: compare\nsweep:\n  axis: p_high\n  values: [0.3]\n", "axis 'p_high'"),
        ("scenario: evolving\nsweep:\n  axis: p_high\n  values: []\n", "sweep.values"),
        ("scenario: fig3\nsweep:\n  axis: p_high\n  values: [0.3]\n", "axis 'p_high'"),
        ("scenario: pbe\ngame:\n  n_users: 2.5\n", "game 'n_users'"),
        ("scenario: loss_curve\nsweep:\n  axis: n_users\n  values: [2.5, 3.9]\n",
         "sweep 'n_users'"),
        ("scenario: pbe\nsweep:\n  axis: p_high\n  values: [0.3, abc]\n", "sweep 'p_high'"),
        ("scenario: evolving\nsweep:\n  axis: mu_low\n  values: [false]\n", "sweep 'mu_low'"),
        ("scenario: evolving\nsweep:\n  axis: mu_low\n  values: ['-2.0']\n", "sweep 'mu_low'"),
        ("scenario: evolving\nsweep:\n  axis: var_high\n  values: [true]\n",
         "sweep 'var_high'"),
        ("scenario: benchmark\ngame:\n  mu_low: true\n  mu_high: 2.0\n", "game 'mu_low'"),
        ("scenario: benchmark\ngame:\n  p_high: '0.3'\n", "game 'p_high'"),
        ("scenario: benchmark\ngame:\n  family: cauchy\n", "game 'family'"),
        ("scenario: evolving\ngame:\n  family: cauchy\n"
         "sweep:\n  axis: var_high\n  values: [1.0]\n", "game 'family'"),
        ("scenario: fig5\nsweep:\n  axis: horizon\n", "sweep.values"),
        ("scenario: pbe\ngame:\n  p_high: oops\n", "game 'p_high'"),
        ("scenario: loss_curve\ngame:\n  n_users: 2.5\n", "game 'n_users'"),
        ("scenario: evolving\ngame:\n  family: cauchy\n"
         "sweep:\n  axis: family\n  values: [normal]\n", "game 'family'"),
    ], ids=["horizon_axis_unused", "compare_axis", "empty_values",
            "figure_needs_horizon_sweep", "fractional_n_users", "fractional_sweep_values",
            "text_sweep_value", "bool_sweep_value", "quoted_sweep_value", "bool_variance",
            "bool_game_mean", "quoted_game_prior", "unknown_family",
            "unknown_family_of_a_variance_sweep", "axis_without_values",
            "prior_under_a_prior_sweep", "count_under_a_count_sweep",
            "family_under_a_family_sweep"])
    def test_invalid_tables_rejected_at_load(self, tmp_path, capsys, text, key):
        # each loaded and was refused only by the run, or, where the sweep
        # sets the bad value (the last three), ran to a CSV
        path = write_yaml(tmp_path, text)
        with pytest.raises(ConfigError, match=key):
            load_experiment(path)
        out = tmp_path / "out"
        assert main([yaml.safe_load(text)["scenario"], "--config", str(path),
                     "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "scenario: benchmark\ngame:\n  mu_low: .nan\n",
    ], ids=["nan_mean"])
    def test_invalid_tables_rejected(self, tmp_path, text):
        # a value of the right type outside the game's domain is refused by
        # the run, which made the output directory before it refused
        cfg = load_experiment(write_yaml(tmp_path, text))
        with pytest.raises(ConfigError):
            run(cfg, out_dir=tmp_path)
        assert not list(tmp_path.glob("*.csv"))
        with pytest.raises(ConfigError):
            run(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,option", [
        ("scenario: evolving\nsweep:\n  axis: mu_low\n  values: [-2.0]\n"
         "options:\n  horizons: [2.5, 3.7]\n", "horizons"),
        ("scenario: evolving\nsweep:\n  axis: mu_low\n  values: [-2.0]\n"
         "options:\n  horizons: 3\n", "horizons"),
        ("scenario: compare\noptions:\n  horizon: 2.5\n", "horizon"),
        ("scenario: simulate\noptions:\n  samples: 2.5\n", "samples"),
        ("scenario: simulate\noptions:\n  seed: 2.5\n", "seed"),
        ("scenario: simulate\noptions:\n  profile: SC17\n", "profile"),
        ("scenario: compare\noptions:\n  horizon: x\n", "horizon"),
        ("scenario: fig2\noptions:\n  horizons: [2, 3.5]\n", "horizons"),
        ("scenario: evolving\nsweep:\n  axis: horizon\n  values: [2, 3]\n"
         "options:\n  horizons: [7]\n", "horizons"),
        ("scenario: evolving\noptions:\n  horizons: [7]\n", "horizons"),
        ("scenario: fig2\noptions:\n  horizons: []\n", "horizons"),
        ("scenario: evolving\nsweep:\n  axis: mu_low\n  values: [-2.0]\n"
         "options:\n  horizons: []\n", "horizons"),
        ("scenario: fig2\noptions:\n  horizons: [0]\n", "horizons"),
        ("scenario: compare\noptions:\n  horizon: 0\n", "horizon"),
        ("scenario: simulate\noptions:\n  samples: 0\n", "samples"),
        ("scenario: fig2\nsweep:\n  values: [-2.0]\noptions:\n  horizons: [3, 3]\n",
         "horizons"),
    ], ids=["fractional_horizons", "scalar_horizons", "fractional_horizon",
            "fractional_samples", "fractional_seed", "unknown_profile", "text_horizon",
            "fractional_horizons_entry", "horizons_over_a_horizon_sweep",
            "horizons_over_the_default_sweep", "no_horizons", "no_horizons_of_evolving",
            "zero_horizons_entry", "zero_horizon", "zero_samples", "repeated_horizons"])
    def test_invalid_options_rejected_at_load(self, tmp_path, text, option):
        # each is refused at load, naming the option: a refused type named only
        # the value, horizons over a horizon sweep were ignored, no horizons
        # wrote a table without loss columns, a count below 1 was refused only
        # by the run, in a message that did not name the option, and repeated
        # horizons wrote two columns under one header
        with pytest.raises(ConfigError, match=f"option '{option}'"):
            load_experiment(write_yaml(tmp_path, text))

    @pytest.mark.parametrize("value", ["0.0", "-1.0", ".nan"], ids=["zero", "negative", "nan"])
    def test_invalid_high_variance_rejected(self, tmp_path, value):
        text = f"scenario: evolving\nsweep:\n  axis: var_high\n  values: [{value}]\n"
        cfg = load_experiment(write_yaml(tmp_path, text))
        with pytest.raises(ConfigError):
            run(cfg, out_dir=tmp_path)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text, axis, values", [
        ("scenario: fig2\n", "mu_low", [x / 2.0 for x in range(-10, 0)]),
        ("scenario: fig2\nsweep:\n  values: [-2.0]\n", "mu_low", [-2.0]),
        ("scenario: evolving\nsweep:\n  axis: mu_low\n  values: [-1]\n", "mu_low", [-1]),
    ], ids=["default", "values_without_an_axis", "axis_and_values"])
    def test_the_sweep_is_resolved_at_load(self, tmp_path, text, axis, values):
        # an axis in the file brings its own values; values without one sweep
        # the default axis
        cfg = load_experiment(write_yaml(tmp_path, text))
        assert (cfg.sweep_axis, cfg.sweep_values) == (axis, values)

    def test_a_file_can_name_the_count_axis(self, tmp_path):
        # fig5's default axis was refused as an unknown axis when a file named it
        path = write_yaml(tmp_path, "scenario: fig5\nsweep:\n  axis: count\n  values: [1, 2]\n")
        assert main(["fig5", "--config", str(path), "--out", str(tmp_path)]) == 0
        golden = (CONFIG_DIR.parent / "tests" / "golden" / "figure5.csv").read_text()
        assert (tmp_path / "results.csv").read_text().splitlines() == golden.splitlines()[:3]

    def test_a_sweep_of_simulate_is_refused(self, tmp_path, capsys):
        # the sweep was ignored: one run, exit 0
        path = write_yaml(tmp_path, "scenario: simulate\n"
                          "sweep:\n  axis: n_users\n  values: [1, 2]\n")
        with pytest.raises(ConfigError, match="section 'sweep'"):
            load_experiment(path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert "section 'sweep'" in capsys.readouterr().err
        assert not out.exists()

    def test_whole_float_counts_are_accepted(self, tmp_path):
        path = write_yaml(tmp_path, "scenario: loss_curve\n"
                          "sweep:\n  axis: n_users\n  values: [1.0, 2]\n")
        (path,) = run(load_experiment(path), out_dir=tmp_path)
        header, rows = read_csv(path)
        assert [r[0] for r in rows] == ["1", "2"]

    def test_bad_game_values_rejected(self, tmp_path):
        path = write_yaml(tmp_path,
                          "scenario: benchmark\ngame:\n  p_high: 1.5\n")
        cfg = load_experiment(path)
        with pytest.raises(ConfigError):
            run(cfg, out_dir=tmp_path)


class TestScenarios:
    def test_pbe_set_switches_at_the_threshold(self, tmp_path):
        cfg = load_experiment(CONFIG_DIR / "pbe_one_reviewer.yaml")
        (path,) = run(cfg, out_dir=tmp_path)
        header, rows = read_csv(path)
        assert header == ["p_high", "pbe_set", "system_loss"]
        sets = {float(r[0]): r[1] for r in rows}
        assert sets[0.3] == "SC2+SC4"
        assert sets[0.34] == "SC2+SC4"
        assert sets[0.35] == "SC1+SC2+SC3+SC4"
        assert sets[0.9] == "SC1+SC2+SC3+SC4"

    def test_evolving_loss_shrinks_with_the_gap_for_each_horizon(self, tmp_path):
        cfg = load_experiment(CONFIG_DIR / "evolving_gap.yaml")
        (path,) = run(cfg, out_dir=tmp_path)
        header, rows = read_csv(path)
        assert header[0] == "mu_low"
        # rows ascend in mu_low, so the mean gap shrinks and the loss grows
        for col in range(1, 5):
            series = [float(r[col]) for r in rows]
            assert all(a < b for a, b in zip(series, series[1:]))

    def test_high_variance_sweep_with_far_peaking_integrands(self, tmp_path):
        # the separation integral of var_high 1.8 peaks far from both means;
        # a truncated quadrature once reported it divergent
        path = write_yaml(tmp_path, "scenario: evolving\nsweep:\n  axis: var_high\n"
                          "  values: [1.0, 1.5, 1.8]\n")
        (path,) = run(load_experiment(path), out_dir=tmp_path)
        header, rows = read_csv(path)
        assert header[0] == "var_high"
        assert [float(r[0]) for r in rows] == [1.0, 1.5, 1.8]
        assert all(math.isfinite(float(cell)) for r in rows for cell in r)

    @pytest.mark.parametrize("family,variances", [
        (Family.LAPLACE, [1.0, 2.0, 3.0]), (Family.LOGISTIC, [2.0, 3.0, 5.0])])
    def test_high_variance_sweep_builds_the_family_of_the_game(self, tmp_path,
                                                                family, variances):
        path = write_yaml(tmp_path, f"scenario: evolving\ngame:\n  family: {family.value}\n"
                          f"sweep:\n  axis: var_high\n  values: {variances}\n")
        (path,) = run(load_experiment(path), out_dir=tmp_path)
        header, rows = read_csv(path)
        assert header == ["var_high", "loss_T2", "loss_T4", "loss_T6", "abandon_loss"]
        for v, row in zip(variances, rows):
            pair = DistributionPair(StateDistribution(family, -1.0, 1.0),
                                    StateDistribution.from_variance(family, 1.0, v))
            g = GameConfig(n_users=1, p_high=0.3, q_plus=0.5, pair=pair)
            assert row[1:4] == [f"{evolving_loss(g, t):.9g}" for t in (2, 4, 6)]

    def test_figure6_bayesian_columns_fall_beyond_three_reviewers(self, tmp_path):
        cfg = load_experiment(CONFIG_DIR / "figure6.yaml")
        (path,) = run(cfg, out_dir=tmp_path)
        header, rows = read_csv(path)
        assert rows[0][0] == "1" and len(rows) == 8
        abandon = {float(r[header.index("abandon_loss")]) for r in rows}
        assert len(abandon) == 1  # flat baseline
        for name in ("bayesian_q0.1", "bayesian_q0.5", "bayesian_q0.7"):
            col = header.index(name)
            series = [float(r[col]) for r in rows]
            tail = series[2:]
            assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))

    def test_the_file_s_game_beats_the_figure_s_defaults(self, tmp_path):
        # the figure's p_high and mu_high were merged over the file's, and the
        # run wrote figure2.csv byte for byte
        path = write_yaml(tmp_path, "scenario: fig2\ngame:\n  p_high: 0.5\n  mu_high: 3.0\n")
        cfg = load_experiment(path)
        assert (cfg.game["p_high"], cfg.game["mu_high"]) == (0.5, 3.0)
        (path,) = run(cfg, out_dir=tmp_path)
        header, rows = read_csv(path)
        assert header == ["mu_low", "loss_T2", "loss_T3", "loss_T4", "loss_T5", "loss_T6"]
        for row in rows:
            g = GameConfig(1, 0.5, 0.5, DistributionPair(
                StateDistribution(Family.NORMAL, float(row[0]), 1.0),
                StateDistribution(Family.NORMAL, 3.0, 1.0)))
            assert row[1:] == [f"{evolving_loss(g, t):.9g}" for t in range(2, 7)]

    def test_a_column_s_game_beats_the_file_s(self, tmp_path):
        # each figure 6 column sets its own bias share
        path = write_yaml(tmp_path, "scenario: fig6\ngame:\n  q_plus: 0.2\n"
                          "output:\n  stem: figure6\n")
        (path,) = run(load_experiment(path), out_dir=tmp_path)
        golden = CONFIG_DIR.parent / "tests" / "golden" / "figure6.csv"
        assert path.read_bytes() == golden.read_bytes()

    def test_compare_scenario_lists_the_crossover(self, tmp_path):
        cfg = load_experiment(CONFIG_DIR / "compare_counts.yaml")
        (path,) = run(cfg, out_dir=tmp_path)
        header, rows = read_csv(path)
        threshold = float(rows[0][header.index("crossover_threshold")])
        assert threshold == pytest.approx(4.304, abs=1e-3)
        bayes = [float(r[header.index("bayesian_loss")]) for r in rows]
        evolving = [float(r[header.index("evolving_loss_T2")]) for r in rows]
        for n, (b, e) in enumerate(zip(bayes, evolving), start=1):
            assert (e < b) == (n <= threshold)

    def test_compare_on_a_laplace_pair_has_no_crossover(self, tmp_path):
        # the crossover formula needs an equal-variance normal pair
        path = write_yaml(tmp_path, "scenario: compare\ngame:\n  family: laplace\n"
                          "sweep:\n  axis: n_users\n  values: [1, 2]\n")
        (path,) = run(load_experiment(path), out_dir=tmp_path)
        header, rows = read_csv(path)
        assert [r[header.index("crossover_threshold")] for r in rows] == ["nan", "nan"]

    def test_simulate_scenario_reports_small_z_scores(self, tmp_path):
        cfg = load_experiment(CONFIG_DIR / "simulate_sc1.yaml", samples=50_000)
        (path,) = run(cfg, out_dir=tmp_path)
        header, rows = read_csv(path)
        assert [r[0] for r in rows] == ["cost", "utility_negative",
                                        "utility_positive"]
        for row in rows:
            assert abs(float(row[header.index("z_score")])) < 4.0

    def test_benchmark_and_loss_curve_run(self, tmp_path):
        import time

        for name in ("benchmark_counts.yaml", "loss_vs_count.yaml",
                     "evolving_horizon.yaml", "figure2.yaml", "figure3.yaml",
                     "figure4.yaml", "figure5.yaml"):
            cfg = load_experiment(CONFIG_DIR / name)
            start = time.perf_counter()
            (path,) = run(cfg, out_dir=tmp_path)
            assert time.perf_counter() - start < 60.0
            header, rows = read_csv(path)
            assert rows and header


class TestOutputs:
    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = load_experiment(CONFIG_DIR / "figure6.yaml")
        (path,) = run(cfg, out_dir=tmp_path)
        first = path.read_bytes()
        (path,) = run(cfg, out_dir=tmp_path)
        assert path.read_bytes() == first

    def test_floats_use_nine_significant_digits(self, tmp_path):
        path = tmp_path / "fmt.csv"
        write_csv(path, ["x", "y"], [[1, 0.123456789123456789]])
        assert path.read_text() == "x,y\n1,0.123456789\n"

    def test_a_failed_render_leaves_no_files(self, tmp_path, monkeypatch):
        # every row but the last is computed before the failure
        majority = harness._QUANTITIES["majority_loss"]

        def fails_on_the_last_row(g, t):
            if g.n_users == 8:
                raise RuntimeError("the last row failed")
            return majority(g, t)

        monkeypatch.setitem(harness._QUANTITIES, "majority_loss", fails_on_the_last_row)
        cfg = load_experiment(CONFIG_DIR / "benchmark_counts.yaml")
        with pytest.raises(RuntimeError):
            run(cfg, out_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path):
        with pytest.raises(TypeError):
            harness._write_atomic(tmp_path / "x.csv", None)   # not text
        assert not list(tmp_path.iterdir())

    def test_default_output_dir_comes_from_the_environment(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.setenv("CHEAPTALK_LAB_OUT", str(tmp_path / "envout"))
        cfg = load_experiment(CONFIG_DIR / "benchmark_counts.yaml")
        (path,) = run(cfg)
        assert path.parent == tmp_path / "envout"


class TestCli:
    def test_successful_run_prints_the_artifact_path(self, tmp_path, capsys):
        code = main(["benchmark", "--config",
                     str(CONFIG_DIR / "benchmark_counts.yaml"),
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("benchmark_counts.csv")
        assert (tmp_path / "benchmark_counts.csv").exists()

    def test_invalid_config_exits_nonzero_without_artifacts(self, tmp_path,
                                                            capsys):
        bad = write_yaml(tmp_path, "scenario: evolving\ngame:\n  q_plus: 2.0\n")
        code = main(["evolving", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text, key", [
        ("scenario: loss_curve\ngame:\n  n_user: 3\n", "n_user"),
        ("scenario: loss_curve\ngame:\n  p_hgh: 0.9\n", "p_hgh"),
        ("scenario: loss_curve\noutput:\n  formt: svg\n", "formt"),
        ("scenario: loss_curve\nsweep:\n  axis: n_users\n  value: [1]\n", "value"),
        ("scenario: simulate\noptions:\n  sample: 10\n", "sample"),
        ("scenario: loss_curve\noutputs:\n  stem: x\n", "outputs"),
        ("scenario: fig6\noptions:\n  figure: fig2\n", "figure"),
    ])
    def test_unknown_key_exits_nonzero_naming_it(self, tmp_path, capsys, text, key):
        # such files used to run on the defaults and exit 0
        bad = write_yaml(tmp_path, text)
        code = main(["loss_curve", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert repr(key) in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_nearly_identical_pair_costs_the_abandoning_loss(self, tmp_path):
        # means 1e-7 apart leave the commitment system singular in floats;
        # this config used to exit 1
        path = write_yaml(
            tmp_path,
            "scenario: evolving\n"
            "game:\n  mu_low: 1.0\n  mu_high: 1.0000001\n"
            "sweep:\n  axis: horizon\n  values: [2]\n",
        )
        assert main(["evolving", "--config", str(path), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == ["horizon", "evolving_loss", "abandon_loss"]
        assert [row[1] for row in rows] == [row[2] for row in rows]

    def test_identical_pair_costs_nothing(self, tmp_path, capsys):
        # this pair's singular commitment system used to exit 1
        path = write_yaml(
            tmp_path,
            "scenario: evolving\n"
            "game:\n  mu_low: 1.0\n  mu_high: 1.0\n"
            "sweep:\n  axis: horizon\n  values: [1, 2, 5]\n",
        )
        assert main(["evolving", "--config", str(path), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header == ["horizon", "evolving_loss", "abandon_loss"]
        assert [row[1:] for row in rows] == [["0", "0"]] * 3

    def test_divergent_pair_exits_nonzero(self, tmp_path, capsys):
        bad = write_yaml(
            tmp_path,
            "scenario: evolving\n"
            "game:\n  scale_high: 2.5\n"
            "sweep:\n  axis: horizon\n  values: [2]\n",
        )
        code = main(["evolving", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "converge" in capsys.readouterr().err

    @pytest.mark.parametrize("game", [
        "  scale_low: 1.4124446891825535\n",   # variance 1.995 against 1
        "  mu_low: -20.0\n  mu_high: 20.0\n",
    ])
    def test_separation_past_the_double_range_runs_to_a_csv(self, tmp_path, game):
        # both exited 1 with SeparationOverflow: the loss was taken from the
        # values of the separation integrals, one of which passes the double
        # range; it is taken from their logs, which do not
        path = write_yaml(
            tmp_path,
            "scenario: evolving\ngame:\n" + game
            + "sweep:\n  axis: horizon\n  values: [2]\n",
        )
        g = build_game(load_experiment(path).game)
        with pytest.raises(SeparationOverflow):
            alpha_beta(g.pair)
        low, high = g.pair.low, g.pair.high
        log_alpha, log_beta = (
            normal_log_ratio_integral_mpmath(num.location, num.scale, den.location, den.scale)
            for num, den in ((low, high), (high, low)))
        want = commitment_loss_from_logs_mpmath(g.p_high, g.mean_gap, log_alpha, log_beta, 2)
        assert main(["evolving", "--config", str(path), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "results.csv")
        assert header[1] == "evolving_loss"
        assert float(rows[0][1]) == pytest.approx(want, rel=1e-8, abs=0.0)   # 9 digits
        assert evolving_loss(g, 2) == pytest.approx(want, rel=1e-14, abs=0.0)
        schedule = solve_schedule(g, 2)
        assert all(math.isfinite(c) for c in schedule.coefficients)

    @pytest.mark.parametrize("text, message", [
        ("scenario: loss_curve\ngame: 3\n", "section 'game' must contain a mapping"),
        ("scenario: loss_curve\noutput:\n  format: svg\n",
         "unknown key 'format' in section 'output'"),
    ], ids=["section_not_a_mapping", "unknown_format"])
    def test_a_malformed_section_exits_nonzero(self, tmp_path, capsys, text, message):
        bad = write_yaml(tmp_path, text)
        assert main(["loss_curve", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--samples", "7"]])
    def test_monte_carlo_options_of_a_table_exit_nonzero(self, tmp_path, capsys, option):
        # a scenario other than simulate reads neither; both were accepted and ignored
        config = CONFIG_DIR / "pbe_one_reviewer.yaml"
        code = main(["pbe", "--config", str(config), "--out", str(tmp_path), *option])
        assert code == 1
        assert "simulate" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        with pytest.raises(ConfigError):
            load_experiment(config, seed=3)

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["pbe", "--config", str(tmp_path / "nope.yaml")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, name", [("fig6", "loss_vs_count"),
                                                ("simulate", "figure4")])
    def test_a_scenario_the_file_does_not_name_exits_nonzero(self, tmp_path, capsys,
                                                             scenario, name):
        # each wrote the command's table under the file's stem and exited 0
        config = CONFIG_DIR / f"{name}.yaml"
        code = main([scenario, "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert repr(scenario) in err
        assert repr(load_experiment(config).scenario) in err
        assert not list(tmp_path.iterdir())
        with pytest.raises(ConfigError):
            load_experiment(config, scenario=scenario)

    def test_a_file_naming_no_scenario_takes_the_command_s(self, tmp_path):
        path = write_yaml(tmp_path, "game:\n  n_users: 2\n")
        assert load_experiment(path, scenario="loss_curve").scenario == "loss_curve"
        assert main(["pbe", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
    def test_every_config_reproduces_its_golden_csv_through_argv(self, config, tmp_path,
                                                                  capsys):
        scenario = load_experiment(config).scenario
        code = main([scenario, "--config", str(config), "--out", str(tmp_path)])
        assert code == 0
        csv_path = tmp_path / f"{config.stem}.csv"
        assert capsys.readouterr().out == f"{csv_path}\n"
        golden = CONFIG_DIR.parent / "tests" / "golden" / f"{config.stem}.csv"
        assert csv_path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("argv", [
        [], ["nonsense", "--config", "x.yaml"], ["pbe"], ["--config", "x.yaml"],
        ["figure", "--config", "x.yaml"]],
        ids=["no_scenario", "unknown_scenario", "no_config", "config_only", "figure"])
    def test_a_malformed_command_line_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "usage: cheaptalk-lab" in capsys.readouterr().err


# the bundled configs' options, with the defaults of those they leave out
BUNDLED_OPTIONS = {
    "compare_counts": {"horizon": 2},
    "evolving_gap": {"horizons": [2, 3, 4, 6]},
    "figure2": {"horizons": [2, 3, 4, 5, 6]},
    "simulate_sc1": {"profile": "SC1", "samples": 200_000, "seed": 20240801},
}


class TestDeclaredOptions:
    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
    def test_a_bundled_config_writes_one_csv_and_holds_its_options(self, config, tmp_path):
        cfg = load_experiment(config)
        assert cfg.options == BUNDLED_OPTIONS.get(config.stem, {})
        out = tmp_path / "out"
        out.mkdir()
        assert run(cfg, out_dir=out) == [out / f"{config.stem}.csv"]
        assert [p.name for p in out.iterdir()] == [f"{config.stem}.csv"]

    @pytest.mark.parametrize("config", [
        path for path in sorted(CONFIG_DIR.glob("*.yaml"))
        if yaml.safe_load(path.read_text())["scenario"] != "simulate"], ids=lambda p: p.stem)
    def test_a_bundled_table_config_holds_its_golden_sweep(self, config):
        # the loaded config is the run: its axis heads the CSV and its values
        # are the first column, typed: the counting axes load as int, every
        # other swept value and game number as float, whatever the file wrote
        cfg = load_experiment(config)
        header, rows = read_csv(CONFIG_DIR.parent / "tests" / "golden" / f"{config.stem}.csv")
        assert header[0] == cfg.sweep_axis
        assert [row[0] for row in rows] == [f"{v:.9g}" for v in cfg.sweep_values]
        want = int if cfg.sweep_axis in ("n_users", "horizon", "count") else float
        assert {type(v) for v in cfg.sweep_values} == {want}
        assert type(cfg.game["n_users"]) is int
        assert {type(cfg.game[key]) for key in ("p_high", "q_plus", "mu_low", "mu_high",
                                                "scale_low", "scale_high")} == {float}

    @pytest.mark.parametrize("scenario", harness.SCENARIOS)
    def test_a_file_without_options_takes_the_defaults(self, tmp_path, scenario):
        # 'evolving' sweeps the horizon by default and reads no option then
        defaults = {"fig2": {"horizons": [2, 3, 4, 5, 6]}, "compare": {"horizon": 2},
                    "simulate": {"profile": "SC1", "samples": 100_000, "seed": 0}}
        path = write_yaml(tmp_path, f"scenario: {scenario}\n")
        assert load_experiment(path).options == defaults.get(scenario, {})

    def test_options_are_typed_at_load(self, tmp_path):
        path = write_yaml(tmp_path, "scenario: simulate\noptions:\n  samples: 5.0\n")
        options = load_experiment(path, seed=3).options
        assert options == {"profile": "SC1", "samples": 5, "seed": 3}
        assert type(options["samples"]) is int

    @pytest.mark.parametrize("text", [
        (CONFIG_DIR / "pbe_one_reviewer.yaml").read_text()
        + "options: {horizons: [2, 3], samples: 5, profile: SC99}\n",
        "scenario: fig3\noptions: {horizons: [7], horizon: \"x\"}\n",
    ], ids=["pbe", "fig3"])
    def test_an_option_the_scenario_does_not_read_exits_nonzero(self, tmp_path, capsys, text):
        # both ran on their defaults and exited 0
        path = write_yaml(tmp_path, text)
        scenario = yaml.safe_load(text)["scenario"]
        out = tmp_path / "out"
        assert main([scenario, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "option 'horizons'" in err and "'evolving', 'fig2'" in err
        assert not out.exists()


class TestOutputStem:
    @pytest.mark.parametrize("stem", ["../escaped", "sub/x", "", ".", ".."])
    def test_a_stem_that_is_not_a_plain_name_is_refused(self, tmp_path, capsys, stem):
        # "../escaped" wrote escaped.csv beside the output directory and "" the
        # hidden file .csv inside it, both exiting 0
        path = write_yaml(tmp_path, f"scenario: loss_curve\noutput:\n  stem: {stem!r}\n")
        with pytest.raises(ConfigError, match="output.stem"):
            load_experiment(path)
        out = tmp_path / "out"
        assert main(["loss_curve", "--config", str(path), "--out", str(out)]) == 1
        assert "output.stem" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["exp.yaml"]

    def test_a_plain_stem_names_the_file(self, tmp_path):
        path = write_yaml(tmp_path, "scenario: loss_curve\noutput:\n  stem: curve.v2\n")
        (written,) = run(load_experiment(path), out_dir=tmp_path / "out")
        assert written == tmp_path / "out" / "curve.v2.csv"
