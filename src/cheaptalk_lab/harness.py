"""Experiment front end: config parsing, table specs, CSV output.

A scenario reads a YAML experiment file with three sections (``game``,
``sweep``, ``output``; plus the ``options`` the scenario declares), evaluates
the requested quantities through the library, and writes one CSV whose first
column is the swept value.  Floats are formatted at nine significant digits
and the body carries no timestamps, so reruns are byte-identical.  The file is
staged in a temporary name and renamed, so failed runs leave nothing behind.

Every scenario but ``simulate`` names one entry of a spec table, Figures 2-6
included as ``fig2``-``fig6``: a default sweep, overrides of the config's
``game`` section, and columns, each a quantity from a small registry with
optional game overrides and a fixed horizon.  A ``sweep`` section replaces
the default sweep.  Each swept value gives a row, and every cell is computed
on its own row's game, the column's overrides applied last.  The ``horizon``
axis sets the horizon of columns without a fixed one.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import yaml

from . import benchmarks, equilibrium, evolving, game, montecarlo
from .distributions import DistributionPair, Family, StateDistribution
from .errors import CheapTalkError
from .game import PROFILE_LABELS, PROFILES_BY_LABEL, Bias, GameConfig

OUTPUT_DIR_ENV = "CHEAPTALK_LAB_OUT"

# libyaml's C parser where PyYAML was built with it: the same documents and
# errors as the pure-Python one, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_GAME_DEFAULTS = {
    "n_users": 1,
    "p_high": 0.3,
    "q_plus": 0.5,
    "family": "normal",
    "mu_low": -1.0,
    "mu_high": 1.0,
    "scale_low": 1.0,
    "scale_high": 1.0,
}

SWEEP_AXES = ("n_users", "horizon", "p_high", "q_plus", "mu_low", "var_high",
              "family")


class ConfigError(CheapTalkError):
    """The experiment file is missing or malformed."""


def _integer(value) -> int:
    """A whole config value: 2 and 2.0 pass; 2.5, true and "2" are refused."""
    if type(value) in (int, float) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"expected an integer, got {value!r}")


def _real(value) -> float:
    """A real config value: 2 and 0.3 pass; true and "0.3" are refused."""
    if type(value) in (int, float):
        return float(value)
    raise ConfigError(f"expected a number, got {value!r}")


def _integers(value) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {value!r}")
    return [_integer(v) for v in value]


def _profile(value) -> str:
    if str(value) not in PROFILES_BY_LABEL:
        raise ConfigError(f"unknown profile {value!r}")
    return str(value)


_OPTION_TYPES = {"horizons": _integers, "horizon": _integer, "profile": _profile,
                 "samples": _integer, "seed": _integer}

# the options each scenario reads, with their defaults; it refuses any other
_OPTIONS = {
    "evolving": {"horizons": [2, 4, 6]},
    "fig2": {"horizons": [2, 3, 4, 5, 6]},
    "compare": {"horizon": 2},
    "simulate": {"profile": "SC1", "samples": 100_000, "seed": 0},
}

_SECTION_KEYS = {
    "game": tuple(_GAME_DEFAULTS),
    "sweep": ("axis", "values"),
    "output": ("stem",),
    "options": tuple(_OPTION_TYPES),
}


@dataclass
class ExperimentConfig:
    """A whole run: the game with its defaults, the sweep, the stem, and every
    option the scenario reads, typed and with its defaults."""

    scenario: str
    game: dict
    sweep_axis: str | None = None
    sweep_values: list = field(default_factory=list)
    stem: str = "results"
    options: dict = field(default_factory=dict)


def load_experiment(path, scenario: str | None = None, seed: int | None = None,
                    samples: int | None = None) -> ExperimentConfig:
    """Parse an experiment file.  A ``scenario`` argument must be the file's,
    if it names one; ``seed`` and ``samples`` win over the file's options.  An
    option the scenario does not declare is refused."""
    try:
        raw = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read experiment file {path}: {exc}") from exc
    _check_keys(raw, ("scenario", *_SECTION_KEYS), "the experiment file")
    game_section, sweep, output, options = (
        dict(_check_keys(raw.get(name) or {}, keys, f"section {name!r}"))
        for name, keys in _SECTION_KEYS.items())

    named = raw.get("scenario")
    chosen = scenario or named
    if named is not None and named != chosen:
        raise ConfigError(f"scenario {chosen!r} does not match the file's {named!r}")
    if chosen not in SCENARIOS:
        raise ConfigError(f"unknown scenario {chosen!r}; expected one of {SCENARIOS}")

    axis = sweep.get("axis")
    if axis is not None and axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = sweep.get("values", [])
    if not isinstance(values, list):
        raise ConfigError(f"sweep.values must be a list, got {values!r}")

    stem = str(output.get("stem", "results"))
    if stem in ("", "..") or stem != Path(stem).name:   # a file name inside the output directory
        raise ConfigError(f"output.stem must be a plain file name, got {stem!r}")

    options.update({key: value for key, value in (("seed", seed), ("samples", samples))
                    if value is not None})
    declared = _OPTIONS.get(chosen, {})
    for key in options:
        if key not in declared:
            readers = ", ".join(repr(s) for s, names in _OPTIONS.items() if key in names)
            raise ConfigError(f"option {key!r} is not read by {chosen!r}, only by {readers}")
    if chosen == "evolving" and axis in (None, "horizon"):   # each row is its own horizon
        if "horizons" in options:
            raise ConfigError("option 'horizons' is not read by 'evolving' sweeping 'horizon', "
                              "its default sweep, where each row is its own horizon")
        declared = {}

    return ExperimentConfig(
        scenario=chosen, game={**_GAME_DEFAULTS, **game_section}, sweep_axis=axis,
        sweep_values=values, stem=stem,
        options={key: _option(key, options.get(key, default)) for key, default in declared.items()})


def _option(key: str, value):   # typed; a refusal names the option
    try:
        return _OPTION_TYPES[key](value)
    except ConfigError as exc:
        raise ConfigError(f"option {key!r}: {exc}") from None


def _check_keys(section, allowed: tuple[str, ...], where: str) -> dict:
    """``section`` itself, if it is a mapping with no key outside ``allowed``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must contain a mapping")
    unknown = [key for key in section if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; expected one of {allowed}")
    return section


def build_game(section: dict) -> GameConfig:
    try:
        family = Family(section["family"])
    except ValueError as exc:
        raise ConfigError(f"unknown family {section['family']!r}") from exc
    try:
        pair = DistributionPair(
            StateDistribution(family, _real(section["mu_low"]), _real(section["scale_low"])),
            StateDistribution(family, _real(section["mu_high"]), _real(section["scale_high"])),
        )
        return GameConfig(
            n_users=_integer(section["n_users"]),
            p_high=_real(section["p_high"]),
            q_plus=_real(section["q_plus"]),
            pair=pair,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_AXIS_TYPES = {"n_users": _integer, "horizon": _integer, "count": _integer, "family": str}
_ROW = "row"   # a column horizon: the row's, which the horizon and count axes set


def _apply_axis(section: dict, axis: str, value) -> dict:
    if axis == "horizon":
        return section
    if axis == "var_high":
        try:
            high = StateDistribution.from_variance(section["family"], 0.0, value)   # for its scale
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return dict(section, scale_high=high.scale)
    return dict(section, **{"n_users" if axis == "count" else axis: value})


# ---------------------------------------------------------------------------
# table specs: one sweep axis, one row per value, one cell per column


def _crossover(g: GameConfig, horizon: int) -> float:
    try:
        return evolving.crossover_threshold(g, horizon)
    except ValueError:
        return math.nan


# Each quantity takes the cell's game and horizon.  Library functions are
# looked up on their modules when a cell is computed, not bound at import.
_QUANTITIES = {
    "pbe_set": lambda g, t: "+".join(PROFILE_LABELS[p] for p in equilibrium.enumerate_pbe(g)),
    "bayesian_loss": lambda g, t: equilibrium.bayesian_system_loss(g),
    "majority_loss": lambda g, t: benchmarks.majority_vote_loss_biased(g),
    "abandon_action": lambda g, t: benchmarks.abandon_scheme(g)[0],
    "abandon_loss": lambda g, t: benchmarks.abandon_scheme(g)[1],
    "evolving_loss": lambda g, t: evolving.evolving_loss(g, t),
    "crossover_threshold": _crossover,
}


class Column(NamedTuple):
    """A quantity evaluated on the row's game with ``game`` overrides, at a
    fixed ``horizon`` or, given ``_ROW``, at the row's horizon."""

    header: str
    quantity: str
    game: dict = {}   # read only: shared by every instance
    horizon: int | str | None = None


class TableSpec(NamedTuple):
    """Default sweep, overrides of the config's game section, and the
    columns as a function of (options, sweep axis)."""

    axis: str
    values: list
    columns: Callable[[dict, str], list[Column]]
    game: dict = {}   # read only: shared by every instance


def _fixed(*columns: Column):
    return lambda options, axis: list(columns)


_ABANDON = Column("abandon_loss", "abandon_loss")


def _horizon_columns(horizons: list[int]) -> list[Column]:
    return [Column(f"loss_T{t}", "evolving_loss", horizon=t) for t in horizons]


def _evolving_columns(options: dict, axis: str) -> list[Column]:
    if axis == "horizon":
        return [Column("evolving_loss", "evolving_loss", horizon=_ROW), _ABANDON]
    return _horizon_columns(options["horizons"]) + [_ABANDON]


def _compare_columns(options: dict, axis: str) -> list[Column]:
    if axis != "n_users":
        raise ConfigError("compare sweeps the reviewer count")
    t = options["horizon"]
    return [Column("bayesian_loss", "bayesian_loss"),
            Column(f"evolving_loss_T{t}", "evolving_loss", horizon=t),
            Column("majority_loss", "majority_loss"),
            _ABANDON,
            Column("crossover_threshold", "crossover_threshold", horizon=t)]


_FIG_SHARES = (0.1, 0.5, 0.7)

_SPECS = {
    "pbe": TableSpec("p_high", [x / 10 for x in range(1, 10)], _fixed(
        Column("pbe_set", "pbe_set"), Column("system_loss", "bayesian_loss"))),
    "loss_curve": TableSpec("n_users", list(range(1, 9)), _fixed(
        Column("bayesian_loss", "bayesian_loss"))),
    "benchmark": TableSpec("n_users", list(range(1, 9)), _fixed(
        Column("majority_loss", "majority_loss"),
        Column("abandon_action", "abandon_action"), _ABANDON)),
    "evolving": TableSpec("horizon", list(range(2, 13)), _evolving_columns),
    "compare": TableSpec("n_users", list(range(1, 9)), _compare_columns),
    # Figure 2: commitment loss against the low mean, one column per horizon
    "fig2": TableSpec(
        "mu_low", [x / 2.0 for x in range(-10, 0)],
        lambda options, axis: _horizon_columns(options["horizons"]),
        dict(family="normal", mu_high=1.0, scale_low=1.0, scale_high=1.0, p_high=0.3)),
    # Figure 3: commitment loss against the horizon for three high variances
    "fig3": TableSpec("horizon", list(range(2, 11)), _fixed(_ABANDON, *(
        Column(f"evolving_var_high_{v:g}", "evolving_loss", dict(scale_high=math.sqrt(v)), _ROW)
        for v in (2.0 / 3.0, 1.0, 1.5))),
        dict(family="normal", mu_low=-1.0, mu_high=1.0, scale_low=1.0, p_high=0.3)),
    # Figure 4: the same for logistic and Laplace pairs
    "fig4": TableSpec("horizon", list(range(2, 11)), _fixed(
        _ABANDON,
        Column("logistic_loss", "evolving_loss", dict(family="logistic"), _ROW),
        Column("laplace_loss", "evolving_loss", dict(family="laplace"), _ROW)),
        dict(p_high=0.3, scale_low=1.0, scale_high=1.5)),
    # Figure 5: game learning with N reviewers against commitment over T = N periods
    "fig5": TableSpec("count", list(range(1, 9)), _fixed(
        Column("bayesian_loss_at_N", "bayesian_loss"),
        Column("evolving_loss_at_T", "evolving_loss", horizon=_ROW)),
        dict(p_high=0.3, q_plus=0.5, scale_low=1.0, scale_high=math.sqrt(1.5))),
    # Figure 6: baselines and game learning against N for three bias shares
    "fig6": TableSpec("n_users", list(range(1, 9)), _fixed(
        _ABANDON,
        *(Column(f"majority_q{q:g}", "majority_loss", dict(q_plus=q)) for q in _FIG_SHARES),
        *(Column(f"bayesian_q{q:g}", "bayesian_loss", dict(q_plus=q)) for q in _FIG_SHARES)),
        dict(p_high=0.3, scale_low=1.0, scale_high=math.sqrt(1.5))),
}

SCENARIOS = (*_SPECS, "simulate")


def _build_table(cfg: ExperimentConfig):
    """Evaluate a table spec; every cell is computed on its own row's game."""
    spec = _SPECS[cfg.scenario]
    if cfg.sweep_axis is not None and not cfg.sweep_values:
        raise ConfigError("sweep.values must be a non-empty list")
    axis = cfg.sweep_axis or spec.axis
    values = cfg.sweep_values or spec.values
    columns = spec.columns(cfg.options, axis)
    reads_row_horizon = any(c.horizon == _ROW for c in columns)
    if axis == "horizon" and not reads_row_horizon:
        raise ConfigError(f"axis {axis!r} does not modify the game")
    if reads_row_horizon and axis not in ("horizon", "count"):
        raise ConfigError(f"axis {axis!r} sets no horizon for {cfg.scenario}")

    base = dict(cfg.game, **spec.game)
    rows = []
    for raw in values:
        value = _AXIS_TYPES.get(axis, _real)(raw)
        section = _apply_axis(base, axis, value)
        rows.append([value] + [
            _QUANTITIES[c.quantity](build_game(dict(section, **c.game)),
                                   value if c.horizon == _ROW else c.horizon)
            for c in columns])
    return [axis] + [c.header for c in columns], rows


def _scenario_simulate(cfg: ExperimentConfig):
    g = build_game(cfg.game)
    profile = PROFILES_BY_LABEL[cfg.options["profile"]]
    samples, seed = cfg.options["samples"], cfg.options["seed"]
    rule = game.best_response_rule(profile, g)
    report = montecarlo.simulate_game(g, profile, rule, samples, seed)

    cells = (
        ("cost", report.mean_cost, report.stderr_cost,
         game.expected_platform_cost(profile, rule, g)),
        ("utility_negative", report.mean_utility_negative, report.stderr_utility_negative,
         game.expected_user_utility(profile, rule, Bias.NEGATIVE, g)),
        ("utility_positive", report.mean_utility_positive, report.stderr_utility_positive,
         game.expected_user_utility(profile, rule, Bias.POSITIVE, g)),
    )
    header = ["quantity", "estimate", "stderr", "reference", "z_score"]
    rows = [[name, est, se, ref, (est - ref) / se if se else math.nan]
            for name, est, se, ref in cells]
    return header, rows


# ---------------------------------------------------------------------------
# output


def _format_cell(value) -> str:
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    _write_atomic(path, buf.getvalue())


def default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def run(cfg: ExperimentConfig, out_dir=None) -> list[Path]:
    """Evaluate one scenario and write its CSV; returns the written path."""
    out = Path(out_dir) if out_dir is not None else default_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    if cfg.scenario == "simulate":
        header, rows = _scenario_simulate(cfg)
    else:
        header, rows = _build_table(cfg)
    path = out / f"{cfg.stem}.csv"
    write_csv(path, header, rows)
    return [path]
