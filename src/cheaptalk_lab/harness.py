"""Experiment front end: config parsing, table specs, CSV output.

A scenario reads a YAML experiment file with three sections (``game``,
``sweep``, ``output``; plus the ``options`` the scenario declares), evaluates
the requested quantities through the library, and writes one CSV whose first
column is the swept value.  Floats are formatted at nine significant digits
and the body carries no timestamps, so reruns are byte-identical.  The file is
staged in a temporary name and renamed, so failed runs leave nothing behind.

Each scenario is one entry of ``_SPECS``, Figures 2-6 as ``fig2``-``fig6``:
a default sweep, game defaults, options with their defaults, and columns, each
a quantity from a small registry with optional game values and a fixed
horizon.  A value in the file beats the scenario's default, which beats
``_GAME_DEFAULTS``.  Every value is typed at load, by ``_TYPES``, and the run
refuses only values outside the game's domain.  Each swept value gives a row,
and every cell is computed on its own row's game, the column's values applied
last, as they define it.  The ``horizon`` and ``count`` axes set the horizon of
columns without a fixed one.
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

SWEEP_AXES = ("n_users", "horizon", "count", "p_high", "q_plus", "mu_low", "var_high",
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


def _count(value) -> int:
    if _integer(value) < 1:
        raise ConfigError(f"expected an integer >= 1, got {value!r}")
    return int(value)


def _counts(value) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"expected a non-empty list, got {value!r}")
    counts = [_count(v) for v in value]
    if len(set(counts)) < len(counts):
        raise ConfigError(f"expected distinct entries, got {value!r}")
    return counts


def _one_of(kind: str, names: tuple) -> Callable:
    def typed(value):
        if value in names:
            return value
        raise ConfigError(f"unknown {kind} {value!r}; expected one of {names}")
    return typed


# the type of each option, game value and sweep axis, by name; real if unlisted
_TYPES = {"n_users": _count, "count": _count, "horizon": _count, "horizons": _counts,
          "samples": _count, "seed": _integer,
          "profile": _one_of("profile", tuple(PROFILES_BY_LABEL)),
          "family": _one_of("family", tuple(f.value for f in Family))}


def _typed(where: str, key: str, value):   # a refusal names the key
    try:
        return _TYPES.get(key, _real)(value)
    except ConfigError as exc:
        raise ConfigError(f"{where} {key!r}: {exc}") from None


@dataclass
class ExperimentConfig:
    """A whole run, every value typed: the game and the sweep with the
    scenario's defaults, the stem, and every option the scenario reads."""

    scenario: str
    game: dict
    sweep_axis: str | None = None
    sweep_values: list = field(default_factory=list)
    stem: str = "results"
    options: dict = field(default_factory=dict)


def load_experiment(path, scenario: str | None = None, seed: int | None = None,
                    samples: int | None = None) -> ExperimentConfig:
    """Parse, type and resolve an experiment file.  A ``scenario`` argument
    must be the file's, if it names one; ``seed`` and ``samples`` win over the
    file's options.  An axis in the file brings its own values; values without
    one sweep the default axis.  Every value is typed by ``_TYPES``; an
    undeclared option, or an empty sweep or one the columns cannot read, is refused."""
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

    spec = _SPECS[chosen]
    if sweep and spec.axis is None:
        raise ConfigError(f"section 'sweep' is not read by {chosen!r}, which sweeps nothing")
    axis = sweep.get("axis")
    if axis not in (None, *SWEEP_AXES):
        raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    axis, values = axis or spec.axis, sweep.get("values", [] if axis else spec.values)
    if not isinstance(values, list) or (spec.axis and not values):
        raise ConfigError(f"sweep.values must be a non-empty list, got {values!r}")

    stem = str(output.get("stem", "results"))
    if stem in ("", "..") or stem != Path(stem).name:   # a file name inside the output directory
        raise ConfigError(f"output.stem must be a plain file name, got {stem!r}")

    options.update({key: value for key, value in (("seed", seed), ("samples", samples))
                    if value is not None})
    declared = spec.options
    for key in options:
        if key not in declared:
            readers = ", ".join(repr(s) for s, other in _SPECS.items() if key in other.options)
            raise ConfigError(f"option {key!r} is not read by {chosen!r}, only by {readers}")
    if chosen == "evolving" and axis == "horizon":   # each row is its own horizon
        if "horizons" in options:
            raise ConfigError("option 'horizons' is not read by 'evolving' sweeping 'horizon', "
                              "its default sweep, where each row is its own horizon")
        declared = {}
    options = {key: _typed("option", key, options.get(key, d)) for key, d in declared.items()}

    if spec.columns:
        reads_row = any(c.horizon == _ROW for c in spec.columns(options, axis))
        if axis == "horizon" and not reads_row:
            raise ConfigError(f"axis {axis!r} does not modify the game")
        if reads_row and axis not in ("horizon", "count"):
            raise ConfigError(f"axis {axis!r} sets no horizon for {chosen}")

    game = {**_GAME_DEFAULTS, **spec.game, **game_section}
    return ExperimentConfig(chosen, {key: _typed("game", key, v) for key, v in game.items()},
                            axis, [_typed("sweep", axis, v) for v in values], stem, options)


def _check_keys(section, allowed: tuple[str, ...], where: str) -> dict:
    """``section`` itself, if it is a mapping with no key outside ``allowed``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must contain a mapping")
    unknown = [key for key in section if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}; expected one of {allowed}")
    return section


def build_game(section: dict) -> GameConfig:
    """The game of a typed section; a value outside its domain is refused."""
    try:
        family = section["family"]
        pair = DistributionPair(
            StateDistribution(family, section["mu_low"], section["scale_low"]),
            StateDistribution(family, section["mu_high"], section["scale_high"]))
        return GameConfig(section["n_users"], section["p_high"], section["q_plus"], pair)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


class Spec(NamedTuple):
    """A scenario's default sweep, columns as a function of (options, axis),
    game defaults, and options with their defaults; all read only."""

    axis: str | None = None
    values: list = []
    columns: Callable[[dict, str], list[Column]] | None = None
    game: dict = {}
    options: dict = {}


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
        raise ConfigError(f"axis {axis!r} is not read by 'compare', which sweeps 'n_users'")
    t = options["horizon"]
    return [Column("bayesian_loss", "bayesian_loss"),
            Column(f"evolving_loss_T{t}", "evolving_loss", horizon=t),
            Column("majority_loss", "majority_loss"),
            _ABANDON,
            Column("crossover_threshold", "crossover_threshold", horizon=t)]


_FIG_SHARES = (0.1, 0.5, 0.7)

_SPECS = {
    "pbe": Spec("p_high", [x / 10 for x in range(1, 10)], _fixed(
        Column("pbe_set", "pbe_set"), Column("system_loss", "bayesian_loss"))),
    "loss_curve": Spec("n_users", list(range(1, 9)), _fixed(
        Column("bayesian_loss", "bayesian_loss"))),
    "benchmark": Spec("n_users", list(range(1, 9)), _fixed(
        Column("majority_loss", "majority_loss"),
        Column("abandon_action", "abandon_action"), _ABANDON)),
    "evolving": Spec("horizon", list(range(2, 13)), _evolving_columns,
                     options={"horizons": [2, 4, 6]}),
    "compare": Spec("n_users", list(range(1, 9)), _compare_columns, options={"horizon": 2}),
    # Figure 2: commitment loss against the low mean, one column per horizon
    "fig2": Spec("mu_low", [x / 2.0 for x in range(-10, 0)],
                 lambda options, axis: _horizon_columns(options["horizons"]),
                 options={"horizons": [2, 3, 4, 5, 6]}),
    # Figure 3: commitment loss against the horizon for three high variances
    "fig3": Spec("horizon", list(range(2, 11)), _fixed(_ABANDON, *(
        Column(f"evolving_var_high_{v:g}", "evolving_loss", dict(scale_high=math.sqrt(v)), _ROW)
        for v in (2.0 / 3.0, 1.0, 1.5)))),
    # Figure 4: the same for logistic and Laplace pairs
    "fig4": Spec("horizon", list(range(2, 11)), _fixed(
        _ABANDON,
        Column("logistic_loss", "evolving_loss", dict(family="logistic"), _ROW),
        Column("laplace_loss", "evolving_loss", dict(family="laplace"), _ROW)),
        dict(scale_high=1.5)),
    # Figure 5: game learning with N reviewers against commitment over T = N periods
    "fig5": Spec("count", list(range(1, 9)), _fixed(
        Column("bayesian_loss_at_N", "bayesian_loss"),
        Column("evolving_loss_at_T", "evolving_loss", horizon=_ROW)),
        dict(scale_high=math.sqrt(1.5))),
    # Figure 6: baselines and game learning against N for three bias shares
    "fig6": Spec("n_users", list(range(1, 9)), _fixed(
        _ABANDON,
        *(Column(f"majority_q{q:g}", "majority_loss", dict(q_plus=q)) for q in _FIG_SHARES),
        *(Column(f"bayesian_q{q:g}", "bayesian_loss", dict(q_plus=q)) for q in _FIG_SHARES)),
        dict(scale_high=math.sqrt(1.5))),
    "simulate": Spec(options={"profile": "SC1", "samples": 100_000, "seed": 0}),
}

SCENARIOS = tuple(_SPECS)
_SECTION_KEYS = {"game": tuple(_GAME_DEFAULTS), "sweep": ("axis", "values"), "output": ("stem",),
                 "options": tuple(dict.fromkeys(key for s in _SPECS.values() for key in s.options))}


def _build_table(cfg: ExperimentConfig):
    """Evaluate a table scenario; every cell is computed on its own row's game."""
    axis = cfg.sweep_axis
    columns = _SPECS[cfg.scenario].columns(cfg.options, axis)
    rows = []
    for value in cfg.sweep_values:
        section = _apply_axis(cfg.game, axis, value)
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
    if cfg.scenario == "simulate":
        header, rows = _scenario_simulate(cfg)
    else:
        header, rows = _build_table(cfg)
    out = Path(out_dir) if out_dir is not None else default_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{cfg.stem}.csv"
    write_csv(path, header, rows)
    return [path]
