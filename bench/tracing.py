"""Spans around calls into the package's public functions.

The package's source is not touched: ``Tracer.install`` replaces each traced
function, in every loaded ``cheaptalk_lab`` module that refers to it, by a
wrapper that times the call as a span and adds it to per-function counters:
calls, span time, and self time (span time minus child spans).  Calls made
inside the package go through module globals, so they are caught too.
Install on a freshly imported package; the next fresh import drops the
wrappers.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "cheaptalk_lab"

# "<module>.<function>" for every traced public function.
TRACED = (
    "cli.main",
    "harness.run",
    "harness.load_experiment",
    "distributions.alpha_beta",
    "game.best_response_rule",
    "game.expected_user_utility",
    "game.expected_platform_cost",
    "equilibrium.enumerate_pbe",
    "equilibrium.bayesian_system_loss",
    "benchmarks.majority_vote_loss_biased",
    "evolving.evolving_loss",
    "evolving.solve_schedule",
    "evolving.verify_ic",
    "montecarlo.simulate_game",
    "montecarlo.simulate_evolving",
)

# Functions whose first argument is recorded, to count distinct inputs.
_KEYED = {"distributions.alpha_beta"}


class Tracer:
    """Span timer for one pass; only the installing thread is traced."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()   # span time, seconds
        self.own = Counter()     # span time minus child spans, seconds
        self.keys = defaultdict(set)
        self._stack = []         # child seconds of each open span
        self._thread = threading.get_ident()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for dotted in TRACED:
            module_name, fn_name = dotted.split(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(dotted, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        keyed = name in _KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            if keyed and args:
                self.keys[name].add(args[0])
            self._stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.own[name] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this pass, named as in BENCHMARK.json."""
        m = {
            "cli.main.self_s": self.own["cli.main"],
            "harness.run.self_s": self.own["harness.run"],
            "harness.load_experiment.s": self.total["harness.load_experiment"],
            "distributions.alpha_beta.calls": self.calls["distributions.alpha_beta"],
            "distributions.alpha_beta.s": self.total["distributions.alpha_beta"],
            "distributions.alpha_beta.calls_per_pair": _ratio(
                self.calls["distributions.alpha_beta"],
                len(self.keys["distributions.alpha_beta"])),
        }
        for name in ("game.best_response_rule", "game.expected_user_utility",
                     "game.expected_platform_cost"):
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.s"] = self.total[name]
        m["equilibrium.enumerate_pbe.calls"] = self.calls["equilibrium.enumerate_pbe"]
        m["equilibrium.enumerate_pbe.self_s"] = self.own["equilibrium.enumerate_pbe"]
        m["equilibrium.bayesian_system_loss.self_s"] = \
            self.own["equilibrium.bayesian_system_loss"]
        m["equilibrium.utility_evals_per_solve"] = _ratio(
            self.calls["game.expected_user_utility"],
            self.calls["equilibrium.enumerate_pbe"])
        m["benchmarks.majority_vote_loss_biased.s"] = \
            self.total["benchmarks.majority_vote_loss_biased"]
        m["evolving.evolving_loss.calls"] = self.calls["evolving.evolving_loss"]
        m["evolving.evolving_loss.self_s"] = self.own["evolving.evolving_loss"]
        for name in ("evolving.solve_schedule", "evolving.verify_ic",
                     "montecarlo.simulate_evolving", "montecarlo.simulate_game"):
            m[f"{name}.s"] = self.total[name]
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
