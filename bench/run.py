"""Benchmark of cheaptalk-lab: one workload per run, closed loop, checked.

Usage, from the repository root:

    python3 bench/run.py --workload paper_configs --seed 1 --seconds 15 --trace 0

The run imports the package from ``src/``, builds the workload's operations
from the seed, runs one untimed warm-up round and then whole rounds until
``--seconds`` have passed.  Each round runs on a freshly imported package, as
one command-line invocation would, so module-level caches start cold every
round.  One process issues the calls, each after the previous one returns.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object.
A call whose output fails its check is counted in ``failed`` and left out of
every timing, and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PACKAGE = "cheaptalk_lab"
WORKLOADS = ("paper_configs", "large_population", "game_sampling",
             "commitment_sampling")
SETUP_REPEATS = 7


def python_kernel() -> float:
    """Fixed interpreter work, about 1 ms: a weighted sum over all 2^10 bias
    assignments, the kind of work the package's equilibrium code does."""
    total = 0.0
    for combo in itertools.product((0.3, 0.7), repeat=10):
        total += math.prod(combo) * (sum(c > 0.5 for c in combo) > 5)
    return total


def numpy_kernel() -> float:
    """Fixed array work, about 10 ms: uniform draws, a select and a sum,
    the kind of work the package's Monte Carlo code does."""
    x = np.random.default_rng(0).random(400_000)
    return float(np.where(x < 0.3, x, -x).sum())


# The reference kernel of each workload, of the same kind as its work.  The
# machine this benchmark was written on changes speed by up to 2x within
# seconds; the kernel, timed next to every operation, changes with it, so
# operation times in units of the kernel stay steady.  Changing a kernel
# changes the unit of the workload's ``_ref`` metrics.
KERNELS = {"paper_configs": python_kernel, "large_population": python_kernel,
           "game_sampling": numpy_kernel, "commitment_sampling": numpy_kernel}


def kernel_seconds(kernel) -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the command line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", f"import {PACKAGE}.cli"], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def fresh_package() -> dict:
    """Import the package anew; returns the pass state the operations use."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lab = importlib.import_module(PACKAGE)
    return {"lab": lab, "cli": importlib.import_module(f"{PACKAGE}.cli")}


class Tally:
    """Operation outcomes and timings of the measured rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []        # (kind, first problems) of failed calls
        self.seconds = {}         # kind -> wall seconds per passing call
        self.refs = {}            # kind -> call time / kernel time
        self.passes = []          # wall seconds per untraced round

    def add(self, op, seconds, ref, problems):
        """Count one call; only a call with a right output is timed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((op.kind, problems[:3]))
            return
        self.seconds.setdefault(op.kind, []).append(seconds)
        self.refs.setdefault(op.kind, []).append(ref)


def run_round(ops, kernel, tally=None, tracer=None, peaks=None) -> float:
    """Run every operation once on a fresh import; returns the timed seconds.

    The reference kernel runs before the first call and after every call,
    outside the timed regions; each call is also recorded in units of the
    mean of the two kernel times around it.  With ``peaks`` (a dict), and
    tracemalloc tracing, the peak traced memory during each call is stored
    there in MiB.
    """
    state = fresh_package()
    if tracer is not None:
        tracer.install()
    gc.collect()
    total = 0.0
    kernel_before = kernel_seconds(kernel)
    for op in ops:
        seconds = 0.0
        try:
            call = op.prepare(state)
            if peaks is not None:
                tracemalloc.reset_peak()
            start = perf_counter()
            output = call()
            seconds = perf_counter() - start
            if peaks is not None:
                peaks[op.kind] = tracemalloc.get_traced_memory()[1] / 2**20
            problems = op.check(output, state)
        except Exception as exc:   # a raising operation counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        kernel_after = kernel_seconds(kernel)
        total += seconds
        if tally is not None:
            ref = seconds / ((kernel_before + kernel_after) / 2)
            tally.add(op, seconds, ref, problems)
        kernel_before = kernel_after
    return total


def warm_up(ops, kernel) -> dict:
    """One untimed round of the single-worker calls under tracemalloc;
    returns the peak traced memory during each call, in MiB.

    Tracing starts before the round's fresh import, so a peak counts what
    the import and the earlier calls left allocated, plus the call's own
    transient memory.  numpy reports its array buffers to tracemalloc, so the
    peaks cover the arrays of the Monte Carlo calls.  Two-worker calls are
    left out: their peak depends on how the two threads overlap.
    """
    peaks = {}
    tracemalloc.start()
    try:
        run_round([op for op in ops if op.workers == 1], kernel, peaks=peaks)
    finally:
        tracemalloc.stop()
    return peaks


def build_ops(workload: str, seed: int, scratch: Path):
    import workloads
    if workload == "paper_configs":
        return workloads.paper_configs(seed, ROOT, scratch)
    return getattr(workloads, workload)(seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result, detail = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    for kind, problems in detail["problems"][:5]:
        print(f"bench: {kind} failed: {problems}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def measure(args, scratch: Path):
    from tracing import Tracer

    setup = []
    if not args.trace:
        import_seconds()   # writes the bytecode cache
    ops = build_ops(args.workload, args.seed, scratch)
    kernel = KERNELS[args.workload]
    peaks = warm_up(ops, kernel)

    tally = Tally()
    traced_passes, layer_rows = [], []
    deadline = perf_counter() + args.seconds
    while True:
        if args.trace and len(tally.passes) > len(traced_passes):
            tracer = Tracer()
            traced_passes.append(run_round(ops, kernel, tally, tracer))
            layer_rows.append(tracer.layer_metrics())
        else:
            tally.passes.append(run_round(ops, kernel, tally))
        # set-up is sampled between rounds, so it meets the same machine load
        if not args.trace and len(setup) < SETUP_REPEATS:
            start = perf_counter()
            setup.append(import_seconds())
            deadline += perf_counter() - start
        if perf_counter() >= deadline and (not args.trace or traced_passes):
            break
    while not args.trace and len(setup) < SETUP_REPEATS:
        setup.append(import_seconds())

    if args.trace:
        metrics = {name: {"value": statistics.median(r[name] for r in layer_rows),
                          "unit": "s" if name.rsplit(".", 1)[1] in ("s", "self_s")
                          else "count"}
                   for name in layer_rows[0]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_passes) - statistics.median(tally.passes),
            "unit": "s"}
    else:
        # two-worker calls are checked but not timed: on two shared cores
        # their speed depends on the neighbours' load more than on the code
        refs = [statistics.median(tally.refs[op.kind])
                for op in ops if op.workers == 1 and op.kind in tally.refs]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_ref": {"value": sum(refs), "unit": "ref"},
            "peak_mib": {"value": max(peaks.values()), "unit": "MiB"},
        }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail = {
        "result": result,
        "pass_s": tally.passes,
        "traced_pass_s": traced_passes,
        "setup_s": setup,
        "op_s": tally.seconds,
        "op_ref": tally.refs,
        "call_peak_mib": peaks,
        "problems": tally.problems,
    }
    return result, detail


if __name__ == "__main__":
    sys.exit(main())
