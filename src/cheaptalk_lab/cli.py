"""Command-line entry point: ``cheaptalk-lab <scenario> --config <file>``, one
parser, built at import, whose options are the same for every scenario.  The
scenarios are ``harness.SCENARIOS``: each table's name, Figures 2-6 as
``fig2``-``fig6``, and ``simulate``."""

from __future__ import annotations

import argparse
import sys

from .errors import CheapTalkError
from .harness import SCENARIOS, load_experiment, run

_PARSER = argparse.ArgumentParser(
    prog="cheaptalk-lab",
    description="Evaluate rating-game equilibria, benchmarks, commitment "
                "mechanisms, and seeded simulations from an experiment file.",
)
_PARSER.add_argument("scenario", choices=SCENARIOS)
_PARSER.add_argument("--config", required=True, help="YAML experiment file")
_PARSER.add_argument("--out", default=None,
                     help="output directory (default: $CHEAPTALK_LAB_OUT or cwd)")
_PARSER.add_argument("--seed", type=int, default=None, help="override options.seed")
_PARSER.add_argument("--samples", type=int, default=None, help="override options.samples")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_experiment(args.config, scenario=args.scenario,
                              seed=args.seed, samples=args.samples)
        for path in run(cfg, out_dir=args.out):
            print(path)
    except (CheapTalkError, ValueError, OSError) as exc:
        print(f"cheaptalk-lab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
