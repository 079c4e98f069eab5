#!/usr/bin/env python3
"""Regenerate every bundled sweep as CSV under ./gallery_out.

Equivalent to running the ``cheaptalk-lab`` command on each file in
``configs/``; shown here through the library API.
"""

from pathlib import Path

from cheaptalk_lab.harness import load_experiment, run

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
OUT = Path("gallery_out")

for config_path in sorted(CONFIG_DIR.glob("*.yaml")):
    for artifact in run(load_experiment(config_path), out_dir=OUT):
        print(artifact)
