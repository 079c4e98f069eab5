"""Every bundled config reproduces its committed CSV byte for byte.

The files under ``tests/golden`` were written by the harness before it was
rebuilt around the declarative table specs; any change in a sweep, a column
or a float's last printed digit shows up here.
"""

from pathlib import Path

import pytest

from cheaptalk_lab.harness import load_experiment, run

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


def test_every_config_has_a_golden_file():
    assert {p.stem for p in CONFIGS} == {
        p.stem for p in (ROOT / "tests" / "golden").glob("*.csv")}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_its_golden_csv(config, tmp_path):
    (path,) = run(load_experiment(config), out_dir=tmp_path)
    golden = ROOT / "tests" / "golden" / f"{path.stem}.csv"
    assert path.read_bytes() == golden.read_bytes()
