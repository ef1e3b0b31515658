"""Smoke runs of the experiment scripts on the linear reference problem."""

import csv
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "p1_quadratic.json"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_contraction_experiment(tmp_path):
    out = tmp_path / "contraction.csv"
    _load("contraction_experiment").measure(CONFIG, out, pairs=3)
    rows = _rows(out)
    assert len(rows) == 5
    for row in rows:
        # a linear flow has h = 0: the operator is constant
        assert 0.0 <= float(row["measured_factor"]) <= float(row["guarantee"])
    assert list(tmp_path.iterdir()) == [out]


def test_horizon_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    _load("horizon_sweep").sweep(CONFIG, out, n_horizons=3)
    rows = _rows(out)
    assert len(rows) == 6
    for row in rows:
        assert float(row["gap"]) <= float(row["bound"])
    assert list(tmp_path.iterdir()) == [out]
