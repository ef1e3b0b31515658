"""The benchmark tracer wraps gradleaf functions by their module binding, so
a renamed or removed traced name breaks traced benchmark runs.  These tests
catch that in the ordinary suite."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gradleaf.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACE = ROOT / "bench" / "trace.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    trace = _load("bench_trace", TRACE)
    missing = []
    for module, owner, attr, _, _ in trace.layers(trace.Tracer()):
        home = importlib.import_module(f"gradleaf.{module}")
        target = home if owner is None else getattr(home, owner, None)
        if target is None or not hasattr(target, attr):
            missing.append(f"gradleaf.{module}.{owner + '.' if owner else ''}{attr}")
    assert not missing, f"traced names missing from src/: {missing}"


def test_traced_run_matches_untraced(tmp_path):
    compare_outputs = _load("compare_outputs",
                            ROOT / "scripts" / "compare_outputs.py")
    config = ROOT / "configs" / "p1_quadratic.json"
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main(["all", "--config", str(config), "--out", str(plain)]) == 0
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(TRACE), str(tmp_path / "spans.npz"), "all",
         "--config", str(config), "--out", str(traced)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert compare_outputs.main([str(plain), str(traced)]) == 0
    # the single-trajectory driver is reached through the traced name
    spans = np.load(tmp_path / "spans.npz")
    counters = json.loads(spans["counters"].item())
    assert counters["flow.rhs_evals"] > 0
    names = spans["names"].tolist()
    assert "flow.solve_ivp" in names
    assert np.count_nonzero(spans["name"] == names.index("flow.solve_ivp")) >= 1
