"""gradleaf runs on numpy alone.  Its Gauss-Legendre table and its
multilinear interpolator reproduce scipy's bit for bit, and its DOP853 loop
agrees with scipy's to rounding, so scipy serves here as the independent
reference."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients
from scipy.interpolate import RegularGridInterpolator
from scipy.special import roots_legendre

from conftest import reference_problem
from gradleaf import dop853
from gradleaf.errors import OutsideSampledDomain
from gradleaf.flow import integrate_forward
from gradleaf.kernels import GAUSS_NODES, GAUSS_WEIGHTS
from gradleaf.lyapunov_perron import GraphSample
from references import scipy_trajectory

ROOT = Path(__file__).resolve().parent.parent

_LOADED_SCIPY = """
import json, sys
from gradleaf import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

after_import = scipy_modules()
code = cli.main(["all", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "after_import": after_import,
                  "after_run": scipy_modules()}))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # a subprocess, because this test module imports scipy itself; checking
    # after the run also catches an import made inside a function
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCIPY,
         str(ROOT / "configs" / "p1_quadratic.json"), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "after_import": [], "after_run": []}


_BLAS_THREADS = """
import os
import gradleaf
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_one_blas_thread_unless_the_caller_sets_it(given, expected):
    # gradleaf sets the default before numpy is first imported
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS], env={**env, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


_LOADED_MA = """
import json, sys
from gradleaf import cli

code = cli.main(["all", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "after_run": sorted(
    m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))}))
"""


def test_runtime_loads_no_numpy_ma(tmp_path):
    # np.median loads numpy.ma on its first call; a run must not
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MA,
         str(ROOT / "configs" / "p1_quadratic.json"), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"code": 0, "after_run": []}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["A", "B", "E3", "E5"])
def test_dop853_tableau_matches_scipy(name):
    # scipy's A also holds the dense output's three extra stages; gradleaf
    # keeps the leading block of the step's 13 stages
    expected = getattr(dop853_coefficients, name)
    if name == "A":
        expected = expected[:dop853.N_STAGES + 1, :dop853.N_STAGES + 1]
    assert _same_bits(getattr(dop853, name), expected)


def test_dop853_stage_counts_match_scipy():
    assert dop853.N_STAGES == dop853_coefficients.N_STAGES


def test_gauss_legendre_table_matches_scipy():
    nodes, weights = roots_legendre(16)
    assert _same_bits(GAUSS_NODES, nodes)
    assert _same_bits(GAUSS_WEIGHTS, weights)


def _sample(axes, codim, rng):
    shape = tuple(len(ax) for ax in axes)
    values = rng.standard_normal(shape + (codim,))
    return GraphSample("F_inf", tuple(axes), values,
                       np.zeros(shape), np.zeros(shape, dtype=int))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("codim", [1, 2])
def test_graph_evaluate_matches_regular_grid_interpolator(dim, codim):
    rng = np.random.default_rng(10 * dim + codim)
    # one uneven axis, so the cell widths differ
    axes = [np.linspace(-0.4, 0.4, 7), np.array([-0.3, -0.1, 0.05, 0.2, 0.3]),
            np.linspace(-0.2, 0.2, 4)][:dim]
    sample = _sample(axes, codim, rng)
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    points = lo + (hi - lo) * rng.random((40, dim))
    points[0], points[1] = lo, hi                        # first and last node
    points[2] = [ax[2] for ax in axes]                    # an interior node
    points[3:6, 0] = axes[0][3]                           # on a grid line
    points[6:9, -1] = axes[-1][-1]                        # on the last face
    reference = RegularGridInterpolator(tuple(axes), sample.values,
                                        method="linear", bounds_error=True)
    assert _same_bits(sample.evaluate(points), reference(points))
    for p in points[:9]:
        assert _same_bits(sample.evaluate(p), reference(p[None, :])[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_graph_evaluate_rejects_points_off_the_grid(dim):
    axes = [np.linspace(-0.4, 0.4, 5)] * dim
    sample = _sample(axes, 2, np.random.default_rng(3))
    for bad in (0.4 + 1e-12, -0.5, np.nan):
        point = np.zeros(dim)
        point[-1] = bad
        with pytest.raises(OutsideSampledDomain):
            sample.evaluate(point)
        with pytest.raises(OutsideSampledDomain):
            sample.evaluate(np.stack([np.zeros(dim), point]))


PROBLEMS = {"p1": "p1_quadratic", "p2": "p2_quartic", "p3": "p3_cubic3d"}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_integrate_forward_matches_scipy(name, trajectory_tol):
    # the stage sums of a one-row block round differently from scipy's, so
    # the two agree to rounding, not bit for bit
    problem = reference_problem(PROBLEMS[name])
    rng = np.random.default_rng(5)
    n = problem.dimension
    for duration, (rtol, atol) in ((0.8, (1e-10, 1e-12)), (2.5, (1e-8, 1e-11)),
                                   (2.0, (1e-11, 1e-13))):
        start = problem.critical_point + rng.uniform(-0.1, 0.1, n)
        trajectory_tol(rtol, atol)
        traj = integrate_forward(problem, start, duration)
        ref = scipy_trajectory(problem, start, duration, rtol, atol)
        assert traj.times[-1] == duration
        assert np.max(np.abs(traj.states[-1] - ref.y[:, -1])) <= 1e-14
        # every step end of gradleaf's run lies on scipy's trajectory
        assert np.max(np.abs(traj.states - ref.sol(traj.times).T)) <= 1e-14


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_integrate_forward_exit_time_matches_scipy(name):
    """The step of gradleaf's run that leaves a ball ends across the exit
    scipy's event location finds, and the step ends before it lie on
    scipy's trajectory."""
    problem = reference_problem(PROBLEMS[name])
    rng = np.random.default_rng(6)
    center, radius = problem.critical_point, 0.2
    start = center + rng.uniform(-0.05, 0.05, problem.dimension)

    def exit_ball(t, x):
        return float(np.linalg.norm(x - center) - radius)
    exit_ball.terminal = True
    exit_ball.direction = 1.0

    ref = scipy_trajectory(problem, start, 20.0, 1e-10, 1e-12, [exit_ball])
    assert ref.status == 1
    # run on past the exit, to a duration that the step across it ends before
    traj = integrate_forward(problem, start, ref.t_events[0][0] + 1.0)
    # the first step end of the run outside the ball ends the step across it
    before = next(i for i, (t, x) in enumerate(zip(traj.times, traj.states))
                  if exit_ball(t, x) >= 0.0)
    lo, hi = traj.times[before - 1], traj.times[before]
    assert hi < traj.times[-1]
    assert exit_ball(lo, traj.states[before - 1]) <= 0.0
    assert lo < ref.t_events[0][0] <= hi
    # the step ends inside the ball agree with scipy's trajectory to rounding
    inside = traj.times[:before]
    assert np.max(np.abs(traj.states[:before] - ref.sol(inside).T)) <= 1e-14
