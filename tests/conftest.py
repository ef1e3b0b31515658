"""Shared fixtures: reference problems solved once per session."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gradleaf import flow
from gradleaf import lyapunov_perron as lp
from gradleaf.convergence import GraphFamilySolver
from gradleaf.local_model import (
    LocalModel,
    build_ladder,
    calibrate_ladder,
    lipschitz_modulus,
)
from gradleaf.problems import load_problem
from gradleaf.spectral import split

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_problem(name):
    """The problem of ``configs/<name>.json``."""
    return load_problem(CONFIGS / f"{name}.json")


class Setup:
    """Everything downstream modules need for one problem, built as a run
    builds it: the ladder from the Lipschitz bounds of q's coefficient
    table (``modulus``, a function of the radius, and ``kappa_star``), the
    raw ladder's graphs, the calibrated ladder and its descending sphere.  The
    model holds the grids and convolvers every solve of the session shares,
    and their counts."""

    def __init__(self, problem):
        self.problem = problem
        self.split = split(problem.hess(problem.critical_point))
        self.model = LocalModel(problem, self.split)
        self.modulus, self.kappa_star = lipschitz_modulus(self.model)
        self.ladder_raw = build_ladder(self.split, self.modulus,
                                       self.kappa_star, problem.trust_radius)
        self.graph_f = lp.graph_F_inf(self.model, self.ladder_raw)
        self.graph_g = lp.graph_G_inf(self.model, self.ladder_raw)
        self.ladder = calibrate_ladder(self.ladder_raw, self.model,
                                       self.graph_f, self.graph_g)
        self.sphere = lp.descending_disk(self.model, self.ladder, self.graph_f)

    def sphere_point(self, i=0):
        return self.sphere[i]

    def solver(self):
        """A new solve store of the calibrated ladder."""
        return GraphFamilySolver(self.model, self.ladder)

    def orbit(self, z_minus, t_need=None):
        t_max = lp.default_horizon(self.ladder)
        return lp.backward_orbit(self.model, self.ladder,
                                 np.asarray(z_minus, dtype=float),
                                 t_max if t_need is None else max(t_max, t_need))


@pytest.fixture(scope="session")
def p1():
    return Setup(reference_problem("p1_quadratic"))


@pytest.fixture(scope="session")
def p2():
    return Setup(reference_problem("p2_quartic"))


@pytest.fixture(scope="session")
def p3():
    return Setup(reference_problem("p3_cubic3d"))


@pytest.fixture(scope="session")
def k2():
    return Setup(reference_problem("k2_cubic"))


@pytest.fixture(scope="session", params=[1e-5, 1e-7, 1e-8])
def p2_small(request):
    """p2_quartic with a trust radius of 1e-5, 1e-7 or 1e-8: epsilon is
    7.0e-13, 7.0e-17 or 7.0e-19, below every absolute tolerance in f."""
    return Setup(dataclasses.replace(reference_problem("p2_quartic"),
                                     trust_radius=request.param))


@pytest.fixture(scope="session")
def curved():
    return Setup(reference_problem("curved_stable"))


@pytest.fixture
def trajectory_tol(monkeypatch):
    """``set(rtol, atol)`` sets the tolerances of ``integrate_forward`` for
    one test."""
    def set_tol(rtol, atol):
        monkeypatch.setattr(flow, "TRAJECTORY_RTOL", rtol)
        monkeypatch.setattr(flow, "TRAJECTORY_ATOL", atol)
    return set_tol
