"""Shared fixtures: reference problems solved once per session."""

from pathlib import Path

import numpy as np
import pytest

from gradleaf import lyapunov_perron as lp
from gradleaf.flow import descending_disk
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
    """Everything downstream modules need for one problem."""

    def __init__(self, problem, kappa_samples=80):
        self.problem = problem
        self.split = split(problem.hess(problem.critical_point))
        self.model = LocalModel(problem, self.split)
        self.modulus, self.kappa_star = lipschitz_modulus(
            problem, self.split, samples=kappa_samples,
            rng=np.random.default_rng(11))
        self.ladder_raw = build_ladder(self.split, self.modulus,
                                       choices=problem.ladder_overrides,
                                       kappa_star=self.kappa_star,
                                       rho0=problem.trust_radius)
        self.cache = lp.SolverCache(self.model)
        self.graph_f = lp.graph_F_inf(self.model, self.ladder_raw,
                                      cache=self.cache)
        self.graph_g = lp.graph_G_inf(self.model, self.ladder_raw,
                                      cache=self.cache)
        self.ladder = calibrate_ladder(self.ladder_raw, self.model,
                                       self.graph_f, self.graph_g,
                                       overrides=problem.ladder_overrides)
        self.disk = descending_disk(self.model, self.ladder, self.graph_f)

    def sphere_point(self, i=0):
        return self.disk.sphere_minus[i]

    def orbit(self, z_minus, t_need=None):
        t_max = None if t_need is None else max(
            lp.default_horizon(self.ladder), t_need)
        return lp.backward_orbit(self.model, self.ladder,
                                 np.asarray(z_minus, dtype=float),
                                 t_max=t_max, cache=self.cache)


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
def curved():
    return Setup(reference_problem("curved_stable"))
