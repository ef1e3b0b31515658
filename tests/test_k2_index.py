"""End-to-end coverage of Morse index two (3D, two unstable directions).

Problem: f = -3/2 x1^2 - 1/2 x2^2 + x3^2 + c x1^2 x3 with c = 0.02.
Hessian diag(-3, -1, 2); the coupling curves the 2D unstable manifold,
whose graph starts as F(x1, x2) = -(c/8) x1^2 + O(|x|^3) (from matching the
invariance equation), while the stable axis stays flat.
"""

import numpy as np
import pytest

from gradleaf import lyapunov_perron as lp
from gradleaf.flow import descending_disk, integrate_forward
from gradleaf.local_model import (
    LocalModel,
    build_ladder,
    calibrate_ladder,
    lipschitz_modulus,
)
from gradleaf.oracle import mixed_bvp_oracle
from gradleaf.polynomials import Polynomial
from gradleaf.problems import GradientProblem
from gradleaf.spectral import split

COUPLING = 0.02


@pytest.fixture(scope="module")
def k2():
    poly = Polynomial.from_pairs(3, [
        [[2, 0, 0], -1.5],
        [[0, 2, 0], -0.5],
        [[0, 0, 2], 1.0],
        [[2, 0, 1], COUPLING],
    ])
    problem = GradientProblem("k2_cubic", 3, poly, np.zeros(3))
    sp = split(problem.hess(problem.critical_point))
    model = LocalModel(problem, sp)
    modulus, kappa_star = lipschitz_modulus(problem, sp, samples=60,
                                            rng=np.random.default_rng(4))
    ladder = build_ladder(sp, modulus, kappa_star=kappa_star)
    cache = lp.SolverCache(model)
    axes_f = tuple(np.linspace(-ladder.R / np.sqrt(2), ladder.R / np.sqrt(2), 5)
                   for _ in range(2))
    graph_f = lp.graph_F_inf(model, ladder, base_axes=axes_f, cache=cache)
    graph_g = lp.graph_G_inf(model, ladder, cache=cache)
    ladder = calibrate_ladder(ladder, model, graph_f, graph_g)
    return problem, sp, model, ladder, cache, graph_f, graph_g


def test_split_index_two(k2):
    _, sp, *_ = k2
    assert sp.morse_index == 2
    assert np.allclose(sp.eigenvalues, [-3.0, -1.0, 2.0])
    assert sp.gap == 1.0
    assert np.linalg.matrix_rank(sp.proj_minus) == 2


def test_unstable_graph_curvature_2d(k2):
    *_, graph_f, _ = k2
    x1 = graph_f.axes[0][-1]
    val_on_axis = graph_f.evaluate(np.array([x1, 0.0]))[0]
    assert val_on_axis == pytest.approx(-COUPLING / 8.0 * x1 * x1, rel=1e-2)
    # no x2 dependence at quadratic order
    x2 = graph_f.axes[1][-1]
    val_mixed = graph_f.evaluate(np.array([0.0, x2]))[0]
    assert abs(val_mixed) <= 1e-10


def test_stable_graph_flat(k2):
    *_, graph_g = k2
    assert np.max(np.abs(graph_g.values)) <= 1e-11


def test_descending_sphere_is_a_circle(k2):
    problem, sp, model, ladder, cache, graph_f, _ = k2
    disk = descending_disk(model, ladder, graph_f, resolution=8)
    assert disk.sphere_minus.shape[1] == 2
    assert disk.sphere_minus.shape[0] == 8
    c = model.f_local(np.zeros(3))
    for pt in disk.sphere_local:
        assert model.f_local(pt) == pytest.approx(c - ladder.epsilon, abs=1e-9)
    # closed-form radii along the pure axes: 1.5 r^2 = eps and 0.5 r^2 = eps
    radii = np.linalg.norm(disk.sphere_minus, axis=1)
    assert np.min(radii) == pytest.approx(np.sqrt(ladder.epsilon / 1.5), rel=1e-3)
    assert np.max(radii) == pytest.approx(np.sqrt(2.0 * ladder.epsilon), rel=1e-3)


def test_mixed_solve_and_oracle_k2(k2):
    problem, sp, model, ladder, cache, graph_f, _ = k2
    # keep the horizon inside the shooting conditioning budget e^{3T} <= 1e6
    T = 4.0
    disk = descending_disk(model, ladder, graph_f, resolution=8)
    zm = disk.sphere_minus[1]
    zp = np.array([0.4 * ladder.R])
    orbit = lp.backward_orbit(model, ladder, zm, cache=cache)
    res, gap = lp.solve_mixed(model, ladder, T, zm, zp, orbit, cache=cache,
                              enforce_endpoint=False)
    xi = res.curve.values
    assert np.max(np.abs(xi[0, 2:] - zp)) <= 1e-12
    assert np.max(np.abs(xi[-1, :2] - zm)) <= 1e-12
    [(traj, record)] = mixed_bvp_oracle(model, ladder, [(T, zm, zp)], tol=1e-9)
    nodes = res.curve.grid.nodes
    states = model.to_local(traj.at(nodes))
    assert np.max(np.linalg.norm(states - res.curve.values, axis=1)) <= 1e-6


def test_backward_forward_roundtrip_k2(k2):
    problem, sp, model, ladder, cache, graph_f, _ = k2
    zm = np.array([0.3 * ladder.R, -0.4 * ladder.R])
    orbit = lp.backward_orbit(model, ladder, zm, cache=cache)
    t = 2.0
    start = orbit.curve.evaluate(-t)
    traj = integrate_forward(problem, model.to_ambient(start), t,
                             rtol=1e-12, atol=1e-15)
    end = model.to_local(traj.states[-1])
    assert np.linalg.norm(end - orbit.curve.values[-1]) <= 1e-8
