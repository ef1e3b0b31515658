"""End-to-end coverage of Morse index two (3D, two unstable directions).

Problem (``configs/k2_cubic.json``): f = -3/2 x1^2 - 1/2 x2^2 + x3^2 +
c x1^2 x3 with c = 0.02.
Hessian diag(-3, -1, 2); the coupling curves the 2D unstable manifold,
whose graph starts as F(x1, x2) = -(c/8) x1^2 + O(|x|^3) (from matching the
invariance equation), while the stable axis stays flat.
"""

import numpy as np
import pytest

from gradleaf import oracle
from gradleaf.flow import integrate_forward
from gradleaf.lyapunov_perron import mixed_columns
from gradleaf.oracle import mixed_bvp_oracle

COUPLING = 0.02


def test_config_is_the_coupled_cubic(k2):
    assert k2.problem.objective.terms == {
        (2, 0, 0): -1.5, (0, 2, 0): -0.5, (0, 0, 2): 1.0, (2, 0, 1): COUPLING}


def test_split_index_two(k2):
    sp = k2.split
    assert sp.morse_index == 2
    assert np.allclose(sp.eigenvalues, [-3.0, -1.0, 2.0])
    assert sp.gap == 1.0
    Um = sp.eigenvectors[:, :sp.morse_index]
    assert np.linalg.matrix_rank(Um @ Um.T) == 2


def test_unstable_graph_curvature_2d(k2):
    graph_f = k2.graph_f
    x1 = graph_f.axes[0][-1]
    val_on_axis = graph_f.evaluate(np.array([x1, 0.0]))[0]
    assert val_on_axis == pytest.approx(-COUPLING / 8.0 * x1 * x1, rel=1e-2)
    # no x2 dependence at quadratic order
    x2 = graph_f.axes[1][-1]
    val_mixed = graph_f.evaluate(np.array([0.0, x2]))[0]
    assert abs(val_mixed) <= 1e-10


def test_stable_graph_flat(k2):
    assert np.max(np.abs(k2.graph_g.values)) <= 1e-11


def test_descending_sphere_is_a_circle(k2):
    model, ladder, sphere = k2.model, k2.ladder, k2.sphere
    assert sphere.shape[1] == 2
    assert sphere.shape[0] == 8
    c = model.f_local(np.zeros(3))
    for pt in k2.graph_f.local_points(sphere):
        assert model.f_local(pt) == pytest.approx(c - ladder.epsilon, abs=1e-9)
    # closed-form radii along the pure axes: 1.5 r^2 = eps and 0.5 r^2 = eps
    radii = np.linalg.norm(sphere, axis=1)
    assert np.min(radii) == pytest.approx(np.sqrt(ladder.epsilon / 1.5), rel=1e-3)
    assert np.max(radii) == pytest.approx(np.sqrt(2.0 * ladder.epsilon), rel=1e-3)


def test_mixed_solve_and_oracle_k2(k2, monkeypatch):
    model, ladder = k2.model, k2.ladder
    # keep the horizon inside the shooting conditioning budget e^{3T} <= 1e6
    T = 4.0
    zm = k2.sphere_point(1)
    zp = np.array([0.4 * ladder.R])
    res, _ = next(mixed_columns(model, ladder, T, zm, [zp], k2.orbit(zm)))
    xi = res.curve.values
    assert np.max(np.abs(xi[0, 2:] - zp)) <= 1e-12
    assert np.max(np.abs(xi[-1, :2] - zm)) <= 1e-12
    monkeypatch.setattr(oracle, "NEWTON_TOL", 1e-9)
    [(traj, record)] = mixed_bvp_oracle(model, [(T, zm, zp)])
    states = model.to_local(traj.states)
    assert np.max(np.linalg.norm(states - res.curve.evaluate(traj.times), axis=1)) <= 1e-6


def test_backward_forward_roundtrip_k2(k2, trajectory_tol):
    model, ladder = k2.model, k2.ladder
    zm = np.array([0.3 * ladder.R, -0.4 * ladder.R])
    orbit = k2.orbit(zm)
    t = 2.0
    start = orbit.curve.evaluate(-t)
    trajectory_tol(1e-12, 1e-15)
    traj = integrate_forward(k2.problem, model.to_ambient(start), t)
    end = model.to_local(traj.states[-1])
    assert np.linalg.norm(end - orbit.curve.values[-1]) <= 1e-8
