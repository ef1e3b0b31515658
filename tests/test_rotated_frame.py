"""End-to-end checks in a non-axis-aligned eigenframe.

The quartic reference problem is conjugated by a rotation; every quantity
computed in the adapted frame must match the axis-aligned original up to
eigenvector sign conventions.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import Setup
from gradleaf import lyapunov_perron as lp
from gradleaf import reporting
from gradleaf.oracle import mixed_bvp_oracle
from gradleaf.polynomials import Polynomial
from gradleaf.problems import GradientProblem
from references import compose_linear

THETA = 0.3


@pytest.fixture(scope="module")
def rotated():
    c, s = np.cos(THETA), np.sin(THETA)
    R = np.array([[c, -s], [s, c]])
    base = Polynomial.from_pairs(2, [[[2, 0], -0.5], [[0, 2], 1.0],
                                     [[2, 2], 0.25]])
    poly = compose_linear(base, R)
    return Setup(GradientProblem("rotated_quartic", 2, poly, np.zeros(2), 1.0))


def test_rotated_spectrum(rotated):
    sp = rotated.split
    assert np.allclose(sp.eigenvalues, [-1.0, 2.0], atol=1e-12)
    assert not np.allclose(np.abs(sp.eigenvectors), np.eye(2))


def test_rotated_hessian_composition(rotated):
    problem = rotated.problem
    c, s = np.cos(THETA), np.sin(THETA)
    R = np.array([[c, -s], [s, c]])
    assert np.allclose(problem.hess(np.zeros(2)), R.T @ np.diag([-1.0, 2.0]) @ R,
                       atol=1e-12)


def test_rotated_graphs_flat_in_eigenframe(rotated):
    graph_f, graph_g = rotated.graph_f, rotated.graph_g
    # the invariant axes rotate with the problem: flat in the adapted frame
    assert np.max(np.abs(graph_f.values)) <= 1e-10
    assert np.max(np.abs(graph_g.values)) <= 1e-10


def test_rotated_mixed_solution_matches_diagonal(rotated, p2):
    model, ladder = rotated.model, rotated.ladder
    # eigenvector signs are a convention: compare frame-invariant quantities
    T = max(ladder.T0, p2.ladder.T0)
    zm = rotated.sphere_point()
    zp = np.array([0.4 * ladder.R])
    res, gap = lp.solve_mixed(model, ladder, T, zm, zp, rotated.orbit(zm, T))

    zm_d = np.array([abs(zm[0])])
    zp_d = np.array([abs(zp[0])])
    orbit_d = p2.orbit(zm_d, t_need=T)
    res_d, gap_d = lp.solve_mixed(p2.model, p2.ladder, T, zm_d, zp_d, orbit_d)
    # same scalar boundary data sizes => same norms along the curve
    norms = np.linalg.norm(res.curve.values, axis=1)
    norms_d = np.linalg.norm(res_d.curve.values, axis=1)
    ts = np.linspace(0.0, T, 25)
    a = np.interp(ts, res.curve.grid.nodes, norms)
    b = np.interp(ts, res_d.curve.grid.nodes, norms_d)
    assert np.allclose(a, b, atol=1e-9)
    assert gap == pytest.approx(gap_d, abs=1e-12)


def test_rotated_oracle_agreement(rotated):
    model, ladder = rotated.model, rotated.ladder
    T = ladder.T0
    zm = rotated.sphere_point()
    zp = np.array([0.35 * ladder.R])
    res, _ = lp.solve_mixed(model, ladder, T, zm, zp, rotated.orbit(zm, T))
    [(traj, _)] = mixed_bvp_oracle(model, [(T, zm, zp)])
    states = model.to_local(traj.states)
    assert np.max(np.linalg.norm(states - res.curve.evaluate(traj.times), axis=1)) <= 1e-6


def test_rotated_csv_rows_match_per_point_calls(rotated):
    # leaf and pair rows in bulk render as rows built one point at a time
    # (to_ambient and f_local per point)
    model, ladder, graph_g = rotated.model, rotated.ladder, rotated.graph_g
    samples = np.random.default_rng(5).uniform(-ladder.R, ladder.R, (240, 2))
    inside = np.arange(graph_g.grid_points().shape[0]) % 3 > 0
    leaf = SimpleNamespace(graph=graph_g, inside_mask=inside)
    pair = SimpleNamespace(samples=samples, exit_mask=samples[:, 0] > 0)

    def per_point(p):
        return [*model.to_ambient(p), model.f_local(p)]

    cases = [(reporting.atlas_leaf_rows(leaf, model),
              [[*b, *per_point(p), int(k)] for b, p, k in
               zip(graph_g.grid_points(), graph_g.local_points(), inside)]),
             (reporting.pair_rows(pair, model),
              [[*per_point(p), int(e)] for p, e in zip(samples, pair.exit_mask)])]
    for rows, ref in cases:
        assert [[reporting.fmt(v) for v in r] for r in rows] == \
            [[reporting.fmt(v) for v in r] for r in ref]
