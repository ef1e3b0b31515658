"""End-to-end checks in a non-axis-aligned eigenframe.

The quartic reference problem is conjugated by a rotation; every quantity
computed in the adapted frame must match the axis-aligned original up to
eigenvector sign conventions.
"""

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
from gradleaf.oracle import mixed_bvp_oracle
from gradleaf.polynomials import Polynomial
from gradleaf.problems import GradientProblem
from gradleaf.spectral import split

THETA = 0.3


def _poly_mul(a, b, dim):
    out = {}
    for alpha, ca in a.items():
        for beta, cb in b.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            out[gamma] = out.get(gamma, 0.0) + ca * cb
    return out


def compose_linear(poly, M):
    """Terms of x -> poly(M x), by multinomial expansion."""
    dim = poly.dimension
    unit = {tuple([0] * dim): 1.0}
    rows = []
    for i in range(dim):
        row = {}
        for j in range(dim):
            if M[i, j] != 0.0:
                alpha = [0] * dim
                alpha[j] = 1
                row[tuple(alpha)] = float(M[i, j])
        rows.append(row)
    total = {}
    for alpha, coeff in poly.terms.items():
        term = dict(unit)
        for i, power in enumerate(alpha):
            for _ in range(power):
                term = _poly_mul(term, rows[i], dim)
        for gamma, c in term.items():
            total[gamma] = total.get(gamma, 0.0) + coeff * c
    return Polynomial(dim, {g: c for g, c in total.items() if abs(c) > 0.0})


@pytest.fixture(scope="module")
def rotated():
    c, s = np.cos(THETA), np.sin(THETA)
    R = np.array([[c, -s], [s, c]])
    base = Polynomial.from_pairs(2, [[[2, 0], -0.5], [[0, 2], 1.0],
                                     [[2, 2], 0.25]])
    poly = compose_linear(base, R)
    problem = GradientProblem("rotated_quartic", 2, poly, np.zeros(2))
    sp = split(problem.hess(problem.critical_point))
    model = LocalModel(problem, sp)
    modulus, kappa_star = lipschitz_modulus(problem, sp, samples=80,
                                            rng=np.random.default_rng(11))
    ladder = build_ladder(sp, modulus, kappa_star=kappa_star)
    cache = lp.SolverCache(model)
    graph_f = lp.graph_F_inf(model, ladder, cache=cache)
    graph_g = lp.graph_G_inf(model, ladder, cache=cache)
    ladder = calibrate_ladder(ladder, model, graph_f, graph_g)
    return problem, sp, model, ladder, cache, graph_f, graph_g


def test_rotated_spectrum(rotated):
    _, sp, *_ = rotated
    assert np.allclose(sp.eigenvalues, [-1.0, 2.0], atol=1e-12)
    assert not np.allclose(np.abs(sp.eigenvectors), np.eye(2))


def test_rotated_hessian_composition(rotated):
    problem, *_ = rotated
    c, s = np.cos(THETA), np.sin(THETA)
    R = np.array([[c, -s], [s, c]])
    assert np.allclose(problem.hess(np.zeros(2)), R.T @ np.diag([-1.0, 2.0]) @ R,
                       atol=1e-12)


def test_rotated_graphs_flat_in_eigenframe(rotated):
    *_, graph_f, graph_g = rotated
    # the invariant axes rotate with the problem: flat in the adapted frame
    assert np.max(np.abs(graph_f.values)) <= 1e-10
    assert np.max(np.abs(graph_g.values)) <= 1e-10


def test_rotated_mixed_solution_matches_diagonal(rotated, p2):
    problem, sp, model, ladder, cache, graph_f, _ = rotated
    # eigenvector signs are a convention: compare frame-invariant quantities
    T = max(ladder.T0, p2.ladder.T0)
    disk = descending_disk(model, ladder, graph_f)
    zm = disk.sphere_minus[0]
    zp = np.array([0.4 * ladder.R])
    orbit = lp.backward_orbit(model, ladder, zm,
                              t_max=max(lp.default_horizon(ladder), T),
                              cache=cache)
    res, gap = lp.solve_mixed(model, ladder, T, zm, zp, orbit, cache=cache)

    zm_d = np.array([abs(zm[0])])
    zp_d = np.array([abs(zp[0])])
    orbit_d = p2.orbit(zm_d, t_need=T)
    res_d, gap_d = lp.solve_mixed(p2.model, p2.ladder, T, zm_d, zp_d, orbit_d,
                                  cache=p2.cache)
    # same scalar boundary data sizes => same norms along the curve
    norms = np.linalg.norm(res.curve.values, axis=1)
    norms_d = np.linalg.norm(res_d.curve.values, axis=1)
    ts = np.linspace(0.0, T, 25)
    a = np.interp(ts, res.curve.grid.nodes, norms)
    b = np.interp(ts, res_d.curve.grid.nodes, norms_d)
    assert np.allclose(a, b, atol=1e-9)
    assert gap == pytest.approx(gap_d, abs=1e-12)


def test_rotated_oracle_agreement(rotated):
    problem, sp, model, ladder, cache, graph_f, _ = rotated
    T = ladder.T0
    disk = descending_disk(model, ladder, graph_f)
    zm = disk.sphere_minus[0]
    zp = np.array([0.35 * ladder.R])
    orbit = lp.backward_orbit(model, ladder, zm,
                              t_max=max(lp.default_horizon(ladder), T),
                              cache=cache)
    res, _ = lp.solve_mixed(model, ladder, T, zm, zp, orbit, cache=cache)
    [(traj, _)] = mixed_bvp_oracle(model, ladder, [(T, zm, zp)])
    nodes = res.curve.grid.nodes
    states = model.to_local(traj.at(nodes))
    assert np.max(np.linalg.norm(states - res.curve.values, axis=1)) <= 1e-6
