import numpy as np
import pytest

from gradleaf import lyapunov_perron as lp
from gradleaf.curves import FORWARD_FINITE, Curve
from gradleaf.errors import NormBudgetExceeded
from gradleaf.flow import integrate_forward
from references import (
    derivative_values,
    graph_derivative,
    operator_start,
    picard,
    stable_point_oracle,
)


def random_zt_curves(op, rng, count, scale=0.45):
    """Random elements of the finite-horizon ball around the reference."""
    grid = op.grid
    lam = op.ladder.lambda_
    out = []
    for _ in range(count):
        u = rng.standard_normal(op.n)
        u /= np.linalg.norm(u)
        coeffs = rng.standard_normal(4)
        poly = np.polyval(coeffs, grid.nodes / grid.t1)
        poly /= max(1.0, np.max(np.abs(poly)))
        bump = (scale * op.ladder.rho * np.exp(-lam * grid.nodes) * poly)[:, None] * u
        out.append(op.reference.with_values(op.reference.values + bump))
    return out


def mixed_operator(setup, T, z_minus, z_plus):
    orbit = setup.orbit(z_minus, t_need=T)
    ref = lp.reference_curve(orbit.curve, setup.model.grid(0.0, T))
    return lp.PsiTOperator(setup.model, setup.ladder, z_minus, z_plus, ref)


# -- operator closed forms on the quadratic ----------------------------------

def test_phi_quadratic_closed_form(p1):
    z = np.array([0.1])
    res = p1.orbit(z)
    t = res.curve.grid.nodes
    assert np.allclose(res.curve.values[:, 0], 0.1 * np.exp(t), atol=1e-14)
    assert np.allclose(res.curve.values[:, 1], 0.0)


def test_phi_zero_input(p1):
    res = p1.orbit(np.array([0.0]))
    assert np.allclose(res.curve.values, 0.0)


def test_psi_quadratic_closed_form(p1):
    z = np.array([0.12])
    res = next(lp.stable_columns(p1.model, p1.ladder, [z]))
    t = res.curve.grid.nodes
    assert np.allclose(res.curve.values[:, 1], 0.12 * np.exp(-2 * t), atol=1e-14)
    assert np.allclose(res.curve.values[:, 0], 0.0)


def test_psi_T_quadratic_closed_form(p1):
    T = p1.ladder.T0
    zm, zp = np.array([0.08]), np.array([0.1])
    orbit = p1.orbit(zm, t_need=T)
    res, gap = lp.solve_mixed(p1.model, p1.ladder, T, zm, zp, orbit)
    t = res.curve.grid.nodes
    assert np.allclose(res.curve.values[:, 0], 0.08 * np.exp(t - T), atol=1e-13)
    assert np.allclose(res.curve.values[:, 1], 0.1 * np.exp(-2 * t), atol=1e-13)
    # endpoint gap in closed form: |exp(-T A+) z+|
    assert gap == pytest.approx(0.1 * np.exp(-2 * T), rel=1e-8, abs=1e-15)


def test_psi_T_zero_zplus_is_reference_orbit(p1, p2):
    for setup in (p1, p2):
        T = setup.ladder.T0
        zm = setup.sphere_point()
        orbit = setup.orbit(zm, t_need=T)
        res, _ = lp.solve_mixed(setup.model, setup.ladder, T, zm,
                                np.zeros(setup.model.n - setup.model.k),
                                orbit)
        ref = lp.reference_curve(orbit.curve, res.curve.grid)
        assert np.max(np.linalg.norm(res.curve.values - ref.values, axis=1)) < 5e-10


# -- boundary exactness and membership ----------------------------------------

def test_boundary_exactness(p2):
    T = p2.ladder.T0 + 0.7
    zm = p2.sphere_point()
    zp = np.array([0.4 * p2.ladder.R])
    orbit = p2.orbit(zm, t_need=T)
    res, _ = lp.solve_mixed(p2.model, p2.ladder, T, zm, zp, orbit)
    k = p2.model.k
    assert abs(res.curve.values[0, k:] - zp) .max() <= 1e-12
    assert abs(res.curve.values[-1, :k] - zm).max() <= 1e-12


def test_membership_in_ball(p2):
    T = p2.ladder.T0
    zm = p2.sphere_point()
    zp = np.array([0.5 * p2.ladder.R])
    orbit = p2.orbit(zm, t_need=T)
    res, _ = lp.solve_mixed(p2.model, p2.ladder, T, zm, zp, orbit)
    ref = lp.reference_curve(orbit.curve, res.curve.grid)
    assert res.curve.exp_distance(ref) <= p2.ladder.rho


def test_norm_budget_guard(p2):
    T = p2.ladder.T0
    zm = p2.sphere_point()
    op = mixed_operator(p2, T, zm, np.array([0.3 * p2.ladder.R]))
    bad = op.reference.with_values(
        op.reference.values + 2.5 * p2.ladder.rho * np.ones((op.grid.size, 2)))
    with pytest.raises(NormBudgetExceeded):
        op.apply(bad)


# -- contraction and Picard behavior ------------------------------------------

def test_contraction_factor_quartic(p2):
    rng = np.random.default_rng(3)
    T = p2.ladder.T0 + 1.0
    zm = p2.sphere_point()
    op = mixed_operator(p2, T, zm, np.array([0.3 * p2.ladder.R]))
    worst = 0.0
    curves = random_zt_curves(op, rng, 12)
    for a, b in zip(curves[::2], curves[1::2]):
        num = op.apply(a).exp_distance(op.apply(b))
        den = a.exp_distance(b)
        if den > 1e-9:
            worst = max(worst, num / den)
    assert worst <= 0.5 + 0.05
    # the a priori factor from the ladder is itself below 1/2
    assert p2.ladder.contraction_bound() <= 0.5


def test_fixed_point_quadratic_two_iterations(p1):
    T = p1.ladder.T0
    zm, zp = np.array([0.08]), np.array([0.1])
    op = mixed_operator(p1, T, zm, zp)
    zero = Curve(op.grid, np.zeros((op.grid.size, 2)), p1.ladder.lambda_,
                 FORWARD_FINITE)
    _, residual, iterations = picard(op, zero, 1e-14)
    assert iterations <= 2
    assert residual <= 1e-14


def test_fixed_point_exact_initial_one_check(p2):
    T = p2.ladder.T0
    zm = p2.sphere_point()
    zp = np.array([0.25 * p2.ladder.R])
    op = mixed_operator(p2, T, zm, zp)
    first, _, _ = picard(op, operator_start(op), 1e-12)
    _, _, iterations = picard(op, first, 1e-10)
    # no Picard updates beyond the convergence check itself
    assert iterations == 1


def test_fixed_point_iteration_budget(p2):
    T = p2.ladder.T0
    zm = p2.sphere_point()
    op = mixed_operator(p2, T, zm, np.array([0.4 * p2.ladder.R]))
    zero = Curve(op.grid, np.zeros((op.grid.size, 2)), p2.ladder.lambda_,
                 FORWARD_FINITE)
    _, _, iterations = picard(op, zero, 1e-10)
    assert iterations <= int(np.ceil(np.log2(p2.ladder.rho / 1e-10))) + 5


def test_uniqueness_from_different_initials(p2):
    T = p2.ladder.T0
    zm = p2.sphere_point()
    zp = np.array([0.35 * p2.ladder.R])
    op = mixed_operator(p2, T, zm, zp)
    tol = 1e-11
    res_a, _, _ = picard(op, operator_start(op), tol)
    zero = Curve(op.grid, np.zeros((op.grid.size, 2)), p2.ladder.lambda_,
                 FORWARD_FINITE)
    res_b, _, _ = picard(op, zero, tol)
    assert res_a.exp_distance(res_b) <= 2 * tol


def test_fixed_point_solves_ode(p2):
    # interior-node residual of xi' + A xi - h(xi) at quadrature accuracy
    T = p2.ladder.T0
    zm = p2.sphere_point()
    zp = np.array([0.5 * p2.ladder.R])
    orbit = p2.orbit(zm, t_need=T)
    res, _ = lp.solve_mixed(p2.model, p2.ladder, T, zm, zp, orbit)
    xi = res.curve
    dv = derivative_values(xi)
    rhs = p2.model.h(xi.values) - xi.values * p2.model.eigenvalues
    assert np.max(np.linalg.norm(dv - rhs, axis=1)) < 1e-6


# -- graphs --------------------------------------------------------------------

def test_graphs_flat_on_quadratic(p1):
    assert np.max(np.abs(p1.graph_f.values)) <= 1e-10
    assert np.max(np.abs(p1.graph_g.values)) <= 1e-10


def test_graph_value_zero_at_origin(p2):
    assert np.allclose(p2.graph_f.evaluate(np.zeros(1)), 0.0, atol=1e-12)
    assert np.allclose(p2.graph_g.evaluate(np.zeros(1)), 0.0, atol=1e-12)


def test_graph_residuals_below_tolerance(p2):
    assert np.max(p2.graph_f.residuals) <= 1e-9
    assert np.max(p2.graph_g.residuals) <= 1e-9


def test_stable_graph_matches_oracle_shooting(curved):
    # non-flat stable manifold: graph values against bisection shooting
    y = curved.graph_g.axes[0][-2]
    solution, _ = stable_point_oracle(curved.model, curved.ladder, np.array([y]),
                                      tol=1e-8)
    lp_val = curved.graph_g.evaluate(np.array([y]))[0]
    assert abs(solution[0] - lp_val) <= 1e-6
    # curvature against the asymptotic model w = 0.02 y^2
    assert lp_val == pytest.approx(0.02 * y * y, rel=0.05)


def test_graph_G_T_identity_at_zero(p2):
    T = p2.ladder.T0 + 0.5
    zm = p2.sphere_point()
    orbit = p2.orbit(zm, t_need=T)
    sample = lp.graph_G_T(p2.solver(), T, zm)
    val = sample.evaluate(np.zeros(1))
    expected = orbit.curve.evaluate(-T)[: p2.model.k]
    assert np.allclose(val, expected, atol=1e-11)
    assert np.all(sample.endpoint_gaps <= p2.ladder.varkappa)


def test_graph_G_T_quadratic_flat(p1):
    T = p1.ladder.T0
    zm = p1.sphere_point()
    sample = lp.graph_G_T(p1.solver(), T, zm)
    expected = zm[0] * np.exp(-T)
    assert np.allclose(sample.values, expected, atol=1e-13)


def test_graph_point_forward_roundtrip(p2, trajectory_tol):
    # forward integration of a sampled graph point reaches the fiber over z-
    T = p2.ladder.T0
    zm = p2.sphere_point()
    sample = lp.graph_G_T(p2.solver(), T, zm)
    zp = sample.axes[0][3]
    start = np.concatenate([sample.evaluate(np.array([zp])), [zp]])
    trajectory_tol(1e-12, 1e-15)
    traj = integrate_forward(p2.problem, p2.model.to_ambient(start), T)
    end = p2.model.to_local(traj.states[-1])
    assert abs(end[0] - zm[0]) <= 1e-6
    assert abs(end[1]) <= p2.ladder.varkappa


def test_stable_graph_decay_along_flow(p2, trajectory_tol):
    # integrated stable-graph points decay like rho * exp(-lambda t)
    lad = p2.ladder
    y = p2.graph_g.axes[0][-1]
    start = np.concatenate([p2.graph_g.evaluate(np.array([y])), [y]])
    trajectory_tol(1e-12, 1e-15)
    traj = integrate_forward(p2.problem, p2.model.to_ambient(start), 3.0 * lad.T0)
    for t, x in zip(traj.times, p2.model.to_local(traj.states)):
        assert np.linalg.norm(x) <= lad.rho * np.exp(-lad.lambda_ * t) + 1e-12


# -- derivatives ---------------------------------------------------------------

def test_graph_derivative_flat(p1):
    T = p1.ladder.T0
    sample = lp.graph_G_T(p1.solver(), T, p1.sphere_point())
    d, err = graph_derivative(sample, np.zeros(1), np.ones(1),
                              step=0.2 * p1.ladder.R)
    assert np.allclose(d, 0.0, atol=1e-12)
    assert err <= 1e-12


def test_unstable_graph_tangent_at_origin(p3):
    d, _ = graph_derivative(p3.graph_f, np.zeros(1), np.ones(1),
                            step=0.3 * p3.ladder.R / np.sqrt(1))
    assert np.max(np.abs(d)) <= 1e-8


def test_linearized_derivative_matches_fd(curved):
    # re-solve central differences vs the linearized integral equation
    setup = curved
    zp = np.array([0.4 * setup.ladder.R])
    st_res = next(lp.stable_columns(setup.model, setup.ladder, [zp]))
    v = np.ones(1)
    lin = lp.graph_derivative_linearized(setup.model, setup.ladder, st_res, v)
    h = 0.05 * setup.ladder.R
    hi, lo = (res.curve.values[0, :1] for res in lp.stable_columns(
        setup.model, setup.ladder, [zp + h * v, zp - h * v]))
    fd = (hi - lo) / (2 * h)
    # analytic slope of w = 0.02 y^2 is 0.04 y
    assert lin == pytest.approx(fd, abs=5e-8)
    assert lin[0] == pytest.approx(0.04 * zp[0], rel=0.05)


def test_fd_richardson_consistency(curved):
    sample = curved.graph_g
    point = np.zeros(1)
    step = 0.4 * curved.ladder.R
    d_full, err = graph_derivative(sample, point, np.ones(1), step)
    d_half, _ = graph_derivative(sample, point, np.ones(1), step / 2)
    assert np.linalg.norm(d_full - d_half) <= 4 * err + 1e-12


def test_apply_entry_points_quadratic(p1):
    # single applications on the quadratic: integrals vanish with h == 0
    lad = p1.ladder
    zm = np.array([0.1])
    zp = np.array([0.12])
    phi = lp.PhiOperator(p1.model, lad, zm, lp.default_horizon(lad))
    grid_b = phi.grid
    eta = Curve(grid_b, 0.3 * lad.rho * np.exp(lad.lambda_ * grid_b.nodes)[:, None]
                * np.ones((1, 2)), lad.lambda_, "backward")
    out = phi.apply(eta)
    assert np.allclose(out.values[:, 0], 0.1 * np.exp(grid_b.nodes), atol=1e-14)
    assert np.allclose(out.values[:, 1], 0.0)

    psi = lp.PsiOperator(p1.model, lad, zp, lp.default_horizon(lad))
    grid_f = psi.grid
    xi = Curve(grid_f, np.zeros((grid_f.size, 2)), lad.lambda_, "forward_infinite")
    out = psi.apply(xi)
    assert np.allclose(out.values[:, 1], 0.12 * np.exp(-2 * grid_f.nodes), atol=1e-14)

    T = lad.T0
    orbit = p1.orbit(zm, t_need=T)
    grid_T = p1.model.grid(0.0, T)
    ref = lp.reference_curve(orbit.curve, grid_T)
    out = lp.PsiTOperator(p1.model, lad, zm, zp, ref).apply(ref)
    expect0 = 0.1 * np.exp(grid_T.nodes - T)
    expect1 = 0.12 * np.exp(-2 * grid_T.nodes)
    assert np.allclose(out.values[:, 0], expect0, atol=1e-13)
    assert np.allclose(out.values[:, 1], expect1, atol=1e-13)


def test_model_builds_one_grid_and_convolver_per_horizon(p2):
    model, lad = p2.model, p2.ladder
    grid = model.grid(0.0, 5.0)
    # horizons equal to 12 decimals share one grid, and a grid one convolver
    assert model.grid(0.0, 5.0 + 1e-14) is grid
    assert model.grid(0.0, 6.0) is not grid
    assert model.convolver(grid) is model.convolver(grid)
    zp = np.array([0.3 * lad.R])
    ops = [lp.PsiOperator(model, lad, zp, lp.default_horizon(lad)) for _ in range(2)]
    assert ops[0].grid is ops[1].grid and ops[0].conv is ops[1].conv
    assert ops[0].conv is model.convolver(ops[0].grid)


def test_minus_part_is_prescribed_at_the_end_of_the_grid(p2):
    lad, k = p2.ladder, p2.model.k
    T = lad.T0 + 0.5
    zm = p2.sphere_point()
    psi_t = mixed_operator(p2, T, zm, np.array([0.3 * lad.R]))
    # the mixed operator runs on its reference's grid [0, T], with no tail
    assert psi_t.grid is psi_t.reference.grid
    assert psi_t.grid.t1 == pytest.approx(T, abs=1e-12)
    assert psi_t.tail == 0.0
    image = psi_t.apply(psi_t.reference)
    assert np.max(np.abs(image.values[-1, :k] - zm)) <= 1e-12
    # a backward grid ends at 0, where the unstable projection is prescribed
    phi = lp.PhiOperator(p2.model, lad, zm, lp.default_horizon(lad))
    assert phi.grid.t1 == 0.0
    assert phi.tail == lp.truncation_tail(lad, lp.default_horizon(lad))
    image = phi.apply(phi.curve(phi.boundary(slice(0, 1))[0]))
    assert np.max(np.abs(image.values[-1, :k] - zm)) <= 1e-12


def test_operator_constructors_match_per_class_apply(p2):
    # the three operators were separate classes, each building its boundary
    # term and repeating the apply loop below; one operator class must
    # reproduce their initial curves and images bit for bit
    model, lad = p2.model, p2.ladder
    k, n, eigs = model.k, model.n, model.eigenvalues
    zm = p2.sphere_point()
    zp = np.array([0.3 * lad.R])
    T = lad.T0 + 0.5

    def per_class_apply(op, boundary, curve):
        y = model.h(curve.values)
        out = boundary.copy()
        for j in range(n):
            if j < k:
                out[:, j] -= op.conv.backward(j, y[:, j])
            else:
                out[:, j] += op.conv.forward(j, y[:, j])
        return out

    phi = lp.PhiOperator(model, lad, zm, lp.default_horizon(lad))
    grid_b = phi.grid
    phi_bd = np.zeros((grid_b.size, n))
    for j in range(k):
        phi_bd[:, j] = np.exp(-grid_b.nodes * eigs[j]) * zm[j]

    psi = lp.PsiOperator(model, lad, zp, lp.default_horizon(lad))
    grid_f = psi.grid
    psi_bd = np.zeros((grid_f.size, n))
    for j in range(k, n):
        psi_bd[:, j] = np.exp(-grid_f.nodes * eigs[j]) * zp[j - k]

    grid_T = model.grid(0.0, T)
    ref = p2.orbit(zm, t_need=T).reference(grid_T)
    t = grid_T.nodes
    psi_t_bd = np.zeros((grid_T.size, n))
    free = np.zeros((grid_T.size, n))
    for j in range(k):
        psi_t_bd[:, j] = np.exp(-(t - T) * eigs[j]) * zm[j]
    for j in range(k, n):
        psi_t_bd[:, j] += np.exp(-t * eigs[j]) * zp[j - k]
        free[:, j] = np.exp(-t * eigs[j]) * zp[j - k]
    psi_t = lp.PsiTOperator(model, lad, zm, zp, ref)

    for op, boundary, start in ((phi, phi_bd, phi_bd), (psi, psi_bd, psi_bd),
                                (psi_t, psi_t_bd, ref.values + free)):
        first = op.curve(op.start(op.boundary(slice(0, 1)))[0])
        assert first.values.tobytes() == start.tobytes()
        curve = first
        for _ in range(3):
            image = op.apply(curve)
            assert image.values.tobytes() == per_class_apply(op, boundary, curve).tobytes()
            curve = image
        assert np.max(np.abs(curve.values)) > 0.0


def test_operator_rejects_curve_outside_trust_region(p2):
    from gradleaf.errors import OutOfTrustRegion

    T = p2.ladder.T0
    zm = p2.sphere_point()
    op = mixed_operator(p2, T, zm, np.array([0.2 * p2.ladder.R]))
    huge = op.reference.with_values(op.reference.values + 2.0)
    with pytest.raises(OutOfTrustRegion):
        op.apply(huge)


def test_linearized_derivative_norm_bound(p2):
    # the linearized solution obeys the weighted bound |X|_exp <= 2 |v|
    lad = p2.ladder
    zp = np.array([0.4 * lad.R])
    res = next(lp.stable_columns(p2.model, lad, [zp]))
    grid = res.curve.grid
    v = np.array([1.0])
    op = lp._LinearizedOperator(p2.model, lad, res.curve, v)
    (solution,) = lp._picard(op, slice(0, 1), None, tol=1e-12)
    X = solution.curve.values
    weighted = np.max(np.exp(lad.lambda_ * grid.nodes)
                      * np.linalg.norm(X, axis=1))
    assert weighted <= 2.0 * np.linalg.norm(v) + 1e-12


def test_mixed_rejects_short_horizon(p2):
    # the backward orbit must cover [-T, 0]; a horizon beyond it is refused
    zm = p2.sphere_point()
    orbit = p2.orbit(zm)
    T = -orbit.curve.grid.t0 + 1.0
    with pytest.raises(ValueError, match="does not cover"):
        lp.solve_mixed(p2.model, p2.ladder, T, zm, np.zeros(1), orbit)


def test_graph_sample_local_frame(p3):
    # the unstable graph fills the minus slot with its base, the stable graph
    # the plus slot; residual measures the other slot against the graph
    k, R = p3.model.k, p3.ladder.R
    for graph, base in ((p3.graph_f, np.array([0.3 * R])),
                        (p3.graph_g, np.array([0.2 * R, -0.1 * R]))):
        point = graph.local_points(base)
        dom, cod = ((point[:k], point[k:]) if graph is p3.graph_f
                    else (point[k:], point[:k]))
        assert np.array_equal(dom, base)
        assert np.array_equal(cod, graph.evaluate(base))
        assert graph.residual(point) == 0.0
        shifted = point.copy()
        shifted[1 if graph is p3.graph_f else 0] += 1e-3
        assert graph.residual(shifted) == pytest.approx(1e-3, rel=1e-9)
        nodes = graph.local_points()
        assert np.array_equal(nodes, graph.local_points(graph.grid_points()))


def test_graph_sample_level_crossing(p3):
    f, c = p3.model.f_local, p3.model.critical_value
    u = np.array([[1.0]])
    level = c - p3.ladder.epsilon
    r = lp.level_crossings([p3.graph_f], f, u, level, 1e-12)[0]
    assert r.shape == (1,)
    assert abs(f(p3.graph_f.local_points(r[0] * u[0])) - level) <= 1e-12
    # f falls along rays of the unstable graph and rises along rays of the
    # stable one; a level beyond the sampled range is not reached
    plus = np.array([[1.0, 0.0]])
    assert np.isnan(lp.level_crossings([p3.graph_f], f, u, c - 1.0, 1e-12)).all()
    assert np.isnan(lp.level_crossings([p3.graph_g], f, plus, c + 1.0, 1e-12)).all()
    # a level behind f(0) is not reached either
    assert np.isnan(lp.level_crossings([p3.graph_f], f, u, c + 1e-3, 1e-12)).all()
    assert np.isnan(lp.level_crossings([p3.graph_g], f, plus, c - 1e-3, 1e-12)).all()
