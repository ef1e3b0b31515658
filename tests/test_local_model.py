import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradleaf.errors import IndexOutOfRange, LadderInfeasible
from gradleaf.local_model import LocalModel, build_ladder, lipschitz_modulus
from gradleaf.polynomials import Polynomial
from gradleaf.problems import GradientProblem, load_problem, problem_from_dict
from gradleaf.spectral import split
from references import compose_linear, sampled_moduli, translate


def test_nonlinearity_quadratic_vanishes(p1):
    rng = np.random.default_rng(0)
    pts = 0.3 * rng.standard_normal((20, 2))
    assert np.allclose(p1.model.h(pts), 0.0)


def test_nonlinearity_quartic_value(p2):
    # oracle: symbolic differentiation of the quartic, checked by hand
    h = p2.model.h(np.array([0.1, 0.1]))
    assert h == pytest.approx([-5e-4, -5e-4], abs=1e-15)


def test_nonlinearity_zero_at_origin(p2):
    assert np.allclose(p2.model.h(np.zeros(2)), 0.0)


def test_dh_zero_at_origin(p2):
    # finite-difference Jacobian of h at 0 vanishes with the critical point
    model = LocalModel(p2.problem, p2.split)
    h1 = 1e-6
    J = np.zeros((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h1
        J[:, i] = (model.h(e) - model.h(-e)) / (2 * h1)
    assert np.max(np.abs(J)) <= 10 * (1e-9 + h1 * h1)


def test_modulus_zero_for_quadratic(p1):
    assert p1.modulus(0.3) == 0.0
    assert p1.modulus(0.0) == 0.0
    assert p1.kappa_star == 0.0


def test_modulus_quartic_closed_form(p2):
    # by hand: q = -0.25 x^2 y^2 in p2's local frame, so the second-derivative
    # tables are -0.5 y^2, -x y, -x y, -0.5 x^2, giving kappa(r) =
    # sqrt(0.25 + 1 + 1 + 0.25) r^2; the six nonzero third-derivative tables
    # are -y or -x, giving kappa_star = sqrt(6) at the trust radius 1
    for r in (0.1, 0.25, 1.0):
        assert p2.modulus(r) == pytest.approx(math.sqrt(2.5) * r * r, rel=1e-15)
    assert p2.kappa_star == pytest.approx(math.sqrt(6.0), rel=1e-15)


def test_modulus_monotone(p2):
    radii = np.linspace(0.0, 1.0, 25)
    vals = [p2.modulus(r) for r in radii]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0


def test_ladder_T1_formula():
    # by hand: gap 1 gives lambda = 1/2; kappa = 0 gives rho = 1/2, R = 1/4,
    # varsigma = 1 * R^2 / 8 = 1/128 and varkappa = 0.9 sqrt(varsigma / 2)
    # = 9/160, so T1 = -ln(varkappa) / lambda = 2 ln(160/9)
    sp = split(np.diag([-1.0, 2.0]))
    ladder = build_ladder(sp, lambda r: 0.0, 0.0, 1.0)
    assert ladder.varkappa == pytest.approx(9.0 / 160.0, rel=1e-15)
    assert ladder.T1 == pytest.approx(2.0 * math.log(160.0 / 9.0), rel=1e-15)
    assert ladder.T1 == pytest.approx(5.755898475795215, rel=1e-12)


def test_ladder_T2_closed_form():
    # oracle: solve exp(-T mu / 4) = 1/8 exactly: T = 4 ln 8 / mu
    sp = split(np.diag([-0.75, 2.0]))
    ladder = build_ladder(sp, lambda r: 0.0, 0.0, 1.0)
    # gap 0.75: mu = lambda + delta = 0.375 + 0.9 * 0.1875 = 0.54375
    assert ladder.mu == pytest.approx(0.54375)
    assert ladder.T2 == pytest.approx(4.0 * math.log(8.0) / ladder.mu, rel=1e-15)
    assert math.exp(-ladder.T2 * ladder.mu / 4.0) <= 0.125 + 1e-15


def test_T2_reference_value():
    # mu = 0.6 gives T2 = 13.8629...; engineered via lambda and gap choices
    assert 4.0 * math.log(8.0) / 0.6 == pytest.approx(13.862943611198906, rel=1e-15)


def test_ladder_invariants(p2):
    lad = p2.ladder
    d = lad.gap
    assert 0 < lad.lambda_ < d
    assert 0 < lad.delta < lad.mu < d
    assert lad.mu == pytest.approx(lad.lambda_ + lad.delta)
    assert lad.kappa_rho * (4 / lad.lambda_ + 1 / lad.delta + 1) <= 0.125 + 1e-12
    assert lad.T0 == max(lad.T1, lad.T2, 1.0)
    assert math.exp(-lad.T1 * lad.lambda_) == pytest.approx(lad.varkappa, rel=1e-12)
    assert lad.c1 == 2.0 * (abs(lad.lambda_min) + 1.0)
    assert lad.c_star == pytest.approx(
        2.0 * lad.kappa_star * (1 / lad.delta + 1 / lad.lambda_) + 0.25, rel=1e-15)
    assert 0 < lad.epsilon < lad.varsigma


def test_ladder_quadratic_any_rho(p1):
    # kappa == 0 makes the smallness inequality vacuous: rho = rho0 / 2
    assert p1.ladder.rho == 0.5
    assert p1.ladder.delta == pytest.approx(0.9 * 0.25)
    assert p1.ladder.mu == pytest.approx(0.5 + 0.225)


def test_ladder_index_out_of_range():
    sp = split(np.diag([1.0, 2.0]))
    with pytest.raises(IndexOutOfRange):
        build_ladder(sp, lambda r: 0.0, 0.0, 1.0)


def test_ladder_infeasible():
    sp = split(np.diag([-1.0, 2.0]))
    # modulus too large at every radius
    with pytest.raises(LadderInfeasible):
        build_ladder(sp, lambda r: 1.0, 0.0, 1.0)


def flatten(graph_f, graph_g, point, k):
    """The straightening map (x - G(y), y - F(x)) of a local point (x, y),
    built from the two manifold graphs."""
    x, y = point[:k], point[k:]
    return np.concatenate([x - graph_g.evaluate(y), y - graph_f.evaluate(x)])


def test_flatten_identity_on_flat_graphs(p1):
    pt = np.array([0.1, -0.08])
    out = flatten(p1.graph_f, p1.graph_g, pt, p1.model.k)
    assert np.allclose(out, pt, atol=1e-12)
    assert np.allclose(flatten(p1.graph_f, p1.graph_g, np.zeros(2), p1.model.k), 0.0)


def test_flatten_straightens_curved_graphs(curved):
    # the sampled unstable graph maps into the minus subspace and the stable
    # graph into the plus one, up to interpolation error
    graph_f, graph_g = curved.graph_f, curved.graph_g
    tol = 5 * max(graph_f.interp_tolerance(), 1e-12)
    for x in graph_f.axes[0][::3]:
        pt = np.concatenate([[x], graph_f.evaluate(np.array([x]))])
        out = flatten(graph_f, graph_g, pt, curved.model.k)
        assert abs(out[1]) <= tol
    for y in graph_g.axes[0][::3]:
        pt = np.concatenate([graph_g.evaluate(np.array([y])), [y]])
        out = flatten(graph_f, graph_g, pt, curved.model.k)
        assert abs(out[0]) <= tol


def test_problem_derivative_consistency(p3):
    # symbolic gradient and Hessian against central differences (step 1e-6)
    # at 8 random points near the critical point
    problem, h = p3.problem, 1e-6
    grad = problem.objective.gradient
    rng = np.random.default_rng(0)
    n = problem.dimension
    for _ in range(8):
        x = problem.critical_point + 0.1 * rng.standard_normal(n)
        for i, e in enumerate(h * np.eye(n)):
            gfd = (problem.f(x + e) - problem.f(x - e)) / (2 * h)
            assert abs(gfd - grad(x)[i]) < 1e-7
            hfd = (grad(x + e) - grad(x - e)) / (2 * h)
            assert np.max(np.abs(hfd - problem.hess(x)[:, i])) < 1e-7


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**31 - 1))
def test_polynomial_gradient_matches_fd(dim, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(4):
        alpha = tuple(int(a) for a in rng.integers(0, 3, size=dim))
        pairs.append([list(alpha), float(rng.standard_normal())])
    poly = Polynomial.from_pairs(dim, pairs)
    x = 0.5 * rng.standard_normal(dim)
    h1 = 1e-6
    g = poly.gradient(x)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h1
        fd = (poly(x + e) - poly(x - e)) / (2 * h1)
        assert g[i] == pytest.approx(fd, abs=2e-7 * max(1.0, abs(fd)) + 1e-7)
    H = poly.hessian(x)
    assert np.allclose(H, H.T)


def test_config_roundtrip(tmp_path):
    raw = {
        "name": "demo",
        "dimension": 2,
        "critical_point": [0.0, 0.0],
        "objective": [[[2, 0], -0.5], [[0, 2], 1.0]],
    }
    prob = problem_from_dict(raw)
    assert prob.f(np.array([0.2, 0.1])) == pytest.approx(-0.02 + 0.01)


def test_h_at_origin_bounded_by_gradient_residual():
    # a numerically imperfect critical point: |h(0)| = |grad f(x0)| exactly
    # (the frame change is orthogonal)
    prob = problem_from_dict({
        "name": "offset", "dimension": 2, "critical_point": [0.0, 0.0],
        "objective": [[[2, 0], -0.5], [[0, 2], 1.0], [[1, 0], 1e-10]]})
    sp = split(prob.hess(prob.critical_point))
    model = LocalModel(prob, sp)
    g = np.linalg.norm(prob.objective.gradient(prob.critical_point))
    assert 0 < g <= 1e-9
    assert np.linalg.norm(model.h(np.zeros(2))) <= g * (1 + 1e-12)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _k2_model():
    problem = load_problem(Path(__file__).resolve().parent.parent / "configs" / "k2_cubic.json")
    return LocalModel(problem, split(problem.hess(problem.critical_point)))


def _shifted_rotated_model():
    """The quartic of p2 in a frame rotated by 0.3 rad about the critical
    point (0.7, -0.4): f(x) = p(R(x - x0)), expanded on the test side, so
    its table carries rounding-level linear and constant terms."""
    c, s = math.cos(0.3), math.sin(0.3)
    base = Polynomial.from_pairs(2, [[[2, 0], -0.5], [[0, 2], 1.0], [[2, 2], 0.25]])
    x0 = np.array([0.7, -0.4])
    poly = translate(compose_linear(base, np.array([[c, -s], [s, c]])), x0)
    problem = GradientProblem("shifted_rotated_quartic", 2, poly, x0, 1.0)
    return LocalModel(problem, split(problem.hess(x0)))


def _reference_models():
    configs = Path(__file__).resolve().parent.parent / "configs"
    models = []
    for path in sorted(configs.glob("*.json")):
        problem = load_problem(path)
        models.append(LocalModel(problem, split(problem.hess(problem.critical_point))))
    return models + [_shifted_rotated_model()]


def test_h_and_dh_match_the_ambient_formula():
    # h = Lambda xi - U^T grad f(x0 + U xi), dh = diag Lambda - U^T H U,
    # evaluated through the ambient frame as h and dh once were
    for model in _reference_models():
        rng = np.random.default_rng(3)
        xi = 0.5 * model.problem.trust_radius * rng.standard_normal((64, model.n))
        ambient = model.x0 + xi @ model.U.T
        h = xi * model.eigenvalues - model.problem.objective.gradient(ambient) @ model.U
        dh = np.diag(model.eigenvalues) - model.U.T @ model.problem.hess(ambient) @ model.U
        scale = np.linalg.norm(xi * model.eigenvalues, axis=1)
        assert np.all(np.linalg.norm(model.h(xi) - h, axis=1) <= 1e-14 * scale)
        assert np.max(np.abs(model.dh(xi) - dh)) <= 1e-14 * np.max(np.abs(model.eigenvalues))


def test_shifted_rotated_frame_keeps_rounding_level_terms():
    # x0 is critical only to rounding, and q keeps the linear terms that
    # say so: h(0) is not 0, and within rounding of -U^T grad f(x0)
    model = _shifted_rotated_model()
    assert not np.allclose(np.abs(model.U), np.eye(2))
    h0 = model.h(np.zeros(2))
    assert np.all(h0 != 0.0)
    assert np.max(np.abs(h0 + model.U.T @ model.problem.objective.gradient(model.x0))) <= 1e-15


def test_batched_dh_matches_per_point(p2, p3):
    # h too: a stack and its one-point calls give the same bits
    for model in (p2.model, p3.model, _k2_model(), _shifted_rotated_model()):
        rng = np.random.default_rng(model.n)
        pts = 0.4 * model.problem.trust_radius * rng.standard_normal((37, model.n))
        for evaluate in (model.h, model.dh):
            stacked = np.stack([evaluate(xi) for xi in pts])
            assert _same_bits(evaluate(pts), stacked)
            assert _same_bits(evaluate(pts[:1]), stacked[:1])


def _random_polynomials(seed, count=30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 4))
        pairs = [[rng.integers(0, 5, n).tolist(), float(rng.standard_normal())]
                 for _ in range(int(rng.integers(0, 7)))]
        yield Polynomial.from_pairs(n, pairs), rng


def test_affine_identity_returns_the_same_terms():
    for poly, _ in _random_polynomials(0):
        image = poly.affine(0, np.eye(poly.dimension))
        assert list(image.terms.items()) == list(poly.terms.items())


def test_affine_matches_compose_linear_and_shifted_values():
    for poly, rng in _random_polynomials(1):
        n = poly.dimension
        M, _ = np.linalg.qr(rng.standard_normal((n, n)))
        linear, ref = poly.affine(0, M).terms, compose_linear(poly, M).terms
        scale = max([abs(c) for c in poly.terms.values()], default=0.0)
        for gamma in set(linear) | set(ref):
            assert abs(linear.get(gamma, 0.0) - ref.get(gamma, 0.0)) <= 1e-13 * scale
        shift = rng.uniform(-1.0, 1.0, n)
        y = rng.uniform(-1.0, 1.0, (9, n))
        assert np.allclose(poly.affine(shift, M)(y), poly(shift + y @ M.T),
                           rtol=1e-12, atol=1e-12 * max(scale, 1.0))


def test_table_bounds_never_below_sampled_moduli():
    # sampled quotients and norms are lower estimates of the Lipschitz
    # constants that kappa and kappa_star bound, at the radii a ladder uses:
    # rho and min(2 rho, rho0) for kappa, the trust radius rho0 for kappa_star
    for model in _reference_models():
        kappa, kappa_star = lipschitz_modulus(model)
        rho0 = model.problem.trust_radius
        rho = build_ladder(split(model.problem.hess(model.x0)), kappa, kappa_star, rho0).rho
        rng = np.random.default_rng(model.n)
        for r in (rho, min(2 * rho, rho0)):
            h_quotient, dh_norm, _ = sampled_moduli(model, r, rng)
            assert max(h_quotient, dh_norm) <= kappa(r)
        assert sampled_moduli(model, rho0, rng)[2] <= kappa_star


def test_rotated_frame_modulus_at_zero_is_rounding_level():
    # q's quadratic terms cancel only to rounding in a rotated frame, and
    # kappa(0) bounds what is left of them (p2's own frame gives exactly 0)
    model = _shifted_rotated_model()
    kappa, _ = lipschitz_modulus(model)
    assert 0.0 < kappa(0.0) <= 1e-14 * np.max(np.abs(model.eigenvalues))
