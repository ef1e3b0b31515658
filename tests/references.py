"""Independent references that tests compare gradleaf against.

None of these is used by a run, so they live with the tests:

* ``scipy_trajectory``, scipy's DOP853 run of the downward gradient flow,
  which shares no integrator code with gradleaf;
* ``stable_point_oracle``, a bisection shooting oracle for points of the
  stable manifold (Morse index one), on ``scipy_trajectory`` with a
  terminal event;
* ``graph_derivative``, central differences of a sampled graph;
* ``picard``, Picard iteration of a one-column operator from any initial
  curve by its ``apply``, one image at a time, and ``operator_start``, the
  curve gradleaf's own loop starts from;
* ``derivative_values``, the spectral derivative of a curve's panel
  interpolants;
* ``panel_slice``, the flat-grid nodes of one panel;
* ``compose_linear`` and ``translate``, the terms of a polynomial after a
  linear change of variables (multinomial expansion, one factor at a time)
  and after a shift (binomial expansion);
* ``sampled_moduli``, random-sample lower estimates of the Lipschitz
  constants of h and dh on a ball, which q's coefficient-table bounds must
  never fall below.
"""

import math
from itertools import product

import numpy as np
from scipy.integrate import solve_ivp

from gradleaf.curves import barycentric_weights
from gradleaf.lyapunov_perron import PICARD_MAX_ITER
from gradleaf.polynomials import Polynomial

ORACLE_RTOL = 1e-12
ORACLE_ATOL = 1e-15


def scipy_trajectory(problem, start, duration, rtol, atol, events=None):
    """scipy's DOP853 run of x' = -grad f(x) from ``start`` over
    ``[0, duration]``, with dense output."""
    return solve_ivp(lambda t, x: -problem.grad(x), (0.0, duration), start,
                     method="DOP853", rtol=rtol, atol=atol, dense_output=True,
                     events=events)


def stable_point_oracle(model, ladder, z_plus, tol=1e-8):
    """The local point ``(w, z_plus)`` on the stable set, and the width of
    the final bracket on ``w``.

    Morse index one: bisection on ``w`` over [-R, R] by the side on which
    the forward trajectory from ``(w, z_plus)`` escapes the ball of radius
    4 rho within time 2 T0.  The converged shot must enter the rho/4 ball
    before any late escape (an escape at the scale of the bracket width is
    inherent to shooting).
    """
    assert model.k == 1, "the bisection oracle needs Morse index one"
    z_plus = np.asarray(z_plus, dtype=float)
    center = model.problem.critical_point
    radius = 4.0 * ladder.rho

    def exit_ball(t, x):
        return float(np.linalg.norm(x - center) - radius)
    exit_ball.terminal = True
    exit_ball.direction = 1.0

    def shoot(w):
        start = model.to_ambient(np.concatenate([[w], z_plus]))
        return scipy_trajectory(model.problem, start, 2.0 * ladder.T0, ORACLE_RTOL,
                                ORACLE_ATOL, [exit_ball])

    def side(w):
        return 1.0 if model.to_local(shoot(w).y[:, -1])[0] >= 0 else -1.0

    lo, hi = -ladder.R, ladder.R
    side_lo = side(lo)
    assert side(hi) != side_lo, "both bracket ends escape to the same side"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if side(mid) == side_lo:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    final = shoot(w)
    probe = np.linspace(0.0, final.t[-1], 400)
    dist = np.linalg.norm(final.sol(probe).T - model.x0, axis=1)
    assert np.min(dist) <= 0.25 * ladder.rho, \
        "converged shot never enters the rho/4 ball; widen the horizon"
    return np.concatenate([[w], z_plus]), hi - lo


def ball_samples(rng, n, radius, count):
    """``count`` points uniform in the ball of ``radius`` about 0 in R^n."""
    v = rng.standard_normal((count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (radius * rng.random(count) ** (1.0 / n))[:, None]


def sampled_moduli(model, radius, rng, count=160):
    """Sampled lower estimates on the ball of ``radius``: the largest
    quotient |h(p) - h(q)| / |p - q| over ``count`` random pairs, the
    largest ||dh||_2 over ``count`` random points and as many on the
    sphere, and the largest ||dh(p) - dh(q)||_2 / |p - q| over the pairs."""
    pts, qts = (ball_samples(rng, model.n, radius, count) for _ in range(2))
    shell = ball_samples(rng, model.n, radius, count)
    shell *= radius / np.linalg.norm(shell, axis=1, keepdims=True)
    dist = np.linalg.norm(pts - qts, axis=1)
    h_quotient = np.linalg.norm(model.h(pts) - model.h(qts), axis=1) / dist
    dh_norm = np.linalg.norm(model.dh(np.concatenate([pts, shell])), 2, axis=(1, 2))
    dh_quotient = np.linalg.norm(model.dh(pts) - model.dh(qts), 2, axis=(1, 2)) / dist
    return float(np.max(h_quotient)), float(np.max(dh_norm)), float(np.max(dh_quotient))


def graph_derivative(sample, point, direction, step):
    """Central-difference directional derivative of a sampled graph.

    Returns ``(derivative, error_estimate)``; the estimate is the Richardson
    defect between the full-step and half-step quotients (O(step^2)).
    """
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)

    def quotient(h):
        hi = sample.evaluate(point + h * direction)
        lo = sample.evaluate(point - h * direction)
        return (hi - lo) / (2.0 * h)

    full = quotient(step)
    half = quotient(0.5 * step)
    return half, float(np.linalg.norm(full - half)) / 3.0


def picard(operator, initial, tol):
    """Picard iteration of the one-column ``operator`` from the curve
    ``initial`` until an image lies within ``tol`` of its preimage in the
    exp norm: ``(fixed point, residual, iterations)``.  ``operator.apply``
    raises when a curve leaves the trust or rho ball."""
    current = initial
    for iteration in range(1, PICARD_MAX_ITER + 1):
        image = operator.apply(current)
        residual = float(operator.norm(image.values - current.values))
        if residual <= tol:
            return image, residual, iteration
        current = image
    raise AssertionError(f"no convergence in {PICARD_MAX_ITER} iterations "
                         f"(residual {residual:.3e})")


def operator_start(operator):
    """The initial curve gradleaf's Picard loop starts a one-column
    ``operator`` from."""
    return operator.curve(operator.start(operator.boundary(slice(0, 1)))[0])


def panel_slice(grid, ip):
    """The nodes of panel ``ip`` in the flat node array of ``grid``."""
    return slice(ip * grid.p, (ip + 1) * grid.p + 1)


def derivative_values(curve):
    """Node-wise time derivative of a curve's panel interpolants, by each
    panel's spectral differentiation matrix."""
    grid = curve.grid
    out = np.empty_like(curve.values)
    for ip in range(grid.n_panels):
        nodes = grid.panel_nodes[ip]
        w = barycentric_weights(nodes)
        D = (w[None, :] / w[:, None]) / (nodes[:, None] - nodes[None, :]
                                         + np.eye(len(nodes)))
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))
        sl = panel_slice(grid, ip)
        out[sl] = D @ curve.values[sl]
    return out


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


def translate(poly, shift):
    """Terms of x -> poly(x - shift), by binomial expansion."""
    total = {}
    for alpha, coeff in poly.terms.items():
        for beta in product(*(range(a + 1) for a in alpha)):
            c = coeff
            for a, b, s in zip(alpha, beta, shift):
                c *= math.comb(a, b) * (-float(s)) ** (a - b)
            total[beta] = total.get(beta, 0.0) + c
    return Polynomial(poly.dimension, total)
