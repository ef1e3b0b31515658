"""Independent references that tests compare gradleaf against.

None of these is used by a run, so they live with the tests:

* ``scipy_trajectory``, scipy's DOP853 run of the downward gradient flow,
  which shares no integrator code with gradleaf;
* ``lockstep_reference``, gradleaf's lockstep DOP853 loop as it stood
  before its stages were written into a reused block: a fresh array per
  stage and per sum, which ``flow.solve_ivp`` must match bit for bit;
* ``float_kernel``, the polynomial kernel compiler as it stood when it
  bound its coefficients and its starting zero as Python floats;
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

from gradleaf import dop853
from gradleaf.curves import barycentric_weights
from gradleaf.errors import BlowUp
from gradleaf.flow import (
    BLOWUP_RADIUS,
    ERROR_EXPONENT,
    STEP_MAX_FACTOR,
    STEP_MIN_FACTOR,
    STEP_SAFETY,
    ForwardRun,
    StepEnds,
)
from gradleaf.lyapunov_perron import PICARD_MAX_ITER
from gradleaf.polynomials import Polynomial

ORACLE_RTOL = 1e-12
ORACLE_ATOL = 1e-15


def scipy_trajectory(problem, start, duration, rtol, atol, events=None):
    """scipy's DOP853 run of x' = -grad f(x) from ``start`` over
    ``[0, duration]``, with dense output."""
    return solve_ivp(lambda t, x: -problem.objective.gradient(x), (0.0, duration), start,
                     method="DOP853", rtol=rtol, atol=atol, dense_output=True,
                     events=events)


def _rms(x):
    return np.linalg.norm(x, axis=1) / math.sqrt(x.shape[1])


def _initial_steps(rhs, y0, f0, duration, rtol, atol):
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, duration)
        d2 = _rms((rhs(y0 + h0[:, None] * f0) - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / (dop853.ERROR_ESTIMATOR_ORDER + 1)))
    return np.minimum(np.minimum(100.0 * h0, h1), duration)


def _stage_sum(w, K):
    return np.dot(w, K.reshape(len(w), -1)).reshape(K.shape[1:])


def lockstep_reference(problem, starts, duration, rtol, atol, stop_below_level,
                       keep_step_ends=None):
    """``flow.solve_ivp`` as a loop that allocates every stage, stage sum
    and error estimate afresh and copies each negated gradient into a new
    stage block per step; it calls ``problem.grad(x, out)`` with a fresh
    ``out``.  The same arguments and the same :class:`ForwardRun`."""
    terminal = np.array(starts, dtype=float)
    m, n = terminal.shape
    duration = np.broadcast_to(np.asarray(duration, dtype=float), (m,))
    bad = ~((duration >= 0.0) & (duration < np.inf))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"forward integration requires a finite duration >= 0, "
                         f"row {i} has {duration[i]}")
    stopped = np.zeros(m, dtype=bool)
    nfev = 0

    def rhs(y):
        nonlocal nfev
        nfev += len(y)
        return -problem.grad(y, np.empty_like(y))

    kept = (np.zeros(m, dtype=bool) if keep_step_ends is None
            else np.asarray(keep_step_ends, dtype=bool))
    ends = [([0.0], [terminal[i].copy()]) if keep else None
            for i, keep in enumerate(kept)]
    rows = np.flatnonzero(duration > 0.0)
    A, B = dop853.A, dop853.B
    y = terminal[rows]
    end = duration[rows]
    f = rhs(y)
    t = np.zeros(rows.size)
    h_abs = _initial_steps(rhs, y, f, end, rtol, atol)
    rejected = np.zeros(rows.size, dtype=bool)
    while rows.size:
        min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        too_small = ~(h_abs >= min_step)
        if too_small.any():
            raise BlowUp(f"integrator failed: required step size is less than "
                         f"spacing between numbers (t = {t[np.argmax(too_small)]:.4g})")
        t_new = np.minimum(t + h_abs, end)
        h = t_new - t

        K = np.empty((dop853.N_STAGES + 1,) + y.shape)
        K[0] = f
        for s in range(1, dop853.N_STAGES):
            K[s] = rhs(y + _stage_sum(A[s, :s], K[:s]) * h[:, None])
        y_new = y + h[:, None] * _stage_sum(B, K[:-1])
        K[-1] = f_new = rhs(y_new)

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = np.sum((_stage_sum(dop853.E5, K) / scale) ** 2, axis=1)
        err3 = np.sum((_stage_sum(dop853.E3, K) / scale) ** 2, axis=1)
        denom = err5 + 0.01 * err3
        with np.errstate(divide="ignore", invalid="ignore"):
            error_norm = np.where(denom == 0.0, 0.0, h * err5 / np.sqrt(denom * n))
            grow = np.where(error_norm == 0.0, STEP_MAX_FACTOR,
                            np.fmin(STEP_MAX_FACTOR, STEP_SAFETY * error_norm ** ERROR_EXPONENT))
            shrink = np.fmax(STEP_MIN_FACTOR, STEP_SAFETY * error_norm ** ERROR_EXPONENT)
        accept = error_norm < 1.0
        h_abs = h * np.where(accept, np.where(rejected, np.minimum(1.0, grow), grow),
                             shrink)
        rejected = ~accept
        t = np.where(accept, t_new, t)
        y[accept] = y_new[accept]
        f[accept] = f_new[accept]
        for j in np.flatnonzero(accept & kept[rows]):
            ends[rows[j]][0].append(t_new[j])
            ends[rows[j]][1].append(y_new[j])

        beyond = np.linalg.norm(y, axis=1) > BLOWUP_RADIUS
        if beyond.any():
            raise BlowUp(f"state norm exceeded {BLOWUP_RADIUS} at "
                         f"t = {t[np.argmax(beyond)]:.4g}")
        below = np.zeros_like(accept)
        if stop_below_level > -np.inf:
            below[accept] = problem.f(y[accept]) < stop_below_level
        done = below | (t >= end)
        if done.any():
            terminal[rows[done]] = y[done]
            stopped[rows[below]] = True
            keep = ~done
            rows, y, f, t, end = rows[keep], y[keep], f[keep], t[keep], end[keep]
            h_abs, rejected = h_abs[keep], rejected[keep]
    step_ends = None if keep_step_ends is None else [
        None if row is None else StepEnds(np.array(row[0]), np.array(row[1]))
        for row in ends]
    return ForwardRun(terminal, stopped, step_ends, nfev)


def float_kernel(dimension, components):
    """``polynomials._kernel`` with its coefficients and its starting 0.0
    bound as Python floats: the same source, the same order of operations."""
    coefficients, powers, lines = [], {}, []
    for target, terms in components:
        parts = []
        for alpha, c in terms.items():
            name = f"c{len(coefficients)}"
            coefficients.append(c)
            factors = []
            for i, a in enumerate(alpha):
                if a > 1:
                    powers[f"p{i}_{a}"] = f"x{i} * x{i}" if a == 2 else f"power(x{i}, {a})"
                if a:
                    factors.append(f"x{i}" if a == 1 else f"p{i}_{a}")
            parts.append(f"{name} * ({' * '.join(factors)})" if factors else name)
        lines += ["s = 0.0"] + [f"s = s + {' + '.join(parts[k:k + 256])}"
                                for k in range(0, len(parts), 256)] + [f"{target} = s"]
    body = [f"{name} = {value}" for name, value in powers.items()] + lines
    source = (f"def make(power, {', '.join(f'c{k}' for k in range(len(coefficients)))}):\n"
              f"    def kernel(out, {', '.join(f'x{i}' for i in range(dimension))}):\n"
              + "".join(f"        {line}\n" for line in body) + "    return kernel\n")
    namespace = {}
    exec(source, namespace)
    return namespace["make"](np.power, *coefficients)


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
