"""Forward flow integration, the algebraic backward flow, and level disks.

No operation here ever integrates the gradient equation in reverse time.
Backward motion exists only on the unstable manifold, where it is read off
the emanating-orbit fixed points of the backward contraction operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .errors import (
    BlowUp,
    HorizonMismatch,
    LevelNotReached,
    NotOnUnstableManifold,
    OutsideSampledDomain,
)
from .lyapunov_perron import backward_orbit

BLOWUP_RADIUS = 1e3
MANIFOLD_RESIDUAL_TOL = 1e-7

# step-size control of scipy's explicit Runge-Kutta solvers, which the batch
# integrator repeats row by row (Hairer, Norsett & Wanner, Solving Ordinary
# Differential Equations I, II.4)
STEP_SAFETY = 0.9
STEP_MIN_FACTOR = 0.2
STEP_MAX_FACTOR = 10.0


@dataclass
class Trajectory:
    """Dense-output forward trajectory in ambient coordinates.

    ``stopped_at`` records the time of a requested stop event (exit from a
    ball around the critical point), None when the full duration was run.
    """

    problem: object
    times: np.ndarray
    states: np.ndarray
    dense: object
    stopped_at: float | None = None

    def at(self, t):
        """State at time ``t`` from the integrator's dense output."""
        t = np.asarray(t, dtype=float)
        out = self.dense(t)
        return out.T if t.ndim else out

    @property
    def terminal(self):
        return self.states[-1]

    def f_values(self):
        return self.problem.f(self.states)

    def f_decrease_violation(self):
        """Largest increase of f between consecutive nodes (0 when monotone)."""
        f = self.f_values()
        return float(max(0.0, np.max(np.diff(f)))) if f.size > 1 else 0.0

    def to_rows(self):
        f = self.f_values()
        return [[t, *state, fv] for t, state, fv in zip(self.times, self.states, f)]


def integrate_forward(problem, start, duration, rtol=1e-10, atol=1e-12,
                      stop_radius=None):
    """Integrate the downward gradient flow for ``duration >= 0``.

    Uses an adaptive Runge-Kutta scheme (DOP853) with dense output; the
    terminal state is evaluated exactly at ``duration``.  When
    ``stop_radius`` is given, integration ends early without error on exit
    from that ball around the critical point; exceeding ``BLOWUP_RADIUS``
    always raises.
    """
    if duration < 0:
        raise ValueError("forward integration requires duration >= 0")
    start = np.asarray(start, dtype=float)
    if duration == 0.0:
        times = np.array([0.0])
        states = start[None, :]
        return Trajectory(problem, times, states,
                          lambda t: np.repeat(start[:, None], np.size(t), axis=1)
                          if np.ndim(t) else start)

    def rhs(t, x):
        return -problem.grad(x)

    def blow_up(t, x):
        return float(np.linalg.norm(x) - BLOWUP_RADIUS)
    blow_up.terminal = True
    blow_up.direction = 1.0

    events = [blow_up]
    if stop_radius is not None:
        center = problem.critical_point

        def exit_ball(t, x):
            return float(np.linalg.norm(x - center) - stop_radius)
        exit_ball.terminal = True
        exit_ball.direction = 1.0
        events.append(exit_ball)

    sol = solve_ivp(rhs, (0.0, float(duration)), start, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=events)
    stopped_at = None
    if sol.status == 1:
        if sol.t_events[0].size:
            raise BlowUp(f"state norm exceeded {BLOWUP_RADIUS} at t = {sol.t_events[0][0]:.4g}")
        fired = [te[0] for te in sol.t_events[1:] if te.size]
        stopped_at = float(min(fired))
    elif not sol.success:
        raise BlowUp(f"integrator failed: {sol.message}")
    times = sol.t
    states = sol.y.T.copy()
    if stopped_at is None:
        # pin the terminal state exactly at the requested time
        states[-1] = sol.sol(duration)
    return Trajectory(problem, times, states, sol.sol, stopped_at=stopped_at)


def _rms(x):
    """Row-wise root-mean-square norm, the norm scipy controls errors in."""
    return np.linalg.norm(x, axis=1) / math.sqrt(x.shape[1])


def _initial_steps(rhs, y0, f0, duration, rtol, atol):
    """scipy's initial-step rule (``select_initial_step``), one step per row."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, duration)
        d2 = _rms((rhs(y0 + h0[:, None] * f0) - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / (DOP853.error_estimator_order + 1)))
    return np.minimum(np.minimum(100.0 * h0, h1), duration)


def integrate_forward_batch(problem, starts, duration, rtol, atol, stop_below_level):
    """Terminal states of many forward trajectories, integrated in lockstep.

    Runs DOP853 on an ``(m, n)`` array of start points.  Every row keeps its
    own step size, acceptance decision and error control, with scipy's
    per-trajectory error norm and initial-step rule, so each row steps as a
    lone ``integrate_forward`` would; the right-hand side is evaluated once
    per stage for all live rows.  A row retires at ``duration`` or at the
    first step end where f is below ``stop_below_level`` (f decreases along
    trajectories, so it stays below; pass ``-inf`` to run every row to
    ``duration``).

    Returns ``(terminal_states, stopped_mask)``; a stopped row's terminal
    state is the step end where it stopped.  A live row beyond
    ``BLOWUP_RADIUS`` raises BlowUp, as does a step below the floating-point
    spacing of its row's time.
    """
    if duration < 0:
        raise ValueError("forward integration requires duration >= 0")
    duration = float(duration)
    terminal = np.array(starts, dtype=float)
    m, n = terminal.shape
    stopped = np.zeros(m, dtype=bool)
    if duration == 0.0 or m == 0:
        return terminal, stopped

    def rhs(y):
        return -problem.grad(y)

    # the flow is autonomous, so the stage times DOP853.C are not needed
    A, B = DOP853.A, DOP853.B
    exponent = -1.0 / (DOP853.error_estimator_order + 1)
    rows = np.arange(m)
    y = terminal.copy()
    f = rhs(y)
    t = np.zeros(m)
    h_abs = _initial_steps(rhs, y, f, duration, rtol, atol)
    rejected = np.zeros(m, dtype=bool)
    while rows.size:
        # a fresh step is raised to the spacing floor; a retried one below
        # it (or NaN, from a non-finite right-hand side) cannot be taken
        min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
        too_small = rejected & ~(h_abs >= min_step)
        if too_small.any():
            i = int(np.argmax(too_small))
            raise BlowUp(f"integrator failed: required step size is less than "
                         f"spacing between numbers (t = {t[i]:.4g})")
        h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
        t_new = np.minimum(t + h_abs, duration)
        h = t_new - t

        K = np.empty((DOP853.n_stages + 1,) + y.shape)
        K[0] = f
        for s in range(1, DOP853.n_stages):
            K[s] = rhs(y + np.tensordot(A[s, :s], K[:s], axes=1) * h[:, None])
        y_new = y + h[:, None] * np.tensordot(B, K[:-1], axes=1)
        K[-1] = f_new = rhs(y_new)

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = np.sum((np.tensordot(DOP853.E5, K, axes=1) / scale) ** 2, axis=1)
        err3 = np.sum((np.tensordot(DOP853.E3, K, axes=1) / scale) ** 2, axis=1)
        denom = err5 + 0.01 * err3
        with np.errstate(divide="ignore", invalid="ignore"):
            error_norm = np.where(denom == 0.0, 0.0, h * err5 / np.sqrt(denom * n))
            grow = np.where(error_norm == 0.0, STEP_MAX_FACTOR,
                            np.fmin(STEP_MAX_FACTOR, STEP_SAFETY * error_norm ** exponent))
            shrink = np.fmax(STEP_MIN_FACTOR, STEP_SAFETY * error_norm ** exponent)
        accept = error_norm < 1.0
        h_abs = h * np.where(accept, np.where(rejected, np.minimum(1.0, grow), grow),
                             shrink)
        rejected = ~accept
        t = np.where(accept, t_new, t)
        y[accept] = y_new[accept]
        f[accept] = f_new[accept]

        beyond = np.linalg.norm(y, axis=1) > BLOWUP_RADIUS
        if beyond.any():
            raise BlowUp(f"state norm exceeded {BLOWUP_RADIUS} at "
                         f"t = {t[np.argmax(beyond)]:.4g}")
        below = np.zeros_like(accept)
        below[accept] = problem.f(y[accept]) < stop_below_level
        done = below | (t >= duration)
        if done.any():
            terminal[rows[done]] = y[done]
            stopped[rows[below]] = True
            keep = ~done
            rows, y, f, t = rows[keep], y[keep], f[keep], t[keep]
            h_abs, rejected = h_abs[keep], rejected[keep]
    return terminal, stopped


@dataclass
class DescendingDisk:
    """Sampled part of the unstable manifold above level ``c - epsilon``.

    The boundary sphere consists of the level-crossing points along rays in
    the unstable subspace; ``sphere_minus`` holds their minus coordinates and
    ``sphere_local`` the corresponding local-frame points on the graph.
    """

    model: object
    ladder: object
    graph: object
    epsilon: float
    sphere_minus: np.ndarray
    sphere_local: np.ndarray
    interior_minus: np.ndarray
    interior_local: np.ndarray

    @property
    def index(self):
        return self.model.k

    def contains(self, point_local, residual_tol=MANIFOLD_RESIDUAL_TOL):
        """Membership through the graph parametrization and the level band."""
        try:
            residual = self.graph.residual(point_local)
        except OutsideSampledDomain:
            return False
        if residual > residual_tol:
            return False
        return (self.model.f_local(np.asarray(point_local, dtype=float))
                >= self.model.critical_value - self.epsilon * (1 + 1e-9))


def algebraic_backward(disk, q_local, t, cache=None,
                       residual_tol=MANIFOLD_RESIDUAL_TOL):
    """Backward flow on the unstable manifold, via emanating orbits.

    ``q_local`` must lie on the sampled unstable graph (plus-part residual
    below ``residual_tol``); the result is the emanating orbit through ``q``
    evaluated at time ``-t``.  No backward Cauchy problem is solved.
    """
    q_local = np.asarray(q_local, dtype=float)
    if t < 0:
        raise ValueError("algebraic backward flow is parametrized by t >= 0")
    residual = disk.graph.residual(q_local)
    if residual > residual_tol:
        raise NotOnUnstableManifold(
            f"plus-part residual {residual:.3e} against the unstable graph")
    orbit = backward_orbit(disk.model, disk.ladder, q_local[: disk.model.k],
                           cache=cache)
    if -t < orbit.curve.grid.t0:
        raise HorizonMismatch(f"time {t} beyond the solved backward horizon")
    return orbit.curve.evaluate(-t)


def descending_disk(model, ladder, graph_f, resolution=8, epsilon=None,
                    bisect_tol=1e-10):
    """Sample the descending disk and locate its boundary sphere.

    The sphere is found by bisection in the level value along rays of the
    unstable subspace; for Morse index one it consists of two points.
    """
    epsilon = ladder.epsilon if epsilon is None else float(epsilon)
    k = model.k
    level = model.critical_value - epsilon

    if k == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        angles = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        if k > 2:
            rng = np.random.default_rng(7)
            extra = rng.standard_normal((resolution * (k - 2), k))
            extra /= np.linalg.norm(extra, axis=1, keepdims=True)
            dirs = np.concatenate([np.pad(dirs, ((0, 0), (0, k - 2))), extra])

    radii = []
    for u in dirs:
        r = graph_f.level_crossing(model.f_local, u, level, bisect_tol)
        if r is None:
            raise LevelNotReached(
                f"epsilon = {epsilon:.3e} not reached within the sampled graph")
        radii.append(r)
    sphere_minus = np.asarray(radii)[:, None] * dirs
    sphere_local = graph_f.local_points(sphere_minus)
    fractions = np.linspace(0.0, 1.0, 5)[1:-1]
    interior_minus = np.concatenate([
        np.zeros((1, k)),
        np.concatenate([f * sphere_minus for f in fractions]),
    ])
    interior_local = graph_f.local_points(interior_minus)
    return DescendingDisk(model, ladder, graph_f, epsilon,
                          sphere_minus, sphere_local,
                          interior_minus, interior_local)
