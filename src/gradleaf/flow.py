"""Forward flow integration, the algebraic backward flow, and level disks.

No operation here ever integrates the gradient equation in reverse time.
Backward motion exists only on the unstable manifold, where it is read off
the emanating-orbit fixed points of the backward contraction operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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
                      blowup_radius=BLOWUP_RADIUS, stop_radius=None,
                      stop_below_level=None):
    """Integrate the downward gradient flow for ``duration >= 0``.

    Uses an adaptive Runge-Kutta scheme (DOP853) with dense output; the
    terminal state is evaluated exactly at ``duration``.  When
    ``stop_radius`` (exit from a ball around the critical point) or
    ``stop_below_level`` (objective drops below a level; legitimate because
    f is monotone along trajectories) is given, integration ends early
    without error; exceeding ``blowup_radius`` always raises.
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
        return float(np.linalg.norm(x) - blowup_radius)
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
    if stop_below_level is not None:
        def drop_below(t, x):
            return float(problem.f(x) - stop_below_level)
        drop_below.terminal = True
        drop_below.direction = -1.0
        events.append(drop_below)

    sol = solve_ivp(rhs, (0.0, float(duration)), start, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=events)
    stopped_at = None
    if sol.status == 1:
        if sol.t_events[0].size:
            raise BlowUp(f"state norm exceeded {blowup_radius} at t = {sol.t_events[0][0]:.4g}")
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
        point_local = np.asarray(point_local, dtype=float)
        zm = point_local[: self.model.k]
        try:
            val = self.graph.evaluate(zm)
        except OutsideSampledDomain:
            return False
        if np.linalg.norm(point_local[self.model.k:] - val) > residual_tol:
            return False
        c = self.model.f_local(np.zeros(self.model.n))
        return self.model.f_local(point_local) >= c - self.epsilon * (1 + 1e-9)


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
    model = disk.model
    zm = q_local[: model.k]
    val = disk.graph.evaluate(zm)
    residual = float(np.linalg.norm(q_local[model.k:] - val))
    if residual > residual_tol:
        raise NotOnUnstableManifold(
            f"plus-part residual {residual:.3e} against the unstable graph")
    orbit = backward_orbit(model, disk.ladder, zm, cache=cache)
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
    c = model.f_local(np.zeros(model.n))

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

    r_max = float(min(ax[-1] for ax in graph_f.axes))

    def level_drop(r, u):
        zm = r * u
        point = np.zeros(model.n)
        point[:k] = zm
        point[k:] = graph_f.evaluate(zm)
        return model.f_local(point) - (c - epsilon)

    sphere_minus = []
    sphere_local = []
    for u in dirs:
        lo, hi = 0.0, r_max
        if level_drop(hi, u) > 0:
            raise LevelNotReached(
                f"epsilon = {epsilon:.3e} not reached within the sampled graph")
        # f decreases along the ray; bisect the level crossing to bisect_tol in f
        while True:
            mid = 0.5 * (lo + hi)
            val = level_drop(mid, u)
            if abs(val) <= bisect_tol or hi - lo < 1e-16 * max(1.0, r_max):
                break
            if val > 0:
                lo = mid
            else:
                hi = mid
        zm = mid * u
        point = np.zeros(model.n)
        point[:k] = zm
        point[k:] = graph_f.evaluate(zm)
        sphere_minus.append(zm)
        sphere_local.append(point)

    sphere_minus = np.asarray(sphere_minus)
    sphere_local = np.asarray(sphere_local)
    fractions = np.linspace(0.0, 1.0, 5)[1:-1]
    interior_minus = np.concatenate([
        np.zeros((1, k)),
        np.concatenate([f * sphere_minus for f in fractions]),
    ])
    interior_local = np.zeros((interior_minus.shape[0], model.n))
    for i, zm in enumerate(interior_minus):
        interior_local[i, :k] = zm
        interior_local[i, k:] = graph_f.evaluate(zm)
    return DescendingDisk(model, ladder, graph_f, epsilon,
                          sphere_minus, sphere_local,
                          interior_minus, interior_local)
