"""Forward flow integration and the descending disk.

No operation here integrates the gradient equation in reverse time; the
descending disk is read off the sampled unstable graph.

Forward integration is gradleaf's own DOP853 (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, II.4-II.6, and Hairer's
``dop853.f``; coefficients in :mod:`gradleaf.dop853`), in one stepping
loop, :func:`solve_ivp`, that integrates many trajectories in lockstep.
Each trajectory runs the step control of scipy's
``solve_ivp(method="DOP853")`` (step-size control, error norm and initial
step), but the stage sums are taken over the whole block of rows, so they
round differently: a lone trajectory's states agree with scipy's to about
1e-15, and a step whose error estimate sits at rounding level may end at
another time.  A trajectory is its step ends; there is no dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dop853
from .errors import BlowUp, LevelNotReached
from .lyapunov_perron import level_crossings, sphere_rays

BLOWUP_RADIUS = 1e3
#: integration tolerances of ``integrate_forward``
TRAJECTORY_RTOL = 1e-10
TRAJECTORY_ATOL = 1e-12

# step-size control (Hairer, Norsett & Wanner, II.4), as in scipy's explicit
# Runge-Kutta solvers
STEP_SAFETY = 0.9
STEP_MIN_FACTOR = 0.2
STEP_MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / (dop853.ERROR_ESTIMATOR_ORDER + 1)


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
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / (dop853.ERROR_ESTIMATOR_ORDER + 1)))
    return np.minimum(np.minimum(100.0 * h0, h1), duration)


def _stage_sum(w, K):
    """``np.tensordot(w, K, axes=1)`` for stage weights ``w`` and stages
    ``K`` of shape ``(len(w), m, n)``: the reshape and ``dot`` that tensordot
    makes, without its Python overhead, so the two agree bit for bit."""
    return np.dot(w, K.reshape(len(w), -1)).reshape(K.shape[1:])


@dataclass
class StepEnds:
    """A forward trajectory in ambient coordinates, as the accepted steps of
    one kept row of a :func:`solve_ivp` run: ``times`` holds 0 and every
    step end, ``states`` the state at each."""

    times: np.ndarray
    states: np.ndarray


@dataclass
class ForwardRun:
    """What :func:`solve_ivp` returns: each row's terminal state, the mask
    of the rows that stopped below the level, the kept rows' step ends
    (None when no row was kept) and the count of right-hand-side rows
    evaluated."""

    terminal: np.ndarray
    stopped: np.ndarray
    step_ends: list | None
    nfev: int


def solve_ivp(problem, starts, duration, rtol, atol, stop_below_level,
              keep_step_ends=None):
    """Forward trajectories of the downward gradient flow, in lockstep.

    Runs DOP853 on an ``(m, n)`` array of start points, to ``duration``: one
    horizon for every row, or an ``(m,)`` array of them, each finite and
    ``>= 0`` (else ValueError, before any step).  Every row keeps its
    own step size, acceptance decision and error control, with scipy's
    per-trajectory error norm and initial-step rule, so each row runs the
    step control a one-row run would; the right-hand side is evaluated once
    per stage for all live rows.  It does not repeat a one-row run's bits:
    BLAS sums a stage block in an order that depends on the block's width,
    so a row's rounding depends on the other rows of its batch, and with it
    the size of a step whose error estimate sits at rounding level.  A row's
    terminal state stays within about 1e-14 of a one-row run's.  A row
    retires at its duration or at the first step end where f is below
    ``stop_below_level`` (f decreases along trajectories, so it stays below;
    pass ``-inf`` to run every row to its duration, and f is never
    evaluated).

    Returns a :class:`ForwardRun`.  Its ``terminal`` holds each row's state
    at its duration, or at the step end where it stopped, which ``stopped``
    marks.  ``keep_step_ends``, when given, is a boolean mask of the rows
    whose step ends are kept; the run's ``step_ends`` then holds a
    :class:`StepEnds` for each kept row (None for the others).  ``nfev``
    counts the right-hand-side rows the run evaluated, those of the
    initial-step rule included.  A live row beyond ``BLOWUP_RADIUS`` raises
    BlowUp, as does a step below the floating-point spacing of its row's
    time or a NaN step (from a non-finite right-hand side).
    """
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
        return -problem.grad(y)

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
        # a fresh step is raised to the spacing floor; a retried one below
        # it, or a NaN one (from a non-finite right-hand side), cannot be taken
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
        if stop_below_level > -np.inf:  # no f value is below -inf
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


def integrate_forward(problem, start, duration):
    """The forward trajectory from ``start`` for ``duration > 0``: the
    :class:`StepEnds` of a one-row :func:`solve_ivp` run at
    ``TRAJECTORY_RTOL`` and ``TRAJECTORY_ATOL``.  Its last state is the
    step end at ``duration``.  Exceeding ``BLOWUP_RADIUS`` raises BlowUp.
    """
    if not duration > 0:
        raise ValueError("forward integration requires duration > 0")
    run = solve_ivp(problem, np.asarray(start, dtype=float)[None], duration,
                    TRAJECTORY_RTOL, TRAJECTORY_ATOL, -np.inf, keep_step_ends=[True])
    return run.step_ends[0]


@dataclass
class DescendingDisk:
    """Boundary sphere of the descending disk, the part of the unstable
    manifold above level ``c - epsilon``.

    The sphere consists of the level-crossing points along rays in
    the unstable subspace; ``sphere_minus`` holds their minus coordinates and
    ``sphere_local`` the corresponding local-frame points on the graph.
    """

    sphere_minus: np.ndarray
    sphere_local: np.ndarray


def descending_disk(model, ladder, graph_f):
    """Locate the boundary sphere of the descending disk above level
    c - epsilon of the ladder.

    The sphere is found by bisection in the level value along rays of the
    unstable subspace, to 1e-10 in f; for Morse index one it consists of
    two points.
    """
    epsilon = ladder.epsilon
    level = model.critical_value - epsilon
    dirs = sphere_rays(model.k)
    radii = level_crossings([graph_f], model.f_local, dirs, level, 1e-10)[0]
    if np.isnan(radii).any():
        raise LevelNotReached(
            f"epsilon = {epsilon:.3e} not reached within the sampled graph")
    sphere_minus = radii[:, None] * dirs
    return DescendingDisk(sphere_minus, graph_f.local_points(sphere_minus))
