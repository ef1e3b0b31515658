"""Forward flow integration.

No operation here integrates the gradient equation in reverse time.  The
module imports nothing of the contraction machinery, so the shooting oracle
that integrates with it stays independent of the solvers it checks.

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
from .errors import BlowUp

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
#: the weights ``A[s, :s]`` of the earlier stages in stage s = 1 .. N_STAGES,
#: each a contiguous row of the tableau (the last one is ``B``)
_STAGE_WEIGHTS = tuple(dop853.A[s, :s] for s in range(1, dop853.N_STAGES + 1))


def _rms(x):
    """Row-wise root-mean-square norm, the norm scipy controls errors in."""
    return np.linalg.norm(x, axis=1) / math.sqrt(x.shape[1])


def _initial_steps(problem, y0, f0, duration, rtol, atol):
    """scipy's initial-step rule (``select_initial_step``), one step per row."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, duration)
        probe = y0 + h0[:, None] * f0
        f1 = -problem.grad(probe, np.empty_like(probe))
        d2 = _rms((f1 - f0) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / (dop853.ERROR_ESTIMATOR_ORDER + 1)))
    return np.minimum(np.minimum(100.0 * h0, h1), duration)


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
    per stage for all live rows, as ``problem.grad(x, out)``: ``grad`` writes
    the gradient at each row of the ``(m, n)`` stage argument ``x`` into
    ``out``, the stage's own ``(m, n)`` slot of the stage block (never
    overlapping ``x``), and the slot is then negated in place.  The block
    and its buffers are made once per count of live rows, not per step.

    A row does not repeat a one-row run's bits: BLAS sums a stage block in
    an order that depends on the block's width, so a row's rounding depends
    on the other rows of its batch, and with it the size of a step whose
    error estimate sits at rounding level.  A row's
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
    kept = (np.zeros(m, dtype=bool) if keep_step_ends is None
            else np.asarray(keep_step_ends, dtype=bool))
    ends = [([0.0], [terminal[i].copy()]) if keep else None
            for i, keep in enumerate(kept)]
    rows = np.flatnonzero(duration > 0.0)
    y = terminal[rows]
    end = duration[rows]
    f = -problem.grad(y, np.empty_like(y))
    t = np.zeros(rows.size)
    h_abs = _initial_steps(problem, y, f, end, rtol, atol)
    nfev = 2 * rows.size
    fresh = np.ones(rows.size, dtype=bool)  # the last step was accepted
    live_kept = kept[rows]
    keeping = live_kept.any()
    width = 0
    while rows.size:
        if rows.size != width:
            # the stage block of the live rows and its views, made again only
            # when rows retire: slot s of K holds stage s, slot 0 the
            # derivative at y, and a stage's argument is the stage buffer
            # (the last one's, y_new)
            width = rows.size
            K = np.empty((dop853.N_STAGES + 1, width, n))
            K[0] = f
            f = K[0]
            flat = K.reshape(dop853.N_STAGES + 1, -1)
            stage, y_new, scale, err = np.empty((4, width, n))
            stages = [(w, flat[:len(w)], arg, arg.reshape(-1), K[len(w)])
                      for w, arg in zip(_STAGE_WEIGHTS,
                                        [stage] * (dop853.N_STAGES - 1) + [y_new])]
            err_flat = err.reshape(-1)
            h = np.empty(width)
            h_col = h[:, None]
        # a fresh step is raised to the spacing floor (t >= 0, so np.spacing
        # is the gap to the next double up); a retried one below it, or a NaN
        # one (from a non-finite right-hand side), cannot be taken
        min_step = 10.0 * np.spacing(t)
        np.maximum(h_abs, min_step, out=h_abs, where=fresh)
        fits = h_abs >= min_step
        if np.count_nonzero(fits) < width:
            raise BlowUp(f"integrator failed: required step size is less than "
                         f"spacing between numbers (t = {t[np.argmin(fits)]:.4g})")
        t_new = np.minimum(t + h_abs, end)
        np.subtract(t_new, t, out=h)

        # stage s: y + h * (A[s, :s] . K[:s]), whose right-hand side is
        # written into slot s and negated there
        for w, prior, arg, arg_flat, slot in stages:
            np.dot(w, prior, out=arg_flat)
            arg *= h_col
            arg += y
            problem.grad(arg, slot)
            np.negative(slot, out=slot)
        nfev += dop853.N_STAGES * width

        np.abs(y, out=scale)
        np.maximum(scale, np.abs(y_new, out=err), out=scale)
        scale *= rtol
        scale += atol
        np.dot(dop853.E5, flat, out=err_flat)
        err /= scale
        err *= err
        err5 = np.add.reduce(err, axis=1)
        np.dot(dop853.E3, flat, out=err_flat)
        err /= scale
        err *= err
        err3 = np.add.reduce(err, axis=1)
        denom = err5 + 0.01 * err3
        with np.errstate(divide="ignore", invalid="ignore"):
            error_norm = np.where(denom == 0.0, 0.0, h * err5 / np.sqrt(denom * n))
            factor = STEP_SAFETY * error_norm ** ERROR_EXPONENT
        accept = error_norm < 1.0
        # the next step: a zero error norm makes the factor inf, which fmin
        # caps at STEP_MAX_FACTOR; a step taken after a rejection grows by at
        # most 1, and a rejected one shrinks by at most STEP_MIN_FACTOR
        h_abs = np.fmin(STEP_MAX_FACTOR, factor)
        np.fmin(h_abs, 1.0, out=h_abs, where=~fresh)
        np.fmax(STEP_MIN_FACTOR, factor, out=h_abs, where=~accept)
        h_abs *= h
        fresh = accept
        np.copyto(t, t_new, where=accept)
        accept_col = accept[:, None]
        np.copyto(y, y_new, where=accept_col)
        np.copyto(f, K[-1], where=accept_col)
        if keeping:
            for j in np.flatnonzero(accept & live_kept):
                ends[rows[j]][0].append(t_new[j])
                ends[rows[j]][1].append(y[j].copy())

        # the norm as np.linalg.norm takes it, into a spare buffer
        beyond = np.sqrt(np.add.reduce(np.multiply(y, y, out=err), axis=1)) > BLOWUP_RADIUS
        if np.count_nonzero(beyond):
            raise BlowUp(f"state norm exceeded {BLOWUP_RADIUS} at "
                         f"t = {t[np.argmax(beyond)]:.4g}")
        done = t >= end
        if stop_below_level > -np.inf:  # no f value is below -inf
            below = np.zeros_like(accept)
            below[accept] = problem.f(y[accept]) < stop_below_level
            stopped[rows[below]] = True
            done |= below
        if np.count_nonzero(done):
            terminal[rows[done]] = y[done]
            keep = ~done
            rows, y, f, t, end = rows[keep], y[keep], f[keep], t[keep], end[keep]
            h_abs, fresh, live_kept = h_abs[keep], fresh[keep], live_kept[keep]
            keeping = live_kept.any()
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
