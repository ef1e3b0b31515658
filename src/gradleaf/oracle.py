"""Brute-force cross-validation of the mixed boundary problems by shooting.

The oracle is deliberately independent of the contraction machinery: it
solves each mixed boundary problem by shooting over the unknown unstable
component, with a damped Newton iteration on the time-T endpoint of forward
trajectories.  It exists to validate the fixed-point solvers.  The shooting
check is the largest stage of a verification run, so the mixed queries are
shot in lockstep, each Newton phase of all of them one batched integration,
while each query keeps the iteration it would run alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDiverged
from .flow import solve_ivp

ORACLE_RTOL = 1e-12
ORACLE_ATOL = 1e-15
NEWTON_MAX_ITER = 30
#: a shot is solved when its endpoint misses z_minus by at most this much
NEWTON_TOL = 1e-8


@dataclass
class _Newton:
    """The damped Newton iteration of one mixed query, in the pre-stretched
    unknown ``u`` (``w = scale * u``)."""

    index: int
    T: float
    z_minus: np.ndarray
    z_plus: np.ndarray
    scale: np.ndarray
    u: np.ndarray
    fd: float
    resid: np.ndarray = None
    best: tuple = None
    probes: list = None
    step: np.ndarray = None
    active: bool = True
    error: Exception = None


def _shoot(model, shots, keep):
    """Endpoint residuals of ``shots``, ``(query, u)`` pairs, integrated in
    one batch, and the step ends of the rows ``keep`` marks."""
    starts = np.array([model.to_ambient(np.concatenate([q.scale * u, q.z_plus]))
                       for q, u in shots])
    run = solve_ivp(model.problem, starts, [q.T for q, _ in shots], ORACLE_RTOL,
                    ORACLE_ATOL, -np.inf, keep_step_ends=keep)
    resid = [model.to_local(end)[:model.k] - q.z_minus
             for (q, _), end in zip(shots, run.terminal)]
    return resid, run.step_ends


def mixed_bvp_oracle(model, queries):
    """Shooting solutions of mixed boundary problems, solved in lockstep.

    For each ``(T, z_minus, z_plus)`` of ``queries``, finds the initial
    minus part ``w`` such that the forward trajectory from ``(w, z_plus)``
    has minus projection ``z_minus`` at time ``T``: Newton with a
    finite-difference Jacobian, damped on over-shoots.  Each query runs the
    iteration it would run alone; only the shots are pooled, one
    :func:`~gradleaf.flow.solve_ivp` call for the base shots with the first
    Jacobian probes, one for each later iteration's probes and one for each
    damping level.  Returns ``(trajectory, residual)`` per query, in query
    order: the forward trajectory of the best shot (its
    :class:`~gradleaf.flow.StepEnds`, whose last step end is at ``T``), the
    one whose endpoint misses ``z_minus`` least, and the norm of that miss.

    A failing query raises NewtonDiverged once no query before it can fail
    any more, so the error is the one solving the queries one after another
    would raise first.  A BlowUp in a pooled batch propagates at once,
    whichever query's shot it was.
    """
    k = model.k
    eye = np.eye(k)
    newton = []
    for i, (T, z_minus, z_plus) in enumerate(queries):
        z_minus = np.asarray(z_minus, dtype=float)
        u = z_minus.copy()  # linear-model prediction in the scaled variable
        # the time-T map stretches the minus part by exp(-T lam_j); shooting
        # in the pre-stretched variable keeps the Jacobian O(1) and
        # finite-difference probes from blowing the trajectory up
        newton.append(_Newton(i, float(T), z_minus, np.asarray(z_plus, dtype=float),
                              np.exp(T * model.eigenvalues[:k]), u,
                              max(1e-9, 1e-7 * float(np.linalg.norm(u)))))

    def fail(q, error):
        q.error = error
        # a later query can no longer change which error is raised
        for r in newton[q.index:]:
            r.active = False

    def probe_shots(live):
        return [(q, q.u + q.fd * e) for q in live for e in eye]

    def take_probes(live, resid):
        for j, q in enumerate(live):
            q.probes = resid[j * k:(j + 1) * k]

    shots = [(q, q.u) for q in newton] + probe_shots(newton)
    resid, trajs = _shoot(model, shots,
                          [True] * len(newton) + [False] * (len(shots) - len(newton)))
    for q, r, traj in zip(newton, resid, trajs):
        q.resid = r
        q.best = (np.linalg.norm(r), traj)
    take_probes(newton, resid[len(newton):])

    for iteration in range(NEWTON_MAX_ITER):
        for q in newton:
            if q.active and np.linalg.norm(q.resid) <= NEWTON_TOL:
                q.active = False
        live = [q for q in newton if q.active]
        if not live:
            break
        if iteration:
            shots = probe_shots(live)
            take_probes(live, _shoot(model, shots, [False] * len(shots))[0])
        for q in live:
            J = np.empty((k, k))
            for j in range(k):
                J[:, j] = (q.probes[j] - q.resid) / q.fd
            try:
                q.step = np.linalg.solve(J, q.resid)
            except np.linalg.LinAlgError as exc:
                fail(q, NewtonDiverged(f"singular shooting Jacobian: {exc}"))
        pending = [q for q in live if q.active]
        damping = 1.0
        for _ in range(8):
            if not pending:
                break
            shots = [(q, q.u - damping * q.step) for q in pending]
            resid, trajs = _shoot(model, shots, [True] * len(shots))
            pending = []
            for (q, u), r, traj in zip(shots, resid, trajs):
                if not np.linalg.norm(r) < np.linalg.norm(q.resid):
                    pending.append(q)
                    continue
                q.u, q.resid = u, r
                if np.linalg.norm(r) < q.best[0]:
                    q.best = (np.linalg.norm(r), traj)
            damping *= 0.5
        for q in pending:
            fail(q, NewtonDiverged("damped Newton made no progress on the shot"))
    for q in newton:
        if q.error is None and q.best[0] > NEWTON_TOL:
            fail(q, NewtonDiverged(f"endpoint residual {q.best[0]:.3e} above tol "
                                   f"{NEWTON_TOL}"))
        if q.error is not None:
            raise q.error

    return [(traj, float(norm)) for norm, traj in (q.best for q in newton)]
