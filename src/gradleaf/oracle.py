"""Brute-force cross-validation solvers built on forward integration only.

These are deliberately independent of the contraction machinery: stable
manifold points come from bisection on the escape side of forward
trajectories, and mixed boundary problems from shooting over the unknown
unstable component with a secant/Newton iteration on the time-T endpoint.
They exist to validate the fixed-point solvers, not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketLost, NewtonDiverged
from .flow import integrate_forward

ORACLE_RTOL = 1e-12
ORACLE_ATOL = 1e-15
NEWTON_MAX_ITER = 30


@dataclass
class ShootingResult:
    query: str
    solution: np.ndarray
    bracket_width: float
    integration_tol: float


def _escape_side(model, traj):
    """Sign of the dominant unstable coordinate at the end of a trajectory."""
    end_local = model.to_local(traj.terminal)
    return 1.0 if end_local[0] >= 0 else -1.0


def stable_point_oracle(model, ladder, z_plus, tol=1e-8):
    """Find the unstable coordinate putting ``(w, z_plus)`` on the stable set.

    Morse index one only: bisection on ``w`` using the side on which forward
    trajectories escape the ball of radius 4 rho within time 2 T0.  Returns
    a :class:`ShootingResult` whose solution is the full local-frame point
    ``(w, z_plus)``.
    """
    if model.k != 1:
        raise NewtonDiverged("bisection oracle requires Morse index one; "
                             "use mixed_bvp_oracle for higher index")
    z_plus = np.asarray(z_plus, dtype=float)
    horizon = 2.0 * ladder.T0
    escape_radius = 4.0 * ladder.rho
    problem = model.problem

    def shoot(w):
        start_local = np.concatenate([[w], z_plus])
        return integrate_forward(problem, model.to_ambient(start_local), horizon,
                                 rtol=ORACLE_RTOL, atol=ORACLE_ATOL,
                                 stop_radius=escape_radius)

    lo, hi = -ladder.R, ladder.R
    side_lo = _escape_side(model, shoot(lo))
    side_hi = _escape_side(model, shoot(hi))
    if side_lo == side_hi:
        raise BracketLost("both bracket ends escape to the same side")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        side = _escape_side(model, shoot(mid))
        if side == side_lo:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    # the converged shot must enter the rho/4 ball before any late escape
    # (residual escape at the bracket-width scale is inherent to shooting)
    final = shoot(w)
    probe = np.linspace(0.0, final.times[-1], 400)
    dist = np.linalg.norm(final.at(probe) - model.x0, axis=1)
    if float(np.min(dist)) > 0.25 * ladder.rho:
        raise BracketLost(
            "converged shot never enters the rho/4 ball; widen the horizon")
    return ShootingResult(
        query=f"stable point over z_plus={z_plus}",
        solution=np.concatenate([[w], z_plus]),
        bracket_width=hi - lo,
        integration_tol=ORACLE_RTOL,
    )


def mixed_bvp_oracle(model, ladder, T, z_minus, z_plus, tol=1e-8):
    """Shooting solution of the mixed boundary problem.

    Finds the initial minus part ``w`` such that the forward trajectory from
    ``(w, z_plus)`` has minus projection ``z_minus`` at time ``T``; Newton
    with a finite-difference Jacobian, damped on over-shoots.  Returns the
    dense trajectory together with the shooting record.
    """
    z_minus = np.asarray(z_minus, dtype=float)
    z_plus = np.asarray(z_plus, dtype=float)
    k = model.k
    problem = model.problem

    # the time-T map stretches the minus part by exp(-T lam_j); shooting in
    # the pre-stretched variable u (w = scale * u) keeps the Jacobian O(1)
    # and finite-difference probes from blowing the trajectory up
    scale = np.exp(T * model.eigenvalues[:k])

    def shoot(u):
        start_local = np.concatenate([scale * u, z_plus])
        traj = integrate_forward(problem, model.to_ambient(start_local), T,
                                 rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
        end_local = model.to_local(traj.terminal)
        return end_local[:k] - z_minus, traj

    u = z_minus.copy()  # linear-model prediction in the scaled variable

    resid, traj = shoot(u)
    best = (np.linalg.norm(resid), u, traj)
    fd = max(1e-9, 1e-7 * float(np.linalg.norm(u)))
    for _ in range(NEWTON_MAX_ITER):
        if np.linalg.norm(resid) <= tol:
            break
        J = np.empty((k, k))
        for j in range(k):
            du = np.zeros(k)
            du[j] = fd
            resid_j, _ = shoot(u + du)
            J[:, j] = (resid_j - resid) / fd
        try:
            step = np.linalg.solve(J, resid)
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"singular shooting Jacobian: {exc}") from exc
        damping = 1.0
        for _ in range(8):
            resid_new, traj_new = shoot(u - damping * step)
            if np.linalg.norm(resid_new) < np.linalg.norm(resid):
                break
            damping *= 0.5
        else:
            raise NewtonDiverged("damped Newton made no progress on the shot")
        u = u - damping * step
        resid, traj = resid_new, traj_new
        if np.linalg.norm(resid) < best[0]:
            best = (np.linalg.norm(resid), u, traj)
    if best[0] > tol:
        raise NewtonDiverged(f"endpoint residual {best[0]:.3e} above tol {tol}")
    _, u, traj = best
    w = scale * u
    record = ShootingResult(
        query=f"mixed boundary problem T={T}",
        solution=np.concatenate([w, z_plus]),
        bracket_width=float(best[0]),
        integration_tol=ORACLE_RTOL,
    )
    return traj, record
