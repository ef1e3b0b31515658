"""Euclidean local model at the critical point.

Centering at the critical point and rotating into the eigenbasis of the
Hessian puts the gradient flow in the form

    xi' + Lambda xi = h(xi),    h(xi) = Lambda xi - U^T grad_f(x0 + U xi),

with h(0) = 0 and dh(0) = 0.  h = grad q and dh = Hess q for the local potential
q(xi) = sum_i lambda_i xi_i^2 / 2 - f(x0 + U xi).  This module provides them,
Lipschitz bounds read off q's coefficient table, the rate constants all
contraction estimates use, the time grids and convolvers of the contraction
operators, one per horizon, and the counts of the solves made on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .curves import PanelGrid, panel_count
from .errors import IndexOutOfRange, LadderInfeasible
from .kernels import DECAY_TABLE_BYTES, ExpConvolver
from .polynomials import Polynomial

#: region factor: curves of the contraction spaces stay within this multiple
#: of rho of the origin, so the smallness inequality is checked there
REGION_FACTOR = 2.0
SMALLNESS_BOUND = 0.125  # 1/8


class LocalModel:
    """Problem + spectral splitting re-expressed in the adapted frame, with
    the time grids and convolvers of its solves, one per horizon, and the
    ``SolverCounts`` of those solves."""

    def __init__(self, problem, split):
        if problem.dimension != split.dimension:
            raise ValueError("problem and split dimensions disagree")
        self.problem = problem
        self.x0 = problem.critical_point
        self.U = split.eigenvectors
        self.eigenvalues = split.eigenvalues
        self.k = split.morse_index
        self.n = split.dimension
        #: q in the local frame; a term cancelling to exactly 0.0 adds 0.0 at any
        #: finite point and is left out
        q = {a: -c for a, c in problem.objective.affine(self.x0, self.U).terms.items()}
        for i, lam in enumerate(self.eigenvalues.tolist()):
            square = (0,) * i + (2,) + (0,) * (self.n - 1 - i)
            q[square] = q.get(square, 0.0) + 0.5 * lam
        self.potential = Polynomial(self.n, {a: c for a, c in q.items() if c != 0.0})
        #: the objective at the critical point, c = f(x0)
        self.critical_value = self.f_local(np.zeros(self.n))
        self.counts = SolverCounts()
        self._grids = {}
        self._convs = {}

    # -- coordinates ---------------------------------------------------------
    def to_ambient(self, xi):
        return self.x0 + np.asarray(xi) @ self.U.T

    def to_local(self, x):
        return (np.asarray(x) - self.x0) @ self.U

    def embed_minus(self, c):
        """Pad one minus-subspace vector to a full local vector."""
        out = np.zeros(self.n)
        out[: self.k] = c
        return out

    # -- nonlinearity ----------------------------------------------------------
    def h(self, xi):
        """Nonlinearity in the adapted frame, grad q; accepts (n,) or (m, n)."""
        return self.potential.gradient(xi)

    def dh(self, xi):
        """Jacobian of ``h``, Hess q: (n,) gives one (n, n) matrix, (m, n) a
        stack of m, each equal bit for bit to its own one-point call."""
        return self.potential.hessian(xi)

    def f_local(self, xi):
        """The objective at local point(s): (n,) gives a float, (m, n) an array."""
        return self.problem.f(self.to_ambient(xi))

    # -- discretization --------------------------------------------------------
    def grid(self, t0, t1):
        """The time grid on [t0, t1], built once per horizon; a horizon whose
        decay tables, 8 P^2 bytes per eigenvalue on P panels, would pass
        ``DECAY_TABLE_BYTES`` raises LadderInfeasible before any grid array."""
        key = (round(float(t0), 12), round(float(t1), 12))
        if key not in self._grids:
            max_rate = float(np.max(np.abs(self.eigenvalues)))
            n_panels = panel_count(t0, t1, max_rate)
            table_bytes = 8.0 * float(n_panels) * n_panels * self.eigenvalues.size
            if table_bytes > DECAY_TABLE_BYTES:
                raise LadderInfeasible(
                    f"the horizon [{float(t0):g}, {float(t1):g}] needs {n_panels:.6g} "
                    f"panels: {table_bytes / 1e6:.0f} MB of decay tables, over "
                    f"{DECAY_TABLE_BYTES / 1e6:.0f} MB")
            self._grids[key] = PanelGrid(t0, t1, max_rate)
        return self._grids[key]

    def convolver(self, grid):
        """The exponential convolver of ``grid``, built once per grid."""
        if grid not in self._convs:
            self._convs[grid] = ExpConvolver(grid, self.eigenvalues)
        return self._convs[grid]


def lipschitz_modulus(model):
    """Lipschitz bounds of ``model.h`` and ``model.dh`` read off q's table.

    Returns ``(kappa, kappa_star)``.  ``kappa(r)`` is the Frobenius norm over
    (i, j) of the sums of |c_beta| r^|beta| over the table of d_i d_j q.
    Since |xi^beta| <= r^|beta| on the ball |xi| <= r, each sum bounds
    |d_i d_j q| there, so kappa(r) >= sup ||dh||_F >= sup ||dh||_2, the
    Lipschitz constant of h on that convex ball.  ``kappa_star`` is the same
    norm over the third-derivative tables at the trust radius, which bounds
    the Lipschitz constant of dh on the trust ball one order higher.  No
    slack is added: the sums round to nearest, about 1e-16 relative.
    """
    n = model.n
    second = [model.potential.differentiate(i).differentiate(j)
              for i in range(n) for j in range(n)]
    third = [p.differentiate(k) for p in second for k in range(n)]

    def bound(partials, r):
        return math.sqrt(sum(sum(abs(c) * r ** sum(beta) for beta, c in p.terms.items()) ** 2
                             for p in partials))

    return (lambda r: bound(second, r)), bound(third, model.problem.trust_radius)


@dataclass(frozen=True)
class RateLadder:
    """The chain of constants every contraction estimate leans on.

    All entries are plain floats so the ladder can be echoed exactly through
    reports.  ``kappa_rho`` is the modulus at ``rho``; ``kappa_region`` the
    modulus at ``min(REGION_FACTOR * rho, rho0)`` actually used in the
    smallness check (curves wander up to one rho away from reference orbits
    inside the descending disk).
    """

    lambda_: float
    delta: float
    mu: float
    rho: float
    varkappa: float
    epsilon: float
    varsigma: float
    T1: float
    T2: float
    T0: float
    kappa_rho: float
    kappa_region: float
    kappa_star: float
    c1: float
    c_star: float
    gap: float
    lambda_min: float
    morse_index: int
    calibrated: bool = False

    def __post_init__(self):
        d = self.gap
        if not 0 < self.lambda_ < d:
            raise LadderInfeasible(f"lambda {self.lambda_} outside (0, {d})")
        if not 0 < self.delta < min(1.0, (d - self.lambda_) / 2) + 1e-15:
            raise LadderInfeasible("delta outside (0, min(1, (d - lambda)/2))")
        if not self.lambda_ < self.mu < (d + self.lambda_) / 2 + 1e-15:
            raise LadderInfeasible("mu outside (lambda, (d + lambda)/2)")
        if self.kappa_rho * (4 / self.lambda_ + 1 / self.delta + 1) > SMALLNESS_BOUND + 1e-15:
            raise LadderInfeasible("smallness inequality fails at rho")
        if not 0 < self.varkappa <= 1.0:
            raise LadderInfeasible("varkappa outside (0, 1]")
        if not 0 < self.epsilon < self.varsigma:
            raise LadderInfeasible("epsilon outside (0, varsigma)")
        if self.T0 < 1.0:
            raise LadderInfeasible("T0 < 1")

    @property
    def R(self):
        """Radius of the graph domains (half of rho)."""
        return 0.5 * self.rho

    def contraction_bound(self):
        """A priori contraction factor of the finite-horizon operator."""
        return self.kappa_region * (1 / self.delta + 1 / (self.lambda_ + self.mu))

    def echo(self):
        """Every field by name, ``lambda_`` as ``lambda``."""
        return {f.name.rstrip("_"): getattr(self, f.name) for f in fields(self)}


class SolverCounts:
    """What the Picard loop did, per ladder and operator kind: columns
    solved, batched calls, the sum and the maximum of the columns' iteration
    counts, and the worst contraction ratio res_k / res_(k-1) measured
    between two iterations of a column (None while every column converged
    at its first iteration, so that no ratio was formed)."""

    def __init__(self):
        #: (ladder, {kind: counts}) in the order the ladders were first used
        self.ladders = []

    def record(self, ladder, kind, iterations, worst_ratio):
        """One batched call on ``ladder`` that solved columns in
        ``iterations`` steps each; ``worst_ratio`` is None when it formed no
        ratio."""
        kinds = next((k for held, k in self.ladders if held is ladder), None)
        if kinds is None:
            kinds = {}
            self.ladders.append((ladder, kinds))
        entry = kinds.setdefault(kind, {
            "columns": 0, "batches": 0, "iterations_sum": 0,
            "iterations_max": 0, "worst_ratio": None})
        entry["columns"] += len(iterations)
        entry["batches"] += 1
        entry["iterations_sum"] += sum(iterations)
        entry["iterations_max"] = max([entry["iterations_max"], *iterations])
        ratios = [r for r in (entry["worst_ratio"], worst_ratio) if r is not None]
        entry["worst_ratio"] = max(ratios, default=None)

    def summary(self):
        """Per ladder, in order of first use, its counts next to its a
        priori contraction factor; and the paper's 1/2."""
        return {"ladders": [{"contraction_bound": ladder.contraction_bound(),
                             "kinds": kinds} for ladder, kinds in self.ladders],
                "paper_bound": 0.5}


def _provisional_disks(split, rho):
    """Quadratic-model estimates for varsigma, epsilon, varkappa.

    Replaced by graph-calibrated values once the local manifolds are solved.
    """
    R = 0.5 * rho
    lam_u = float(np.min(np.abs(split.eigenvalues[: split.morse_index])))
    lam_s = float(np.min(split.eigenvalues[split.morse_index:]))
    lam_top = float(np.max(split.eigenvalues))
    varsigma = min(lam_u, lam_s) * R * R / 8.0
    epsilon = 0.5 * varsigma
    varkappa = min(1.0, 0.9 * math.sqrt(varsigma / lam_top))
    return varsigma, epsilon, varkappa


def build_ladder(split, kappa, kappa_star, rho0):
    """Assemble the rate ladder from the spectral data and the Lipschitz
    bounds ``kappa`` (a function of the radius) and ``kappa_star``.

    Every constant is derived: lambda = d/2 for the spectral gap d, delta =
    0.9 * min(1, (d - lambda)/2), mu = lambda + delta, rho = largest halving
    of rho0 passing the smallness inequality on the excursion region, and
    varsigma, epsilon, varkappa the provisional disk estimates.  ``kappa``
    is evaluated at exactly the radii used: the halvings of rho0 in that
    search, then rho and min(2 rho, rho0).
    """
    k, n = split.morse_index, split.dimension
    if k in (0, n):
        raise IndexOutOfRange(f"Morse index {k} of {n}: no transverse family")
    d = split.gap
    lam = 0.5 * d
    delta = 0.9 * min(1.0, (d - lam) / 2)
    if not (lam > 0.0 and delta > 0.0):  # a subnormal gap rounds delta to 0
        raise LadderInfeasible(f"spectral gap {d:.3g} leaves lambda = {lam:.3g} and "
                               f"delta = {delta:.3g}; the ladder needs both positive")
    mu = lam + delta
    smallness = 4 / lam + 1 / delta + 1

    rho = None
    for candidate in rho0 * 0.5 ** np.arange(1, 16):
        if kappa(min(REGION_FACTOR * candidate, rho0)) * smallness <= SMALLNESS_BOUND:
            rho = float(candidate)
            break
    if rho is None:
        raise LadderInfeasible(
            "no halving of the trust radius satisfies the smallness inequality")

    varsigma, epsilon, varkappa = _provisional_disks(split, rho)

    T1 = -math.log(varkappa) / lam
    T2 = 4.0 * math.log(8.0) / mu
    T0 = max(T1, T2, 1.0)
    lam1 = float(split.eigenvalues[0])
    c1 = 2.0 * (abs(lam1) + 1.0)
    c_star = 2.0 * kappa_star * (1 / delta + 1 / lam) + 0.25

    return RateLadder(
        lambda_=lam, delta=delta, mu=mu, rho=rho,
        varkappa=varkappa, epsilon=epsilon, varsigma=varsigma,
        T1=T1, T2=T2, T0=T0,
        kappa_rho=kappa(rho), kappa_region=kappa(min(REGION_FACTOR * rho, rho0)),
        kappa_star=kappa_star,
        c1=c1, c_star=c_star,
        gap=d, lambda_min=lam1, morse_index=k,
    )


def calibrate_ladder(ladder, model, graph_f, graph_g):
    """Replace provisional disk parameters by graph-verified values.

    varsigma: largest level offset whose descending/ascending disks stay
    inside the sampled graph images (read off the objective's drop/rise along
    the graph boundaries), epsilon = varsigma / 2; varkappa: largest
    plus-ball that stays inside the ascending disk at level varsigma.
    """
    drop = _boundary_level_change(model, graph_f, sign=-1.0)
    rise = _boundary_level_change(model, graph_g, sign=+1.0)
    varsigma = 0.45 * min(drop, rise)
    if varsigma <= 0:
        raise LadderInfeasible("graphs carry no level range: varsigma <= 0")
    epsilon = 0.5 * varsigma
    level = model.critical_value + varsigma
    radius = _plus_radius_within_level(model, graph_g, level)
    if radius <= 0:
        raise LadderInfeasible(f"no plus ball of the stable graph stays below the "
                               f"level c + varsigma = {level:.6g}")
    varkappa = min(1.0, 0.9 * radius)
    T1 = -math.log(varkappa) / ladder.lambda_
    T0 = max(T1, ladder.T2, 1.0)
    return replace(ladder, varsigma=varsigma, epsilon=epsilon, varkappa=varkappa,
                   T1=T1, T0=T0, calibrated=True)


def _boundary_level_change(model, graph, sign):
    """Min |f - c| over the boundary base points of a graph sample."""
    change = sign * (model.f_local(graph.boundary_points_local())
                     - model.critical_value)
    lo = float(np.min(change))
    if lo <= 0:
        raise LadderInfeasible("objective not monotone across a graph boundary")
    return lo


def _plus_radius_within_level(model, graph_g, level):
    """Largest base radius of the stable graph staying below ``level``."""
    radii = np.linalg.norm(graph_g.grid_points(), axis=1)
    vals = model.f_local(graph_g.local_points())
    bad = radii[vals > level]
    limit = float(np.min(bad)) if bad.size else float(np.max(radii))
    inside = radii[radii < limit - 1e-15]
    return float(np.max(inside)) if inside.size else limit
