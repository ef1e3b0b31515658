"""Quantitative checks on the time-T graph family.

Each report row compares a measured gap against the a priori bound computed
from the rate ladder, with an explicit tolerance budget so that a violation
of the mathematics is separated from numerical slack.  Bounds are asserted
against the ladder constants as built, never re-fitted: a failing row is a
finding about the implementation or the ladder, not a tuning signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lyapunov_perron import (
    PICARD_TOL,
    backward_orbit,
    default_horizon,
    graph_derivative_linearized,
    mixed_columns,
    stable_columns,
)

#: a fixed point with residual r lies within 2 r of the exact one
#: (contraction factor <= 1/2)
RESIDUAL_TO_ERROR = 2.0


@dataclass
class ReportRow:
    check: str
    T: float
    z_minus_label: str
    z_plus_label: str
    direction_label: str
    gap: float
    bound: float
    budget: float
    ok: bool
    #: a separation row passes when the gap exceeds the bound; every other
    #: row passes when the gap stays below bound + budget
    separation: bool = False

    @property
    def slack(self):
        """Distance to failing: non-negative on a passing row."""
        if self.separation:
            return self.gap - self.bound - self.budget
        return self.bound + self.budget - self.gap

    def to_list(self):
        return [self.check, self.T, self.z_minus_label, self.z_plus_label,
                self.direction_label, self.gap, self.bound, self.budget,
                self.slack, int(self.ok)]


REPORT_COLUMNS = ["check", "T", "z_minus", "z_plus", "direction",
                  "gap", "bound", "budget", "slack", "pass"]


@dataclass
class ConvergenceReport:
    kind: str
    rows: list = field(default_factory=list)
    fitted_rates: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def all_ok(self):
        """True when every row passes; a report with no rows checked nothing
        and fails."""
        return bool(self.rows) and all(r.ok for r in self.rows)

    def describe_worst(self):
        """One line naming the report and its worst row: the failing row with
        the least slack, else the passing row with the least slack."""
        row = min(self.rows, key=lambda r: (r.ok, r.slack), default=None)
        if row is None:
            return f"report {self.kind} has no rows"
        return (f"report {self.kind}, row check={row.check} T={row.T:.6g} "
                f"z_minus={row.z_minus_label} z_plus={row.z_plus_label}: "
                f"gap {row.gap:.3e}, bound {row.bound:.3e}, budget {row.budget:.3e}")

    def add(self, **kw):
        self.rows.append(ReportRow(**kw))


def _label(vec):
    return "(" + ",".join(f"{v:.6g}" for v in np.atleast_1d(vec)) + ")"


def _key(vec):
    return tuple(np.asarray(vec, dtype=float).round(15).tolist())


class GraphFamilySolver:
    """The solve store of one ladder: the backward orbit of each z-, which
    every (T, z-) request on that ladder needs, shared by every stage.

    A time-T or stable graph value is the fixed point of one contraction
    and rounds as it does alone, whatever batch it is solved in (see
    ``lyapunov_perron``), so those are solved where they are asked for and
    not held.
    """

    def __init__(self, model, ladder):
        self.model = model
        self.ladder = ladder
        self._orbits = {}

    def orbit(self, z_minus, t_need):
        key = _key(z_minus)
        have = self._orbits.get(key)
        if have is None or have.curve.grid.t0 > -t_need:
            t_max = max(default_horizon(self.ladder), t_need)
            have = backward_orbit(self.model, self.ladder, np.asarray(z_minus),
                                  t_max)
            self._orbits[key] = have
        return have

    def mixed_rows(self, T, z_minus, z_plus_rows):
        """``(result, gap)`` for each row of ``z_plus_rows``, in row order,
        solved in one batch on the orbit of ``z_minus``."""
        return list(mixed_columns(self.model, self.ladder, T, z_minus,
                                  z_plus_rows, self.orbit(z_minus, T)))

    def mixed(self, T, z_minus, z_plus):
        return self.mixed_rows(T, z_minus, [z_plus])[0]


def _fit_rate(T_values, gaps, floor):
    """Least-squares decay rate of gap ~ exp(-rate * T), above the floor."""
    T_values = np.asarray(T_values, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    keep = gaps > floor
    if np.count_nonzero(keep) < 2:
        return None
    slope = np.polyfit(T_values[keep], np.log(gaps[keep]), 1)[0]
    return -float(slope)


def c0_convergence(solver, T_grid, z_minus_list, z_plus_list):
    """Gap of the time-T graph against the stable graph, per sample.

    Requires T >= T0; bound exp(-T lambda / 8) from the ladder.
    """
    ladder = solver.ladder
    T_grid = np.asarray(sorted(T_grid), dtype=float)
    if T_grid[0] < ladder.T0 - 1e-9:
        raise ValueError(f"T grid must start at T0 = {ladder.T0}")
    report = ConvergenceReport("c0")
    series = {}
    stable = list(stable_columns(solver.model, ladder, z_plus_list))
    for T in T_grid:
        for zm in z_minus_list:
            mixed = solver.mixed_rows(T, zm, z_plus_list)
            for zp, (res, _), st in zip(z_plus_list, mixed, stable):
                gap = float(np.linalg.norm(res.graph_value - st.graph_value))
                bound = math.exp(-T * ladder.lambda_ / 8.0)
                budget = RESIDUAL_TO_ERROR * (res.reported_residual
                                              + st.reported_residual)
                report.add(check="c0", T=float(T), z_minus_label=_label(zm),
                           z_plus_label=_label(zp), direction_label="",
                           gap=gap, bound=bound, budget=budget,
                           ok=gap <= bound + budget)
                series.setdefault(f"{_label(zm)}|{_label(zp)}", []).append((T, gap))
    floor = 50.0 * PICARD_TOL
    pooled_T, pooled_gap = [], []
    for key, pts in series.items():
        Ts, gaps = zip(*pts)
        rate = _fit_rate(Ts, gaps, floor)
        if rate is not None:
            report.fitted_rates[key] = rate
        pooled_T.extend(Ts)
        pooled_gap.extend(gaps)
    pooled = _fit_rate(pooled_T, pooled_gap, floor)
    if pooled is not None:
        report.fitted_rates["pooled"] = pooled
    report.extras["rate_bound"] = ladder.lambda_ / 8.0
    return report


def c1_convergence(solver, T_grid, z_minus_list, z_plus_list):
    """Directional-derivative gap of the time-T graphs against the stable one,
    along each coordinate axis of the plus subspace.

    The bound constant c_* comes from the Lipschitz modulus of dh, finite
    for the C^{2,1} objectives gradleaf accepts.  Derivatives are central
    differences of re-solved graph values; the linearized integral equation
    provides a cross-check recorded in ``extras``.
    """
    ladder = solver.ladder
    model = solver.model
    directions = list(np.eye(model.n - model.k))
    fd_step = 0.05 * ladder.R
    fd_probes = (fd_step, -fd_step, 0.5 * fd_step, -0.5 * fd_step)
    noise = 4.0 * RESIDUAL_TO_ERROR * PICARD_TOL / fd_step

    def fd(g, h, at):
        """Central difference of the graph values ``g`` over the probes at
        +h (index ``at``) and -h (``at + 1``)."""
        return (g[at] - g[at + 1]) / (2.0 * h)

    # the four probes of every (z+, direction), then the z+ themselves for
    # the linearized check: their stable fixed points once, and one mixed
    # request per (T, z-)
    probes = [zp + h * v for zp in z_plus_list for v in directions
              for h in fd_probes]
    probes += list(z_plus_list)
    stable = list(stable_columns(model, ladder, probes))
    g_I = [st.graph_value for st in stable]
    # the stable side's linearized derivative depends on (z+, direction) only
    base = len(probes) - len(z_plus_list)
    dI_lin = [[graph_derivative_linearized(model, ladder, st, v) for v in directions]
              for st in stable[base:]]
    report = ConvergenceReport("c1")
    cross = []
    for T in sorted(T_grid):
        for zm in z_minus_list:
            mixed = solver.mixed_rows(T, zm, probes)
            g_T = [res.graph_value for res, _ in mixed]
            for a, zp in enumerate(z_plus_list):
                for i, v in enumerate(directions):
                    at = len(fd_probes) * (a * len(directions) + i)
                    dT_full = fd(g_T, fd_step, at)
                    dT_half = fd(g_T, 0.5 * fd_step, at + 2)
                    dI_full = fd(g_I, fd_step, at)
                    dI_half = fd(g_I, 0.5 * fd_step, at + 2)
                    gap = float(np.linalg.norm(dT_half - dI_half))
                    fd_err = (np.linalg.norm(dT_full - dT_half)
                              + np.linalg.norm(dI_full - dI_half)) / 3.0
                    bound = (ladder.c_star * math.exp(-T * ladder.lambda_ / 8.0)
                             * np.linalg.norm(v))
                    budget = float(fd_err + noise)
                    report.add(check="c1", T=float(T), z_minus_label=_label(zm),
                               z_plus_label=_label(zp),
                               direction_label=f"e{i}",
                               gap=gap, bound=bound, budget=budget,
                               ok=gap <= bound + budget)
                    dT_lin = graph_derivative_linearized(
                        model, ladder, mixed[base + a][0], v)
                    cross.append(float(np.linalg.norm(
                        (dT_lin - dI_lin[a][i]) - (dT_half - dI_half))))
    report.extras["linearized_vs_fd_max"] = max(cross)
    return report


def lipschitz_in_T(solver, T_grid, tau_grid, z_minus_list, z_plus_list):
    """First difference quotients of the graph family in the horizon T,
    asserted against c1 = 2(|lambda_min| + 1)."""
    ladder = solver.ladder
    report = ConvergenceReport("lipschitz_T")
    for T in sorted(T_grid):
        at_T = [solver.mixed_rows(T, zm, z_plus_list) for zm in z_minus_list]
        for tau in tau_grid:
            for zm, rows_A in zip(z_minus_list, at_T):
                rows_B = solver.mixed_rows(T + tau, zm, z_plus_list)
                for zp, (resA, _), (resB, _) in zip(z_plus_list, rows_A, rows_B):
                    quotient = float(np.linalg.norm(resB.graph_value
                                                    - resA.graph_value)) / tau
                    budget = RESIDUAL_TO_ERROR * (resA.reported_residual
                                                  + resB.reported_residual) / tau
                    report.add(check="lipschitz_T", T=float(T),
                               z_minus_label=_label(zm), z_plus_label=_label(zp),
                               direction_label=f"tau={tau:g}",
                               gap=quotient, bound=ladder.c1, budget=budget,
                               ok=quotient <= ladder.c1 + budget)
    return report


def endpoint_audit(solver, graph):
    """Audit of ``|xi(T) - z_minus|`` against the sharp bound rho e^{-T lambda}."""
    ladder = solver.ladder
    if graph.kind != "G_T":
        raise ValueError("endpoint audit expects a time-T graph sample")
    report = ConvergenceReport("endpoint")
    T = graph.T
    bound = ladder.rho * math.exp(-T * ladder.lambda_)
    gaps = graph.endpoint_gaps.ravel()
    residuals = graph.residuals.ravel()
    base = graph.grid_points()
    for zp, gap, res in zip(base, gaps, residuals):
        budget = RESIDUAL_TO_ERROR * res
        report.add(check="endpoint", T=float(T),
                   z_minus_label=_label(graph.z_minus), z_plus_label=_label(zp),
                   direction_label="", gap=float(gap), bound=bound,
                   budget=budget, ok=gap <= bound + budget)
    return report
