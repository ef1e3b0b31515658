"""The solve store of a ladder and the quantitative checks on the time-T
graph family.

Each report row (``reporting.ReportRow``) compares a measured gap against
the a priori bound computed from the rate ladder, with an explicit
tolerance budget so that a violation of the mathematics is separated from
numerical slack.  Bounds are asserted
against the ladder constants as built, never re-fitted: a failing row is a
finding about the implementation or the ladder, not a tuning signal.
"""

from __future__ import annotations

import math

import numpy as np

from .lyapunov_perron import (
    PICARD_TOL,
    RESIDUAL_TO_ERROR,
    backward_orbit,
    default_horizon,
    graph_derivative_linearized,
    mixed_columns,
    stable_columns,
)
from .reporting import Report, vector_label


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
    """Least-squares decay rate of gap ~ exp(-rate * T), above the floor;
    None unless the gaps above it span at least two horizons."""
    T_values = np.asarray(T_values, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    keep = gaps > floor
    if len(set(T_values[keep].tolist())) < 2:
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
    report = Report("c0")
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
                zm_label, zp_label = vector_label(zm), vector_label(zp)
                report.add(check="c0", T=float(T), z_minus_label=zm_label,
                           z_plus_label=zp_label, direction_label="",
                           gap=gap, bound=bound, budget=budget)
                series.setdefault(f"{zm_label}|{zp_label}", []).append((T, gap))
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
    directions = np.eye(model.n - model.k)
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
    # one linearized stack per fixed point, the stable ones once per z+
    base = len(probes) - len(z_plus_list)
    dI_lin = [graph_derivative_linearized(model, ladder, st, directions)
              for st in stable[base:]]
    report = Report("c1")
    cross = []
    for T in sorted(T_grid):
        for zm in z_minus_list:
            mixed = solver.mixed_rows(T, zm, probes)
            g_T = [res.graph_value for res, _ in mixed]
            for a, zp in enumerate(z_plus_list):
                dT_lin = graph_derivative_linearized(model, ladder,
                                                     mixed[base + a][0], directions)
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
                    report.add(check="c1", T=float(T), z_minus_label=vector_label(zm),
                               z_plus_label=vector_label(zp),
                               direction_label=f"e{i}",
                               gap=gap, bound=bound, budget=budget)
                    cross.append(float(np.linalg.norm(
                        (dT_lin[i] - dI_lin[a][i]) - (dT_half - dI_half))))
    report.extras["linearized_vs_fd_max"] = max(cross)
    return report


def lipschitz_in_T(solver, T_grid, tau_grid, z_minus_list, z_plus_list):
    """First difference quotients of the graph family in the horizon T,
    asserted against c1 = 2(|lambda_min| + 1)."""
    ladder = solver.ladder
    report = Report("lipschitz_T")
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
                               z_minus_label=vector_label(zm),
                               z_plus_label=vector_label(zp),
                               direction_label=f"tau={tau:g}",
                               gap=quotient, bound=ladder.c1, budget=budget)
    return report


def endpoint_audit(solver, graph):
    """Audit of ``|xi(T) - z_minus|`` against the sharp bound rho e^{-T lambda}."""
    ladder = solver.ladder
    if graph.kind != "G_T":
        raise ValueError("endpoint audit expects a time-T graph sample")
    report = Report("endpoint")
    T = graph.T
    bound = ladder.rho * math.exp(-T * ladder.lambda_)
    gaps = graph.endpoint_gaps.ravel()
    residuals = graph.residuals.ravel()
    base = graph.grid_points()
    for zp, gap, res in zip(base, gaps, residuals):
        budget = RESIDUAL_TO_ERROR * res
        report.add(check="endpoint", T=float(T),
                   z_minus_label=vector_label(graph.z_minus),
                   z_plus_label=vector_label(zp), direction_label="",
                   gap=float(gap), bound=bound, budget=budget)
    return report
