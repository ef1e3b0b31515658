import math
from dataclasses import replace

import numpy as np
import pytest

from gradleaf import convergence as cv
from gradleaf import lyapunov_perron as lp
from gradleaf.errors import EndpointViolation


@pytest.fixture(scope="module")
def solver_p1(p1):
    return p1.solver()


@pytest.fixture(scope="module")
def solver_p2(p2):
    return p2.solver()


def test_c0_quadratic_closed_form(p1, solver_p1):
    # gap = |exp(T A-) z-| = exp(-T) |z-|, decaying at rate 1 >= lambda/8
    lad = p1.ladder
    t0 = lad.T0
    T_grid = t0 + np.arange(5.0)
    zm = [p1.sphere_point()]
    zp = [np.array([0.0]), np.array([0.4 * lad.R])]
    rep = cv.c0_convergence(solver_p1, T_grid, zm, zp)
    assert rep.all_ok
    for row in rep.rows:
        expected = abs(zm[0][0]) * math.exp(-row.T)
        assert row.gap == pytest.approx(expected, rel=1e-6, abs=1e-12)
        assert row.gap <= math.exp(-row.T * lad.lambda_ / 8.0)
    assert rep.fitted_rates["pooled"] == pytest.approx(1.0, abs=1e-6)


def test_c0_monotone_bound_between_horizons(p1, solver_p1):
    # triangle combination: gap(T + tau) <= gap(T) + c1 tau
    lad = p1.ladder
    t0 = lad.T0
    zm = p1.sphere_point()
    zp = np.array([0.3 * lad.R])
    tau = 0.5
    k = p1.model.k
    [stable] = lp.stable_columns(p1.model, lad, [zp])

    def gap(T):
        res, _ = solver_p1.mixed(T, zm, zp)
        return np.linalg.norm(res.curve.values[0, :k] - stable.curve.values[0, :k])

    g1, g2 = gap(t0), gap(t0 + tau)
    assert g2 <= g1 + lad.c1 * tau + 1e-12


def test_c0_requires_large_horizon(solver_p1, p1):
    with pytest.raises(ValueError):
        cv.c0_convergence(solver_p1, [1.0], [p1.sphere_point()],
                          [np.zeros(1)])


def test_c0_quartic(p2, solver_p2):
    lad = p2.ladder
    t0 = lad.T0
    T_grid = t0 + np.arange(5.0)
    zm = [p2.sphere_point(i) for i in range(2)]
    zp = [np.array([0.0]), np.array([0.35 * lad.R])]
    rep = cv.c0_convergence(solver_p2, T_grid, zm, zp)
    assert rep.all_ok
    assert rep.fitted_rates["pooled"] >= lad.lambda_ / 8.0


def test_c1_quadratic_zero_gap(p1, solver_p1):
    lad = p1.ladder
    T = lad.T0
    rep = cv.c1_convergence(solver_p1, [T], [p1.sphere_point()],
                            [np.array([0.25 * lad.R])])
    assert rep.all_ok
    assert max(r.gap for r in rep.rows) <= 1e-10


def test_c1_quartic_bound(p2, solver_p2):
    lad = p2.ladder
    T_grid = [lad.T0, lad.T0 + 1.0]
    rep = cv.c1_convergence(solver_p2, T_grid, [p2.sphere_point()],
                            [np.array([0.3 * lad.R])])
    assert rep.all_ok
    # linearized-equation cross-check agrees with finite differences
    assert rep.extras["linearized_vs_fd_max"] <= 1e-7


def test_c1_solves_each_stable_linearized_derivative_once(p2, solver_p2, monkeypatch):
    # the stable side's derivative depends on (z+, direction) only; the
    # time-T side is solved per (T, z-) as well
    lad = p2.ladder
    T_grid = [lad.T0, lad.T0 + 1.0]
    z_minus = [p2.sphere_point(0), p2.sphere_point(1)]
    z_plus = [np.array([0.3 * lad.R]), np.array([-0.2 * lad.R])]
    solved = []
    linearized = cv.graph_derivative_linearized

    def counted(model, ladder, fp_result, v_plus):
        solved.append(fp_result.curve.kind)
        return linearized(model, ladder, fp_result, v_plus)

    monkeypatch.setattr(cv, "graph_derivative_linearized", counted)
    cv.c1_convergence(solver_p2, T_grid, z_minus, z_plus)
    assert solved.count(lp.FORWARD_INFINITE) == len(z_plus)
    assert solved.count(lp.FORWARD_FINITE) == len(T_grid) * len(z_minus) * len(z_plus)
    assert len(solved) == len(z_plus) * (1 + len(T_grid) * len(z_minus))


def test_lipschitz_quadratic_quotient(p1, solver_p1):
    lad = p1.ladder
    T = lad.T0
    rep = cv.lipschitz_in_T(solver_p1, [T], (1e-2, 1e-3),
                            [p1.sphere_point()], [np.array([0.2 * lad.R])])
    assert rep.all_ok
    for row in rep.rows:
        # closed form: |(exp(tau A-) - 1) exp(T A-) z-| / tau <= |l1| e^{-T}|z-|
        assert row.gap <= abs(lad.lambda_min) * math.exp(-row.T) \
            * abs(p1.sphere_point()[0]) * 1.01 + row.budget
        assert row.gap <= lad.c1 + row.budget


def test_lipschitz_quartic(p2, solver_p2):
    lad = p2.ladder
    T = lad.T0
    rep = cv.lipschitz_in_T(solver_p2, [T, T + 1.0], (1e-2, 1e-3),
                            [p2.sphere_point()], [np.array([0.3 * lad.R])])
    assert rep.all_ok
    # one row per (T, tau, z-, z+), and no unasserted diagnostic beside them
    assert len(rep.rows) == 4
    assert rep.extras == {}


def test_lipschitz_solves_only_the_quotient_horizons(p1, solver_p1, monkeypatch):
    # each T is asked for once and each T + tau once, nothing else
    lad = p1.ladder
    T = lad.T0
    asked = []
    mixed_rows = solver_p1.mixed_rows

    def recording(T_asked, z_minus, z_plus_rows):
        asked.append(T_asked)
        return mixed_rows(T_asked, z_minus, z_plus_rows)

    monkeypatch.setattr(solver_p1, "mixed_rows", recording)
    cv.lipschitz_in_T(solver_p1, [T, T + 1.0], (1e-2, 1e-3),
                      [p1.sphere_point()], [np.array([0.2 * lad.R])])
    assert asked == [T, T + 1e-2, T + 1e-3, T + 1.0, T + 1.0 + 1e-2,
                     T + 1.0 + 1e-3]


def test_endpoint_audit(p2, solver_p2):
    lad = p2.ladder
    T = lad.T0
    zm = p2.sphere_point()
    graph = lp.graph_G_T(solver_p2, T, zm)
    rep = cv.endpoint_audit(solver_p2, graph)
    assert rep.all_ok
    bound = lad.rho * math.exp(-T * lad.lambda_)
    for row in rep.rows:
        assert row.gap <= bound + row.budget
    assert bound <= lad.varkappa


def test_endpoint_quadratic_closed_form(p1, solver_p1):
    lad = p1.ladder
    T = lad.T0
    zm = p1.sphere_point()
    graph = lp.graph_G_T(solver_p1, T, zm)
    gaps = graph.endpoint_gaps.ravel()
    base = graph.grid_points().ravel()
    # |xi(T) - z-| = |exp(-T A+) z+| = exp(-2T) |z+|
    assert np.allclose(gaps, np.exp(-2 * T) * np.abs(base), atol=1e-12)


def test_report_row_slack():
    row = cv.ReportRow("demo", 1.0, "", "", "", gap=0.3, bound=0.5,
                       budget=0.1, ok=True)
    assert row.slack == pytest.approx(0.3)
    assert len(row.to_list()) == len(cv.REPORT_COLUMNS)
    # slack is the distance to failing: non-negative exactly on passing rows,
    # also for separation rows, which pass when the gap exceeds the bound
    rows = [
        row,
        cv.ReportRow("c0", 1.0, "", "", "", gap=0.7, bound=0.5, budget=0.1, ok=False),
        cv.ReportRow("disjoint", 1.0, "", "", "", gap=2e-7, bound=1e-7, budget=0.0,
                     ok=True, separation=True),
        cv.ReportRow("disjoint", 1.0, "", "", "", gap=1e-8, bound=1e-7, budget=0.0,
                     ok=False, separation=True),
    ]
    assert [r.slack >= 0 for r in rows] == [r.ok for r in rows]
    assert rows[2].slack == pytest.approx(1e-7)


def test_empty_report_fails_and_worst_row_is_named():
    report = cv.ConvergenceReport("c0")
    assert not report.all_ok
    assert report.describe_worst() == "report c0 has no rows"
    report.add(check="c0", T=12.5, z_minus_label="(0.1)", z_plus_label="(0.2)",
               direction_label="", gap=0.1, bound=0.5, budget=0.0, ok=True)
    report.add(check="c0", T=13.5, z_minus_label="(0.1)", z_plus_label="(0.3)",
               direction_label="", gap=0.45, bound=0.5, budget=0.0, ok=True)
    assert report.all_ok
    assert "z_plus=(0.3): gap 4.500e-01" in report.describe_worst()
    # a failing row outranks any passing one, even a tied strict row at slack 0
    report.add(check="retract_inward", T=0.0, z_minus_label="center",
               z_plus_label="(0.4)", direction_label="", gap=0.0, bound=0.0,
               budget=0.0, ok=False)
    assert not report.all_ok
    message = report.describe_worst()
    assert message.startswith("report c0, row check=retract_inward T=0 ")
    assert "z_minus=center z_plus=(0.4)" in message


def test_endpoint_bound_is_asserted_from_T0(p2):
    # T alone decides the endpoint check: with varkappa below both endpoint
    # gaps, a solve below T0, where the gap is only returned, passes, and
    # one at T0, where it must be within varkappa, raises
    zm = p2.sphere_point()
    zp = np.array([0.4 * p2.ladder.R])  # z+ = 0 ends on z- exactly
    horizons = (0.5 * p2.ladder.T0, p2.ladder.T0)
    gaps = [p2.solver().mixed(T, zm, zp)[1] for T in horizons]
    ladder = replace(p2.ladder, varkappa=0.5 * min(gaps))
    solver = cv.GraphFamilySolver(p2.model, ladder)
    result, gap = solver.mixed(horizons[0], zm, zp)
    assert gap == gaps[0] > ladder.varkappa
    assert result.curve.grid.t1 == horizons[0]
    with pytest.raises(EndpointViolation):
        solver.mixed(horizons[1], zm, zp)
