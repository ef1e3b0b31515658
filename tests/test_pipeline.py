import json
from collections import Counter

import numpy as np
import pytest

from conftest import reference_problem
from gradleaf import convergence, foliation, pipeline, reporting
from gradleaf.errors import BoundViolation
from references import scipy_trajectory


@pytest.fixture(scope="module")
def p3_state(tmp_path_factory):
    out = tmp_path_factory.mktemp("p3_pipeline")
    state = pipeline.RunState(problem=reference_problem("p3_cubic3d"), out_dir=out, seed=2)
    for stage in ("spectral", "ladder", "manifolds", "lambda", "oracle"):
        pipeline.run_stage(stage, state)
    return state


def test_p3_stage_statuses(p3_state):
    assert all(v == "pass" for v in p3_state.statuses.values())
    assert p3_state.split.morse_index == 1
    assert np.allclose(p3_state.split.eigenvalues, [-2.0, 1.0, 3.0])


def test_p3_unstable_graph_curvature(p3_state):
    # cubic coupling c x1^2 x2 bends the unstable manifold: the quadratic
    # coefficient of its graph is -c/5 (from matching the invariance ODE)
    graph = p3_state.graph_f
    x = graph.axes[0][-1]
    val = graph.evaluate(np.array([x]))
    assert val[0] == pytest.approx(-0.05 / 5.0 * x * x, rel=1e-3)
    assert abs(val[1]) <= 1e-12


def test_p3_stable_graph_flat(p3_state):
    assert np.max(np.abs(p3_state.graph_g.values)) <= 1e-11


def test_p3_oracle_agrees(p3_state):
    assert p3_state.details["oracle"]["worst_sup_error"] <= 1e-6


def test_p3_two_dimensional_plus_grid(p3_state):
    assert len(p3_state.graph_g.axes) == 2
    assert p3_state.graph_g.codim == 1


@pytest.mark.parametrize("name", ["p1_quadratic", "k2_cubic", "p3_cubic3d"])
def test_trajectory_sample_rows_match_scipy(name, tmp_path):
    # every exported row lies on scipy's DOP853 run from the first row, read
    # at the row's own time at tight tolerances (worst error 2.3e-10, on k2)
    problem = reference_problem(name)
    pipeline.run_stage("manifolds", pipeline.RunState(problem=problem, out_dir=tmp_path))
    rows = np.loadtxt(tmp_path / "trajectory_sample.csv", delimiter=",", skiprows=1)
    t, states = rows[:, 0], rows[:, 1:-1]
    expected = scipy_trajectory(problem, states[0], t[-1], 1e-13, 1e-16).sol(t).T
    assert np.max(np.abs(states - expected)) <= 1e-9


def test_stage_dependencies_autorun(tmp_path):
    # requesting the lambda stage alone pulls in its prerequisites
    state = pipeline.RunState(problem=reference_problem("p2_quartic"), out_dir=tmp_path)
    pipeline.run_stage("lambda", state)
    assert state.statuses["spectral"] == "pass"
    assert state.statuses["ladder"] == "pass"
    assert state.statuses["manifolds"] == "pass"
    assert state.statuses["lambda"] == "pass"


def test_lambda_diagnostics_in_manifest(tmp_path):
    pipeline.run(reference_problem("p2_quartic"), tmp_path, ("lambda",), 0, None)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    details = manifest["details"]["lambda"]
    assert np.isfinite(details["linearized_vs_fd_max"])
    assert "second_quotient_max" not in details


def test_run_writes_manifest_on_error(tmp_path):
    problem = reference_problem("p2_quartic")
    bad = pipeline.RunState(problem=problem, out_dir=tmp_path)
    with pytest.raises(ValueError):
        pipeline.run_stage("not_a_stage", bad)
    with pytest.raises(Exception):
        pipeline.run(problem, tmp_path, ("not_a_stage",), 0, None)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "error" in manifest


def test_unknown_stage_rejected(tmp_path):
    state = pipeline.RunState(problem=reference_problem("p2_quartic"), out_dir=tmp_path)
    with pytest.raises(ValueError):
        pipeline.run_stage("bogus", state)


def test_foliate_counts_what_it_drops(tmp_path, monkeypatch):
    # forced: one pair sample cut off from x, and every other invariance
    # point landed outside its target leaf's sampled domain
    from types import SimpleNamespace

    from gradleaf import lyapunov_perron as lp
    from gradleaf.errors import OutsideSampledDomain

    draws = np.zeros((20, 2))  # p1_quadratic is planar
    draws[:19] = np.linspace(-1e-2, 1e-2, 19)[:, None]
    draws[19] = 1.0  # a corner of the box, far from the cluster around x
    monkeypatch.setattr(foliation, "PAIR_SAMPLES", len(draws))
    monkeypatch.setattr(pipeline.RunState, "rng",
                        lambda self: SimpleNamespace(uniform=lambda *a, **kw: draws))
    monkeypatch.setattr(foliation, "pair_membership", lambda model, pts, eps, tau: (
        np.ones(len(pts), dtype=bool), np.zeros(len(pts), dtype=bool)))
    residual, calls, raised = lp.GraphSample.residual, [], []

    def missing_every_other(self, point):
        calls.append(point)
        if len(calls) % 2:
            raised.append(point)
            raise OutsideSampledDomain("forced")
        return residual(self, point)

    monkeypatch.setattr(lp.GraphSample, "residual", missing_every_other)
    state = pipeline.run(reference_problem("p1_quadratic"), tmp_path, ("foliate",),
                         0, None)
    details = state.details["foliate"]
    assert details["pair_samples"] == 20 and details["pair_dropped"] == 1
    assert details["invariance_skipped"] == len(raised) > 0


def test_one_solve_store_per_run(tmp_path, monkeypatch):
    # every stage solves on the manifolds stage's store: each backward orbit
    # of one ladder is solved once per run, and c0 and c1 each ask for their
    # stable fixed points once
    from gradleaf import lyapunov_perron as lp

    orbits, stores, stable = Counter(), [], []
    solve_columns = lp.solve_columns
    stable_columns = convergence.stable_columns
    init = convergence.GraphFamilySolver.__init__
    asking = [None]

    def key(v):
        return tuple(np.round(np.asarray(v, dtype=float), 14))

    def counted_columns(op):
        # every backward orbit, graph_F_inf's batched columns and the
        # one-column solves of backward_orbit alike
        for i, res in enumerate(solve_columns(op)):
            if op.kind == lp.BACKWARD:
                z_minus = op.z_minus[i] if op.z_minus.ndim == 2 else op.z_minus
                orbits[(repr(op.ladder), key(z_minus))] += 1
            yield res

    def counted_stable(*args):
        stable.append(asking[0])
        return stable_columns(*args)

    def named(check):
        def run(*args):
            asking[0] = check.__name__
            return check(*args)
        return run

    def counted_init(self, *args, **kw):
        stores.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(lp, "solve_columns", counted_columns)
    monkeypatch.setattr(convergence, "stable_columns", counted_stable)
    for check in (convergence.c0_convergence, convergence.c1_convergence):
        monkeypatch.setattr(convergence, check.__name__, named(check))
    monkeypatch.setattr(convergence.GraphFamilySolver, "__init__", counted_init)

    state = pipeline.run(reference_problem("p2_quartic"), tmp_path, ("all",), 0, None)
    assert all(v == "pass" for v in state.statuses.values())
    assert stores == [state.solver]
    # the unstable graph grid on the raw ladder plus two sphere points on
    # the calibrated one
    assert len(orbits) == 13 + 2
    assert set(orbits.values()) == {1}
    assert stable == ["c0_convergence", "c1_convergence"]


@pytest.mark.parametrize("stage, module, name", [
    ("lambda", convergence, "lipschitz_in_T"),
    ("foliate", foliation, "contraction_to_center"),
])
def test_bound_violation_names_worst_row(tmp_path, monkeypatch, stage, module, name):
    def failing(*args, **kwargs):
        report = reporting.Report("forced")
        for gap in (0.2, 3.0, 2.0):
            report.add(check="forced", T=12.5, z_minus_label="(0.1)",
                       z_plus_label=f"({gap:g})", direction_label="", gap=gap,
                       bound=1.0, budget=0.5)
        return report
    monkeypatch.setattr(module, name, failing)
    state = pipeline.RunState(problem=reference_problem("p1_quadratic"), out_dir=tmp_path)
    for prior in ("spectral", "ladder", "manifolds"):
        pipeline.run_stage(prior, state)
    with pytest.raises(BoundViolation) as info:
        pipeline.run_stage(stage, state)
    assert str(info.value).endswith(
        "failed beyond its budget: report forced, row check=forced T=12.5 "
        "z_minus=(0.1) z_plus=(3): gap 3.000e+00, bound 1.000e+00, budget 5.000e-01")
    assert state.details[stage]["all_ok"] is False


def test_failed_audit_still_writes_every_foliate_report(tmp_path, monkeypatch):
    # no gap is at or below a negative budget, so the retract audit's
    # time-infinity rows fail; the audit returns its report, and the stage
    # writes it and the three reports before it before raising
    monkeypatch.setattr(foliation, "RETRACT_FIX_TOL", -1.0)
    state = pipeline.RunState(problem=reference_problem("p1_quadratic"), out_dir=tmp_path)
    for prior in ("spectral", "ladder", "manifolds"):
        pipeline.run_stage(prior, state)
    with pytest.raises(BoundViolation) as info:
        pipeline.run_stage("foliate", state)
    assert "failed beyond its budget: report retract, row check=" in str(info.value)
    for name in ("disjoint", "invariance", "center_distance", "retract"):
        assert (tmp_path / f"report_{name}.csv").is_file()
    rows = (tmp_path / "report_retract.csv").read_text().splitlines()[1:]
    assert any(row.startswith("retract_theta_inf,") and row.endswith(",0")
               for row in rows)
    assert state.details["foliate"]["all_ok"] is False
