"""Staged batch pipeline shared by the CLI and the test suite.

Stages: spectral -> ladder -> manifolds -> lambda -> foliate -> oracle,
named once in ``_STAGE_FUNCS`` (the CLI's subcommands come from it).
Each stage consumes the state produced by earlier ones, emits CSV artifacts
into the output directory, and records a pass/fail status.  The manifolds
stage builds the solve store of the calibrated ladder (``RunState.solver``):
the backward orbits that the later stages share; every other fixed point
is solved by the stage that asks for it.  The run manifest lists every
emitted file, echoes the full constants ladder, and carries the config
hash and wall times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import convergence, foliation, reporting
from .curves import row_norms
from .errors import BoundViolation
from .flow import integrate_forward
from .local_model import LocalModel, build_ladder, calibrate_ladder, lipschitz_modulus
from .lyapunov_perron import (PICARD_TOL, default_axes, descending_disk, graph_F_inf,
                              graph_G_inf, graph_G_T)
from .oracle import mixed_bvp_oracle
from .spectral import split


@dataclass
class RunState:
    problem: object
    out_dir: Path
    seed: int = 0
    split: object = None
    model: object = None
    ladder: object = None
    solver: object = None
    graph_f: object = None
    graph_g: object = None
    sphere: object = None
    statuses: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    wall_times: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def rng(self):
        """The stream of the pair's box samples, the run's one random draw
        (offset from the seed so that a seed draws the pair it always has)."""
        return np.random.default_rng(self.seed + 2)

    def emit(self, name, table):
        """Write ``table``, a ``reporting`` (header, rows) pair, as CSV ``name``."""
        self.artifacts.append(reporting.write_csv(self.out_dir / name, *table))


def _require(state, *stages):
    for stage in stages:
        if state.statuses.get(stage) != "pass":
            run_stage(stage, state)


def stage_spectral(state):
    problem = state.problem
    state.split = split(problem.hess(problem.critical_point))
    state.model = LocalModel(problem, state.split)
    sp = state.split
    state.emit("spectral.csv", reporting.spectral_table(sp))
    state.details["spectral"] = {
        "eigenvalues": sp.eigenvalues.tolist(),
        "morse_index": sp.morse_index,
        "gap": sp.gap,
    }


def stage_ladder(state):
    _require(state, "spectral")
    modulus, kappa_star = lipschitz_modulus(state.model)
    state.ladder = build_ladder(state.split, modulus, kappa_star=kappa_star,
                                rho0=state.problem.trust_radius)
    state.emit("ladder.csv", reporting.ladder_table(state.ladder))


def stage_manifolds(state):
    _require(state, "ladder")
    state.graph_f = graph_F_inf(state.model, state.ladder)
    state.graph_g = graph_G_inf(state.model, state.ladder)
    state.ladder = calibrate_ladder(state.ladder, state.model, state.graph_f,
                                    state.graph_g)
    state.solver = convergence.GraphFamilySolver(state.model, state.ladder)
    state.sphere = descending_disk(state.model, state.ladder, state.graph_f)
    for sample, name in ((state.graph_f, "graph_F_inf.csv"),
                         (state.graph_g, "graph_G_inf.csv")):
        state.emit(name, reporting.graph_table(sample, state.model))
    state.emit("ladder_calibrated.csv", reporting.ladder_table(state.ladder))
    # one exported reference trajectory from the first sphere point
    start_local = state.graph_f.local_points(state.sphere[0])
    traj = integrate_forward(state.problem, state.model.to_ambient(start_local),
                             min(2.0, state.ladder.T0))
    state.emit("trajectory_sample.csv", reporting.trajectory_table(state.problem, traj))
    state.details["manifolds"] = {
        "F_max": float(np.max(np.abs(state.graph_f.values))),
        "G_max": float(np.max(np.abs(state.graph_g.values))),
        "sphere": state.sphere.tolist(),
    }


def _lambda_sample_sets(state, n_zplus=3):
    zm_list = list(state.sphere[:2])
    axes = state.graph_g.axes
    d = len(axes)
    # interior nodes only: finite-difference probes must stay in the domain
    last = len(axes[0]) - 1
    picks = np.round(np.linspace(0.15 * last, 0.85 * last, n_zplus)).astype(int)
    zp_list = [np.array([axes[j][i] for j in range(d)]) for i in picks]
    return zm_list, zp_list


def _emit_reports(state, reports):
    """Write ``report_<name>.csv`` for each report; returns the failed ones."""
    for name, rep in reports.items():
        state.emit(f"report_{name}.csv", reporting.report_table(rep))
    return [rep for rep in reports.values() if not rep.all_ok]


def _bound_violation(what, failed):
    """A BoundViolation naming each failed report and its worst row."""
    return BoundViolation(f"{what} failed beyond its budget: "
                          + "; ".join(rep.describe_worst() for rep in failed))


def stage_lambda(state):
    _require(state, "manifolds")
    ladder = state.ladder
    solver = state.solver
    T_grid = ladder.T0 + np.arange(5, dtype=float)
    zm_list, zp_list = _lambda_sample_sets(state)

    c0 = convergence.c0_convergence(solver, T_grid, zm_list, zp_list)
    reports = {
        "c0": c0,
        "c1": convergence.c1_convergence(solver, T_grid[:2], zm_list[:1],
                                         zp_list[:2]),
        "lipschitz_T": convergence.lipschitz_in_T(
            solver, T_grid[:2], (1e-2, 1e-3), zm_list[:1], zp_list[:2]),
    }
    graph_t = graph_G_T(solver, float(T_grid[0]), zm_list[0])
    state.emit("graph_G_T.csv", reporting.graph_table(graph_t, state.model))
    reports["endpoint"] = convergence.endpoint_audit(solver, graph_t)

    failed = _emit_reports(state, reports)
    state.details["lambda"] = {
        "fitted_rates": c0.fitted_rates,
        "rate_bound": c0.extras["rate_bound"],
        "linearized_vs_fd_max": reports["c1"].extras["linearized_vs_fd_max"],
        "all_ok": not failed,
    }
    if failed:
        raise _bound_violation("a convergence bound", failed)
    state.details["lambda"]["graph_T"] = float(T_grid[0])


def stage_foliate(state):
    _require(state, "manifolds")
    ladder = state.ladder
    tau = state.ladder.T0
    T_grid = tau + np.arange(0.0, 3.0)
    pair = foliation.build_pair(state.model, ladder, rng=state.rng())
    atlas = foliation.build_atlas(
        state.solver, state.graph_g, state.sphere, tau=tau,
        T_grid=T_grid,
        zplus_axes=default_axes(ladder.R, state.model.n - state.model.k, 21))
    state.emit("pair.csv", reporting.pair_table(pair, state.model))
    leaf_files = []
    for label in atlas.all_labels():
        tag = "center" if label == "center" else f"T{label[0]:g}_a{label[1]}"
        name = f"leaf_{tag}.csv"
        state.emit(name, reporting.atlas_leaf_table(atlas.leaf(label), state.model))
        leaf_files.append([str(label), name])
    reports = {
        "disjoint": foliation.check_disjoint(atlas),
        "invariance": foliation.leaf_invariance(atlas),
        "center_distance": foliation.contraction_to_center(atlas),
        "retract": foliation.retract_audit(atlas),
    }
    failed = _emit_reports(state, reports)
    state.details["foliate"] = {
        "leaves": len(atlas.all_labels()),
        "leaf_files": leaf_files,
        "mu_audit": reports["retract"].extras["mu_audit"],
        "pair_samples": len(pair.samples),
        "pair_dropped": pair.dropped,
        "invariance_skipped": reports["invariance"].extras["skipped"],
        "all_ok": not failed,
    }
    if failed:
        raise _bound_violation("a foliation audit", failed)


def oracle_queries(state):
    """The oracle comparisons ``(T, z_minus, z_plus)``, grouped by
    ``(T, z_minus)``."""
    ladder = state.ladder
    # forward shooting has condition number exp(T |lambda_min|); cap the
    # horizon so the oracle itself stays meaningful (the mixed problem is
    # well posed for every T > 0, so shorter-T validation is equally strict)
    t_cap = np.log(1e6) / abs(ladder.lambda_min)
    t_base = min(ladder.T0, t_cap)
    grid = 2  # horizons, sphere points and plus points compared
    # below T0 (k2's and p3's capped horizons) no endpoint bound is claimed;
    # the capped horizons spread over at most half of the cap, so stay > 0
    T_list = t_base + (np.linspace(0.0, 2.0, grid)
                       if t_base >= ladder.T0 - 1e-12
                       else np.linspace(-min(2.0, 0.5 * t_base), 0.0, grid))
    zm_list, zp_list = _lambda_sample_sets(state, n_zplus=grid)
    queries = [[(T, zm, zp) for zp in zp_list[:grid]]
               for T in T_list for zm in zm_list[:grid]]
    return queries


def stage_oracle(state):
    _require(state, "manifolds")
    groups = oracle_queries(state)
    queries, curves = [], []
    for group in groups:
        T, zm, _ = group[0]
        solved = state.solver.mixed_rows(T, zm, [zp for _, _, zp in group])
        queries += group
        curves += [res.curve for res, _ in solved]
    comparisons = []  # (sup error, shot residual) per query
    for curve, (traj, residual) in zip(curves, mixed_bvp_oracle(state.model, queries)):
        states = state.model.to_local(traj.states)
        err = float(np.max(row_norms(states - curve.evaluate(traj.times))))
        comparisons.append((err, residual))
    worst = max([0.0] + [err for err, _ in comparisons])
    state.emit("oracle_comparison.csv",
               reporting.oracle_table(state.model, queries, comparisons))
    state.details["oracle"] = {"worst_sup_error": worst}
    if worst > 1e-6:
        raise BoundViolation(f"oracle disagreement {worst:.3e} above 1e-6")


#: every stage by name, in run order
_STAGE_FUNCS = {
    "spectral": stage_spectral,
    "ladder": stage_ladder,
    "manifolds": stage_manifolds,
    "lambda": stage_lambda,
    "foliate": stage_foliate,
    "oracle": stage_oracle,
}
STAGES = tuple(_STAGE_FUNCS)


def run_stage(name, state):
    if name not in _STAGE_FUNCS:
        raise ValueError(f"unknown stage {name!r}")
    start = time.perf_counter()
    try:
        _STAGE_FUNCS[name](state)
    except Exception:
        state.statuses[name] = "error"
        state.wall_times[name] = time.perf_counter() - start
        raise
    state.statuses[name] = "pass"
    state.wall_times[name] = time.perf_counter() - start


def run(problem, out_dir, stages, seed, config_digest):
    """Run the requested stages and write the manifest; returns the state."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = RunState(problem=problem, out_dir=out_dir, seed=seed)
    todo = list(STAGES) if "all" in stages else list(stages)
    error = None
    try:
        for name in todo:
            run_stage(name, state)
    except Exception as exc:
        error = exc
    if state.ladder is not None:
        state.details["solver"] = state.model.counts.summary()
    manifest = {
        "problem": problem.name,
        "config_hash": config_digest,
        "seed": seed,
        "tol": PICARD_TOL,
        "stages_requested": todo,
        "stage_statuses": state.statuses,
        "wall_times": state.wall_times,
        "ladder_echo": state.ladder.echo() if state.ladder else None,
        "artifact_paths": sorted(str(Path(p).name) for p in state.artifacts),
        "details": state.details,
    }
    if error is not None:
        manifest["error"] = {
            "code": getattr(error, "code", "error"),
            "message": str(error),
            "type": type(error).__name__,
        }
    path = reporting.write_json(out_dir / "manifest.json", manifest)
    state.artifacts.append(path)
    if error is not None:
        raise error
    return state
