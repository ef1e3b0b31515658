"""Sweep the graph-family horizon and record the gap to the stable graph.

Emits plot-ready CSV (T, z+, gap, bound) per row of the C0 check
(``convergence.c0_convergence``) so the exponential decay of the time-T
graphs toward the stable graph can be inspected over a wider horizon range
than the default verification grid.

Usage: python scripts/horizon_sweep.py CONFIG [OUT_CSV] [N_HORIZONS]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from gradleaf.convergence import c0_convergence
from gradleaf.pipeline import RunState, run_stage
from gradleaf.problems import load_problem
from gradleaf.reporting import write_csv


def sweep(config_path, out_csv, n_horizons=9):
    # the manifolds stage sets up the calibrated ladder, the solve store and
    # the descending disk; its own artifacts are not kept
    with tempfile.TemporaryDirectory() as stage_dir:
        state = RunState(problem=load_problem(config_path),
                         out_dir=Path(stage_dir))
        run_stage("manifolds", state)
    ladder, solver, graph_g = state.ladder, state.solver, state.graph_g

    T_grid = ladder.T0 + np.linspace(0.0, 6.0, n_horizons)
    zm = state.disk.sphere_minus[0]
    zp_axis = graph_g.axes[0]
    zp_list = [np.full(len(graph_g.axes), zp_axis[i])
               for i in (len(zp_axis) // 4, len(zp_axis) // 2)]
    # the report's rows run T-major over the plus points of one sphere point
    report = c0_convergence(solver, T_grid, [zm], zp_list)
    rows = [[row.T, *zp, row.gap, row.bound]
            for row, zp in zip(report.rows, zp_list * len(T_grid))]
    header = ["T"] + [f"zplus_{i}" for i in range(len(graph_g.axes))] \
        + ["gap", "bound"]
    write_csv(out_csv, header, rows)
    print(f"wrote {len(rows)} rows to {out_csv}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    config = sys.argv[1]
    out_csv = sys.argv[2] if len(sys.argv) > 2 else "horizon_sweep.csv"
    n = int(sys.argv[3]) if len(sys.argv) > 3 else 9
    sweep(config, out_csv, n)
