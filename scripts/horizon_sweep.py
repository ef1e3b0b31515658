"""Sweep the graph-family horizon and record the gap to the stable graph.

Emits plot-ready CSV (T, gap, bound) per sample so the exponential decay of
the time-T graphs toward the stable graph can be inspected over a wider
horizon range than the default verification grid.

Usage: python scripts/horizon_sweep.py CONFIG [OUT_CSV] [N_HORIZONS]
"""

import math
import sys

import numpy as np

from gradleaf import convergence as cv
from gradleaf import lyapunov_perron as lp
from gradleaf.flow import descending_disk
from gradleaf.local_model import LocalModel, build_ladder, calibrate_ladder, lipschitz_modulus
from gradleaf.problems import load_problem
from gradleaf.reporting import write_csv
from gradleaf.spectral import split


def sweep(config_path, out_csv, n_horizons=9):
    problem = load_problem(config_path)
    sp = split(problem.hess(problem.critical_point))
    model = LocalModel(problem, sp)
    modulus, kappa_star = lipschitz_modulus(problem, sp)
    ladder = build_ladder(sp, modulus, choices=problem.ladder_overrides,
                          kappa_star=kappa_star, rho0=problem.trust_radius)
    cache = lp.SolverCache(model)
    graph_f = lp.graph_F_inf(model, ladder, cache=cache)
    graph_g = lp.graph_G_inf(model, ladder, cache=cache)
    ladder = calibrate_ladder(ladder, model, graph_f, graph_g,
                              overrides=problem.ladder_overrides)
    disk = descending_disk(model, ladder, graph_f)
    solver = cv.GraphFamilySolver(model, ladder, cache=cache)

    t0 = max(ladder.T0, ladder.T2)
    T_grid = t0 + np.linspace(0.0, 6.0, n_horizons)
    zm = disk.sphere_minus[0]
    zp_axis = graph_g.axes[0]
    zp_list = [np.full(len(graph_g.axes), zp_axis[i])
               for i in (len(zp_axis) // 4, len(zp_axis) // 2)]
    rows = []
    for T in T_grid:
        for zp in zp_list:
            g_t = solver.graph_value(T, zm, zp)
            g_inf = solver.stable_value(zp)
            gap = float(np.linalg.norm(g_t - g_inf))
            rows.append([T, *zp, gap, math.exp(-T * ladder.lambda_ / 8.0)])
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
