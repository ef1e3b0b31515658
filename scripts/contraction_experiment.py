"""Measure the contraction factor of the mixed-boundary operator.

Applies the operator to random curve pairs inside the admissible ball and
records the worst measured Lipschitz quotient per horizon, next to the
a priori factor from the constants ladder.

Usage: python scripts/contraction_experiment.py CONFIG [OUT_CSV] [PAIRS]
"""

import sys

import numpy as np

from gradleaf import lyapunov_perron as lp
from gradleaf.flow import descending_disk
from gradleaf.local_model import LocalModel, build_ladder, calibrate_ladder, lipschitz_modulus
from gradleaf.problems import load_problem
from gradleaf.reporting import write_csv
from gradleaf.spectral import split


def measure(config_path, out_csv, pairs=25, seed=0):
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
    rng = np.random.default_rng(seed)

    zm = disk.sphere_minus[0]
    z_plus = np.zeros(model.n - model.k)
    z_plus[0] = 0.3 * ladder.R
    rows = []
    for T in ladder.T0 + np.linspace(0.0, 4.0, 5):
        orbit = lp.backward_orbit(model, ladder, zm,
                                  t_max=max(lp.default_horizon(ladder), T),
                                  cache=cache)
        grid = cache.grid(0.0, T)
        ref = lp.reference_curve(orbit.curve, grid, ladder.lambda_)
        op = lp.PsiTOperator(model, ladder, T, zm, z_plus, ref, grid,
                             cache.convolver(grid))
        worst = 0.0
        done = 0
        while done < pairs:
            curves = []
            for _ in range(2):
                u = rng.standard_normal(model.n)
                u /= np.linalg.norm(u)
                poly = np.polyval(rng.standard_normal(4), grid.nodes / grid.t1)
                poly /= max(1.0, np.max(np.abs(poly)))
                bump = (0.45 * ladder.rho
                        * np.exp(-ladder.lambda_ * grid.nodes) * poly)[:, None] * u
                curves.append(ref.with_values(ref.values + bump))
            den = curves[0].exp_distance(curves[1])
            if den < 1e-9:
                continue
            num = op.apply(curves[0]).exp_distance(op.apply(curves[1]))
            worst = max(worst, num / den)
            done += 1
        rows.append([T, worst, ladder.contraction_bound(), 0.5])
    write_csv(out_csv, ["T", "measured_factor", "ladder_factor", "guarantee"],
              rows)
    print(f"wrote {len(rows)} rows to {out_csv}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    config = sys.argv[1]
    out_csv = sys.argv[2] if len(sys.argv) > 2 else "contraction.csv"
    pairs = int(sys.argv[3]) if len(sys.argv) > 3 else 25
    measure(config, out_csv, pairs)
