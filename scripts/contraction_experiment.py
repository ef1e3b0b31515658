"""Measure the contraction factor of the mixed-boundary operator.

Applies the operator to random curve pairs inside the admissible ball and
records the worst measured Lipschitz quotient per horizon, next to the
a priori factor from the constants ladder.

Usage: python scripts/contraction_experiment.py CONFIG [OUT_CSV] [PAIRS]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from gradleaf import lyapunov_perron as lp
from gradleaf.pipeline import RunState, run_stage
from gradleaf.problems import load_problem
from gradleaf.reporting import write_csv


def measure(config_path, out_csv, pairs=25, seed=0):
    # the manifolds stage sets up the calibrated ladder, the solve store and
    # the descending sphere; its own artifacts are not kept
    with tempfile.TemporaryDirectory() as stage_dir:
        state = RunState(problem=load_problem(config_path),
                         out_dir=Path(stage_dir), seed=seed)
        run_stage("manifolds", state)
    model, ladder = state.model, state.ladder
    rng = np.random.default_rng(seed)

    zm = state.sphere[0]
    z_plus = np.zeros(model.n - model.k)
    z_plus[0] = 0.3 * ladder.R
    rows = []
    for T in ladder.T0 + np.linspace(0.0, 4.0, 5):
        orbit = state.solver.orbit(zm, T)
        grid = model.grid(0.0, T)
        ref = lp.reference_curve(orbit.curve, grid)
        op = lp.PsiTOperator(model, ladder, zm, z_plus, ref)
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
                curves.append(op.curve(ref.values + bump))
            den = float(op.norm(curves[0].values - curves[1].values))
            if den < 1e-9:
                continue
            images = [op.apply(curve).values for curve in curves]
            num = float(op.norm(images[0] - images[1]))
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
