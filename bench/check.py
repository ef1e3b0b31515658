"""Independent check of the files a ``gradleaf`` run writes.

Nothing here imports gradleaf.  The gradient and Hessian come from the
config's coefficient table, and sampled time-T graph values are re-solved
as mixed boundary problems with ``scipy.integrate.solve_bvp``.  Forward
shooting is not usable as a reference: with an unstable rate of -3 and
T near 11 it amplifies rounding by exp(3T).

Every check is one operation.  ``check_run`` returns them as
``(name, ok, detail)`` triples; which checks run depends only on the
workload, so every run of a workload makes the same number of them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_bvp

# The stable manifold is the plane x- = 0 for every benchmark objective, so
# its sampled graph is exactly zero: the minus part of the vector field
# vanishes there and the fixed-point iteration never leaves the plane.
ZERO_TOL = 1e-16
# Graph values must match their re-solve to rounding level, 1e-14 absolute.
# On the reference outputs the largest difference is 4e-17.
AGREE_ATOL = 1e-14
# solve_bvp residual tolerance; tightening it to 1e-12 moves the re-solved
# values on sampled rows of all three workloads by less than 1e-11 relative.
BVP_TOL = 1e-8
ORACLE_LIMIT = 1e-6
LAMBDA_REPORTS = ("c0", "c1", "endpoint", "lipschitz_T")
FOLIATE_REPORTS = ("center_distance", "disjoint", "invariance", "retract")
GRAPH_SAMPLES = 3
LEAF_SAMPLES = 3


class Objective:
    """Polynomial objective read straight from a config's coefficient table."""

    def __init__(self, config_path):
        raw = json.loads(Path(config_path).read_text())
        self.n = int(raw["dimension"])
        self.x0 = np.asarray(raw["critical_point"], dtype=float)
        self.exps = np.array([alpha for alpha, _ in raw["objective"]], dtype=int)
        self.coeffs = np.array([c for _, c in raw["objective"]], dtype=float)

    def _partial(self, x, *variables):
        """The derivative along ``variables`` at points ``x`` of shape (p, n)."""
        exps = self.exps.copy()
        coeffs = self.coeffs.copy()
        for v in variables:
            coeffs = coeffs * exps[:, v]
            exps[:, v] = np.maximum(exps[:, v] - 1, 0)
        return np.prod(x[:, None, :] ** exps[None], axis=-1) @ coeffs

    def grad(self, x):
        return np.stack([self._partial(x, i) for i in range(self.n)], axis=-1)

    def hess(self, x):
        return np.stack([np.stack([self._partial(x, i, j) for j in range(self.n)], axis=-1)
                         for i in range(self.n)], axis=-2)


class Frame:
    """Eigenframe from ``spectral.csv``, verified against the objective."""

    def __init__(self, objective, spectral_csv):
        rows = read_rows(spectral_csv)
        self.lam = np.array([float(r["eigenvalue"]) for r in rows])
        n = objective.n
        self.U = np.array([[float(r[f"v{i + 1}"]) for i in range(n)]
                           for r in rows]).T
        self.k = int(np.sum(self.lam < 0))
        self.obj = objective
        H = objective.hess(objective.x0[None, :])[0]
        scale = max(1.0, float(np.max(np.abs(self.lam))))
        if (np.max(np.abs(H @ self.U - self.U * self.lam)) > 1e-12 * scale
                or np.max(np.abs(self.U.T @ self.U - np.eye(n))) > 1e-12):
            raise ValueError("spectral.csv is not an eigenframe of the objective")

    def to_local(self, x):
        return (np.asarray(x) - self.obj.x0) @ self.U

    def mixed_minus0(self, T, z_minus, z_plus):
        """Minus part at time 0 of the flow line with plus part ``z_plus``
        at time 0 and minus part ``z_minus`` at time ``T``.

        The minus part is solved for as y = exp(-lambda (t - T)) xi, which
        stays of the size of ``z_minus`` on [0, T], so graph values of size
        1e-18 keep their relative accuracy.  The plus part is not scaled:
        near T it is forced by the minus part, not by its own decay.
        """
        k, lam, U, x0 = self.k, self.lam, self.U, self.obj.x0
        lam_m = lam[:k, None]

        def scale(t):
            d = np.ones((lam.size, np.size(t)))
            d[:k] = np.exp(-lam_m * (t - T))
            return d

        def fun(t, y):
            d = scale(t)
            g = -U.T @ self.obj.grad(x0 + (d * y).T @ U.T).T  # xi' = g(xi)
            dy = g / d
            dy[:k] += lam_m * y[:k]
            return dy

        def jac(t, y):
            d = scale(t)
            H = U.T @ self.obj.hess(x0 + (d * y).T @ U.T) @ U  # (m, n, n)
            J = -H * d.T[:, None, :] / d.T[:, :, None]
            J[:, np.arange(k), np.arange(k)] += lam[:k]
            return np.moveaxis(J, 0, -1)

        def bc(ya, yb):
            return np.concatenate([yb[:k] - z_minus, ya[k:] - z_plus])

        t = np.linspace(0.0, T, 41)
        y0 = np.repeat(np.concatenate([z_minus, z_plus])[:, None], t.size, axis=1)
        y0[k:] *= np.exp(-lam[k:, None] * t)
        sol = solve_bvp(fun, bc, t, y0, fun_jac=jac, tol=BVP_TOL,
                        max_nodes=20000)
        if not sol.success:
            raise RuntimeError(f"solve_bvp failed: {sol.message}")
        return scale(np.array([0.0]))[:k, 0] * sol.y[:k, 0]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(row, prefix):
    return np.array([float(v) for c, v in row.items() if c.startswith(prefix)])


def _agree(what, value, reference):
    err = float(np.max(np.abs(value - reference)))
    return err <= AGREE_ATOL, f"{what}: |diff| {err:.3e}"


def check_run(out_dir, config_path, subcommand, flat_unstable, rng):
    """Check one run's output directory; returns ``[(name, ok, detail)]``.

    ``rng`` picks the sampled graph and leaf rows; ``flat_unstable`` adds
    the check that the unstable graph is zero as well.
    """
    out = Path(out_dir)
    ops = []

    def op(name, fn, *args):
        try:
            ok, detail = fn(*args)
        except (OSError, KeyError, IndexError, ValueError, RuntimeError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        ops.append((name, bool(ok), detail))

    frame = Frame(Objective(config_path), out / "spectral.csv")
    lam = {r["constant"]: float(r["value"])
           for r in read_rows(out / "ladder_calibrated.csv")}["lambda"]

    def graph_row(row):
        ref = frame.mixed_minus0(float(row["T"]), _floats(row, "zminus_"),
                                 _floats(row, "base_"))
        return _agree(f"graph_G_T at z+ {row['base_0']}",
                      _floats(row, "value_"), ref)

    graph_rows = read_rows(out / "graph_G_T.csv")
    for i in sorted(rng.choice(len(graph_rows), GRAPH_SAMPLES, replace=False)):
        op("graph_G_T_row", graph_row, graph_rows[i])

    zero_files = ["graph_G_inf.csv"] + (["graph_F_inf.csv"] if flat_unstable else [])
    for name in zero_files:
        op(f"zero_{name}", _check_zero_graph, out / name)
    reports = LAMBDA_REPORTS + (FOLIATE_REPORTS if subcommand == "all" else ())
    for name in reports:
        op(f"report_{name}", _check_report, out / f"report_{name}.csv", lam)
    op("c0_pooled_rate", _check_rate, out / "report_c0.csv", lam)
    if subcommand != "all":
        return ops

    details = json.loads((out / "manifest.json").read_text())["details"]
    sphere = np.asarray(details["manifolds"]["sphere"], dtype=float)
    leaf_files = [(lbl, name) for lbl, name in details["foliate"]["leaf_files"]
                  if lbl != "center"]

    def leaf_row(label, name, pick):
        T, ai = (float(s) for s in label.strip("()").split(","))
        rows = read_rows(out / name)
        row = rows[pick % len(rows)]
        xi = frame.to_local(_floats(row, "x"))
        z_plus = _floats(row, "zplus_")
        if np.max(np.abs(xi[frame.k:] - z_plus)) > 1e-15:
            return False, f"{name}: plus part differs from zplus"
        ref = frame.mixed_minus0(T, sphere[int(ai)], z_plus)
        return _agree(f"{name} at z+ {row['zplus_0']}", xi[: frame.k], ref)

    for i in sorted(rng.choice(len(leaf_files), LEAF_SAMPLES, replace=False)):
        op("leaf_row", leaf_row, *leaf_files[i], int(rng.integers(1 << 30)))
    op("zero_leaf_center.csv", _check_center, out / "leaf_center.csv", frame)
    op("oracle_sup_error", _check_oracle, out / "oracle_comparison.csv")
    return ops


def _check_zero_graph(path):
    worst = max(float(np.max(np.abs(_floats(r, "value_"))))
                for r in read_rows(path))
    return worst <= ZERO_TOL, f"{path.name}: max |value| {worst:.3e}"


def _check_center(path, frame):
    xi = frame.to_local(np.array([_floats(r, "x") for r in read_rows(path)]))
    worst = float(np.max(np.abs(xi[:, : frame.k])))
    return worst <= ZERO_TOL, f"{path.name}: max |x-| {worst:.3e}"


def _check_report(path, lam):
    """Each row's verdict recomputed from its gap, bound and budget."""
    rows = read_rows(path)
    if not rows:
        return False, f"{path.name}: no rows"
    for r in rows:
        gap, bound, budget = (float(r[c]) for c in ("gap", "bound", "budget"))
        if r["check"] in ("c0", "center_distance"):
            expect = math.exp(-float(r["T"]) * lam / 8.0)
            if abs(bound - expect) > 4e-16 * expect:
                return False, f"{path.name}: bound {bound!r} is not exp(-T lambda/8) = {expect!r}"
        if r["check"] == "disjoint":  # a separation, which must exceed its floor
            ok = gap > bound
        else:
            ok = gap <= bound + budget
        if not ok or r["pass"] != "1":
            return False, (f"{path.name}: row {r['check']} T={r['T']} gap {gap:.3e} "
                           f"bound {bound:.3e} budget {budget:.3e} pass={r['pass']}")
    return True, f"{path.name}: {len(rows)} rows"


def _check_rate(path, lam):
    """Pooled decay rate of the c0 gaps: one slope, one offset per sample."""
    rows = [r for r in read_rows(path) if float(r["gap"]) > 0.0]
    T = np.array([float(r["T"]) for r in rows])
    if np.unique(T).size < 2:
        return False, "fewer than two horizons with a positive c0 gap"
    keys = sorted({(r["z_minus"], r["z_plus"]) for r in rows})
    A = np.zeros((len(rows), 1 + len(keys)))
    A[:, 0] = -T
    for i, r in enumerate(rows):
        A[i, 1 + keys.index((r["z_minus"], r["z_plus"]))] = 1.0
    logs = np.log([float(r["gap"]) for r in rows])
    rate = float(np.linalg.lstsq(A, logs, rcond=None)[0][0])
    return rate >= lam / 8.0, f"pooled c0 rate {rate:.6g} >= lambda/8 = {lam / 8.0:.6g}"


def _check_oracle(path):
    if not path.exists():
        return False, "no oracle comparison was made: oracle_comparison.csv is missing"
    errs = [float(r["sup_error"]) for r in read_rows(path)]
    worst = max(errs, default=math.inf)
    return worst <= ORACLE_LIMIT, f"oracle sup error {worst:.3e} over {len(errs)} rows"
