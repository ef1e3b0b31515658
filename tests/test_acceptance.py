"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
as they complete).  Reference problems: the quadratic saddle (P1), the
quartic perturbation (P2), and the 3D cubic-coupled saddle (P3).
"""

import csv
import importlib.util
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gradleaf import convergence as cv
from gradleaf import foliation as fol
from gradleaf.cli import main as cli_main
from gradleaf.flow import integrate_forward
from gradleaf.oracle import mixed_bvp_oracle

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
_spec = importlib.util.spec_from_file_location(
    "contraction_experiment", ROOT / "scripts" / "contraction_experiment.py")
contraction_experiment = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contraction_experiment)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS {description}")


@pytest.fixture(scope="module")
def solver_p1(p1):
    return p1.solver()


@pytest.fixture(scope="module")
def solver_p2(p2):
    return p2.solver()


@pytest.fixture(scope="module")
def atlas_p2(p2, solver_p2):
    tau = p2.ladder.T0
    return fol.build_atlas(
        solver_p2, p2.graph_g, p2.sphere, tau, tau + np.array([0.0, 1.0, 2.0]),
        (np.linspace(-p2.ladder.R, p2.ladder.R, 21),))


def test_criterion_1_contraction_factor(tmp_path):
    with criterion(1, "measured contraction factor of the mixed operator "
                      "<= 0.5 + 0.05 on P2 (50 pairs, 5 horizons, <= 1 min)"):
        out = tmp_path / "contraction.csv"
        start = time.perf_counter()
        contraction_experiment.measure(
            CONFIGS / "p2_quartic.json", out, pairs=10, seed=17)
        elapsed = time.perf_counter() - start
        with open(out, newline="") as fh:
            factors = [float(row["measured_factor"]) for row in csv.DictReader(fh)]
        assert len(factors) == 5
        worst = max(factors)
        assert worst <= 0.5 + 0.05, f"contraction factor {worst}"
        assert elapsed <= 60.0, f"runtime {elapsed:.1f}s"


def test_criterion_2_boundary_exactness(p2, solver_p2):
    with criterion(2, "boundary values exact to 1e-12 and endpoint bound "
                      "rho exp(-T lambda) with solver-tolerance slack"):
        lad = p2.ladder
        k = p2.model.k
        for T in lad.T0 + np.array([0.0, 1.5, 3.0]):
            for zm in (p2.sphere_point(0), p2.sphere_point(1)):
                for zp in (np.array([0.2 * lad.R]), np.array([-0.45 * lad.R])):
                    res, gap = solver_p2.mixed(T, zm, zp)
                    xi = res.curve.values
                    assert np.max(np.abs(xi[0, k:] - zp)) <= 1e-12
                    assert np.max(np.abs(xi[-1, :k] - zm)) <= 1e-12
                    slack = 2.0 * res.reported_residual
                    assert gap <= lad.rho * math.exp(-T * lad.lambda_) + slack


def test_criterion_3_c0_rate(p1, p2, solver_p1, solver_p2):
    with criterion(3, "C0 gap <= exp(-T lambda/8) on P1 and P2 with fitted "
                      "decay rate >= lambda/8 over 5 horizons (<= 5 min)"):
        start = time.perf_counter()
        for setup, solver in ((p1, solver_p1), (p2, solver_p2)):
            lad = setup.ladder
            t0 = lad.T0
            T_grid = t0 + np.arange(5.0)
            zm_list = [setup.sphere_point(0), setup.sphere_point(1)]
            zp_list = [np.array([0.0]), np.array([0.3 * lad.R]),
                       np.array([-0.5 * lad.R])]
            rep = cv.c0_convergence(solver, T_grid, zm_list, zp_list)
            assert rep.all_ok, f"C0 bound failed on {setup.problem.name}"
            assert rep.fitted_rates["pooled"] >= lad.lambda_ / 8.0
        elapsed = time.perf_counter() - start
        assert elapsed <= 300.0, f"runtime {elapsed:.1f}s"


def test_criterion_4_c1_rate(p2, solver_p2):
    with criterion(4, "C1 gap <= c_* exp(-T lambda/8) |v| + FD budget on P2"):
        lad = p2.ladder
        t0 = lad.T0
        rep = cv.c1_convergence(solver_p2, [t0, t0 + 1.0, t0 + 2.0],
                                [p2.sphere_point()],
                                [np.array([0.0]), np.array([0.3 * lad.R])])
        assert rep.all_ok
        assert lad.c_star == pytest.approx(
            2.0 * lad.kappa_star * (1 / lad.delta + 1 / lad.lambda_) + 0.25)


def test_criterion_5_lipschitz_in_T(p2, solver_p2):
    with criterion(5, "Lipschitz-in-T quotients <= c1 = 2(|lambda_1|+1) "
                      "for tau in {1e-2, 1e-3} on P2"):
        lad = p2.ladder
        t0 = lad.T0
        rep = cv.lipschitz_in_T(solver_p2, [t0, t0 + 1.0, t0 + 2.0],
                                (1e-2, 1e-3), [p2.sphere_point()],
                                [np.array([0.0]), np.array([0.4 * lad.R])])
        assert rep.all_ok
        assert lad.c1 == 2.0 * (abs(lad.lambda_min) + 1.0)


def test_criterion_6_oracle_equivalence(p2, solver_p2):
    with criterion(6, "sup distance between mixed fixed points and the "
                      "shooting oracle <= 1e-6 on a 3x3x3 grid (P2, k=1)"):
        lad = p2.ladder
        s = p2.sphere_point(0)[0]
        T_list = lad.T0 + np.array([0.0, 1.0, 2.0])
        zm_list = [np.array([s]), np.array([-s]), np.array([0.8 * s])]
        zp_list = [np.array([0.0]), np.array([0.35 * lad.R]),
                   np.array([-0.5 * lad.R])]
        worst = 0.0
        for T in T_list:
            for zm in zm_list:
                for zp in zp_list:
                    res, _ = solver_p2.mixed(T, zm, zp)
                    [(traj, _)] = mixed_bvp_oracle(p2.model, [(float(T), zm, zp)])
                    states = p2.model.to_local(traj.states)
                    worst = max(worst, float(np.max(np.linalg.norm(
                        states - res.curve.evaluate(traj.times), axis=1))))
        assert worst <= 1e-6, f"sup distance {worst:.3e}"


def test_criterion_7_manifold_graphs(p1, p2, trajectory_tol):
    with criterion(7, "flat graphs on P1 to 1e-10; stable-graph points on "
                      "P2 decay like rho exp(-lambda t) up to 3 T0"):
        assert np.max(np.abs(p1.graph_f.values)) <= 1e-10
        assert np.max(np.abs(p1.graph_g.values)) <= 1e-10
        lad = p2.ladder
        trajectory_tol(1e-12, 1e-15)
        for y in (p2.graph_g.axes[0][2], p2.graph_g.axes[0][-1]):
            start = np.concatenate([p2.graph_g.evaluate(np.array([y])), [y]])
            traj = integrate_forward(p2.problem, p2.model.to_ambient(start),
                                     3.0 * lad.T0)
            for t, x in zip(traj.times, p2.model.to_local(traj.states)):
                assert np.linalg.norm(x) <= lad.rho * math.exp(-lad.lambda_ * t) + 1e-12


def test_criterion_8_foliation_audits(p2, atlas_p2, monkeypatch):
    with criterion(8, "leaf disjointness over every leaf pair, invariance "
                      "residual <= 10x interpolation tolerance, contraction "
                      "onto the ascending disk <= exp(-T lambda/8) on P2"):
        rep_d = fol.check_disjoint(atlas_p2)
        assert rep_d.all_ok
        assert min(r.gap for r in rep_d.rows) > 0.0
        for sigma in (1.0, 2.0):
            monkeypatch.setattr(fol, "INVARIANCE_SIGMA", sigma)
            rep_i = fol.leaf_invariance(atlas_p2)
            assert rep_i.all_ok
            assert (max(r.gap for r in rep_i.rows)
                    <= 10.0 * atlas_p2.interp_tolerance + 1e-9)
        rep_c = fol.contraction_to_center(atlas_p2)
        assert rep_c.all_ok


def test_criterion_9_dynamical_thickening(p2, atlas_p2):
    with criterion(9, "induced flow fixes the disk to 1e-10, reaches the "
                      "leaf base point at t = inf, large-t surrogate within "
                      "rho exp(-lambda t), boundary quotients negative"):
        lad = p2.ladder
        rep = fol.retract_audit(atlas_p2)
        assert rep.all_ok
        assert rep.extras["mu_audit"] > 0.0
        label = sorted(atlas_p2.leaves)[0]
        leaf = atlas_p2.leaf(label)
        z = leaf.graph.local_points(np.array([0.5 * lad.R]))
        assert np.array_equal(
            fol.induced_flow(atlas_p2, [label], [z], math.inf)[0], leaf.base_point)
        t_big = 20.0
        out = fol.induced_flow(atlas_p2, [label], [z], t_big)[0]
        assert np.linalg.norm(out - leaf.base_point) <= \
            lad.rho * math.exp(-lad.lambda_ * t_big) \
            + 10.0 * atlas_p2.interp_tolerance


def test_criterion_10_ladder_arithmetic(tmp_path):
    with criterion(10, "ladder identities hold exactly as echoed by the CLI"):
        out = tmp_path / "ladder_echo"
        code = cli_main(["ladder", "--config",
                         str(CONFIGS / "p2_quartic.json"), "--out", str(out)])
        assert code == 0
        echo = json.loads((out / "manifest.json").read_text())["ladder_echo"]
        assert echo["T1"] == -math.log(echo["varkappa"]) / echo["lambda"]
        assert echo["T0"] == max(echo["T1"], echo["T2"], 1.0)
        assert echo["c1"] == 2.0 * (abs(echo["lambda_min"]) + 1.0)
        assert echo["c_star"] == 2.0 * echo["kappa_star"] \
            * (1.0 / echo["delta"] + 1.0 / echo["lambda"]) + 0.25
        assert math.exp(-echo["T2"] * echo["mu"] / 4.0) <= 0.125 + 1e-15
