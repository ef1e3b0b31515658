import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gradleaf import convergence as cv
from gradleaf import foliation as fol
from gradleaf import lyapunov_perron as lp
from gradleaf.errors import OutsideLeafDomain, OutsideSampledDomain
from gradleaf.flow import integrate_forward
from references import scipy_trajectory


@pytest.fixture(scope="module")
def pair_p2(p2):
    return fol.build_pair(p2.model, p2.ladder, np.random.default_rng(5))


@pytest.fixture(scope="module")
def atlas_p2(p2):
    tau = p2.ladder.T0
    T_grid = tau + np.array([0.0, 1.0, 2.0])
    return fol.build_atlas(p2.solver(), p2.graph_g, p2.disk.sphere_minus, tau,
                           T_grid, (np.linspace(-p2.ladder.R, p2.ladder.R, 21),))


@pytest.fixture(scope="module")
def atlas_p1(p1):
    tau = p1.ladder.T0
    T_grid = tau + np.array([0.0, 1.0])
    return fol.build_atlas(p1.solver(), p1.graph_g, p1.disk.sphere_minus, tau,
                           T_grid, (np.linspace(-p1.ladder.R, p1.ladder.R, 21),))


# -- pair ----------------------------------------------------------------------

def test_pair_membership_quadratic_closed_form(p1):
    # linear flow: phi_t (x, y) = (x e^t, y e^{-2t}); membership decided in
    # closed form and compared against the sampled decision
    eps, tau = 0.005, 2.0
    c = 0.0

    def closed_form(p):
        x, y = p
        f0 = -x * x / 2 + y * y
        if f0 > c + eps:
            return False, False
        xt, yt = x * math.exp(tau), y * math.exp(-2 * tau)
        f_tau = -xt * xt / 2 + yt * yt
        x2, y2 = x * math.exp(2 * tau), y * math.exp(-4 * tau)
        f_2tau = -x2 * x2 / 2 + y2 * y2
        in_n = f_tau >= c - eps
        return in_n, in_n and f_2tau <= c - eps

    rng = np.random.default_rng(2)
    for _ in range(12):
        p = rng.uniform(-0.1, 0.1, size=2)
        expected = closed_form(p)
        in_n, in_l = fol.pair_membership(p1.model, p[None], eps, tau)
        assert (in_n[0], in_l[0]) == expected


def test_pair_contains_critical_point(p1):
    in_n, in_l = fol.pair_membership(p1.model, np.zeros((1, 2)), 0.005, 2.0)
    assert in_n[0] and not in_l[0]


def test_pair_spec_example_point(p1):
    # p = (0.1, 0.1), eps = 0.02, tau = 2: f(p) = 0.005 <= eps but the
    # forward point drops below -eps, so p leaves N through the exit set
    in_n, in_l = fol.pair_membership(p1.model, np.array([[0.1, 0.1]]), 0.02, 2.0)
    x2 = 0.1 * math.exp(2.0)
    f_tau = -x2 * x2 / 2 + (0.1 * math.exp(-4.0)) ** 2
    assert f_tau < -0.02
    assert not in_n[0] and not in_l[0]


def _pair_reference(setup, p, epsilon, tau):
    """Membership of one point from f at tau and 2 tau on a single
    trajectory at tight tolerance, integrated by scipy's DOP853."""
    c = setup.model.f_local(np.zeros(setup.model.n))
    level = c - epsilon
    f0 = setup.model.f_local(p)
    if f0 > c + epsilon or f0 < level:
        return False, False
    # leaving the unit ball (where f < -0.4 on these problems) ends the
    # trajectory before it blows up; f only decreases after that
    center = setup.problem.critical_point

    def exit_ball(t, x):
        return float(np.linalg.norm(x - center) - 1.0)
    exit_ball.terminal = True
    exit_ball.direction = 1.0

    traj = scipy_trajectory(setup.problem, setup.model.to_ambient(p), 2 * tau, 1e-11,
                            1e-14, [exit_ball])

    def f_at(t):
        if traj.status == 1 and t >= traj.t[-1]:
            assert setup.problem.f(traj.y[:, -1]) < level
            return setup.problem.f(traj.y[:, -1])
        return setup.problem.f(traj.sol(t))
    in_n = bool(f_at(tau) >= level)
    return in_n, in_n and bool(f_at(2 * tau) <= level)


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_batched_pair_membership_matches_per_point_decision(name, request):
    setup = request.getfixturevalue(name)
    eps, tau = setup.ladder.epsilon, setup.ladder.T0
    # twice build_pair's box, so that points leave the band and N
    lam = setup.model.eigenvalues
    widths = 2.6 * np.sqrt(2.0 * eps / np.abs(lam)) * np.exp(-tau * np.maximum(-lam, 0.0))
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(60, 2)) * widths
    pts[:2] = [[0.0, 0.0], [0.0, 0.25 * widths[1]]]  # on the stable manifold
    in_n, in_l = fol.pair_membership(setup.model, pts, eps, tau)
    assert in_n.shape == in_l.shape == (60,)
    expected = np.array([_pair_reference(setup, p, eps, tau) for p in pts])
    assert np.array_equal(in_n, expected[:, 0])
    assert np.array_equal(in_l, expected[:, 1])
    # both outcomes occur, so the comparison decides something
    assert 0 < in_n.sum() < len(pts) and in_l.any() and (in_n & ~in_l).any()
    # a one-row block gives the same two flags as in the batch
    one_n, one_l = fol.pair_membership(setup.model, pts[:1], eps, tau)
    assert (one_n[0], one_l[0]) == (in_n[0], in_l[0])


def test_out_of_band_points_are_not_integrated(p1, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integrated an out-of-band point")
    monkeypatch.setattr(fol, "solve_ivp", fail)
    # f = -x^2/2 + y^2 is far above c + eps or far below c - eps here
    pts = np.array([[0.0, 0.5], [0.9, 0.0], [0.0, -0.4]])
    in_n, in_l = fol.pair_membership(p1.model, pts, 0.005, 2.0)
    assert not in_n.any() and not in_l.any()


def test_pair_samples_verified_by_oracle(p2, pair_p2, trajectory_tol):
    # point-wise re-integration at tighter tolerance confirms membership
    trajectory_tol(1e-11, 1e-14)
    pair = pair_p2
    c, eps, tau = p2.model.critical_value, p2.ladder.epsilon, p2.ladder.T0
    for p in pair.samples[:6]:
        amb = p2.model.to_ambient(p)
        traj = integrate_forward(p2.problem, amb, tau)
        assert p2.problem.f(amb) <= c + eps + 1e-12
        assert p2.problem.f(traj.states[-1]) >= c - eps - 1e-10
    # exit-set members cross the level by 2 tau
    exit_sample = pair.samples[pair.exit_mask][0]
    traj = integrate_forward(p2.problem, p2.model.to_ambient(exit_sample),
                             2 * tau)
    assert p2.problem.f(traj.states[-1]) <= c - eps + 1e-10


def test_pair_L_subset_N(pair_p2):
    pair = pair_p2
    assert pair.exit_mask.shape[0] == pair.samples.shape[0]
    assert np.all(~pair.exit_mask | np.isfinite(pair.samples[:, 0]))


# -- atlas ----------------------------------------------------------------------

def test_atlas_leaf_count(atlas_p2):
    assert len(atlas_p2.leaves) == 6  # 3 horizons x 2 sphere points
    assert atlas_p2.leaf("center") is atlas_p2.center
    assert atlas_p2.all_labels() == ["center"] + list(atlas_p2.leaves)


def test_leaf_boundaries_probe_off_the_first_plus_plane(monkeypatch):
    # a 3-dimensional plus subspace (n = 4, k = 1) is probed along the
    # descending disk's ray set, part of which leaves the first plane
    rays = lp.sphere_rays(3)
    assert np.allclose(np.linalg.norm(rays, axis=1), 1.0)
    assert np.count_nonzero(rays[:, 2]) == len(rays) // 2 > 0
    seen = []

    def crossings(graphs, f, dirs, level, tol):
        seen.append(dirs)
        return np.ones((len(graphs), len(dirs)))

    monkeypatch.setattr(fol, "level_crossings", crossings)
    model = SimpleNamespace(n=4, k=1, f_local=None)
    graph = SimpleNamespace(local_points=lambda plus: plus)
    [(plus, _)] = fol._leaf_boundaries(model, [graph], 0.0)
    assert np.array_equal(seen[0], rays) and np.array_equal(plus, rays)


def test_quadratic_leaves_flat(atlas_p1, p1):
    for (T, ai), leaf in atlas_p1.leaves.items():
        alpha = p1.disk.sphere_minus[ai][0]
        assert np.allclose(leaf.graph.values, alpha * math.exp(-T), atol=1e-12)
        assert np.allclose(leaf.base_point,
                           [alpha * math.exp(-T), 0.0], atol=1e-12)


def test_leaf_labels_biject_with_disk(atlas_p2):
    # distinct labels have distinct base points, none of them the origin
    bases = np.array([leaf.base_point for leaf in atlas_p2.leaves.values()])
    assert len(np.unique(bases, axis=0)) == len(atlas_p2.leaves)
    assert np.all(np.linalg.norm(bases, axis=1) > 0.0)


def test_disjointness_quadratic_closed_form(atlas_p1, p1):
    # every unordered leaf pair once, in label order; leaves over alpha and
    # -alpha at equal T sit 2 e^{-T} |alpha| apart
    rep = fol.check_disjoint(atlas_p1)
    assert rep.all_ok
    labels = list(atlas_p1.leaves)
    assert [(r.z_minus_label, r.z_plus_label) for r in rep.rows] == [
        (str(a), str(b)) for i, a in enumerate(labels) for b in labels[i + 1:]]
    T = min(lbl[0] for lbl in atlas_p1.leaves)
    alpha = abs(p1.disk.sphere_minus[0][0])
    [sep] = [r.gap for r in rep.rows
             if r.z_minus_label == str((T, 0)) and r.z_plus_label == str((T, 1))]
    assert sep == pytest.approx(2 * alpha * math.exp(-T), rel=1e-9)


def test_disjointness_quartic(atlas_p2):
    rep = fol.check_disjoint(atlas_p2)
    assert rep.all_ok
    assert min(r.gap for r in rep.rows) > 0.0


def _line_leaf_atlas(*graphs):
    """An atlas of 1-D leaves over one plus axis, values ``g(axis)``."""
    axis = np.linspace(-0.5, 0.5, 21)
    leaves = {}
    for ai, g in enumerate(graphs):
        sample = lp.GraphSample("G_T", "plus", (axis,), g(axis)[:, None],
                                np.zeros(axis.size), np.zeros(axis.size, int))
        leaves[(1.0 + ai, ai)] = SimpleNamespace(graph=sample)
    first = next(iter(leaves.values()))
    return SimpleNamespace(leaves=leaves, model=None, center=first)


def test_disjointness_floor_of_parallel_sloped_leaves():
    # each leaf's own slope times the probe spacing (1.1e-5) exceeds the
    # 3e-9 separation; the floor is the slope of the difference, near zero
    atlas = _line_leaf_atlas(lambda z: 1e-3 * z + 0.01,
                             lambda z: 1e-3 * z + 0.01 + 3e-9)
    rep = fol.check_disjoint(atlas)
    assert rep.all_ok
    assert all(r.bound < 1e-12 and r.gap == pytest.approx(3e-9, rel=1e-6)
               for r in rep.rows)


def test_disjoint_rows_report_positive_slack():
    # a separation row passes when the gap exceeds the floor: its slack is
    # the margin above the floor, positive on every passing row
    atlas = _line_leaf_atlas(lambda z: 1e-3 * z + 0.01,
                             lambda z: 2e-3 * z + 0.0111)
    rep = fol.check_disjoint(atlas)
    assert rep.all_ok
    for r in rep.rows:
        assert r.slack == pytest.approx(r.gap - r.bound, rel=1e-12)
        assert r.slack > 0.0


def test_disjointness_crossing_leaves_fail():
    # the crossing at z = 1e-3 lies between probes: the one pair's row fails
    atlas = _line_leaf_atlas(lambda z: 1e-3 * z,
                             lambda z: -1e-3 * (z - 1e-3))
    rep = fol.check_disjoint(atlas)
    assert len(rep.rows) == 1 and not any(r.ok for r in rep.rows)
    assert all(r.gap <= r.bound for r in rep.rows)


def test_induced_flow_quadratic_closed_form(atlas_p1, p1):
    label = sorted(atlas_p1.leaves)[0]
    T = label[0]
    alpha = p1.disk.sphere_minus[label[1]][0]
    y0 = 0.3 * p1.ladder.R
    z = atlas_p1.leaf(label).graph.local_points(np.array([y0]))
    for t in (0.7, 2.0):
        out = fol.induced_flow(atlas_p1, [label], [z], t)[0]
        expected = np.array([alpha * math.exp(-T), y0 * math.exp(-2 * t)])
        assert np.allclose(out, expected, atol=1e-10)


def test_induced_flow_fixes_base_point(atlas_p2):
    for label in atlas_p2.all_labels():
        base = atlas_p2.leaf(label).base_point
        for t in (0.5, 2.5):
            out = fol.induced_flow(atlas_p2, [label], [base], t)[0]
            assert np.linalg.norm(out - base) <= 1e-10


def test_induced_flow_infinite_time(atlas_p2, p2):
    label = sorted(atlas_p2.leaves)[0]
    leaf = atlas_p2.leaf(label)
    z = leaf.graph.local_points(np.array([0.5 * p2.ladder.R]))
    out = fol.induced_flow(atlas_p2, [label], [z], math.inf)[0]
    assert np.array_equal(out, leaf.base_point)


def test_induced_flow_large_t_surrogate(atlas_p2, p2):
    lad = p2.ladder
    label = sorted(atlas_p2.leaves)[0]
    leaf = atlas_p2.leaf(label)
    z = leaf.graph.local_points(np.array([0.5 * lad.R]))
    t_big = 20.0
    out = fol.induced_flow(atlas_p2, [label], [z], t_big)[0]
    gap = np.linalg.norm(out - leaf.base_point)
    assert gap <= 1.5 * lad.rho * math.exp(-lad.lambda_ * t_big) \
        + 10 * atlas_p2.interp_tolerance


def test_induced_flow_cocycle(atlas_p2, p2):
    label = sorted(atlas_p2.leaves)[1]
    leaf = atlas_p2.leaf(label)
    z = leaf.graph.local_points(np.array([0.45 * p2.ladder.R]))
    one = fol.induced_flow(atlas_p2, [label], [z], 3.0)
    two = fol.induced_flow(atlas_p2, [label],
                           fol.induced_flow(atlas_p2, [label], [z], 1.2), 1.8)
    assert np.linalg.norm(one - two) <= 10 * atlas_p2.interp_tolerance + 1e-9


def test_induced_flow_domain_guard(atlas_p2, p2):
    label = sorted(atlas_p2.leaves)[0]
    z = np.array([0.0, 3.0 * p2.ladder.R])
    with pytest.raises(OutsideLeafDomain):
        fol.induced_flow(atlas_p2, [label], [z], 1.0)


@pytest.mark.parametrize("t", [math.inf, 1.0])
def test_induced_flow_domain_is_the_sampled_grid(atlas_p2, t):
    # a point just beyond the end of the plus axis is outside the leaf at
    # every t, and the point on that end is inside
    label = sorted(atlas_p2.leaves)[0]
    leaf = atlas_p2.leaf(label)
    end = leaf.graph.axes[0][-1]
    with pytest.raises(OutsideLeafDomain):
        fol.induced_flow(atlas_p2, [label], [[0.0, end + 5e-10]], t)
    on_end = leaf.graph.local_points(np.array([end]))
    assert np.all(np.isfinite(fol.induced_flow(atlas_p2, [label], [on_end], t)))


def test_center_leaf_flow_is_plain_flow(atlas_p2, p2, trajectory_tol):
    # on the center leaf the induced flow restricts to the gradient flow
    trajectory_tol(1e-12, 1e-15)
    y0 = 0.4 * p2.ladder.R
    z = atlas_p2.center.graph.local_points(np.array([y0]))
    out = fol.induced_flow(atlas_p2, ["center"], [z], 1.5)[0]
    traj = integrate_forward(p2.problem, p2.model.to_ambient(z), 1.5)
    assert np.allclose(out, p2.model.to_local(traj.states[-1]), atol=1e-9)


# -- audits ----------------------------------------------------------------------

def test_retract_audit_quadratic(atlas_p1, p1):
    rep = fol.retract_audit(atlas_p1)
    assert rep.all_ok
    # closed form at the center-leaf boundary (0, +-sqrt(eps)): quotient
    # approaches -|grad f|^2 = -4 eps
    eps = p1.ladder.epsilon
    center_rows = [r for r in rep.rows
                   if r.check == "retract_inward" and r.z_minus_label == "center"]
    for row in center_rows:
        assert row.gap == pytest.approx(-4 * eps, rel=0.02)
    assert rep.extras["mu_audit"] > 0.0


def test_retract_audit_quartic(atlas_p2):
    rep = fol.retract_audit(atlas_p2)
    assert rep.all_ok
    assert rep.extras["mu_audit"] > 0.0
    # the base points lie on a flat unstable manifold
    model = atlas_p2.model
    assert max(np.linalg.norm(leaf.base_point[model.k:])
               for leaf in atlas_p2.leaves.values()) <= 1e-12


def test_leaf_invariance(atlas_p2, monkeypatch):
    monkeypatch.setattr(fol, "INVARIANCE_SIGMAS", (1.0, 2.0))
    rep = fol.leaf_invariance(atlas_p2)
    assert len(rep.rows) > 0
    assert rep.all_ok
    assert max(r.gap for r in rep.rows) <= 10 * atlas_p2.interp_tolerance + 1e-9


def test_contraction_to_center(atlas_p2, p2):
    rep = fol.contraction_to_center(atlas_p2)
    assert rep.all_ok
    for row in rep.rows:
        assert row.gap <= math.exp(-row.T * p2.ladder.lambda_ / 8.0) + row.budget


def test_shrink_to_critical_point(p2, monkeypatch):
    # halving search: small enough (eps, tau) puts the pair inside a given box
    monkeypatch.setattr(fol, "PAIR_SAMPLES", 60)
    target = 0.002
    eps, tau = p2.ladder.epsilon, p2.ladder.T0
    for _ in range(6):
        # build_pair reads epsilon and tau = T0 off the ladder
        ladder = SimpleNamespace(epsilon=eps, T0=tau)
        pair = fol.build_pair(p2.model, ladder, np.random.default_rng(8))
        extent = np.max(np.abs(pair.samples)) if len(pair.samples) else 0.0
        if extent <= target:
            break
        eps *= 0.5
        tau *= 1.25
    assert extent <= target

def _locate(atlas, point_local):
    """Label of the leaf through ``point_local``, None when on no leaf: the
    leaf graph of least residual, within the audits' interpolation
    tolerance, as ``leaf_invariance`` measures a point against its leaf."""
    tol = 10.0 * atlas.interp_tolerance + 1e-9
    residuals = {label: atlas.leaf(label).graph.residual(point_local)
                 for label in atlas.all_labels()}
    label = min(residuals, key=residuals.get)
    return label if residuals[label] <= tol else None


def test_atlas_locate_and_contains(atlas_p2, p2):
    label = sorted(atlas_p2.leaves)[1]
    leaf = atlas_p2.leaf(label)
    z = leaf.graph.local_points(np.array([0.3 * p2.ladder.R]))
    assert _locate(atlas_p2, z) == label
    assert p2.model.f_local(z) <= p2.model.critical_value + p2.ladder.epsilon + 1e-12
    # a point off every leaf graph is not located
    off = z + np.array([10 * atlas_p2.interp_tolerance + 1e-5, 0.0])
    assert _locate(atlas_p2, off) is None
    # center-leaf points resolve to the center label
    zc = atlas_p2.center.graph.local_points(np.array([0.2 * p2.ladder.R]))
    assert _locate(atlas_p2, zc) == "center"


class _RaisingGraph:
    """A graph whose evaluation raises ``exc``; all else is ``graph``'s."""

    def __init__(self, graph, exc):
        self._graph = graph
        self._exc = exc

    def __getattr__(self, name):
        return getattr(self._graph, name)

    def evaluate(self, z):
        raise self._exc("graph evaluation failed")

    def residual(self, point):
        raise self._exc("graph evaluation failed")


def _with_raising_graphs(atlas, exc):
    def swap(leaf):
        return dataclasses.replace(leaf, graph=_RaisingGraph(leaf.graph, exc))
    return dataclasses.replace(
        atlas, center=swap(atlas.center),
        leaves={label: swap(leaf) for label, leaf in atlas.leaves.items()})


def test_graph_domain_misses_are_skipped(atlas_p2, p2):
    atlas = _with_raising_graphs(atlas_p2, OutsideSampledDomain)
    rep = fol.leaf_invariance(atlas)
    # every point that would give a row is counted instead
    assert rep.rows == [] and rep.extras["skipped"] > 0


def test_graph_errors_other_than_domain_misses_propagate(atlas_p2, p2):
    atlas = _with_raising_graphs(atlas_p2, RuntimeError)
    with pytest.raises(RuntimeError):
        fol.leaf_invariance(atlas)


@pytest.fixture(scope="module")
def atlas_p3(p3):
    # codimension-two leaves: graphs over a 2D plus grid
    tau = p3.ladder.T0
    half = p3.ladder.R / np.sqrt(2)
    return fol.build_atlas(p3.solver(), p3.graph_g, p3.disk.sphere_minus[:1],
                           tau, tau + np.array([0.0, 1.0]),
                           tuple(np.linspace(-half, half, 9) for _ in range(2)))


def test_codim2_leaf_geometry(atlas_p3, p3):
    assert len(atlas_p3.leaves) == 2
    for leaf in atlas_p3.leaves.values():
        assert len(leaf.graph.axes) == 2
        assert leaf.graph.codim == 1
        assert leaf.boundary_plus.shape[1] == 2
        # boundary samples sit on the clip level
        for pt in leaf.boundary_local:
            assert p3.model.f_local(pt) == pytest.approx(
                p3.model.critical_value + p3.ladder.epsilon, abs=1e-9)


def test_codim2_disjoint_and_retract(atlas_p3):
    rep = fol.check_disjoint(atlas_p3)
    assert rep.all_ok
    audit = fol.retract_audit(atlas_p3)
    assert audit.all_ok
    assert audit.extras["mu_audit"] > 0.0


def test_codim2_induced_flow(atlas_p3, p3):
    label = sorted(atlas_p3.leaves)[0]
    leaf = atlas_p3.leaf(label)
    z = leaf.graph.local_points(
        np.array([0.2 * p3.ladder.R, -0.15 * p3.ladder.R]))
    out = fol.induced_flow(atlas_p3, [label], [z], 1.5)[0]
    # plus part contracts under the diagonal stable rates (1 and 3)
    assert abs(out[1]) == pytest.approx(abs(z[1]) * np.exp(-1.5), rel=1e-6)
    assert abs(out[2]) == pytest.approx(abs(z[2]) * np.exp(-4.5), rel=1e-4)
    assert np.array_equal(fol.induced_flow(atlas_p3, [label], [z], math.inf)[0],
                          leaf.base_point)


# -- lockstep audits against one trajectory and one ray at a time --------------

@pytest.mark.parametrize("kind", ["minus", "plus"])
def test_level_crossing_matches_one_ray_at_a_time(kind, p3):
    f = p3.model.f_local
    if kind == "minus":
        # the short third ray ends before the descending sphere
        graph = p3.graph_f
        dirs = np.array([[1.0], [-1.0], [1e-3]])
        level = p3.model.critical_value - p3.ladder.epsilon
    else:
        # f rises three times faster along the second plus axis, so a level
        # between its values at the far ends of the rays cuts some of them
        graph = p3.graph_g
        angles = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        far = f(graph.local_points(min(ax[-1] for ax in graph.axes) * dirs))
        level = 0.5 * (far.min() + far.max())
    radii = lp.level_crossings([graph], f, dirs, level, 1e-12)[0]
    one_by_one = np.array([lp.level_crossings([graph], f, u[None], level, 1e-12)[0, 0]
                           for u in dirs])
    assert radii.tobytes() == one_by_one.tobytes()
    # some rays reach the level and some do not
    assert np.isnan(radii).any() and not np.isnan(radii).all()
    hit = ~np.isnan(radii)
    crossings = f(graph.local_points(radii[hit, None] * dirs[hit]))
    assert np.all(np.abs(crossings - level) <= 1e-12)


def _induced_flow_reference(atlas, label, z, t):
    """The induced flow of one point by one scipy DOP853 run."""
    model = atlas.model
    start = atlas.center.graph.local_points(z[model.k:])
    traj = scipy_trajectory(model.problem, model.to_ambient(start), t, fol.AUDIT_RTOL,
                            fol.AUDIT_ATOL)
    return atlas.leaf(label).graph.local_points(model.to_local(traj.y[:, -1])[model.k:])


def test_leaf_invariance_matches_single_trajectories(atlas_p2, p2, monkeypatch):
    model = p2.model
    sigmas = (1.0, 2.0)
    monkeypatch.setattr(fol, "INVARIANCE_SIGMAS", sigmas)
    expected = []
    for (T, ai), leaf in atlas_p2.leaves.items():
        for sigma in sigmas:
            target = atlas_p2.leaves.get((float(T - sigma), ai))
            if target is None:
                continue
            for z_plus, p in zip(*leaf.inside_points()):
                traj = scipy_trajectory(p2.problem, model.to_ambient(p), sigma,
                                        fol.AUDIT_RTOL, fol.AUDIT_ATOL)
                try:
                    gap = target.graph.residual(model.to_local(traj.y[:, -1]))
                except OutsideSampledDomain:
                    continue
                expected.append((str((T, ai)), cv._label(z_plus),
                                 f"sigma={sigma:g}", gap))
    rows = fol.leaf_invariance(atlas_p2).rows
    assert len(expected) > 0
    assert [(r.z_minus_label, r.z_plus_label, r.direction_label) for r in rows] \
        == [e[:3] for e in expected]
    assert max(abs(r.gap - e[3]) for r, e in zip(rows, expected)) <= 1e-14


def test_retract_audit_matches_single_trajectories(atlas_p2, p2):
    f = p2.model.f_local
    t_samples = fol.RETRACT_T_SAMPLES
    fix_d, inward = [], []
    for label in atlas_p2.all_labels():
        leaf = atlas_p2.leaf(label)
        for t in t_samples:
            moved = _induced_flow_reference(atlas_p2, label, leaf.base_point, t)
            fix_d.append((str(label), f"t={t:g}",
                          np.linalg.norm(moved - leaf.base_point)))
        for z_plus, z in zip(leaf.boundary_plus, leaf.boundary_local):
            worst = max((f(_induced_flow_reference(atlas_p2, label, z, h)) - f(z)) / h
                        for h in (1e-4, 1e-5))
            inward.append((str(label), cv._label(z_plus), worst))
    rep = fol.retract_audit(atlas_p2)
    rows_d = [r for r in rep.rows if r.check == "retract_fix_D"]
    rows_i = [r for r in rep.rows if r.check == "retract_inward"]
    assert [(r.z_minus_label, r.direction_label) for r in rows_d] \
        == [e[:2] for e in fix_d]
    assert [(r.z_minus_label, r.z_plus_label) for r in rows_i] \
        == [e[:2] for e in inward]
    assert max(abs(r.gap - e[2]) for r, e in zip(rows_d, fix_d)) <= 1e-14
    assert max(abs(r.gap - e[2]) for r, e in zip(rows_i, inward)) <= 1e-14


def test_audits_integrate_one_batch_per_horizon(atlas_p2, monkeypatch):
    from gradleaf import flow

    def never(*args, **kwargs):
        raise AssertionError("integrated a single trajectory")
    monkeypatch.setattr(flow, "integrate_forward", never)
    assert not hasattr(fol, "integrate_forward")
    calls = []
    batch = fol.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[2])
        return batch(*args, **kwargs)
    monkeypatch.setattr(fol, "solve_ivp", counted)

    monkeypatch.setattr(fol, "INVARIANCE_SIGMAS", (1.0, 2.0))
    fol.leaf_invariance(atlas_p2)
    assert calls == [1.0, 2.0]
    calls.clear()
    fol.retract_audit(atlas_p2)
    assert calls == [*fol.RETRACT_T_SAMPLES, 1e-4, 1e-5]
