"""Level-set pairs, the invariant stable foliation, and the induced flow.

The pair (N, L) is defined purely through level values of the objective
along forward trajectories.  Its foliation is assembled from the time-T
graph family: one codimension-k leaf per (T, alpha) with alpha on the
descending sphere, plus the ascending disk as the center leaf.  Conjugating
the flow on the center leaf with the graph maps equips every leaf with its
own semi-flow whose time-infinity map retracts N onto its part in the
unstable manifold.

Every leaf is a ``GraphSample`` over the plus subspace.  Its local points
(``local_points``), the residual of a point against it (``residual``, which
the invariance audit uses) and its clip boundary (``level_sphere``, over
all leaves at once) come from that module, so this module never places a
graph in the local frame.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import row_norms
from .errors import ComponentAmbiguous, OutsideLeafDomain, OutsideSampledDomain
from .flow import solve_ivp
from .lyapunov_perron import (
    RESIDUAL_TO_ERROR,
    graph_G_T,
    interpolate,
    level_sphere,
    multilinear_stencil,
    tensor_points,
)
from .reporting import Report, vector_label

PAIR_RTOL = 1e-9
PAIR_ATOL = 1e-12
#: integration tolerances of the retract and invariance audits
AUDIT_RTOL = 1e-11
AUDIT_ATOL = 1e-13
COMPONENT_KEEP_FRACTION = 0.9
#: box samples of the level-set pair, besides the critical point
PAIR_SAMPLES = 240
#: the disjointness probes split every cell of the stable graph's grid
#: (see ``check_disjoint``) this many ways
DISJOINT_REFINE = 9
#: the retract audit's flow times for the disk, and its fixed-point budget
RETRACT_T_SAMPLES = (0.5, 1.5, 4.0)
RETRACT_FIX_TOL = 1e-10
#: the invariance audit flows the (T, alpha) leaf onto the (T - sigma, alpha) one
INVARIANCE_SIGMA = 1.0
#: size of the temporary gap array of one chunk in contraction_to_center
NEAREST_CHUNK_BYTES = 1 << 20


@dataclass
class ConleyPair:
    """Sampled level-set pair around the critical point (local frame)."""

    samples: np.ndarray          # accepted N samples, local frame
    exit_mask: np.ndarray        # True where the sample belongs to L
    dropped: int                 # samples in N the flood fill left out


def pair_membership(model, points, epsilon, tau):
    """(in_N, in_L) for local-frame points, by forward integration.

    ``points`` is ``(m, n)``, one point per row, giving two ``(m,)`` bool
    arrays.  The objective is monotone along trajectories,
    so both conditions are level tests: p is in N iff it starts in the band
    |f - c| <= epsilon and f(phi_tau(p)) >= c - epsilon, and in L iff it is
    in N and f(phi_{2 tau}(p)) <= c - epsilon.  The in-band points are
    integrated together over [0, tau], stopping where f falls below the
    level (those are not in N); the survivors continue over [tau, 2 tau],
    and stopping there or ending at or below the level puts them in L.
    """
    problem = model.problem
    c = model.critical_value
    level = c - epsilon
    f0 = problem.f(model.to_ambient(points))
    band = (f0 <= c + epsilon) & (f0 >= level)
    in_n = band.copy()
    in_l = np.zeros_like(band)
    if band.any():
        first = solve_ivp(problem, model.to_ambient(points[band]), tau, PAIR_RTOL,
                          PAIR_ATOL, stop_below_level=level)
        in_n[band] = ~first.stopped
        second = solve_ivp(problem, first.terminal[~first.stopped], tau, PAIR_RTOL,
                           PAIR_ATOL, stop_below_level=level)
        in_l[in_n] = second.stopped | (problem.f(second.terminal) <= level)
    return in_n, in_l


def build_pair(model, ladder, rng):
    """Rejection-sample the pair at the ladder's epsilon and tau = T0 on a
    box and keep the component of x.

    The box is anisotropic: along unstable directions the set N thins out
    like exp(-tau |lambda_j|) (only points that stay above level c - epsilon
    until time tau belong to it), so the box is shrunk accordingly or an
    isotropic sampler would never hit N.  Connectivity is enforced by flood
    fill over the accepted samples with an edge radius adapted to the
    sampling density; a large disconnected remainder signals insufficient
    resolution and raises.
    """
    epsilon, tau = ladder.epsilon, ladder.T0
    n = model.n
    widths = np.empty(n)
    for j, lam in enumerate(model.eigenvalues):
        scale = math.sqrt(2.0 * epsilon / abs(lam))
        if lam < 0:
            widths[j] = 1.3 * scale * math.exp(-tau * abs(lam))
        else:
            widths[j] = 1.3 * scale

    pts = rng.uniform(-1.0, 1.0, size=(PAIR_SAMPLES, n)) * widths
    pts = np.concatenate([np.zeros((1, n)), pts])  # x itself is always in N
    in_n, in_l = pair_membership(model, pts, epsilon, tau)
    accepted = pts[in_n]
    exit_flags = in_l[in_n]

    # flood fill from x over the sample graph; the radius blends the local
    # sampling density with the box scale so random gaps do not fragment
    # a genuinely connected cloud
    m = accepted.shape[0]
    dropped = 0
    if m > 1:
        dists = np.linalg.norm(accepted[:, None, :] - accepted[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        nn = np.min(dists, axis=1)
        radius = max(3.0 * _median(nn),
                     0.15 * float(np.linalg.norm(2.0 * widths)))
        reach = np.zeros(m, dtype=bool)
        reach[0] = True
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(dists[i] <= radius)[0]:
                if not reach[j]:
                    reach[j] = True
                    frontier.append(j)
        dropped = int(m - np.count_nonzero(reach))
        if dropped > (1.0 - COMPONENT_KEEP_FRACTION) * m:
            raise ComponentAmbiguous(
                f"{dropped} of {m} accepted samples are disconnected from x "
                "at this sampling resolution")
        accepted = accepted[reach]
        exit_flags = exit_flags[reach]
    return ConleyPair(samples=accepted, exit_mask=exit_flags, dropped=dropped)


def _median(x):
    """``np.median`` of a 1D float array, bit for bit, by sorting; unlike
    ``np.median`` it does not load ``numpy.ma``."""
    x = np.sort(x)
    h = len(x) // 2
    return float(x[h]) if len(x) % 2 else float((x[h - 1] + x[h]) / 2.0)


@dataclass
class Leaf:
    """One leaf: a graph over the plus ball, clipped at level c + epsilon.

    ``base_point`` is the point the leaf contracts onto under the induced
    flow (alpha^T, or the origin for the center leaf); the leaf's horizon
    is its graph's ``T`` (None for the center leaf).  ``inside_mask`` marks
    the grid nodes below the clip level, flat in grid order, and
    ``boundary_plus`` is the clip boundary, the graph's ``level_sphere``.
    """

    graph: object
    base_point: np.ndarray
    inside_mask: np.ndarray
    boundary_plus: np.ndarray

    def inside_points(self):
        """Plus coordinates and local points of the grid nodes inside the clip."""
        return (self.graph.grid_points()[self.inside_mask],
                self.graph.local_points()[self.inside_mask])


@dataclass
class FoliationAtlas:
    """The leaves of the stable foliation: ``center`` is the center leaf
    (the clipped stable graph) and ``leaves`` maps each (T, alpha-index)
    label to the leaf of the time-T graph of that sphere point.
    ``interp_tolerance`` is the largest interpolation tolerance of their
    graphs."""

    model: object
    ladder: object
    center: Leaf
    leaves: dict
    interp_tolerance: float

    def leaf(self, label):
        if label == "center":
            return self.center
        return self.leaves[label]

    def all_labels(self):
        return ["center"] + list(self.leaves.keys())


def build_atlas(solver, stable_graph, sphere_minus, tau, T_grid, zplus_axes):
    """Assemble the leaf family over a (T, alpha) grid.

    ``solver``: the ladder's ``GraphFamilySolver``, which holds the model,
    the ladder and the backward orbits of the sphere points.
    ``sphere_minus``: minus coordinates of the descending-sphere samples.
    ``zplus_axes``: the plus grid of the time-T graphs.
    ``tau``: the pair's time; every horizon of ``T_grid`` must be at least
    ``tau``.  The (T, alpha-index) leaf is the time-T graph of the sphere
    point alpha, with base point alpha^T on the backward orbit of alpha;
    the center leaf is the stable graph.  Every leaf is clipped at level
    c + epsilon, its boundary bisected to a tolerance in f relative to the
    clip level and at most 1e-4 epsilon.
    """
    model, ladder = solver.model, solver.ladder
    T_grid = np.asarray(T_grid, dtype=float)
    if np.any(T_grid < tau - 1e-12):
        raise ValueError("atlas horizons must satisfy T >= tau")
    clip = model.critical_value + ladder.epsilon
    tol = min(1e-12 * max(1.0, abs(clip)) + 1e-15, 1e-4 * ladder.epsilon)

    def leaf(graph, base_point, boundary):
        return Leaf(graph=graph, base_point=base_point,
                    inside_mask=model.f_local(graph.local_points()) <= clip,
                    boundary_plus=boundary)

    [bnd] = level_sphere(model, [stable_graph], clip, tol)
    center = leaf(stable_graph, np.zeros(model.n), bnd)

    labels, graphs, bases = [], [], []
    for ai, alpha in enumerate(np.atleast_2d(sphere_minus)):
        orbit = solver.orbit(alpha, float(np.max(T_grid)))
        for T in T_grid:
            labels.append((float(T), ai))
            graphs.append(graph_G_T(solver, float(T), alpha, zplus_axes))
            bases.append(orbit.curve.evaluate(-float(T)))
    bounds = level_sphere(model, graphs, clip, tol)
    leaves = {label: leaf(graph, base, bnd)
              for label, graph, base, bnd in zip(labels, graphs, bases, bounds)}
    interp_tol = max([center.graph.interp_tolerance()]
                     + [lf.graph.interp_tolerance() for lf in leaves.values()])
    return FoliationAtlas(model=model, ladder=ladder, center=center,
                          leaves=leaves, interp_tolerance=interp_tol)


def _refined_axes(axes, refine):
    """``axes`` with every cell split into ``refine`` equal cells."""
    return tuple(np.linspace(ax[0], ax[-1], refine * (len(ax) - 1) + 1)
                 for ax in axes)


def check_disjoint(atlas):
    """Pairwise leaf separation over every unordered pair of labels, once
    each, in label order.

    Leaves are graphs over a common plus grid, so they intersect iff their
    graph values meet at a common base point.  The difference of two
    multilinear interpolants on one grid is the interpolant of the
    difference, so the separation floor is the grid Lipschitz constant of
    the difference times the probe spacing: the largest dip of the
    separation between probes.  The probes refine the center leaf's grid,
    the stable graph's 13 nodes per axis, not the leaves' 21-node plus grid.
    Every leaf is interpolated at the probes once, as one stack.
    """
    labels = list(atlas.leaves.keys())
    report = Report("disjoint")
    if len(labels) < 2:
        return report
    axes = atlas.leaves[labels[0]].graph.axes
    for label in labels:
        if not all(np.array_equal(x, y)
                   for x, y in zip(atlas.leaves[label].graph.axes, axes)):
            raise ValueError(f"leaves {labels[0]} and {label} are sampled on "
                             "different plus grids")
    fine = _refined_axes(atlas.center.graph.axes, DISJOINT_REFINE)
    stencil = multilinear_stencil(axes, tensor_points(fine))
    spacing = max(float(np.max(np.diff(f))) for f in fine)
    values = np.stack([atlas.leaves[label].graph.values for label in labels])
    # (leaves, probes, codim)
    probed = interpolate(stencil, values, lead=(slice(None),))
    pairs = list(itertools.combinations(range(len(labels)), 2))
    first, second = np.array(pairs).T
    separations = np.min(np.linalg.norm(probed[first] - probed[second], axis=-1),
                         axis=1)
    # the grid Lipschitz constant of each pair's difference, (pairs,)
    diff = values[first] - values[second]
    worst = np.zeros(len(pairs))
    for axis, ax in enumerate(axes):
        slope = (np.linalg.norm(np.diff(diff, axis=axis + 1), axis=-1)
                 / np.diff(ax).reshape(-1, *([1] * (len(axes) - axis - 1))))
        worst = np.maximum(worst, slope.reshape(len(pairs), -1).max(axis=1))
    floors = worst * spacing

    for (ia, ib), separation, floor in zip(pairs, separations.tolist(),
                                           floors.tolist()):
        a, b = labels[ia], labels[ib]
        report.add(check="disjoint", T=float(a[0]), z_minus_label=str(a),
                   z_plus_label=str(b), direction_label="",
                   gap=separation, bound=floor, budget=0.0, relation=">")
    return report


def induced_flow(atlas, labels, z_local, t):
    """The leaf-preserving semi-flow: conjugate the center-leaf flow by the
    graph maps.

    ``z_local`` holds rows ``(m, n)``, one local point on each leaf of
    ``labels``; the rows are integrated together
    (:func:`~gradleaf.flow.solve_ivp`) at the audit tolerances.  A row whose
    plus part lies outside its leaf's graph domain raises
    OutsideLeafDomain.  ``t = inf`` returns each leaf's base point exactly.
    """
    model = atlas.model
    z_local = np.asarray(z_local, dtype=float)
    leaves = [atlas.leaf(label) for label in labels]
    z_plus = z_local[:, model.k:]
    for leaf, zp in zip(leaves, z_plus):
        for i, ax in enumerate(leaf.graph.axes):
            if not ax[0] <= zp[i] <= ax[-1]:
                raise OutsideLeafDomain(
                    f"plus coordinate {zp} outside the leaf graph domain")
    out = np.empty_like(z_local)
    if t == math.inf:
        for i, leaf in enumerate(leaves):
            out[i] = leaf.base_point
    else:
        if t < 0:
            raise ValueError("the induced flow is a semi-flow: t >= 0")
        center_points = atlas.center.graph.local_points(z_plus)
        terminal = solve_ivp(model.problem, model.to_ambient(center_points), float(t),
                             AUDIT_RTOL, AUDIT_ATOL, stop_below_level=-math.inf).terminal
        y_t = model.to_local(terminal)[:, model.k:]
        for i, leaf in enumerate(leaves):
            out[i] = leaf.graph.local_points(y_t[i])
    return out


def retract_audit(atlas):
    """Three checks behind the strong-deformation-retract property.

    (i) the time-infinity map sends every sampled leaf point to the leaf's
    base point on the disk D; (ii) the induced flow fixes D pointwise;
    (iii) the objective strictly decreases along the induced flow at every
    leaf-boundary sample (inward pointing), quantified by finite-difference
    quotients at the steps 1e-4 and 1e-5.  Structurally (i) holds by
    construction; the audit re-evaluates it numerically.  Check (ii)
    presumes coordinates with a flat unstable manifold; the measured
    flatness residual widens the tolerance.  The induced flow runs once per
    t sample over every base point, and once per step over every boundary
    sample; the objective is read once per flowed block.
    """
    model = atlas.model
    report = Report("retract")
    labels = atlas.all_labels()
    leaves = [atlas.leaf(label) for label in labels]

    flatness = 0.0
    for label in atlas.leaves:
        base = atlas.leaf(label).base_point
        flatness = max(flatness, float(np.linalg.norm(base[model.k:])))
    fix_budget = RETRACT_FIX_TOL + 10.0 * flatness + 10.0 * atlas.interp_tolerance

    # (i) theta_inf maps leaf samples onto the base point
    origin = np.zeros(model.n - model.k)
    ends = induced_flow(atlas, labels, [leaf.graph.local_points(origin)
                                        for leaf in leaves], math.inf)
    for label, leaf, end in zip(labels, leaves, ends):
        gap = float(np.linalg.norm(end - leaf.base_point))
        report.add(check="retract_theta_inf", T=leaf.graph.T or 0.0,
                   z_minus_label=str(label), z_plus_label="", direction_label="",
                   gap=gap, bound=0.0, budget=RETRACT_FIX_TOL)

    # (ii) theta_t fixes the disk D pointwise
    bases = np.array([leaf.base_point for leaf in leaves])
    moved = [induced_flow(atlas, labels, bases, t) for t in RETRACT_T_SAMPLES]
    for i, (label, leaf) in enumerate(zip(labels, leaves)):
        for t, moved_t in zip(RETRACT_T_SAMPLES, moved):
            gap = float(np.linalg.norm(moved_t[i] - leaf.base_point))
            report.add(check="retract_fix_D", T=leaf.graph.T or 0.0,
                       z_minus_label=str(label), z_plus_label="",
                       direction_label=f"t={t:g}", gap=gap, bound=0.0,
                       budget=fix_budget)

    # (iii) inward pointing along every leaf boundary
    rows = [(label, leaf, z_plus, z) for label, leaf in zip(labels, leaves)
            for z_plus, z in zip(leaf.boundary_plus,
                                 leaf.graph.local_points(leaf.boundary_plus))]
    boundary = np.array([z for *_, z in rows]).reshape(-1, model.n)
    row_labels = [label for label, *_ in rows]
    steps = (1e-4, 1e-5)
    moved = [induced_flow(atlas, row_labels, boundary, h) for h in steps]
    f0 = model.f_local(boundary)
    quotients = [((model.f_local(moved_h) - f0) / h).tolist()
                 for h, moved_h in zip(steps, moved)]
    mu_audit = math.inf
    for (label, leaf, z_plus, _), *per_step in zip(rows, *quotients):
        worst = max(per_step)
        mu_audit = min(mu_audit, -worst)
        report.add(check="retract_inward", T=leaf.graph.T or 0.0,
                   z_minus_label=str(label), z_plus_label=vector_label(z_plus),
                   direction_label="", gap=worst, bound=0.0, budget=0.0,
                   relation="<")
    report.extras["mu_audit"] = mu_audit
    return report


def leaf_invariance(atlas):
    """Forward-flow compatibility: points of the (T, alpha) leaf land on the
    (T - sigma, alpha) leaf, sigma = ``INVARIANCE_SIGMA``, measured through
    that leaf's graph.  The inside points of every leaf with a target are
    flowed together.  A point that flows outside the sampled domain of its
    target leaf gives no row; ``extras["skipped"]`` counts those points."""
    model = atlas.model
    report = Report("invariance")
    skipped = 0
    tol = 10.0 * atlas.interp_tolerance + 1e-9
    # (source, target) leaf pairs; a grid tau + i rounds each horizon on its
    # own, so T - sigma may miss the one below by an ulp: match to 1e-12 relative
    pairs = [(label, target) for label in atlas.leaves
             for (t, ai), target in atlas.leaves.items()
             if ai == label[1]
             and math.isclose(t, label[0] - INVARIANCE_SIGMA, rel_tol=1e-12)]
    if pairs:
        inside = [atlas.leaves[label].inside_points() for label, _ in pairs]
        starts = np.concatenate([points for _, points in inside])
        terminal = solve_ivp(model.problem, model.to_ambient(starts),
                             float(INVARIANCE_SIGMA), AUDIT_RTOL, AUDIT_ATOL,
                             stop_below_level=-math.inf).terminal
        ends = np.split(model.to_local(terminal),
                        np.cumsum([len(points) for _, points in inside]))
        for (label, target), (plus, _), landed in zip(pairs, inside, ends):
            for z_plus, end in zip(plus, landed):
                try:
                    gap = target.graph.residual(end)
                except OutsideSampledDomain:
                    skipped += 1  # flowed outside the sampled target domain
                    continue
                report.add(check="invariance", T=float(label[0]),
                           z_minus_label=str(label), z_plus_label=vector_label(z_plus),
                           direction_label=f"sigma={INVARIANCE_SIGMA:g}",
                           gap=gap, bound=tol, budget=0.0)
    report.extras["skipped"] = skipped
    return report


def contraction_to_center(atlas):
    """One-sided distance of each leaf to the ascending disk against
    exp(-T lambda / 8), the disk probed on its grid refined eightfold."""
    ladder = atlas.ladder
    report = Report("center_distance")
    probes = tensor_points(_refined_axes(atlas.center.graph.axes, 8))
    # coordinate-major: one contiguous row of probes per coordinate
    center_cols = np.ascontiguousarray(atlas.center.graph.local_points(probes).T)
    budget = RESIDUAL_TO_ERROR * float(np.max(
        [np.max(lf.graph.residuals) for lf in atlas.leaves.values()]
        + [np.max(atlas.center.graph.residuals)])) + atlas.interp_tolerance
    for label, leaf in atlas.leaves.items():
        _, pts = leaf.inside_points()
        sup = 0.0
        # nearest probe of each inside point, a chunk of points at a time
        chunk = max(1, NEAREST_CHUNK_BYTES // (8 * center_cols.size))
        for start in range(0, len(pts), chunk):
            gaps = center_cols[:, None, :] - pts[start:start + chunk].T[:, :, None]
            gaps = row_norms(np.moveaxis(gaps, 0, -1))
            sup = max(sup, float(np.max(np.min(gaps, axis=1))))
        bound = math.exp(-leaf.graph.T * ladder.lambda_ / 8.0)
        report.add(check="center_distance", T=leaf.graph.T, z_minus_label=str(label),
                   z_plus_label="", direction_label="", gap=sup, bound=bound,
                   budget=budget)
    return report
