"""The contraction operator on weighted curve spaces and its graph maps.

One integral operator, ``IntegralOperator``, serves every problem: a curve
maps to a boundary term plus the exponential convolutions of the
nonlinearity along it, minus coordinates integrated backward from the end
of the grid and plus coordinates forward from its start.  Only the Cauchy
problem in forward time is used.  Three constructors build the boundary
term of each problem:

* ``PhiOperator`` on backward curves: its fixed point is the flow line
  emanating from the critical point with prescribed unstable projection;
  reading off the plus part at time zero yields the unstable graph map.
* ``PsiOperator`` on forward curves: fixed points are the flow lines
  converging to the critical point with prescribed stable projection; they
  yield the stable graph map.
* ``PsiTOperator`` on finite horizons: fixed points solve the mixed boundary
  problem (plus part prescribed at time zero, minus part at time T); they
  yield the time-T graph family converging to the stable graph.

Each operator owns the exp norm of its curves (``IntegralOperator.norm``):
the sup over the nodes of the Euclidean norm weighted by e^{-lambda t} on a
backward horizon and by e^{+lambda t} on a forward one.  It bounds the rho
ball and measures every Picard residual.

Picard iteration converges with factor at most 1/2 whenever the rate ladder
invariants hold.  One operator holds a stack of columns, independent fixed
points that share grid, convolver and reference orbit (every node of a
sampled graph, the z+ that a check asks for at one (T, z-), or the
directions of a linearized derivative), and one loop iterates them together
on ``(B, size, n)`` blocks.  The operator's ``advance`` is a pure map of a
block and ``ball_failures`` reports its columns outside the trust or rho
ball; the loop alone decides each column's fate.  A column is frozen when
it converges or fails; it rounds as it does alone, so its residual,
iteration count and exception are those of a solve of that column by
itself.  ``solve_columns`` is the loop's one entry, and ``fixed_point`` its
one-column case.  The loop stops at ``PICARD_TOL`` and counts its work per
ladder and operator kind, the linearized equation of the C1 check included,
in the model's ``SolverCounts``.  An operator's grid follows from its kind
and horizon, and the model builds each grid and its convolver once.

Solving on a tensor grid of base points gives a ``GraphSample``.  Every
other module reaches the local-frame geometry of a sampled graph through it:
the points over given base points, the residual of a point against the
graph, and the level crossings of the objective along rays of its domain.
``level_sphere`` finds both the descending sphere (``descending_disk``) and
the clip boundary of every leaf of the foliation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import Curve, row_norms
from .errors import (
    EndpointViolation,
    LevelNotReached,
    NoConvergence,
    NormBudgetExceeded,
    OutOfTrustRegion,
    OutsideSampledDomain,
)

#: operator kinds; the exp norm weighs a curve by e^{-lambda t} on a
#: backward horizon and by e^{+lambda t} on the forward ones
FORWARD_FINITE = "forward_finite"      # [0, T]
FORWARD_INFINITE = "forward_infinite"  # [0, T_max] truncation
BACKWARD = "backward"                  # [-T_max, 0] truncation
LINEARIZED = "linearized"              # along a forward fixed point (C1 check)
#: Picard tolerance of every solve, in the exp norm; the manifest records
#: it as ``tol``
PICARD_TOL = 1e-10
#: a fixed point with residual r lies within 2 r of the exact one: the
#: factor 1 / (1 - theta) at the contraction factor theta <= 1/2
RESIDUAL_TO_ERROR = 2.0
PICARD_MAX_ITER = 200
NORM_SLACK = 1e-9
STALL_FACTOR = 0.9
STALL_STEPS = 10
#: a block of Picard columns holds at most this many curve values (columns
#: x nodes x coordinates): 30,000 doubles, 240 kB per temporary array
BLOCK_VALUES = 30_000
#: cap on the halvings of a ray in ``level_crossings``
LEVEL_BISECT_STEPS = 200
#: rays of the first coordinate plane in ``sphere_rays``, and seeded random
#: rays per further dimension
SPHERE_RESOLUTION = 8


def default_horizon(ladder):
    """Truncation horizon for the infinite-time curve spaces."""
    return max(3.0 * ladder.T0, 40.0 / ladder.lambda_)


def truncation_tail(ladder, t_max):
    """Analytic bound on the discarded integral tail beyond ``t_max``."""
    lam, mu = ladder.lambda_, ladder.mu
    return ladder.kappa_rho * ladder.rho * np.exp(-t_max * lam) / (lam + mu)


@dataclass
class FixedPointResult:
    """A converged fixed point: its curve, residual, iteration count and
    tail bound, and its graph value, the projection at time 0 that its
    graph map reads (see ``IntegralOperator.graph_value``)."""

    curve: Curve
    residual: float
    iterations: int
    tail: float
    graph_value: np.ndarray
    #: for a backward orbit: its reference curves on finite forward grids,
    #: keyed by the grid (``LocalModel.grid`` builds one per horizon)
    references: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def reported_residual(self):
        return self.residual + self.tail

    def reference(self, grid):
        """``reference_curve`` of this orbit on ``grid``, built once per grid."""
        if grid not in self.references:
            self.references[grid] = reference_curve(self.curve, grid)
        return self.references[grid]


def _add_integrals(out, conv, k, y):
    """Add the Lyapunov-Perron integrals of ``y`` to ``out`` in place.

    ``out`` and ``y`` are one curve ``(size, n)`` or a stack ``(B, size,
    n)``.  Minus coordinates (``j < k``) subtract the backward convolution,
    which vanishes at the end of the grid; plus coordinates add the forward
    one, which vanishes at its start.

    A coordinate whose ``y`` is exactly zero on every node of every curve
    is not convolved: h vanishes so on a flat invariant manifold, and on a
    coordinate that q's gradient table never reaches.  Its convolution
    would be +0.0 at every node, so a minus coordinate keeps ``out`` as it
    is and a plus coordinate adds +0.0, which turns a -0.0 of ``out`` into
    +0.0 as the convolution does; either way ``out`` comes out bit for bit
    as convolved.  A NaN is not zero: its column is convolved.
    """
    for j in range(out.shape[-1]):
        column = y[..., j]
        zero = not column.any()
        if j < k:
            if not zero:
                out[..., j] -= conv.backward(j, column)
        else:
            out[..., j] += 0.0 if zero else conv.forward(j, column)
    return out


def _boundary_term(model, grid, count, z_minus, z_plus):
    """The free linear solutions on ``grid`` of ``count`` columns, shape
    (count, size, n): the minus part equals ``z_minus`` at the end of the
    grid, the plus part ``z_plus`` at time 0.  Each of the two is one row
    per column, (count, d), one vector (d,) that every column shares, or
    None for a zero part."""
    k, eigs = model.k, model.eigenvalues
    out = np.zeros((count, grid.size, model.n))
    if z_minus is not None:
        for j in range(k):
            # exp(-(t - t1) lam_j) with t <= t1, lam_j < 0: at most one
            out[:, :, j] = grid.exp_profile(eigs[j], grid.t1) * z_minus[..., j, None]
    if z_plus is not None:
        for j in range(k, model.n):
            out[:, :, j] += grid.exp_profile(eigs[j]) * z_plus[..., j - k, None]
    return out


class IntegralOperator:
    """Boundary term plus the exponential convolutions of h along a curve.

    One operator holds a stack of columns that share grid, convolver and
    reference.  ``z_minus`` and ``z_plus`` each give one row per column,
    (B, d), or one vector (d,) that every column shares; with no rows at
    all the operator has one column.  The minus part is prescribed at the
    end of the grid, the plus part at time 0.  The boundary terms are
    built per block of columns, when the block is solved.  ``reference``
    (time-T problems only) centers the rho ball and the initial curve;
    without it both are centered at zero.  ``tail`` bounds the integral
    discarded by truncating an infinite horizon, and is 0 on a finite one.
    """

    def __init__(self, model, ladder, grid, kind, z_minus=None, z_plus=None,
                 reference=None):
        self.model = model
        self.ladder = ladder
        self.grid = grid
        self.conv = model.convolver(grid)
        self.k = model.k
        self.n = model.n
        self.kind = kind
        self.tail = (0.0 if kind == FORWARD_FINITE
                     else truncation_tail(ladder, grid.t1 - grid.t0))
        self.reference = reference
        self.z_minus = None if z_minus is None else np.asarray(z_minus, dtype=float)
        self.z_plus = None if z_plus is None else np.asarray(z_plus, dtype=float)
        self.columns = max([len(z) for z in (self.z_minus, self.z_plus)
                            if z is not None and z.ndim == 2], default=1)
        #: the radii of the trust and the rho ball (see ``ball_failures``)
        self.trust_radius = model.problem.trust_radius
        self.rho = ladder.rho
        #: the exp-norm weight of every curve of this operator
        self.weights = grid.exp_profile(ladder.lambda_ if kind == BACKWARD
                                        else -ladder.lambda_)

    def norm(self, values):
        """The exp norm of curve values, one curve (size, n) or a stack
        (B, size, n): the weighted sup over the nodes of ``row_norms``."""
        return (self.weights * row_norms(values)).max(axis=-1)

    def boundary(self, cols):
        """Boundary terms of the columns ``cols`` (a slice), (B, size, n)."""
        def pick(z):
            return z[cols] if z is not None and z.ndim == 2 else z
        count = len(range(*cols.indices(self.columns)))
        return _boundary_term(self.model, self.grid, count, pick(self.z_minus),
                              pick(self.z_plus))

    def start(self, boundary):
        """Initial curves for the boundary terms ``boundary``."""
        if self.reference is None:
            return boundary
        # the reference with the plus columns of the boundary added
        start = boundary.copy()
        start[..., : self.k] = 0.0
        return self.reference.values + start

    def curve(self, values):
        return Curve(self.grid, values)

    def graph_value(self, values):
        """The graph value of a fixed point with curve values ``values``:
        the plus part at time 0, the last node, on a backward grid; else the
        minus part at time 0, the first node."""
        if self.kind == BACKWARD:
            return values[-1, self.k:]
        return values[0, : self.k]

    def apply(self, curve):
        """The image of one curve under a one-column operator; raises
        OutOfTrustRegion or NormBudgetExceeded as ``ball_failures`` reports."""
        values = curve.values[None]
        images = self.advance(values, self.boundary(slice(0, 1)))
        failures = self.ball_failures(values, images)
        if failures:
            raise failures[0]
        return self.curve(images[0])

    def advance(self, values, boundary):
        """The image of every curve of ``values`` (B, size, n): its boundary
        term plus the Lyapunov-Perron integrals of the map along it."""
        return _add_integrals(boundary.copy(), self.conv, self.k, self._map(values))

    def _map(self, values):
        """h on the stacked rows of the curves ``values``."""
        return self.model.h(values.reshape(-1, self.n)).reshape(values.shape)

    def ball_failures(self, values, images):
        """The columns of a block that fail, keyed by block index:
        OutOfTrustRegion for a curve of ``values`` outside the trust ball,
        where h is controlled, and otherwise NormBudgetExceeded for its
        image outside the rho ball; a NaN norm lies outside either."""
        worst = row_norms(values).max(axis=-1).tolist()
        offset = images if self.reference is None else images - self.reference.values
        failures = {}
        for i, (w, g) in enumerate(zip(worst, self.norm(offset).tolist())):
            if not w <= self.trust_radius * (1 + NORM_SLACK):
                failures[i] = OutOfTrustRegion(
                    f"curve reaches |xi| = {w:.3e} beyond the trust radius")
            elif not g <= self.rho * (1 + NORM_SLACK):
                failures[i] = NormBudgetExceeded(
                    f"curve left the rho ball: {g:.3e} > {self.rho:.3e}")
        return failures


def PhiOperator(model, ladder, z_minus, t_max):
    """Operator on [-t_max, 0] with prescribed unstable projection(s)."""
    return IntegralOperator(model, ladder, model.grid(-float(t_max), 0.0), BACKWARD,
                            z_minus=z_minus)


def PsiOperator(model, ladder, z_plus, t_max):
    """Operator on [0, t_max] with prescribed stable projection(s)."""
    return IntegralOperator(model, ladder, model.grid(0.0, t_max), FORWARD_INFINITE,
                            z_plus=z_plus)


def PsiTOperator(model, ladder, z_minus, z_plus, reference):
    """Mixed-boundary operator on the grid [0, T] of ``reference``, for one
    ``z_minus`` and one or more ``z_plus`` rows.

    Boundary exactness is structural: the forward convolution vanishes at
    t = 0 and the backward one at t = T, so the plus part of any image curve
    equals ``z_plus`` at 0 and the minus part equals ``z_minus`` at T to
    rounding error.  ``mixed_columns`` checks that each z+ lies in the
    graph domain when its turn comes.
    """
    return IntegralOperator(model, ladder, reference.grid, FORWARD_FINITE,
                            z_minus=z_minus, z_plus=z_plus, reference=reference)


def _picard(operator, cols):
    """Picard iteration in the operator's exp norm of the columns ``cols``
    together, from the operator's initial curves, down to ``PICARD_TOL``.

    Returns one outcome per column: its FixedPointResult, or the exception
    that ended it, and records the batch in the model's ``SolverCounts``.
    This loop alone decides each column's fate: per iteration it sorts the
    live columns into failed (``ball_failures``; the image is discarded),
    converged, stalled or going, and drops the finished ones at once.  A
    column rounds as it does alone, so its residual, iteration count and
    exception are those it has when solved alone.  It fails with
    :class:`NoConvergence` when its residual stalls (fails to shrink by the
    factor 0.9 for 10 consecutive steps) or the iteration budget runs out;
    either signals a ladder violation or an over-coarse grid.
    """
    boundary = operator.boundary(cols)
    current = operator.start(boundary)
    outcomes = [None] * len(boundary)
    # per live column: its index in the block, stall count, last residual
    live = list(range(len(boundary)))
    stall = [0] * len(live)
    prev_res = [math.inf] * len(live)
    iterations, worst_ratio = [], None
    for it in range(1, PICARD_MAX_ITER + 1):
        nxt = operator.advance(current, boundary)
        failures = operator.ball_failures(current, nxt)
        res = operator.norm(nxt - current).tolist()
        going = []
        for i, r in enumerate(res):
            if i in failures:
                outcomes[live[i]] = failures[i]
                continue
            if it > 1:
                ratio = r / prev_res[i]
                if worst_ratio is None or ratio > worst_ratio:
                    worst_ratio = ratio
            if r <= PICARD_TOL:
                values = nxt[i].copy()
                outcomes[live[i]] = FixedPointResult(
                    operator.curve(values), r, it, operator.tail,
                    operator.graph_value(values))
                iterations.append(it)
                continue
            stall[i] = stall[i] + 1 if r > STALL_FACTOR * prev_res[i] else 0
            if stall[i] >= STALL_STEPS:
                outcomes[live[i]] = NoConvergence(
                    f"residual stalled at {r:.3e} after {it} iterations")
                continue
            going.append(i)
        if len(going) < len(res):
            live, stall, res = ([v[i] for i in going] for v in (live, stall, res))
            if not live:
                break
            nxt, boundary = nxt[going], boundary[going]
        prev_res, current = res, nxt
    for i, r in zip(live, prev_res):
        outcomes[i] = NoConvergence(f"no convergence in {PICARD_MAX_ITER} iterations "
                                    f"(residual {r:.3e})")
    operator.model.counts.record(operator.ladder, operator.kind, iterations,
                                 worst_ratio)
    return outcomes


def fixed_point(operator):
    """The FixedPointResult of a one-column operator, or the exception that
    ended it raised: the one-column case of ``solve_columns``."""
    (result,) = solve_columns(operator)
    return result


def solve_columns(operator):
    """FixedPointResult of every column of ``operator``, in column order.

    Columns are solved in blocks of at most ``BLOCK_VALUES`` curve values,
    so a block's arrays stay small whatever the grid.  The first failing
    column raises its exception when its turn comes, after every column
    before it has been yielded, as solving them one at a time would.
    """
    per_block = max(1, BLOCK_VALUES // (operator.grid.size * operator.n))
    for start in range(0, operator.columns, per_block):
        for outcome in _picard(operator, slice(start, start + per_block)):
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome


# -- orbit and graph solvers --------------------------------------------------

def backward_orbit(model, ladder, z_minus, t_max):
    """Fixed point of the backward operator on [-t_max, 0]: the orbit
    emanating from the critical point whose minus projection at time zero
    is ``z_minus``."""
    return fixed_point(PhiOperator(model, ladder, z_minus, t_max))


def stable_columns(model, ladder, z_plus_rows):
    """Fixed points of the forward operator, one per row of ``z_plus_rows``,
    in row order (see ``solve_columns``)."""
    return solve_columns(PsiOperator(model, ladder, z_plus_rows,
                                     default_horizon(ladder)))


def reference_curve(orbit_curve, grid):
    """The orbit shifted to end at time T on a finite forward grid."""
    return Curve(grid, orbit_curve.evaluate(grid.nodes - grid.t1))


def mixed_columns(model, ladder, T, z_minus, z_plus_rows, orbit):
    """Fixed points of the mixed-boundary operator for one (T, z-), one per
    row of ``z_plus_rows``: ``(FixedPointResult, endpoint_gap)`` in row
    order (see ``solve_columns``).

    ``orbit`` is the backward-orbit result for ``z_minus``; its horizon must
    cover [-T, 0], and it keeps the reference curve built for this T.  For
    T >= T0, where the endpoint estimate holds, a column whose endpoint
    misses ``z_minus`` by more than varkappa raises EndpointViolation in its
    turn; below T0 no endpoint bound is claimed and the gap is only
    returned.  A z+ outside the graph domain raises NormBudgetExceeded.
    """
    if orbit.curve.grid.t0 > -T + 1e-12:
        raise ValueError("backward orbit horizon does not cover [-T, 0]")
    ref = orbit.reference(model.grid(0.0, T))
    z_plus_rows = np.asarray(z_plus_rows, dtype=float)
    # the rows before the first one outside the graph domain, the ball of
    # radius R = rho/2, are solved; that one raises in its turn
    outside = (row_norms(z_plus_rows) > ladder.R * (1 + NORM_SLACK)).tolist()
    stop = outside.index(True) if True in outside else len(outside)
    op = PsiTOperator(model, ladder, z_minus, z_plus_rows[:stop], ref)
    target = model.embed_minus(z_minus)
    endpoint_claimed = T >= ladder.T0 - 1e-12
    for result in solve_columns(op):
        gap = float(np.linalg.norm(result.curve.values[-1] - target))
        if endpoint_claimed and gap > ladder.varkappa * (1 + NORM_SLACK):
            raise EndpointViolation(
                f"|xi(T) - z_minus| = {gap:.3e} exceeds varkappa = {ladder.varkappa:.3e}")
        yield result, gap
    if stop < len(outside):
        raise NormBudgetExceeded("|z_plus| exceeds the graph domain radius rho/2")


def solve_mixed(model, ladder, T, z_minus, z_plus, orbit):
    """``mixed_columns`` for one z+: returns ``(FixedPointResult, endpoint_gap)``."""
    (out,) = mixed_columns(model, ladder, T, z_minus, [z_plus], orbit)
    return out


# -- sampled graphs -----------------------------------------------------------

@dataclass
class GraphSample:
    """A sampled graph over a tensor grid in one spectral subspace.

    ``axes`` are 1D arrays of subspace coordinates; ``values`` maps the grid
    into the complementary subspace (shape ``grid_shape + (codim,)``).  The
    ``kind`` fixes the subspace of the base grid, ``domain_sign``.  A solved
    graph is built by ``from_fixed_points`` from the fixed points of its
    nodes.  It is the only code that knows how the graph sits in the local
    frame (minus coordinates first): ``local_points`` puts base points and
    graph values together and ``residual`` measures a local point against
    the graph; :func:`level_crossings` bisects a level of the objective
    along rays of the domain of one or more graphs.
    """

    kind: str
    axes: tuple
    values: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    T: float | None = None
    z_minus: np.ndarray | None = None
    endpoint_gaps: np.ndarray | None = None

    @classmethod
    def from_fixed_points(cls, kind, axes, results, **time_T):
        """The graph over the tensor grid ``axes`` from the fixed points
        ``results`` of its nodes, in grid order: their graph values,
        reported residuals and iteration counts.  ``time_T`` passes a time-T
        graph its ``T``, ``z_minus`` and ``endpoint_gaps``."""
        shape = tuple(len(ax) for ax in axes)
        values = np.array([res.graph_value for res in results])
        return cls(kind, tuple(axes),
                   values.reshape(shape + values.shape[1:]),
                   np.reshape([res.reported_residual for res in results], shape),
                   np.reshape([res.iterations for res in results], shape),
                   **time_T)

    @property
    def domain_sign(self):
        """``"minus"`` for the unstable graph ``F_inf``, else ``"plus"``."""
        return "minus" if self.kind == "F_inf" else "plus"

    @property
    def grid_shape(self):
        return tuple(len(ax) for ax in self.axes)

    @property
    def codim(self):
        return self.values.shape[-1]

    def evaluate(self, z):
        """Multilinear interpolation of the graph at subspace point(s) z.

        ``z`` is one point ``(d,)`` or many ``(m, d)``; see
        :func:`multilinear_stencil`.  A point outside the grid, or with a
        NaN coordinate, raises OutsideSampledDomain.
        """
        z = np.asarray(z, dtype=float)
        out = interpolate(multilinear_stencil(self.axes, np.atleast_2d(z)),
                          self.values)
        return out[0] if z.ndim == 1 else out

    def grid_points(self):
        return tensor_points(self.axes)

    def values_flat(self):
        return self.values.reshape(-1, self.codim)

    def local_points(self, base=None):
        """Local-frame point(s) on the graph over base point(s).

        ``base`` is one base point ``(d,)`` or many ``(m, d)``, evaluated by
        interpolation; None gives every grid node, in grid order, with its
        sampled value; see ``place``.
        """
        if base is None:
            base, vals = self.grid_points(), self.values_flat()
        else:
            base = np.asarray(base, dtype=float)
            vals = self.evaluate(base)
        return self.place(base, vals)

    def place(self, base, vals):
        """Local points from base points and graph values: the base fills
        the domain slot and the value the other one."""
        parts = (base, vals) if self.domain_sign == "minus" else (vals, base)
        return np.concatenate(parts, axis=-1)

    def residual(self, point):
        """Distance between the codomain part of one local point and the
        graph value at its domain part.

        Raises :class:`OutsideSampledDomain` when the domain part lies
        outside the sampled grid.
        """
        point = np.asarray(point, dtype=float)
        d = len(self.axes)
        base, value = ((point[:d], point[d:]) if self.domain_sign == "minus"
                       else (point[-d:], point[:-d]))
        return float(np.linalg.norm(value - self.evaluate(base)))

    def boundary_points_local(self):
        """Local points over the grid nodes on the boundary of the domain:
        those first or last along some axis, picked by index, so that no
        spacing of the grid is too fine to tell them apart."""
        index = np.indices(self.grid_shape).reshape(len(self.axes), -1)
        last = np.array(self.grid_shape)[:, None] - 1
        on_bd = ((index == 0) | (index == last)).any(axis=0)
        return self.local_points()[on_bd]

    def interp_tolerance(self):
        """Second-difference estimate of the multilinear interpolation error."""
        worst = 0.0
        for axis in range(len(self.axes)):
            v = np.moveaxis(self.values, axis, 0)
            if v.shape[0] < 3:
                continue
            second = v[2:] - 2.0 * v[1:-1] + v[:-2]
            worst = max(worst, 0.125 * float(np.max(np.abs(second))))
        return worst


def sphere_rays(d):
    """Unit rays ``(m, d)`` of a d-dimensional subspace along which a sphere
    around the origin is bisected (see :func:`level_crossings`): +-1 for
    d = 1; else ``SPHERE_RESOLUTION`` rays of the first coordinate plane
    and, for d > 2, ``SPHERE_RESOLUTION * (d - 2)`` random rays of seed 7
    off it."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    angles = np.linspace(0.0, 2 * np.pi, SPHERE_RESOLUTION, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    if d > 2:
        rng = np.random.default_rng(7)
        extra = rng.standard_normal((SPHERE_RESOLUTION * (d - 2), d))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        dirs = np.concatenate([np.pad(dirs, ((0, 0), (0, d - 2))), extra])
    return dirs


def level_crossings(graphs, f, directions, level, tol):
    """Radii r at which ``f`` on the point of each graph over ``r * u``
    crosses ``level``, ``(len(graphs), m)`` for the rows ``u`` of
    ``directions`` ``(m, d)``, by bisection on [0, r_max]; NaN where the ray
    leaves the sampled domain (radius r_max) before reaching the level, or
    where the level lies behind f(0), where every ray starts.

    The graphs share one tensor grid and domain.  ``f`` falls away from the
    critical point over the minus subspace and rises over the plus one, so
    each bracket keeps its near end on the side of f(0).  All rays of all
    graphs are bisected in lockstep: per halving, one
    :func:`multilinear_stencil` for the open rays, each ray reading the
    values of its own graph (:func:`interpolate`).  A ray stops when
    |f - level| <= ``tol``, when its bracket is below the resolution of the
    radius, or after ``LEVEL_BISECT_STEPS`` halvings, as it would alone.
    """
    first = graphs[0]
    if any(g.domain_sign != first.domain_sign or g.grid_shape != first.grid_shape
           or not all(map(np.array_equal, g.axes, first.axes)) for g in graphs):
        raise ValueError("level_crossings needs graphs on one grid")
    directions = np.asarray(directions, dtype=float)
    sign = -1.0 if first.domain_sign == "minus" else 1.0
    r_max = float(min(ax[-1] for ax in first.axes))
    floor = 1e-16 * max(1.0, r_max)
    stacked = np.stack([g.values for g in graphs])
    owner = np.repeat(np.arange(len(graphs)), len(directions))
    rays = np.tile(directions, (len(graphs), 1))
    m = len(rays)

    def offset(r, rows):
        base = r[:, None] * rays[rows]
        vals = interpolate(multilinear_stencil(first.axes, base), stacked,
                           lead=(owner[rows],))
        return sign * (f(first.place(base, vals)) - level)

    radii = np.full(m, np.nan)
    live = np.flatnonzero(offset(np.zeros(m), slice(None)) < 0)
    if live.size:
        live = live[offset(np.full(live.size, r_max), live) >= 0]
    lo, hi = np.zeros(m), np.full(m, r_max)
    for _ in range(LEVEL_BISECT_STEPS):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        val = offset(mid, live)
        radii[live] = mid
        done = (np.abs(val) <= tol) | (hi[live] - lo[live] < floor)
        below = val < 0
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
        live = live[~done]
    return radii.reshape(len(graphs), -1)


def level_sphere(model, graphs, level, tol):
    """Where the objective on ``graphs``, which share one tensor grid, crosses
    ``level`` along the :func:`sphere_rays` of their domain: per graph, the
    base points ``(m, d)`` of the rays that cross, in ray order, from one
    :func:`level_crossings` bisection to ``tol`` in f.  A ray that misses the
    level within the sampled domain gives no point."""
    dirs = sphere_rays(len(graphs[0].axes))
    radii = level_crossings(graphs, model.f_local, dirs, level, tol)
    return [r[hit, None] * dirs[hit] for r, hit in zip(radii, ~np.isnan(radii))]


def descending_disk(model, ladder, graph_f):
    """The boundary sphere of the descending disk, the part of the unstable
    graph ``graph_f`` above level c - epsilon: its :func:`level_sphere` as
    minus coordinates ``(m, k)``, to 1e-10 in f or 1e-4 epsilon where that
    is smaller (a small trust radius gives a small epsilon); two points for
    Morse index one.  A ray that misses the level raises LevelNotReached."""
    epsilon = ladder.epsilon
    [sphere] = level_sphere(model, [graph_f], model.critical_value - epsilon,
                            min(1e-10, 1e-4 * epsilon))
    if len(sphere) < len(sphere_rays(model.k)):
        raise LevelNotReached(
            f"epsilon = {epsilon:.3e} not reached within the sampled graph")
    return sphere


def multilinear_stencil(axes, points):
    """The corners and weights of multilinear interpolation on the tensor
    grid ``axes`` at ``points`` ``(m, d)``: a list of (corner index, weight
    ``(m, 1)``), which :func:`interpolate` applies to any values on that
    grid.

    Rounds exactly as scipy's linear ``RegularGridInterpolator`` with its
    generic ``_evaluate_linear`` (the path any grid with a codim axis
    takes): per axis the cell ``[ax[j], ax[j+1]]`` holding the point (the
    last cell for the last node) and the distance into it, then the corners
    of the cell in ``itertools.product`` order.  A point outside the grid,
    or with a NaN coordinate, raises OutsideSampledDomain.
    """
    corners = []
    for i, ax in enumerate(axes):
        p = points[:, i]
        if not np.all((ax[0] <= p) & (p <= ax[-1])):
            raise OutsideSampledDomain(
                f"a requested point is out of bounds in dimension {i}")
        j = np.clip(np.searchsorted(ax, p, side="right") - 1, 0, len(ax) - 2)
        y = (p - ax[j]) / (ax[j + 1] - ax[j])
        corners.append(((j, 1 - y), (j + 1, y)))
    stencil = []
    for corner in itertools.product(*corners):
        index, factors = zip(*corner)
        weight = np.array([1.0])
        for w in factors:
            weight = weight * w
        stencil.append((index, weight[:, None]))
    return stencil


def interpolate(stencil, values, lead=()):
    """The multilinear interpolant at the points of ``stencil`` of the values
    ``values[lead + corner]`` at each grid corner: ``(m, codim)`` for one
    graph's values, or, with ``lead`` indexing stacked graphs, the values of
    those graphs.  Every point rounds as it does alone."""
    out = np.array([0.0])
    for index, weight in stencil:
        out = out + values[lead + index] * weight
    return out


def tensor_points(axes):
    """The nodes of the tensor grid ``axes`` as rows, in ``indexing="ij"``
    order (the last axis varies fastest)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def default_axes(radius, dim, count=13):
    """Tensor axes for the cube inscribed in the radius ball."""
    half = radius / np.sqrt(dim)
    return tuple(np.linspace(-half, half, count) for _ in range(dim))


def graph_F_inf(model, ladder):
    """Unstable graph: plus part at time 0 of the backward fixed points."""
    axes = default_axes(ladder.R, model.k)
    op = PhiOperator(model, ladder, tensor_points(axes), default_horizon(ladder))
    return GraphSample.from_fixed_points("F_inf", axes, list(solve_columns(op)))


def graph_G_inf(model, ladder):
    """Stable graph: minus part at time 0 of the forward fixed points."""
    axes = default_axes(ladder.R, model.n - model.k)
    return GraphSample.from_fixed_points(
        "G_inf", axes, list(stable_columns(model, ladder, tensor_points(axes))))


def graph_G_T(solver, T, z_minus, base_axes=None):
    """Time-T graph over the plus ball for one sphere point ``z_minus``, on
    the ladder of ``solver``, its ``GraphFamilySolver``: every node of the
    grid in one ``mixed_rows`` request on the solver's orbit."""
    model, ladder = solver.model, solver.ladder
    axes = base_axes or default_axes(ladder.R, model.n - model.k)
    results, gaps = zip(*solver.mixed_rows(T, z_minus, tensor_points(axes)))
    return GraphSample.from_fixed_points(
        "G_T", axes, results, T=float(T),
        z_minus=np.asarray(z_minus, dtype=float),
        endpoint_gaps=np.reshape(gaps, tuple(len(ax) for ax in axes)))


class _LinearizedOperator(IntegralOperator):
    """The linearized integral equation along the fixed point ``curve``,
    one column per row of ``directions``.

    It differs from the operator only in its map, dh along ``curve``
    applied to the curve in place of h, and in its balls, which are
    unbounded: the map is linear.  The inhomogeneity of a column is
    exp(-tA)v with v its row of ``directions``, in the plus subspace, and
    there is no minus boundary term (the time-T and stable linearizations
    agree in form).  Its kind, ``LINEARIZED``, counts its solves apart and
    weighs its curves as a forward operator does.
    """

    def __init__(self, model, ladder, curve, directions):
        super().__init__(model, ladder, curve.grid, LINEARIZED, z_plus=directions)
        self.dh_nodes = model.dh(curve.values)
        self.trust_radius = self.rho = math.inf

    def _map(self, values):
        """dh along the fixed point on each curve of ``values``: one
        ``"mij,mj->mi"`` product per column, which numpy runs about three
        times faster than one ``"mij,bmj->bmi"`` product of a block of two
        or more columns, to the same bits."""
        return np.stack([np.einsum("mij,mj->mi", self.dh_nodes, v) for v in values])


def graph_derivative_linearized(model, ladder, fp_result, directions):
    """Directional derivatives of a graph map via the linearized equation,
    one per row of ``directions``, from one ``solve_columns`` call.

    ``fp_result`` is the fixed point whose graph value is being
    differentiated (time-T or stable); each derivative is the minus part at
    time zero of its column, i.e. the derivative of the graph map itself.
    """
    op = _LinearizedOperator(model, ladder, fp_result.curve, directions)
    return [result.graph_value for result in solve_columns(op)]
