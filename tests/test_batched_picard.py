"""The batched Picard loop against one solve per node, bit for bit.

The graph samplers solve every node of a tensor grid in one Picard loop over
a stack of columns.  Each column must come out as it does when solved alone:
the same values, residual, iteration count and endpoint gap, and, when a
node fails, the same exception from the first failing node in grid order.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gradleaf import convergence
from gradleaf import lyapunov_perron as lp
from gradleaf.curves import Curve, PanelGrid, row_norms
from gradleaf.errors import (
    EndpointViolation,
    NoConvergence,
    NormBudgetExceeded,
    OutOfTrustRegion,
)
from gradleaf.kernels import ExpConvolver
from gradleaf.local_model import LocalModel, SolverCounts
from references import operator_start


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def loop_fixed_point(op):
    """The per-column Picard loop the batched one replaced: one operator
    application and one exp-norm residual per step, on one column."""
    current, stall, prev_res = operator_start(op), 0, np.inf
    for it in range(1, lp.PICARD_MAX_ITER + 1):
        nxt = op.apply(current)
        res = float(op.norm(nxt.values - current.values))
        if res <= lp.PICARD_TOL:
            return lp.FixedPointResult(nxt, res, it, op.tail,
                                       op.graph_value(nxt.values))
        stall = stall + 1 if res > lp.STALL_FACTOR * prev_res else 0
        if stall >= lp.STALL_STEPS:
            raise NoConvergence(f"residual stalled at {res:.3e} after {it} iterations")
        prev_res, current = res, nxt
    raise NoConvergence(f"no convergence in {lp.PICARD_MAX_ITER} iterations "
                        f"(residual {res:.3e})")


def loop_backward(model, ladder, z):
    return loop_fixed_point(lp.PhiOperator(model, ladder, z,
                                           lp.default_horizon(ladder)))


def loop_stable(model, ladder, z):
    return loop_fixed_point(lp.PsiOperator(model, ladder, z,
                                           lp.default_horizon(ladder)))


def loop_mixed(model, ladder, T, z_minus, z_plus, orbit):
    """One mixed solve with its domain and endpoint checks, as the per-node
    loop made it."""
    if np.linalg.norm(z_plus) > ladder.R * (1 + lp.NORM_SLACK):
        raise NormBudgetExceeded("|z_plus| exceeds the graph domain radius rho/2")
    op = lp.PsiTOperator(model, ladder, z_minus, z_plus,
                         orbit.reference(model.grid(0.0, T)))
    res = loop_fixed_point(op)
    gap = float(np.linalg.norm(res.curve.values[-1] - model.embed_minus(z_minus)))
    if gap > ladder.varkappa * (1 + lp.NORM_SLACK):
        raise EndpointViolation(
            f"|xi(T) - z_minus| = {gap:.3e} exceeds varkappa = {ladder.varkappa:.3e}")
    return res, gap


def per_node(axes, codim, solve):
    """The per-node loop: one ``solve(z) -> (value, result, gap)`` per node
    of the tensor grid, in grid order."""
    shape = tuple(len(ax) for ax in axes)
    values, residuals = np.zeros(shape + (codim,)), np.zeros(shape)
    iters, gaps = np.zeros(shape, dtype=int), np.zeros(shape)
    for idx, z in enumerate(lp.tensor_points(axes)):
        value, res, gap = solve(z)
        multi = np.unravel_index(idx, shape)
        values[multi], residuals[multi] = value, res.reported_residual
        iters[multi], gaps[multi] = res.iterations, gap
    return values, residuals, iters, gaps


def assert_same_sample(sample, reference):
    values, residuals, iters, gaps = reference
    assert _bits(sample.values) == _bits(values)
    assert _bits(sample.residuals) == _bits(residuals)
    assert _bits(sample.iterations) == _bits(iters)
    if sample.endpoint_gaps is not None:
        assert _bits(sample.endpoint_gaps) == _bits(gaps)


@pytest.mark.parametrize("name", ["p2", "p3", "k2"])
def test_infinite_graphs_match_per_node(request, name):
    setup = request.getfixturevalue(name)
    model, ladder = setup.model, setup.ladder_raw
    k = model.k

    def backward(z):
        res = loop_backward(model, ladder, z)
        return res.curve.values[-1, k:], res, 0.0

    def stable(z):
        res = loop_stable(model, ladder, z)
        return res.curve.values[0, :k], res, 0.0

    assert_same_sample(setup.graph_f,
                       per_node(setup.graph_f.axes, model.n - k, backward))
    assert_same_sample(setup.graph_g, per_node(setup.graph_g.axes, k, stable))


@pytest.mark.parametrize("name", ["p2", "p3", "k2"])
def test_time_T_graph_matches_per_node(request, name):
    setup = request.getfixturevalue(name)
    model, ladder = setup.model, setup.ladder
    T = ladder.T0 + 0.5
    zm = setup.sphere_point()
    orbit = setup.orbit(zm, t_need=T)
    sample = lp.graph_G_T(setup.solver(), T, zm)

    def mixed(z):
        res, gap = loop_mixed(model, ladder, T, zm, z, orbit)
        return res.curve.values[0, : model.k], res, gap

    reference = per_node(sample.axes, model.k, mixed)
    assert_same_sample(sample, reference)


def _first_failure(solve, points):
    """The exception the per-node loop raises: the first failing node's."""
    for z in points:
        try:
            solve(z)
        except Exception as exc:  # noqa: BLE001 - any failure is compared
            return exc
    raise AssertionError("no node failed")


def test_endpoint_failure_matches_per_node(p2):
    model = p2.model
    T = p2.ladder.T0
    zm = p2.sphere_point()
    orbit = p2.orbit(zm, t_need=T)
    gaps = lp.graph_G_T(p2.solver(), T, zm).endpoint_gaps
    # some nodes inside the tighter endpoint bound and some outside
    ladder = replace(p2.ladder, varkappa=float(np.median(gaps)))
    points = lp.tensor_points(lp.default_axes(ladder.R, 1))
    expected = _first_failure(
        lambda z: loop_mixed(model, ladder, T, zm, z, orbit), points)
    assert isinstance(expected, EndpointViolation)
    with pytest.raises(EndpointViolation) as info:
        lp.graph_G_T(convergence.GraphFamilySolver(model, ladder), T, zm)
    assert str(info.value) == str(expected)


def test_trust_region_failure_matches_per_node(p3):
    T = p3.ladder.T0
    zm = p3.sphere_point()
    orbit = p3.orbit(zm, t_need=T)
    points = lp.tensor_points(lp.default_axes(p3.ladder.R, 2))
    ref = orbit.reference(p3.model.grid(0.0, T))
    starts = [np.max(row_norms(operator_start(lp.PsiTOperator(
                  p3.model, p3.ladder, zm, z, ref)).values))
              for z in points]
    # a trust ball that some nodes' initial curves leave
    problem = replace(p3.problem, trust_radius=float(np.median(starts)))
    model = LocalModel(problem, p3.split)
    expected = _first_failure(
        lambda z: loop_mixed(model, p3.ladder, T, zm, z, orbit), points)
    assert isinstance(expected, OutOfTrustRegion)
    with pytest.raises(OutOfTrustRegion) as info:
        lp.graph_G_T(convergence.GraphFamilySolver(model, p3.ladder), T, zm)
    assert str(info.value) == str(expected)


@pytest.mark.parametrize("first", [EndpointViolation, NormBudgetExceeded])
def test_domain_failure_raises_in_its_turn(p2, first):
    # a plus axis that leaves the graph domain at one end: the node outside
    # raises NormBudgetExceeded only when its turn comes, so an earlier
    # node's endpoint failure is the one raised, and the other way round
    model = p2.model
    T = p2.ladder.T0
    zm = p2.sphere_point()
    orbit = p2.orbit(zm, t_need=T)
    gaps = lp.graph_G_T(p2.solver(), T, zm).endpoint_gaps
    ladder = replace(p2.ladder, varkappa=float(np.median(gaps)))
    R = ladder.R
    axis = (np.linspace(-R, 1.5 * R, 16) if first is EndpointViolation
            else np.linspace(-1.5 * R, R, 16))
    points = lp.tensor_points((axis,))
    alone = []
    for z in points:
        try:
            alone.append(loop_mixed(model, ladder, T, zm, z, orbit))
        except Exception as exc:  # noqa: BLE001 - compared below
            alone.append(exc)
    failures = [out for out in alone if isinstance(out, Exception)]
    # both kinds of failure lie on the axis; ``first`` comes first
    assert {type(out) for out in failures} == {EndpointViolation,
                                                NormBudgetExceeded}
    assert isinstance(failures[0], first)
    with pytest.raises(first) as info:
        lp.graph_G_T(convergence.GraphFamilySolver(model, ladder), T, zm,
                     (axis,))
    assert str(info.value) == str(failures[0])


class ScriptedOperator:
    """An operator whose columns converge or fail at scripted iterations.

    ``scripts`` maps a column id to ``("converge", k)``, ``("trust", k)``,
    ``("rho", k)`` or ``("stall",)``.  A column's coordinate 0 holds its id;
    coordinate 1 grows by the scripted residual each iteration, in powers of
    two so that the differences the loop measures are exact: 2^-j until the
    column converges (residual 0 at iteration k) and 1 for a stalling one.
    ``advance`` maps every column, a failing one too, and ``ball_failures``
    reports the columns scripted to fail at the step just taken.  The loop
    records its batches in the operator's own model counts.
    """

    kind = lp.FORWARD_FINITE
    tail = 0.0
    n = 2

    def __init__(self, grid, scripts, ids):
        self.grid = grid
        self.scripts = scripts
        self.ids = np.asarray(ids, dtype=float)
        self.columns = len(ids)
        self.model = SimpleNamespace(counts=SolverCounts())
        self.ladder = SimpleNamespace()
        self.steps = {}

    def boundary(self, cols):
        ids = self.ids[cols]
        out = np.zeros((len(ids), self.grid.size, self.n))
        out[:, :, 0] = ids[:, None]
        return out

    def start(self, boundary):
        return boundary

    def curve(self, values):
        return Curve(self.grid, values)

    def norm(self, values):
        # rate 0: the exp-norm weight is one
        return row_norms(values).max(axis=-1)

    def graph_value(self, values):
        # the id coordinate at time 0, as a forward operator with k = 1 reads
        return values[0, :1]

    apply = lp.IntegralOperator.apply

    def advance(self, values, boundary):
        # the image of every column, failing or not, counted as its step
        images = values.copy()
        for image in images:
            col = int(image[0, 0])
            step = self.steps[col] = self.steps.get(col, 0) + 1
            kind, *at = self.scripts[col]
            image[:, 1] += (1.0 if kind == "stall"
                            else 0.0 if kind == "converge" and step == at[0]
                            else 2.0 ** -step)
        return images

    def ball_failures(self, values, images):
        failures = {}
        for i, curve in enumerate(values):
            col = int(curve[0, 0])
            kind, *at = self.scripts[col]
            if kind == "trust" and self.steps[col] == at[0]:
                failures[i] = OutOfTrustRegion(f"column {col} left the trust ball")
            elif kind == "rho" and self.steps[col] == at[0]:
                failures[i] = NormBudgetExceeded(f"column {col} left the rho ball")
        return failures


SCRIPTS = [
    # column 2 fails at iteration 2; column 3 fails earlier, at iteration 1
    [("converge", 3), ("converge", 2), ("trust", 2), ("rho", 1), ("stall",)],
    # a stall (iteration 11) ahead of a rho failure at iteration 1
    [("converge", 2), ("stall",), ("rho", 1), ("converge", 1)],
    [("converge", 4), ("rho", 3), ("trust", 1), ("converge", 5)],
]


@pytest.mark.parametrize("scripts", SCRIPTS)
@pytest.mark.parametrize("one_per_block", [False, True])
def test_first_failing_column_raises_its_own_exception(monkeypatch, scripts,
                                                       one_per_block):
    grid = PanelGrid(0.0, 1.5, 2.0)
    if one_per_block:
        monkeypatch.setattr(lp, "BLOCK_VALUES", grid.size * ScriptedOperator.n)
    table = dict(enumerate(scripts))
    alone = []
    for col in table:
        try:
            alone.append(loop_fixed_point(ScriptedOperator(grid, table, [col])))
        except Exception as exc:  # noqa: BLE001 - compared below
            alone.append(exc)
    # the one-column case of the batched loop agrees with the per-column loop
    for col in table:
        try:
            one = lp.fixed_point(ScriptedOperator(grid, table, [col]))
        except Exception as exc:  # noqa: BLE001 - compared below
            one = exc
        assert type(one) is type(alone[col]) and str(one) == str(alone[col])
    first = next(i for i, out in enumerate(alone) if isinstance(out, Exception))
    batched = lp.solve_columns(ScriptedOperator(grid, table, list(table)))
    for col in range(first):
        res = next(batched)
        assert (res.residual, res.iterations) == (alone[col].residual,
                                                  alone[col].iterations)
        assert _bits(res.curve.values) == _bits(alone[col].curve.values)
    with pytest.raises(type(alone[first])) as info:
        next(batched)
    assert str(info.value) == str(alone[first])


@pytest.mark.parametrize("columns", [1, 2, 15, 16, 40])
def test_convolver_stack_matches_single_columns(columns):
    grid = PanelGrid(0.0, 12.5, 2.0)
    rates = np.array([-3.0, -0.4, 0.0, 0.7, 2.0])
    conv = ExpConvolver(grid, rates)
    samples = np.random.default_rng(columns).standard_normal(
        (columns, grid.size, rates.size))
    for r, lam in enumerate(rates):
        stack = samples[:, :, r]
        for method, ok in ((conv.forward, lam >= 0.0), (conv.backward, lam <= 0.0)):
            if not ok:
                continue
            out = method(r, stack)
            assert out.shape == stack.shape
            assert _bits(out) == _bits(np.stack([method(r, y) for y in stack]))
            # a strided column of a (B, size, n) block, as _add_integrals
            # passes it, convolves as its contiguous copy does
            assert _bits(out) == _bits(method(r, np.ascontiguousarray(stack)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_norms_match_numpy(n):
    rng = np.random.default_rng(n)
    for shape in ((7, n), (3, 5, n), (n,)):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        assert _bits(row_norms(values)) == _bits(np.linalg.norm(values, axis=-1))


def counting_convolutions(monkeypatch):
    """Wrap ``ExpConvolver.forward`` and ``backward`` so that each call
    appends ``(direction, rate index)`` to the returned list."""
    calls = []
    for name in ("forward", "backward"):
        method = getattr(ExpConvolver, name)

        def counted(self, rate_index, y, method=method, name=name):
            calls.append((name, rate_index))
            return method(self, rate_index, y)
        monkeypatch.setattr(ExpConvolver, name, counted)
    return calls


def zero_column_block():
    """A convolver with two minus and two plus rates and a (3, size, 4)
    block: ``y`` with ±0.0 entries only in columns 0 (minus) and 3 (plus),
    and a boundary with ±0.0 entries in those columns."""
    grid = PanelGrid(0.0, 12.5, 2.0)
    conv = ExpConvolver(grid, [-3.0, -0.4, 0.7, 2.0])
    rng = np.random.default_rng(7)
    y = rng.standard_normal((3, grid.size, 4))
    boundary = rng.standard_normal((3, grid.size, 4))
    signs = np.where(rng.random((3, grid.size, 2)) < 0.5, -0.0, 0.0)
    y[..., [0, 3]] = signs
    boundary[:, ::5][..., [0, 3]] = signs[:, ::5]
    return conv, 2, y, boundary


def convolve_every_column(conv, k, y, boundary):
    out = boundary.copy()
    for j in range(out.shape[-1]):
        if j < k:
            out[..., j] -= conv.backward(j, y[..., j])
        else:
            out[..., j] += conv.forward(j, y[..., j])
    return out


def test_zero_columns_are_not_convolved(monkeypatch):
    conv, k, y, boundary = zero_column_block()
    expected = convolve_every_column(conv, k, y, boundary)
    assert np.signbit(boundary[..., [0, 3]]).any()
    calls = counting_convolutions(monkeypatch)
    got = lp._add_integrals(boundary.copy(), conv, k, y)
    assert _bits(got) == _bits(expected)
    assert calls == [("backward", 1), ("forward", 2)]


def test_nan_column_is_convolved(monkeypatch):
    conv, k, y, boundary = zero_column_block()
    y[1, 17, 0] = y[2, 40, 3] = np.nan
    expected = convolve_every_column(conv, k, y, boundary)
    calls = counting_convolutions(monkeypatch)
    got = lp._add_integrals(boundary.copy(), conv, k, y)
    assert _bits(got) == _bits(expected)
    assert np.isnan(got[1, :, 0]).any() and np.isnan(got[2, :, 3]).any()
    assert calls == [("backward", 0), ("backward", 1), ("forward", 2), ("forward", 3)]


def test_flat_stable_graph_convolves_nothing(p3, monkeypatch):
    # h vanishes on p3's stable graph, which is flat, so its solve is the
    # boundary term alone; the unstable graph is curved and convolves
    model = LocalModel(p3.problem, p3.split)
    calls = counting_convolutions(monkeypatch)
    sample = lp.graph_G_inf(model, p3.ladder_raw)
    assert calls == []
    assert _bits(sample.values) == _bits(p3.graph_g.values)
    assert not sample.values.any()
    lp.graph_F_inf(model, p3.ladder_raw)
    assert calls
