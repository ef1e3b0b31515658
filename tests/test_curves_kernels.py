import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gradleaf.curves import (
    BACKWARD,
    FORWARD_FINITE,
    Curve,
    PanelGrid,
    _lobatto_reference,
    barycentric_matrix,
    barycentric_weights,
)
from gradleaf.kernels import GAUSS_NODES, GAUSS_WEIGHTS, ExpConvolver
from references import derivative_values, panel_slice


@pytest.fixture(scope="module")
def grid():
    return PanelGrid(0.0, 6.0, max_rate=2.0)


def test_grid_structure(grid):
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 6.0
    assert np.all(np.diff(grid.nodes) > 0)
    assert grid.size == grid.n_panels * grid.p + 1


def test_interpolation_exact_at_nodes(grid):
    vals = np.sin(grid.nodes)[:, None]
    assert grid.interpolate(vals, grid.nodes[17]) == pytest.approx(
        vals[17], abs=1e-14)


def test_interpolation_spectral_accuracy(grid):
    vals = (np.exp(-1.3 * grid.nodes) * np.sin(2.0 * grid.nodes))[:, None]
    ts = np.linspace(0.1, 5.9, 40)
    ref = np.exp(-1.3 * ts) * np.sin(2.0 * ts)
    assert np.max(np.abs(grid.interpolate(vals, ts)[:, 0] - ref)) < 1e-12


def _interpolate_per_point(grid, values, times):
    """Reference: one barycentric row per time, applied to its own panel."""
    rows = []
    for t in times:
        ip = int(np.searchsorted(grid.edges, t, side="right")) - 1
        ip = min(max(ip, 0), grid.n_panels - 1)
        nodes = grid.panel_nodes[ip]
        ref_t = np.array([(t - nodes[0]) / (nodes[-1] - nodes[0])])
        M = barycentric_matrix(grid.ref_nodes, grid.ref_weights, ref_t)
        rows.append((M @ values[panel_slice(grid, ip)])[0])
    return np.array(rows)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("t0, t1, rate", [(0.0, 6.0, 2.0), (-40.0, 0.0, 3.0),
                                          (0.0, 11.3, 0.7)])
def test_interpolation_matches_per_point_reference(t0, t1, rate):
    grid = PanelGrid(t0, t1, max_rate=rate)
    rng = np.random.default_rng(17)
    times = np.concatenate([
        rng.uniform(t0, t1, 200), grid.nodes, grid.edges,
        [t0, t1, t0 - 1e-13, t1 + 1e-13]])
    for values in (rng.standard_normal((grid.size, 1)),
                   rng.standard_normal((grid.size, 3))):
        ref = _interpolate_per_point(grid, values, times)
        assert _same_bits(grid.interpolate(values, times), ref)
        for i in (0, 7, times.size - 1):
            assert _same_bits(grid.interpolate(values, times[i]), ref[i])
            assert _same_bits(grid.interpolate(values, times[i:i + 1]), ref[i:i + 1])
        square = times[:200].reshape(20, 10)
        assert _same_bits(grid.interpolate(values, square),
                          ref[:200].reshape((20, 10) + values.shape[1:]))


def test_interpolation_names_first_time_outside_horizon(grid):
    bad = grid.t1 + 1e-11
    times = np.array([grid.t0, 0.5 * grid.t1, bad, grid.t0 - 1.0])
    with pytest.raises(ValueError, match=re.escape(f"time {bad} outside")):
        grid.interpolate(np.zeros((grid.size, 1)), times)
    with pytest.raises(ValueError):
        grid.interpolate(np.zeros((grid.size, 2)), grid.t0 - 1e-11)


def test_convolutions_against_quadrature(grid):
    rates = np.array([-1.3, 2.3])
    conv = ExpConvolver(grid, rates)

    def y(s):
        return np.sin(1.7 * s) + 0.3 * s * np.exp(-0.2 * s)

    samples = y(grid.nodes)
    F = conv.forward(1, samples)
    B = conv.backward(0, samples)
    for idx in (0, 5, grid.size // 2, grid.size - 1):
        t = grid.nodes[idx]
        ref_f = quad(lambda s: np.exp(-(t - s) * 2.3) * y(s), 0, t,
                     limit=300, epsabs=1e-14)[0]
        ref_b = quad(lambda s: np.exp(-(s - t) * 1.3) * y(s), t, 6.0,
                     limit=300, epsabs=1e-14)[0]
        assert F[idx] == pytest.approx(ref_f, abs=5e-14)
        assert B[idx] == pytest.approx(ref_b, abs=5e-14)
    # structural endpoint zeros make boundary conditions exact
    assert F[0] == 0.0
    assert B[-1] == 0.0


def test_convolver_rejects_wrong_sign(grid):
    conv = ExpConvolver(grid, np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        conv.forward(0, np.zeros(grid.size))
    with pytest.raises(ValueError):
        conv.backward(1, np.zeros(grid.size))


def test_convolver_rejects_wrong_length(grid):
    conv = ExpConvolver(grid, np.array([-1.0, 2.0]))
    for y in (np.zeros(grid.size - 1), np.zeros((2, grid.size + 1))):
        with pytest.raises(ValueError, match="samples per column"):
            conv.forward(1, y)
        with pytest.raises(ValueError, match="samples per column"):
            conv.backward(0, y)


def _forward_per_panel(conv, r, y):
    """Reference: the per-panel loop, one local product per panel."""
    grid, local, carry = conv.grid, conv._fwd_local[r], conv._fwd_carry[r]
    out, acc = np.empty(grid.size), 0.0
    for ip in range(grid.n_panels):
        sl = panel_slice(grid, ip)
        vals = carry * acc + local @ y[sl]
        out[sl] = vals
        acc = vals[-1]
    return out


def _backward_per_panel(conv, r, y):
    grid, local, carry = conv.grid, conv._bwd_local[r], conv._bwd_carry[r]
    out, acc = np.empty(grid.size), 0.0
    for ip in reversed(range(grid.n_panels)):
        sl = panel_slice(grid, ip)
        vals = carry * acc + local @ y[sl]
        out[sl] = vals
        acc = vals[0]
    return out


@pytest.mark.parametrize("n_panels", [3, 25, 80, 160])
def test_stacked_convolution_matches_per_panel_loop(n_panels):
    # the stacked products sum in another order than the loop's recursion,
    # so they agree to rounding, a few ulps of the O(1) values here
    grid = PanelGrid(0.0, 0.5 * n_panels, max_rate=1.0)
    assert grid.n_panels == n_panels
    rates = np.array([-4.0, -1.3, -0.2, 0.0, 0.6, 2.3, 4.0])
    conv = ExpConvolver(grid, rates)
    rng = np.random.default_rng(n_panels)
    samples = rng.standard_normal((grid.size, rates.size))
    for r, lam in enumerate(rates):
        # a column of a 2-D array, as the operators pass it
        y = samples[:, r]
        if lam >= 0.0:
            got = conv.forward(r, y)
            assert np.max(np.abs(got - _forward_per_panel(conv, r, y))) <= 4e-15
            assert got[0] == 0.0
        else:
            with pytest.raises(ValueError, match="non-negative"):
                conv.forward(r, y)
        if lam <= 0.0:
            got = conv.backward(r, y)
            assert np.max(np.abs(got - _backward_per_panel(conv, r, y))) <= 4e-15
            assert got[-1] == 0.0
        else:
            with pytest.raises(ValueError, match="non-positive"):
                conv.backward(r, y)


def exp_norm(curve):
    """The weighted sup norm of a curve: its exp distance to zero."""
    return curve.exp_distance(curve.with_values(np.zeros_like(curve.values)))


def test_exp_norm_forward():
    grid = PanelGrid(0.0, 4.0, max_rate=1.0)
    lam = 0.5
    vals = np.exp(-lam * grid.nodes)[:, None] * np.array([[1.0, 0.0]])
    curve = Curve(grid, vals, lam, FORWARD_FINITE)
    # weight exp(lam t) exactly cancels the decay
    assert exp_norm(curve) == pytest.approx(1.0, rel=1e-12)


def test_exp_norm_backward():
    grid = PanelGrid(-5.0, 0.0, max_rate=1.0)
    lam = 0.5
    vals = np.exp(lam * grid.nodes)[:, None] * np.array([[0.0, 2.0]])
    curve = Curve(grid, vals, lam, BACKWARD)
    assert exp_norm(curve) == pytest.approx(2.0, rel=1e-12)


def test_derivative_values():
    # the reference differentiation that test_fixed_point_solves_ode uses
    grid = PanelGrid(0.0, 3.0, max_rate=2.0)
    vals = np.stack([np.sin(grid.nodes), np.cos(2 * grid.nodes)], axis=1)
    dv = derivative_values(Curve(grid, vals, 0.5, FORWARD_FINITE))
    ref = np.stack([np.cos(grid.nodes), -2 * np.sin(2 * grid.nodes)], axis=1)
    assert np.max(np.abs(dv - ref)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 4.0), st.floats(0.5, 5.0), st.integers(0, 2**31 - 1))
def test_exp_norm_triangle_and_scaling(T, rate, seed):
    grid = PanelGrid(0.0, T, max_rate=rate)
    rng = np.random.default_rng(seed)
    a = Curve(grid, rng.standard_normal((grid.size, 2)), 0.3, FORWARD_FINITE)
    b = Curve(grid, rng.standard_normal((grid.size, 2)), 0.3, FORWARD_FINITE)
    na, nb = exp_norm(a), exp_norm(b)
    nsum = exp_norm(a.with_values(a.values + b.values))
    assert nsum <= na + nb + 1e-12 * (na + nb)
    assert exp_norm(a.with_values(2.5 * a.values)) == pytest.approx(2.5 * na, rel=1e-12)
    assert a.exp_distance(b) == exp_norm(a.with_values(a.values - b.values))


def per_build_tables(grid, rates):
    """The local operators and carries of ``ExpConvolver`` with every
    Gauss-point basis formed in the build itself, as before the bases were
    shared across builds: (fwd_local, bwd_local, fwd_carry, bwd_carry)."""
    rates = np.asarray(rates, dtype=float)
    p = grid.p
    m = p + 1
    ref = _lobatto_reference(p)
    ref_w = barycentric_weights(ref)
    gx = 0.5 * (GAUSS_NODES + 1.0)
    gw = 0.5 * GAUSS_WEIGHTS
    w = float(np.diff(grid.edges)[0])
    fwd_local = np.zeros((rates.size, m, m))
    bwd_local = np.zeros((rates.size, m, m))
    fwd_carry = np.zeros((rates.size, m))
    bwd_carry = np.zeros((rates.size, m))
    for i in range(m):
        xi = ref[i]
        if xi > 0.0:
            s_ref = xi * gx
            basis = barycentric_matrix(ref, ref_w, s_ref)
            for r, lam in enumerate(rates):
                if lam < 0.0:
                    continue
                kern = np.exp(-(xi - s_ref) * w * lam)
                fwd_local[r, i] = (gw * xi * w * kern) @ basis
        if xi < 1.0:
            s_ref = xi + (1.0 - xi) * gx
            basis = barycentric_matrix(ref, ref_w, s_ref)
            for r, lam in enumerate(rates):
                if lam > 0.0:
                    continue
                kern = np.exp((s_ref - xi) * w * lam)
                bwd_local[r, i] = (gw * (1.0 - xi) * w * kern) @ basis
    for r, lam in enumerate(rates):
        if lam >= 0.0:
            fwd_carry[r] = np.exp(-ref * w * lam)
        if lam <= 0.0:
            bwd_carry[r] = np.exp((1.0 - ref) * w * lam)
    return fwd_local, bwd_local, fwd_carry, bwd_carry


@pytest.mark.parametrize("t0, t1, max_rate", [
    (0.0, 3.0, 2.0), (0.0, 3.0, 8.0), (0.0, 2.9, 6.0), (-7.3, 0.0, 5.0),
    (0.0, 11.47, 4.4),
    (-53.2, 0.0, 6.0)])  # 160 panels, 1,921 nodes
def test_shared_bases_build_as_per_build_bases(t0, t1, max_rate):
    grid = PanelGrid(t0, t1, max_rate=max_rate)
    width = np.diff(grid.edges)[0]
    assert 0.25 <= width <= 0.5
    rates = [-3.0, -0.7, -0.0, 0.0, 0.4, 2.5]
    expected = per_build_tables(grid, rates)
    # the first build may form the shared bases, the second reuses them
    for conv in (ExpConvolver(grid, rates), ExpConvolver(grid, rates)):
        got = (conv._fwd_local, conv._bwd_local, conv._fwd_carry, conv._bwd_carry)
        for a, b in zip(got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
