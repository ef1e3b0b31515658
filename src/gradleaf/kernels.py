"""Exponential-kernel convolution operators on panel grids.

Given samples of ``y`` on a :class:`~gradleaf.curves.PanelGrid`, the
convolver returns, for every grid node ``t``,

    forward:   F(t) = integral_{t0}^{t}  exp(-(t - s) * lam) y(s) ds
    backward:  B(t) = integral_{t}^{t1}  exp(+(s - t) * lam) y(s) ds

The forward kernel is used only with lam >= 0 and the backward kernel only
with lam <= 0, so every exponential factor that appears is bounded by one:
the recursions below are unconditionally stable and nothing can overflow.

Within a panel, ``y`` is replaced by its Chebyshev-Lobatto interpolant and
the product with the kernel is integrated by Gauss-Legendre quadrature of
order 16; the panel width is tied to the stiffest rate, so both factors are
resolved to near machine precision.  Panels of one grid all have the same
width, so a single set of local operators per rate serves the whole horizon;
one instance serves every Picard iteration and every sample sharing the
horizon.  The interpolation bases at the Gauss points depend on the panel
degree alone and are built once per process, on first use.

Each convolution gathers the samples of all panels through a precomputed
index array and forms every panel's local integrals in one stacked product.
Only the carry across panels is sequential: a scalar recursion in which the
accumulated integral decays by the exact endpoint factor of one panel.  The
stacked ``matmul`` rounds exactly as one product per panel does, and the
carry runs in the same order, so the result is the same bit for bit as a
panel-by-panel loop.

A convolution takes one column of samples, shape ``(size,)``, or a stack of
columns, ``(B, size)``, as the batched Picard loop passes them.  A stack
goes through the same stacked product, one panel of one column at a time,
and each column's carry runs the same recursion in the same order, so every
column comes out bit for bit as it does alone.  A few columns carry in
Python floats, one after another; from ``CARRY_ARRAY_COLUMNS`` on, numpy
carries all columns at once, one panel at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .curves import _lobatto_reference, barycentric_matrix, barycentric_weights

#: positive nodes and their weights of the 16-point Gauss-Legendre rule on
#: [-1, 1], which is symmetric; the same doubles as scipy's
#: ``roots_legendre(16)`` (numpy's ``leggauss`` weights differ in the last
#: digits)
_GAUSS_POSITIVE_NODES = np.array([
    0.09501250983763745, 0.2816035507792589, 0.4580167776572274,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499,
])
_GAUSS_POSITIVE_WEIGHTS = np.array([
    0.1894506104550681, 0.18260341504492328, 0.16915651939500212,
    0.14959598881657638, 0.12462897125553363, 0.09515851168249231,
    0.06225352393864763, 0.027152459411756466,
])
GAUSS_NODES = np.concatenate([-_GAUSS_POSITIVE_NODES[::-1], _GAUSS_POSITIVE_NODES])
GAUSS_WEIGHTS = np.concatenate([_GAUSS_POSITIVE_WEIGHTS[::-1], _GAUSS_POSITIVE_WEIGHTS])
#: from this many columns on, the carry runs across columns in numpy, one
#: panel at a time; below it, column by column in Python floats, which is
#: faster there (the crossover measured on p3's finite and infinite grids,
#: BENCH_picard.json ``carry_sweep``).  Both forms round the same.
CARRY_ARRAY_COLUMNS = 16


@functools.cache
def _panel_bases(p):
    """The Lobatto nodes of degree ``p`` on [0, 1] and, per sign (1 forward
    over [0, xi], -1 backward over [xi, 1]), ``(i, length, Gauss points,
    interpolation basis there)`` per node ``xi``; shared by all convolvers."""
    ref = _lobatto_reference(p)
    ref_w = barycentric_weights(ref)
    gx = 0.5 * (GAUSS_NODES + 1.0)  # map to [0, 1]
    sides = {1.0: [(i, xi, xi * gx) for i, xi in enumerate(ref) if xi > 0.0],
             -1.0: [(i, 1.0 - xi, xi + (1.0 - xi) * gx)
                    for i, xi in enumerate(ref) if xi < 1.0]}
    bases = {sign: tuple((i, length, s, barycentric_matrix(ref, ref_w, s))
                         for i, length, s in side) for sign, side in sides.items()}
    for array in [ref] + [a for side in bases.values() for e in side for a in e[2:]]:
        array.flags.writeable = False  # one copy serves every caller
    return ref, bases


class ExpConvolver:
    """Precomputed forward/backward exponential convolutions for one grid.

    ``rates`` is the full eigenvalue list; entry ``j`` may only be used with
    ``forward`` when ``rates[j] >= 0`` and with ``backward`` when
    ``rates[j] <= 0``.
    """

    def __init__(self, grid, rates):
        self.grid = grid
        self.rates = np.asarray(rates, dtype=float)
        p = grid.p
        m = p + 1
        ref, bases = _panel_bases(p)
        gw = 0.5 * GAUSS_WEIGHTS

        widths = np.diff(grid.edges)
        if not np.allclose(widths, widths[0], rtol=1e-12, atol=0.0):
            raise ValueError("ExpConvolver expects a uniform-width panel grid")
        w = float(widths[0])
        n_rates = self.rates.size
        #: flat-grid index of every panel node, (n_panels, p + 1)
        self._rows = np.arange(grid.n_panels)[:, None] * p + np.arange(m)
        #: the sweep order of the carry by exit node: forward through the
        #: panels (exit -1), backward (exit 0)
        self._orders = {-1: range(grid.n_panels),
                        0: range(grid.n_panels - 1, -1, -1)}

        self._fwd_local = np.zeros((n_rates, m, m))
        self._bwd_local = np.zeros((n_rates, m, m))
        self._fwd_carry = np.zeros((n_rates, m))
        self._bwd_carry = np.zeros((n_rates, m))

        # forward over [0, xi] (lam >= 0), backward over [xi, 1] (lam <= 0);
        # either kernel is exp((s - xi) w lam)
        for local, sign in ((self._fwd_local, 1.0), (self._bwd_local, -1.0)):
            for i, length, s_ref, basis in bases[sign]:
                for r, lam in enumerate(self.rates):
                    if sign * lam >= 0.0:
                        kern = np.exp((s_ref - ref[i]) * w * lam)
                        local[r, i] = (gw * length * w * kern) @ basis
        for r, lam in enumerate(self.rates):
            if lam >= 0.0:
                self._fwd_carry[r] = np.exp(-ref * w * lam)
            if lam <= 0.0:
                self._bwd_carry[r] = np.exp((1.0 - ref) * w * lam)

    def forward(self, rate_index, y):
        """F(t) on the flat grid for coordinate samples ``y``, one column
        ``(size,)`` or a stack ``(B, size)``; needs lam >= 0."""
        if self.rates[rate_index] < 0.0:
            raise ValueError("forward convolution requires a non-negative rate")
        return self._convolve(self._fwd_local[rate_index],
                              self._fwd_carry[rate_index], y, -1)

    def backward(self, rate_index, y):
        """B(t) on the flat grid for coordinate samples ``y``, one column
        ``(size,)`` or a stack ``(B, size)``; needs lam <= 0."""
        if self.rates[rate_index] > 0.0:
            raise ValueError("backward convolution requires a non-positive rate")
        return self._convolve(self._bwd_local[rate_index],
                              self._bwd_carry[rate_index], y, 0)

    def _convolve(self, local, carry, y, exit_node):
        """Convolution values on the flat grid: on each panel, the local
        integrals plus the integral carried in, a scalar recursion in sweep
        order through each panel's value at ``exit_node`` (-1 forward, 0
        backward).  A node shared by two panels takes the value of the panel
        the sweep reaches it from: the later one forward, the earlier one
        backward."""
        # rounds as one ``local @ y[panel]`` per panel; ``@ local.T``,
        # ``dot`` and ``einsum`` do not
        Y = y[self._rows] if y.ndim == 1 else y[:, self._rows]
        L = np.matmul(local, Y[..., None])[..., 0]
        acc = _sweep(float(carry[exit_node]), L[..., exit_node],
                     self._orders[exit_node])
        vals = carry * acc[..., None] + L
        out = np.empty(y.shape)
        if exit_node == -1:
            out[..., :-1] = vals[..., :-1].reshape(out.shape[:-1] + (-1,))
        else:
            out[..., 1:] = vals[..., 1:].reshape(out.shape[:-1] + (-1,))
        out[..., exit_node] = vals[..., exit_node, exit_node]
        return out


def _sweep(d, exits, order):
    """The integral carried into each panel, shaped as ``exits``, (P,) or
    (B, P): ``a <- d * a + exits[..., i]`` from ``a = 0`` over the panels in
    ``order``, one recursion per column.

    Below ``CARRY_ARRAY_COLUMNS`` columns the recursion runs column by
    column in Python floats, from there across all columns at once in
    numpy, one panel at a time; both round the same.
    """
    if exits.ndim == 2 and len(exits) >= CARRY_ARRAY_COLUMNS:
        cols = np.ascontiguousarray(exits.T)
        acc = np.empty(exits.shape)
        a = np.zeros(len(exits))
        for i in order:
            acc[:, i] = a
            a = d * a + cols[i]
        return acc
    rows = exits.tolist()
    for row in rows if exits.ndim == 2 else [rows]:
        a = 0.0
        for i in order:
            a, row[i] = d * a + row[i], a
    return np.array(rows)
