"""Exponential-kernel convolution operators on panel grids.

Given samples of ``y`` on a :class:`~gradleaf.curves.PanelGrid`, the
convolver returns, for every grid node ``t``,

    forward:   F(t) = integral_{t0}^{t}  exp(-(t - s) * lam) y(s) ds
    backward:  B(t) = integral_{t}^{t1}  exp(+(s - t) * lam) y(s) ds

The forward kernel is used only with lam >= 0 and the backward kernel only
with lam <= 0, so every exponential factor that appears is bounded by one
and nothing can overflow.

Within a panel, ``y`` is replaced by its Chebyshev-Lobatto interpolant and
the product with the kernel is integrated by Gauss-Legendre quadrature of
order 16; the panel width is min(0.5, 2 / max_rate), max_rate the largest
eigenvalue modulus (``curves.panel_count``), so both factors are resolved to
near machine precision.  Panels of one grid all have the same width, so a
single set of local operators per rate serves the whole horizon;
one instance serves every Picard iteration and every sample sharing the
horizon.  The interpolation bases at the Gauss points depend on the panel
degree alone and are built once per process, on first use, stacked per
direction as ``(nodes, Gauss points, p + 1)``.  A build forms the kernel
of every usable rate at every node and Gauss point in one ``np.exp`` per
direction and integrates it against the stacked bases in one stacked
``matmul``; each element rounds as it does when formed node by node and
rate by rate.

Each convolution reads the samples of all panels through one overlapping
view, ``(P, p + 1)`` per column, and forms every panel's local integrals in
one matrix product.  The integral carried into each panel is the sum of the
earlier panels' exit values, each decayed by the exact endpoint factor of
the panels in between: a second product, with a triangular table of those
factors built once per rate.

A convolution takes one column of samples, shape ``(size,)``, or a stack of
columns, ``(B, size)``, as the batched Picard loop passes them.  Both
products run once per column with the same shapes, so every column of a
stack comes out bit for bit as it does alone.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .curves import barycentric_matrix, barycentric_weights, lobatto_reference

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
#: bytes the (P, P) decay tables of one convolver may take, 8 P^2 per rate;
#: the reference configs' 160-panel grids take 0.2 MB per table
DECAY_TABLE_BYTES = 256e6


@functools.cache
def _panel_bases(p):
    """The Lobatto nodes of degree ``p`` on [0, 1] and, per sign (1 forward
    over [0, xi], -1 backward over [xi, 1]), the stacked tables of the nodes
    ``xi`` that have such an interval: ``(indices, xi, lengths, Gauss points,
    interpolation bases there)``, shapes (N,), (N,), (N,), (N, 16) and
    (N, 16, p + 1); shared by all convolvers."""
    ref = lobatto_reference(p)
    ref_w = barycentric_weights(ref)
    gx = 0.5 * (GAUSS_NODES + 1.0)  # map to [0, 1]
    sides = {1.0: [(i, xi, xi, xi * gx) for i, xi in enumerate(ref) if xi > 0.0],
             -1.0: [(i, xi, 1.0 - xi, xi + (1.0 - xi) * gx)
                    for i, xi in enumerate(ref) if xi < 1.0]}
    bases = {}
    for sign, side in sides.items():
        idx, xi, length, s = (np.array(column) for column in zip(*side))
        basis = np.stack([barycentric_matrix(ref, ref_w, row) for row in s])
        bases[sign] = (idx, xi, length, s, basis)
    for array in [ref] + [a for side in bases.values() for a in side]:
        array.flags.writeable = False  # one copy serves every caller
    return ref, bases


class ExpConvolver:
    """Precomputed forward/backward exponential convolutions for one grid.

    ``rates`` is the full eigenvalue list; entry ``j`` may only be used with
    ``forward`` when ``rates[j] >= 0`` and with ``backward`` when
    ``rates[j] <= 0``.  ``LocalModel.grid`` refuses a horizon whose decay
    tables would take more than ``DECAY_TABLE_BYTES``.
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
        #: per direction, keyed by its sign as in ``_panel_bases`` (1
        #: forward, -1 backward): the local operators ``(R, m, m)`` and carry
        #: factors ``(R, m)`` of every rate, zero for a rate of the other
        #: sign; per usable rate the ``(P, P)`` decay table of the carry,
        #: entry [j, i] the factor by which panel j's exit value reaches
        #: panel i, zero where it does not; and the exit node of a panel
        self._tables = {}
        # forward over [0, xi] (lam >= 0), backward over [xi, 1] (lam <= 0);
        # either kernel is exp((s - xi) w lam) and either carry factor
        # exp((entry - xi) w lam), from the end a sweep enters a panel by;
        # the products keep the order of a node-by-node build, so every
        # entry rounds as it did there
        for sign, entry, exit_node in ((1.0, 0.0, -1), (-1.0, 1.0, 0)):
            idx, xi, length, s_ref, basis = bases[sign]
            r = np.flatnonzero(sign * self.rates >= 0.0)
            kern = np.exp((s_ref - xi[:, None]) * w * self.rates[r, None, None])
            weighted = gw * length[:, None] * w * kern
            local = np.zeros((self.rates.size, m, m))
            local[np.ix_(r, idx)] = (weighted[..., None, :] @ basis)[..., 0, :]
            carry = np.zeros((self.rates.size, m))
            carry[r] = np.exp((entry - ref) * w * self.rates[r, None])
            decay = {j: _decay_table(carry[j, exit_node], grid.n_panels, sign > 0)
                     for j in r}
            self._tables[sign] = (local, carry, decay, exit_node)

    def forward(self, rate_index, y):
        """F(t) on the flat grid for coordinate samples ``y``, one column
        ``(size,)`` or a stack ``(B, size)``; needs lam >= 0."""
        if self.rates[rate_index] < 0.0:
            raise ValueError("forward convolution requires a non-negative rate")
        return self._convolve(1.0, rate_index, y)

    def backward(self, rate_index, y):
        """B(t) on the flat grid for coordinate samples ``y``, one column
        ``(size,)`` or a stack ``(B, size)``; needs lam <= 0."""
        if self.rates[rate_index] > 0.0:
            raise ValueError("backward convolution requires a non-positive rate")
        return self._convolve(-1.0, rate_index, y)

    def _convolve(self, sign, rate_index, y):
        """Convolution values on the flat grid in the direction ``sign``: on
        each panel, the local integrals plus the integral carried in, the
        decayed sum of the exit values (node -1 forward, 0 backward) of the
        panels before it in sweep order.  A node shared by two panels takes
        the value of the panel the sweep reaches it from: the later one
        forward, the earlier one backward."""
        if y.shape[-1] != self.grid.size:
            # the panel view reads memory by strides: a shorter y would
            # silently read past its end
            raise ValueError(f"expected {self.grid.size} samples per column, "
                             f"got {y.shape[-1]}")
        local, carry, decay, exit_node = self._tables[sign]
        p, stride = self.grid.p, y.strides[-1]
        Y = as_strided(y, y.shape[:-1] + (self.grid.n_panels, p + 1),
                       y.strides[:-1] + (p * stride, stride), writeable=False)
        L = Y @ local[rate_index].T
        acc = (L[..., None, :, exit_node] @ decay[rate_index])[..., 0, :]
        L += carry[rate_index] * acc[..., None]
        # each panel fills its nodes but the exit node, which the next panel
        # in sweep order starts from; splitting the last axis of a slice of
        # ``out`` is a view, so the copy writes into ``out``
        owned = slice(None, -1) if exit_node == -1 else slice(1, None)
        out = np.empty(y.shape)
        out[..., owned].reshape(L.shape[:-1] + (p,))[...] = L[..., owned]
        out[..., exit_node] = L[..., exit_node, exit_node]
        return out


def _decay_table(d, n, forward):
    """The ``(n, n)`` decay table of the carry: entry ``[j, i]`` is the
    factor by which panel ``j``'s exit value decays on its way into panel
    ``i``, ``d ** (i - 1 - j)`` for ``j < i`` forward and ``d ** (j - 1 - i)``
    for ``j > i`` backward, and zero elsewhere.  Row ``j`` of the forward
    table is a window of the powers of ``d`` padded with zeros, and the
    backward table is its transpose; either is returned as a C-ordered copy
    (a transposed table makes the carry product several times slower)."""
    padded = np.concatenate([np.zeros(n), d ** np.arange(n)])
    table = sliding_window_view(padded, n)[n - 1::-1]  # row j: padded[n - 1 - j:][:n]
    return (table if forward else table.T).copy()
