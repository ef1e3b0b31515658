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
horizon.

Each convolution gathers the samples of all panels through a precomputed
index array and forms every panel's local integrals in one stacked product.
Only the carry across panels is sequential: a scalar recursion in which the
accumulated integral decays by the exact endpoint factor of one panel.  The
stacked ``matmul`` rounds exactly as one product per panel does, and the
carry runs in the same order, so the result is the same bit for bit as a
panel-by-panel loop.
"""

from __future__ import annotations

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
        ref = _lobatto_reference(p)
        ref_w = barycentric_weights(ref)
        gx = 0.5 * (GAUSS_NODES + 1.0)  # map to [0, 1]
        gw = 0.5 * GAUSS_WEIGHTS

        widths = np.diff(grid.edges)
        if not np.allclose(widths, widths[0], rtol=1e-12, atol=0.0):
            raise ValueError("ExpConvolver expects a uniform-width panel grid")
        w = float(widths[0])
        n_rates = self.rates.size
        #: flat-grid index of every panel node, (n_panels, p + 1)
        self._rows = np.arange(grid.n_panels)[:, None] * p + np.arange(m)

        self._fwd_local = np.zeros((n_rates, m, m))
        self._bwd_local = np.zeros((n_rates, m, m))
        self._fwd_carry = np.zeros((n_rates, m))
        self._bwd_carry = np.zeros((n_rates, m))

        for i in range(m):
            xi = ref[i]
            if xi > 0.0:
                # s = xi * gx in reference coordinates of the panel
                s_ref = xi * gx
                basis = barycentric_matrix(ref, ref_w, s_ref)  # (q, m)
                for r, lam in enumerate(self.rates):
                    if lam < 0.0:
                        continue
                    kern = np.exp(-(xi - s_ref) * w * lam)
                    self._fwd_local[r, i] = (gw * xi * w * kern) @ basis
            if xi < 1.0:
                s_ref = xi + (1.0 - xi) * gx
                basis = barycentric_matrix(ref, ref_w, s_ref)
                for r, lam in enumerate(self.rates):
                    if lam > 0.0:
                        continue
                    kern = np.exp((s_ref - xi) * w * lam)
                    self._bwd_local[r, i] = (gw * (1.0 - xi) * w * kern) @ basis
        for r, lam in enumerate(self.rates):
            if lam >= 0.0:
                self._fwd_carry[r] = np.exp(-ref * w * lam)
            if lam <= 0.0:
                self._bwd_carry[r] = np.exp((1.0 - ref) * w * lam)

    def forward(self, rate_index, y):
        """F(t) on the flat grid for coordinate samples ``y``; needs lam >= 0."""
        if self.rates[rate_index] < 0.0:
            raise ValueError("forward convolution requires a non-negative rate")
        vals = self._panel_values(self._fwd_local[rate_index],
                                  self._fwd_carry[rate_index], y, -1)
        # a node shared by two panels takes the later panel's value
        out = np.empty(self.grid.size)
        out[:-1] = vals[:, :-1].ravel()
        out[-1] = vals[-1, -1]
        return out

    def backward(self, rate_index, y):
        """B(t) on the flat grid for coordinate samples ``y``; needs lam <= 0."""
        if self.rates[rate_index] > 0.0:
            raise ValueError("backward convolution requires a non-positive rate")
        vals = self._panel_values(self._bwd_local[rate_index],
                                  self._bwd_carry[rate_index], y, 0)
        # a node shared by two panels takes the earlier panel's value
        out = np.empty(self.grid.size)
        out[1:] = vals[:, 1:].ravel()
        out[0] = vals[0, 0]
        return out

    def _panel_values(self, local, carry, y, exit_node):
        """Convolution values on every panel, (n_panels, p + 1): the local
        integrals plus the integral carried in, a scalar recursion in sweep
        order through each panel's value at ``exit_node`` (-1 forward, 0
        backward)."""
        # rounds as one ``local @ y[panel]`` per panel; ``@ local.T``,
        # ``dot`` and ``einsum`` do not
        L = np.matmul(local, y[self._rows][..., None])[..., 0]
        d = float(carry[exit_node])
        exits = L[:, exit_node].tolist()
        order = range(len(exits)) if exit_node == -1 else reversed(range(len(exits)))
        acc = np.empty(len(exits))
        a = 0.0
        for i in order:
            acc[i] = a
            a = d * a + exits[i]
        return carry * acc[:, None] + L
