"""Time-gridded curves with exponentially weighted norms.

Curves are discretized on composite Chebyshev-Lobatto panels.  Panel width is
tied to the stiffest eigenvalue so that both the curve and the exponential
kernels applied to it are resolved to near machine precision by the
degree-12 interpolants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


NODES_PER_PANEL = 13  # polynomial degree 12 per panel
MIN_PANELS = 3

#: horizon kinds; the weight of the exp norm depends on the kind
FORWARD_FINITE = "forward_finite"      # [0, T], weight e^{+lambda t}
FORWARD_INFINITE = "forward_infinite"  # [0, T_max] truncation, weight e^{+lambda t}
BACKWARD = "backward"                  # [-T_max, 0] truncation, weight e^{-lambda t}


def row_norms(values):
    """Euclidean norms over the last axis of ``values``, any leading shape.

    The squares are summed coordinate by coordinate, which is the order
    ``np.linalg.norm(values, axis=-1)`` sums them in, so the two agree bit
    for bit; on a curve's few coordinates this is several times cheaper.
    """
    sq = values[..., 0] * values[..., 0]
    for i in range(1, values.shape[-1]):
        v = values[..., i]
        sq += v * v
    return np.sqrt(sq)


def _lobatto_reference(p):
    # Chebyshev-Lobatto nodes mapped to [0, 1], ascending
    j = np.arange(p + 1)
    return 0.5 * (1.0 - np.cos(np.pi * j / p))


def barycentric_weights(nodes):
    """Barycentric weights for an arbitrary node set (stable at degree 12)."""
    n = len(nodes)
    w = np.ones(n)
    for j in range(n):
        diff = nodes[j] - np.delete(nodes, j)
        w[j] = 1.0 / np.prod(diff)
    return w / np.max(np.abs(w))


def barycentric_matrix(nodes, weights, targets):
    """Row-stochastic matrix evaluating the interpolant at ``targets``."""
    diff = targets[:, None] - nodes[None, :]
    exact = np.isclose(diff, 0.0, atol=1e-15 * max(1.0, np.max(np.abs(nodes))))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights[None, :] / diff
    terms = np.where(exact, 0.0, terms)
    denom = terms.sum(axis=1, keepdims=True)
    hits = exact.any(axis=1)
    out = np.zeros_like(terms)
    ok = ~hits
    out[ok] = terms[ok] / denom[ok]
    out[hits] = exact[hits].astype(float)
    return out


class PanelGrid:
    """Composite Chebyshev-Lobatto grid on ``[t0, t1]``.

    Adjacent panels share their endpoint node; the flat grid therefore has
    ``n_panels * (NODES_PER_PANEL - 1) + 1`` distinct, strictly increasing
    nodes.  There are at least ``MIN_PANELS`` panels.
    """

    def __init__(self, t0, t1, max_rate):
        if not t1 > t0:
            raise ValueError("need t1 > t0")
        width = min(0.5, 2.0 / max(float(max_rate), 1e-12))
        n_panels = max(MIN_PANELS, int(np.ceil((t1 - t0) / width)))
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.p = NODES_PER_PANEL - 1
        self.n_panels = n_panels
        self.edges = np.linspace(t0, t1, n_panels + 1)
        ref = _lobatto_reference(self.p)
        self.panel_nodes = self.edges[:-1, None] + np.diff(self.edges)[:, None] * ref[None, :]
        nodes = [self.panel_nodes[0]]
        for ip in range(1, n_panels):
            nodes.append(self.panel_nodes[ip, 1:])
        self.nodes = np.concatenate(nodes)
        self.ref_nodes = ref
        self.ref_weights = barycentric_weights(ref)
        self._profiles = {}

    @property
    def size(self):
        return self.nodes.size

    def exp_profile(self, rate, origin=0.0):
        """``exp(-(t - origin) * rate)`` at the nodes, computed once per
        (rate, origin) and shared by every curve on this grid."""
        key = (rate, origin)
        if key not in self._profiles:
            self._profiles[key] = np.exp(-(self.nodes - origin) * rate)
        return self._profiles[key]

    def interpolate(self, values, t):
        """Barycentric evaluation of panel-wise interpolants at times ``t``.

        ``values`` is ``(size, d)``, one row per node.  ``t`` may be a
        scalar or an array of any shape; the result has the shape of ``t``
        followed by ``(d,)``.  Times at a shared panel edge take the
        right-hand panel, the last edge the last panel.
        """
        t_arr = np.asarray(t, dtype=float)
        flat_t = t_arr.ravel()
        bad = (flat_t < self.t0 - 1e-12) | (flat_t > self.t1 + 1e-12)
        if bad.any():
            ti = flat_t[np.argmax(bad)]
            raise ValueError(f"time {ti} outside horizon [{self.t0}, {self.t1}]")
        idx = np.searchsorted(self.edges, flat_t, side="right") - 1
        idx = np.clip(idx, 0, self.n_panels - 1)
        a = self.panel_nodes[idx, 0]
        b = self.panel_nodes[idx, -1]
        M = barycentric_matrix(self.ref_nodes, self.ref_weights, (flat_t - a) / (b - a))
        rows = idx[:, None] * self.p + np.arange(self.p + 1)
        out = np.matmul(M[:, None, :], values[rows])[:, 0]
        if t_arr.ndim == 0:
            return out[0]
        return out.reshape(t_arr.shape + out.shape[1:])


def exp_weights(grid, rate, kind):
    """The exp-norm weight at the nodes of ``grid``: exp(-rate t) on a
    backward horizon, exp(rate t) on a forward one."""
    return grid.exp_profile(rate if kind == BACKWARD else -rate)


@dataclass
class Curve:
    """Sampled curve in the split-adapted frame with an exp-norm rate.

    ``values[i]`` is the state at ``grid.nodes[i]``; states are expressed in
    the orthonormal eigenbasis of the spectral splitting, centred at the
    critical point, so Euclidean norms agree with ambient norms.
    """

    grid: PanelGrid
    values: np.ndarray
    rate: float
    kind: str

    def __post_init__(self):
        if self.values.shape[0] != self.grid.size:
            raise ValueError(
                f"{self.values.shape[0]} values on a grid of {self.grid.size} nodes")

    def weights(self):
        return exp_weights(self.grid, self.rate, self.kind)

    def exp_distance(self, other):
        return float(np.max(self.weights() * row_norms(self.values - other.values)))

    def evaluate(self, t):
        return self.grid.interpolate(self.values, t)

    def with_values(self, values):
        return Curve(self.grid, values, self.rate, self.kind)
