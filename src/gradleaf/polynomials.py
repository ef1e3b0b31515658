"""Multivariate polynomials given by (multi-index, coefficient) tables.

Objectives are ingested as coefficient tables, so gradients and Hessians are
exact (derived term-by-term) rather than obtained by automatic or numerical
differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError


def _compile(terms):
    """``(coefficient, ((variable, power), ...))`` per term, in table order."""
    return [(c, tuple((i, a) for i, a in enumerate(alpha) if a))
            for alpha, c in terms.items()]


def _evaluate(table, cols):
    """Sum of a compiled table at ``cols``: one Python float per variable for
    one point, or one array column per variable for many points.

    Both forms round alike, and alike to evaluating the terms one column at
    a time: squares are ``v * v`` and higher powers go through numpy's
    ``power`` (whose rounding differs from Python's float ``**``), and the
    terms are added in table order starting from 0.0.
    """
    total = 0.0
    for c, factors in table:
        mon = 1.0
        for i, a in factors:
            v = cols[i]
            mon = mon * (v if a == 1 else v * v if a == 2 else np.power(v, a))
        total = total + c * mon
    return total


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in ``dimension`` variables.

    ``terms`` maps a multi-index (tuple of non-negative ints, one entry per
    variable) to its real coefficient.
    """

    dimension: int
    terms: dict = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, dimension, pairs):
        """Build from ``[(multi_index, coefficient), ...]`` config pairs."""
        terms = {}
        for entry in pairs:
            if len(entry) != 2:
                raise ConfigError(f"objective entry {entry!r} is not a (multi-index, coefficient) pair")
            alpha, coeff = entry
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dimension:
                raise ConfigError(f"multi-index {alpha} has length {len(alpha)}, expected {dimension}")
            if any(a < 0 for a in alpha):
                raise ConfigError(f"multi-index {alpha} has negative entries")
            terms[alpha] = terms.get(alpha, 0.0) + float(coeff)
        return cls(dimension, terms)

    @cached_property
    def _value_table(self):
        return _compile(self.terms)

    @cached_property
    def _gradient_tables(self):
        return [_compile(self.differentiate(i).terms) for i in range(self.dimension)]

    @cached_property
    def _hessian_tables(self):
        """``(i, j, table)`` for the entries on and above the diagonal."""
        n = self.dimension
        grads = [self.differentiate(i) for i in range(n)]
        return [(i, j, _compile(grads[i].differentiate(j).terms))
                for i in range(n) for j in range(i, n)]

    def _columns(self, x):
        """``(single, columns, count)``: Python floats for one point given as
        a 1-D array, else one array column per variable."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return True, x.tolist(), 1
        pts = np.atleast_2d(x)
        return False, [pts[:, i] for i in range(self.dimension)], pts.shape[0]

    def __call__(self, x):
        single, cols, m = self._columns(x)
        val = _evaluate(self._value_table, cols)
        return np.float64(val) if single else np.full(m, val)

    def differentiate(self, var):
        """Exact partial derivative with respect to variable ``var``."""
        terms = {}
        for alpha, c in self.terms.items():
            a = alpha[var]
            if a == 0:
                continue
            beta = list(alpha)
            beta[var] = a - 1
            beta = tuple(beta)
            terms[beta] = terms.get(beta, 0.0) + c * a
        return Polynomial(self.dimension, terms)

    def gradient(self, x):
        single, cols, m = self._columns(x)
        g = np.empty(self.dimension if single else (m, self.dimension))
        for i, table in enumerate(self._gradient_tables):
            g[..., i] = _evaluate(table, cols)
        return g

    def hessian(self, x):
        single, cols, m = self._columns(x)
        n = self.dimension
        H = np.empty((n, n) if single else (m, n, n))
        for i, j, table in self._hessian_tables:
            vals = _evaluate(table, cols)
            H[..., i, j] = vals
            H[..., j, i] = vals
        return H

    def to_pairs(self):
        """Deterministically ordered (multi-index, coefficient) list."""
        return [[list(alpha), self.terms[alpha]] for alpha in sorted(self.terms)]
