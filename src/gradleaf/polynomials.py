"""Multivariate polynomials given by (multi-index, coefficient) tables.

Objectives are ingested as coefficient tables, so gradients and Hessians are
exact (derived term-by-term) rather than obtained by automatic or numerical
differentiation.  On first use, the value, gradient and Hessian tables are
each compiled into one straight-line kernel, which evaluates a block of
points on array columns, one column per variable; a single point is a
one-row block, and each point rounds as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError


def _kernel(dimension, components):
    """Compile ``(target, terms)`` components into one straight-line function
    ``kernel(out, x0, ..., x{n-1})`` that assigns each component's sum to its
    ``target`` (an assignment target in ``out``).

    The ``x`` are one array column per variable, a point per row; a row
    rounds alike in any block, and alike to evaluating the terms one
    column at a time.  Each power is computed
    once: squares are ``v * v`` and higher powers go through numpy's
    ``power`` (whose rounding differs from Python's float ``**``).  A
    monomial multiplies its factors in table order, and a component adds
    ``c * monomial`` in table order starting from 0.0 (which turns -0.0
    into 0.0).  Coefficients are bound as names, so ``inf`` and ``nan``
    need no literal.
    """
    coefficients, powers, lines = [], {}, []
    for target, terms in components:
        parts = []
        for alpha, c in terms.items():
            name = f"c{len(coefficients)}"
            coefficients.append(c)
            factors = []
            for i, a in enumerate(alpha):
                if a > 1:
                    powers[f"p{i}_{a}"] = f"x{i} * x{i}" if a == 2 else f"power(x{i}, {a})"
                if a:
                    factors.append(f"x{i}" if a == 1 else f"p{i}_{a}")
            parts.append(f"{name} * ({' * '.join(factors)})" if factors else name)
        # summed in chunks: one long expression nests too deep to compile
        lines += ["s = 0.0"] + [f"s = s + {' + '.join(parts[k:k + 256])}"
                                for k in range(0, len(parts), 256)] + [f"{target} = s"]
    body = [f"{name} = {value}" for name, value in powers.items()] + lines
    source = (f"def make(power, {', '.join(f'c{k}' for k in range(len(coefficients)))}):\n"
              f"    def kernel(out, {', '.join(f'x{i}' for i in range(dimension))}):\n"
              + "".join(f"        {line}\n" for line in body) + "    return kernel\n")
    namespace = {}
    exec(source, namespace)
    return namespace["make"](np.power, *coefficients)


def _multiply(a, b):
    """Product of two coefficient tables, summed in table order."""
    out = {}
    for alpha, ca in a.items():
        for beta, cb in b.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            out[gamma] = out.get(gamma, 0.0) + ca * cb
    return out


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in ``dimension`` variables.

    ``terms`` maps a multi-index (tuple of non-negative ints, one entry per
    variable) to its real coefficient.
    """

    dimension: int
    terms: dict

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
    def _value_kernel(self):
        return _kernel(self.dimension, [("out[...]", self.terms)])

    @cached_property
    def _gradient_kernel(self):
        return _kernel(self.dimension, [(f"out[..., {i}]", self.differentiate(i).terms)
                                        for i in range(self.dimension)])

    @cached_property
    def _hessian_kernel(self):
        """Entries on and above the diagonal, each mirrored below it."""
        n = self.dimension
        grads = [self.differentiate(i) for i in range(n)]
        return _kernel(n, [(f"out[..., {i}, {j}] = out[..., {j}, {i}]",
                            grads[i].differentiate(j).terms)
                           for i in range(n) for j in range(i, n)])

    def _run(self, kernel, x, shape):
        """``kernel`` on one array column per variable of the rows of ``x``,
        ``shape`` per row; a 1-D point runs as a one-row block."""
        x = np.asarray(x, dtype=float)
        pts = np.atleast_2d(x)
        out = np.empty(pts.shape[:1] + shape)
        kernel(out, *pts.T)
        return out[0] if x.ndim == 1 else out

    def __call__(self, x):
        return self._run(self._value_kernel, x, ())[()]

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

    def affine(self, shift, matrix):
        """The polynomial y -> self(shift + matrix @ y), ``matrix`` being
        (dimension, m), as a coefficient table: each monomial is multiplied
        out through cached powers of the forms shift_i + (matrix y)_i, and
        every product term is kept; a 0.0 entry of a form contributes none."""
        matrix = np.asarray(matrix, dtype=float)
        m = matrix.shape[1]
        basis = [(0,) * m] + [tuple(int(j == i) for j in range(m)) for i in range(m)]
        shift = np.broadcast_to(np.asarray(shift, dtype=float), self.dimension)
        powers = {(i, 1): {alpha: c for alpha, c in zip(basis, [s, *row]) if c != 0.0}
                  for i, (s, row) in enumerate(zip(shift.tolist(), matrix.tolist()))}
        terms = {}
        for alpha, c in self.terms.items():
            product = {basis[0]: c}
            for i, a in enumerate(alpha):
                for b in range(2, a + 1):
                    if (i, b) not in powers:
                        powers[i, b] = _multiply(powers[i, b - 1], powers[i, 1])
                if a:
                    product = _multiply(product, powers[i, a])
            for gamma, v in product.items():
                terms[gamma] = terms.get(gamma, 0.0) + v
        return Polynomial(m, terms)

    def gradient(self, x):
        return self._run(self._gradient_kernel, x, (self.dimension,))

    def hessian(self, x):
        n = self.dimension
        return self._run(self._hessian_kernel, x, (n, n))
