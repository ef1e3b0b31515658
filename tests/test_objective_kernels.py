"""Compiled objective kernels against the term-by-term evaluator they replaced.

``Polynomial`` compiles its value, gradient and Hessian tables into one
straight-line function each.  The rounding contract is that of the table
walk kept below as the reference: squares are ``v * v``, higher powers
``np.power``, monomials multiply their factors in table order and each
component adds ``c * monomial`` in table order from 0.0.  Every result must
match it bit for bit (signed zeros included), for one point and for a block
of rows, except that a NaN need only be a NaN where the reference has one.

The sign of a NaN is not part of the contract.  The reference's one-point
walk works on Python floats, and CPython 3.11's specialising interpreter changes the sign
of ``nan * nan`` once a code object has run about eight times: ``a * b``
with ``a = -inf * 0.0`` and ``b = nan`` gives ``0x7ff8...`` seven times and
``0xfff8...`` after.  So the sign depends on how warm each code object is,
not on either evaluator.  Configs cannot reach a NaN: ``problems`` rejects
non-finite numbers.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradleaf.polynomials import Polynomial


def _compile(terms):
    """``(coefficient, ((variable, power), ...))`` per term, in table order."""
    return [(c, tuple((i, a) for i, a in enumerate(alpha) if a))
            for alpha, c in terms.items()]


def _evaluate(table, cols):
    """The reference table walk, on Python floats or array columns."""
    total = 0.0
    for c, factors in table:
        mon = 1.0
        for i, a in factors:
            v = cols[i]
            mon = mon * (v if a == 1 else v * v if a == 2 else np.power(v, a))
        total = total + c * mon
    return total


def _columns(dimension, x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return True, x.tolist(), 1
    pts = np.atleast_2d(x)
    return False, [pts[:, i] for i in range(dimension)], pts.shape[0]


def reference_value(poly, x):
    single, cols, m = _columns(poly.dimension, x)
    val = _evaluate(_compile(poly.terms), cols)
    return np.float64(val) if single else np.full(m, val)


def reference_gradient(poly, x):
    single, cols, m = _columns(poly.dimension, x)
    n = poly.dimension
    g = np.empty(n if single else (m, n))
    for i in range(n):
        g[..., i] = _evaluate(_compile(poly.differentiate(i).terms), cols)
    return g


def reference_hessian(poly, x):
    single, cols, m = _columns(poly.dimension, x)
    n = poly.dimension
    H = np.empty((n, n) if single else (m, n, n))
    for i in range(n):
        for j in range(i, n):
            vals = _evaluate(_compile(poly.differentiate(i).differentiate(j).terms), cols)
            H[..., i, j] = vals
            H[..., j, i] = vals
    return H


def _same_bits(got, ref):
    """Same shape and float64 dtype, NaN at the same positions, and every
    other entry the same bits."""
    got, ref = np.asarray(got), np.asarray(ref)
    if not (got.shape == ref.shape and got.dtype == ref.dtype == np.float64):
        return False
    nan = np.isnan(got)
    return (np.array_equal(nan, np.isnan(ref))
            and np.array_equal(got[~nan].view(np.int64), ref[~nan].view(np.int64)))


coefficients = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]))
inputs = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 4))
    alphas = st.tuples(*[st.integers(0, 5)] * n)
    terms = draw(st.dictionaries(alphas, coefficients, max_size=6))
    if draw(st.booleans()):
        terms.setdefault((0,) * n, draw(coefficients))  # a constant term
    return Polynomial(n, terms)


@st.composite
def polynomial_and_points(draw):
    poly = draw(polynomials())
    n = poly.dimension
    if draw(st.booleans()):
        x = np.array(draw(st.lists(inputs, min_size=n, max_size=n)))
    else:
        m = draw(st.integers(0, 5))
        x = np.array(draw(st.lists(inputs, min_size=m * n, max_size=m * n))).reshape(m, n)
    return poly, x


EVALUATIONS = (("__call__", reference_value), ("gradient", reference_gradient),
               ("hessian", reference_hessian))


def _check(poly, x):
    for name, reference in EVALUATIONS:
        with np.errstate(all="ignore"):  # inf - inf, 0 * inf
            got, ref = getattr(poly, name)(x), reference(poly, x)
        assert _same_bits(got, ref), (name, poly, x)
        assert type(got) is type(ref)


@settings(max_examples=300, deadline=None)
@given(polynomial_and_points())
# every derivative table empty: a constant only
@example((Polynomial(3, {(0, 0, 0): -2.5}), np.array([[1.0, -0.0, math.inf]])))
# no terms at all, on zero rows
@example((Polynomial(2, {}), np.zeros((0, 2))))
# np.power's exponents, with nan and inf coefficients and -0.0 products
@example((Polynomial(2, {(5, 0): math.nan, (3, 4): -0.0, (0, 1): math.inf,
                         (1, 1): -1.0}),
          np.array([[-0.0, 0.0], [math.inf, 1.5], [-1.25, -0.0]])))
# a -inf constant, and nan * nan products whose sign is the interpreter's
@example((Polynomial(4, {(0, 0, 0, 0): -math.inf, (1, 2, 1, 0): -1.0,
                         (0, 0, 1, 1): 1.0}),
          np.array([[-math.inf, 0.0, math.nan, math.nan]])))
def test_kernels_match_table_walk_bit_for_bit(case):
    poly, x = case
    _check(poly, x)
    # one point at a time, each through its row of the block
    for row in x if x.ndim == 2 else ():
        _check(poly, row)


def test_nan_positions_agree_however_warm_the_code():
    # the first calls and the later ones give NaNs of different signs
    poly = Polynomial(3, {(1, 2, 1): -1.0})
    x = np.array([-math.inf, 0.0, math.nan])
    for _ in range(20):
        _check(poly, x)


def test_kernels_are_built_on_first_use():
    poly = Polynomial.from_pairs(2, [[[2, 0], -0.5], [[0, 2], 1.0], [[2, 2], 0.25]])
    assert not {"_value_kernel", "_gradient_kernel", "_hessian_kernel"} & set(vars(poly))
    poly.gradient(np.zeros(2))
    assert "_gradient_kernel" in vars(poly)
    assert not {"_value_kernel", "_hessian_kernel"} & set(vars(poly))


def test_long_table_compiles_and_matches():
    # 3,000 terms in one component: as a single expression it would nest
    # too deep for Python's compiler
    rng = np.random.default_rng(3)
    poly = Polynomial(2, {(a, b): float(rng.standard_normal())
                          for a in range(60) for b in range(50)})
    x = rng.uniform(-1.1, 1.1, (4, 2))
    _check(poly, x)
    _check(poly, x[0])
