import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradleaf.errors import DegenerateCriticalPoint, NotSymmetric
from gradleaf.spectral import split


def flow_exponential(split_, t):
    """The linearized flow map ``exp(-t A)``, assembled from the split."""
    U = split_.eigenvectors
    return (U * np.exp(-t * split_.eigenvalues)) @ U.T


def restricted_exponential(split_, sign, t):
    """``exp(-t A)`` on the ``"minus"`` or ``"plus"`` subspace of the split,
    exactly zero on the other one."""
    minus = np.arange(split_.dimension) < split_.morse_index
    mask = minus if sign == "minus" else ~minus
    U = split_.eigenvectors
    return (U * (mask * np.exp(-t * split_.eigenvalues))) @ U.T


def projectors(split_):
    """The orthogonal projectors onto the minus and plus subspaces, from
    the split's eigenvectors."""
    U = split_.eigenvectors
    Um, Up = U[:, :split_.morse_index], U[:, split_.morse_index:]
    return Um @ Um.T, Up @ Up.T


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_diagonal_saddle():
    sp = split(np.diag([-1.0, 2.0]))
    assert sp.morse_index == 1
    assert sp.gap == 1.0
    proj_minus, proj_plus = projectors(sp)
    assert np.allclose(proj_minus, np.diag([1.0, 0.0]))
    assert np.allclose(proj_plus, np.diag([0.0, 1.0]))


def test_diagonal_4d():
    sp = split(np.diag([-3.0, -1.0, 2.0, 5.0]))
    assert sp.morse_index == 2
    assert sp.gap == 1.0
    assert sp.eigenvalues[0] == -3.0
    assert sp.eigenvalues[-1] == 5.0


def test_rotated_saddle_conjugation():
    # oracle: eigensolve of the rotated matrix must give conjugated projections
    R = rotation(np.pi / 6)
    A = R.T @ np.diag([-1.0, 2.0]) @ R
    sp = split(A)
    assert np.allclose(sp.eigenvalues, [-1.0, 2.0])
    proj_minus, proj_plus = projectors(sp)
    assert np.allclose(proj_minus, R.T @ np.diag([1.0, 0.0]) @ R, atol=1e-12)
    assert np.allclose(proj_plus, R.T @ np.diag([0.0, 1.0]) @ R, atol=1e-12)


def test_projection_identities():
    A = np.diag([-3.0, -1.0, 2.0, 5.0])
    sp = split(A)
    n = sp.dimension
    proj_minus, proj_plus = projectors(sp)
    assert np.allclose(proj_minus + proj_plus, np.eye(n), atol=1e-13)
    assert np.allclose(proj_minus @ proj_plus, 0.0, atol=1e-13)
    for P in (proj_minus, proj_plus):
        assert np.allclose(P @ P, P, atol=1e-13)
        assert np.allclose(P, P.T, atol=1e-13)
    assert np.allclose(A @ proj_minus, proj_minus @ A, atol=1e-12)
    assert np.linalg.matrix_rank(proj_minus) == sp.morse_index


def test_degenerate_raises():
    with pytest.raises(DegenerateCriticalPoint):
        split(np.diag([-1.0, 0.0, 2.0]))


def test_not_symmetric_raises():
    with pytest.raises(NotSymmetric):
        split(np.array([[0.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("hessian, error", [
    ([[np.nan, 0.0], [0.0, 1.0]], NotSymmetric),
    ([[np.inf, 0.0], [0.0, 1.0]], NotSymmetric),
    # finite, but the symmetrized matrix overflows and eigh returns NaN
    ([[-1e308, 0.0], [0.0, 1e308]], DegenerateCriticalPoint),
    ([[-1e308, 1e308], [1e308, 1e308]], DegenerateCriticalPoint),
])
def test_non_finite_hessian_raises(hessian, error):
    with pytest.raises(error), np.errstate(all="ignore"):
        split(np.array(hessian))


def test_flow_exponential_diagonal():
    sp = split(np.diag([-1.0, 2.0]))
    E = flow_exponential(sp, 1.0)
    assert np.allclose(E, np.diag([np.e, np.exp(-2.0)]))
    assert np.allclose(flow_exponential(sp, 0.0), np.eye(2))


def test_plus_block_norm_bound():
    sp = split(np.diag([-1.0, 2.0]))
    Ep = restricted_exponential(sp, "plus", 2.0)
    # operator norm on the plus subspace saturates exp(-t lambda_{k+1})
    assert np.linalg.norm(Ep, 2) == pytest.approx(np.exp(-4.0), rel=1e-12)
    assert np.exp(-4.0) <= np.exp(-2 * 2.0) + 1e-15


def test_restricted_minus_grows_forward():
    sp = split(np.diag([-1.0, 2.0]))
    T = 3.0
    z = np.array([0.25, 0.0])
    out = restricted_exponential(sp, "minus", T) @ z
    assert np.allclose(out, [0.25 * np.exp(T), 0.0])
    out_p = restricted_exponential(sp, "plus", 1.0) @ np.array([0.0, 1.0])
    assert np.allclose(out_p, [0.0, np.exp(-2.0)])


def test_restricted_matches_projected_flow_rotated():
    R = rotation(np.pi / 6)
    A = R.T @ np.diag([-1.0, 2.0]) @ R
    sp = split(A)
    for t in (-1.5, 0.0, 0.7, 3.0):
        full = flow_exponential(sp, t)
        for sign, P in zip(("minus", "plus"), projectors(sp)):
            assert np.allclose(restricted_exponential(sp, sign, t), full @ P,
                               atol=1e-12)


@st.composite
def random_splits(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    neg = [-v for v in draw(st.lists(st.floats(0.2, 5.0), min_size=k, max_size=k))]
    pos = draw(st.lists(st.floats(0.2, 5.0), min_size=n - k, max_size=n - k))
    evals = np.array(sorted(neg) + sorted(pos))
    return Q @ np.diag(evals) @ Q.T, k


@settings(max_examples=25, deadline=None)
@given(random_splits(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_semigroup_and_decomposition(data, t, s):
    A, k = data
    sp = split(A)
    assert sp.morse_index == k
    Et = flow_exponential(sp, t)
    Es = flow_exponential(sp, s)
    Ets = flow_exponential(sp, t + s)
    assert np.allclose(Et @ Es, Ets, atol=1e-10 * np.linalg.norm(Ets, 2))
    proj_minus, proj_plus = projectors(sp)
    recomposed = (restricted_exponential(sp, "minus", t) @ proj_minus
                  + restricted_exponential(sp, "plus", t) @ proj_plus)
    assert np.allclose(Et, recomposed, atol=1e-10 * max(1.0, np.linalg.norm(Et, 2)))


# found by Hypothesis when the bounds were tested through flow_exponential
# applied to separately computed projections: eigenvalues -3 and 3 with t = 3
# amplify the rounding leaked from the minus subspace by exp(9)
LEAKY_SPLIT = (np.array([[2.77732434, -1.13422638], [-1.13422638, -2.77732434]]), 1)


@settings(max_examples=25, deadline=None)
@given(random_splits(), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
@example(LEAKY_SPLIT, 3.0, 0)
def test_exponential_decay_bounds(data, t, seed):
    # restricted_exponential is exactly zero off its subspace, so each bound
    # sees only the rounding of its own subspace
    A, k = data
    sp = split(A)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sp.dimension)
    mu = sp.gap  # any mu in the spectral gap works; the gap itself is sharpest
    proj_minus, proj_plus = projectors(sp)
    vp = proj_plus @ v
    vm = proj_minus @ v
    tol = 1e-10
    Ep = restricted_exponential(sp, "plus", t)
    Em = restricted_exponential(sp, "minus", t)
    assert np.linalg.norm(Ep @ v) <= np.exp(-t * mu) * np.linalg.norm(vp) * (1 + tol)
    assert np.linalg.norm(Em @ v) <= np.exp(-t * sp.eigenvalues[0]) * np.linalg.norm(vm) * (1 + tol)
    # backward bound on the minus part: t <= 0 gives exp(t mu)
    Eb = restricted_exponential(sp, "minus", -t)
    assert np.linalg.norm(Eb @ v) <= np.exp(-t * mu) * np.linalg.norm(vm) * (1 + tol)
