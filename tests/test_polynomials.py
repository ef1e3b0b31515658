import numpy as np
import pytest

from gradleaf.polynomials import Polynomial


def _termwise(poly, pts):
    """Reference: the terms evaluated one column power at a time."""
    out = np.zeros(pts.shape[0])
    for alpha, c in poly.terms.items():
        mon = np.ones(pts.shape[0])
        for i, a in enumerate(alpha):
            if a:
                mon = mon * pts[:, i] ** a
        out += c * mon
    return out


def _reference_gradient(poly, pts):
    return np.stack([_termwise(poly.differentiate(i), pts)
                     for i in range(poly.dimension)], axis=-1)


def _reference_hessian(poly, pts):
    n = poly.dimension
    H = np.zeros((pts.shape[0], n, n))
    for i in range(n):
        for j in range(i, n):
            H[:, i, j] = H[:, j, i] = _termwise(
                poly.differentiate(i).differentiate(j), pts)
    return H


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_polynomials(seed, count=40, max_power=6):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 4))
        pairs = [[rng.integers(0, max_power + 1, n).tolist(), float(rng.standard_normal())]
                 for _ in range(int(rng.integers(0, 7)))]
        yield Polynomial.from_pairs(n, pairs), rng.uniform(-1.5, 1.5, (9, n))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_derivatives_match_termwise_reference(seed):
    for poly, pts in _random_polynomials(seed):
        refs = {"__call__": _termwise(poly, pts),
                "gradient": _reference_gradient(poly, pts),
                "hessian": _reference_hessian(poly, pts)}
        for name, ref in refs.items():
            evaluate = getattr(poly, name)
            assert _same_bits(evaluate(pts), ref), (name, poly)
            for k in (0, 4, 8):
                assert _same_bits(evaluate(pts[k]), ref[k]), (name, poly)

