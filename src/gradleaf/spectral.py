"""Eigen-analysis of the Hessian at a critical point.

The symmetric eigendecomposition is the single source of truth for the
local frame: the linearized flow acts as exp(-t lambda_j) along each of its
orthonormal eigenvectors, and the signs of the eigenvalues split the frame
into the unstable and stable subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCriticalPoint, NotSymmetric

#: relative scale of the symmetry and non-degeneracy tolerances
DEGENERACY_REL_TOL = 1e-9


@dataclass(frozen=True)
class SpectralSplit:
    """Spectral splitting of a symmetric Hessian ``A``.

    Eigenvalues are sorted ascending, the first ``morse_index`` of them
    negative.  ``eigenvectors`` holds the adapted orthonormal basis as
    columns; the first ``morse_index`` columns span the unstable subspace.
    """

    dimension: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    morse_index: int
    gap: float


def split(hessian):
    """Spectral splitting of a symmetric matrix.

    The matrix must be symmetric to ``1e-9 * max |entry|`` and have no
    eigenvalue within ``1e-9 * max |eigenvalue|`` of zero, so both checks
    are scale invariant; a zero eigenvalue is within any such distance, so
    the zero matrix is degenerate.
    """
    A = np.asarray(hessian, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"hessian must be square, got shape {A.shape}")
    n = A.shape[0]
    asym = float(np.max(np.abs(A - A.T)))
    scale = float(np.max(np.abs(A))) or 1.0
    sym_tol = DEGENERACY_REL_TOL * scale
    if not asym <= sym_tol:  # a NaN or inf entry fails too
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {sym_tol:.3e}")

    evals, evecs = np.linalg.eigh(0.5 * (A + A.T))
    degeneracy_tol = DEGENERACY_REL_TOL * float(np.max(np.abs(evals)))
    if not np.min(np.abs(evals)) > degeneracy_tol:
        raise DegenerateCriticalPoint(
            f"eigenvalue within {degeneracy_tol:.3e} of zero: {evals}")

    return SpectralSplit(dimension=n, eigenvalues=evals, eigenvectors=evecs,
                         morse_index=int(np.sum(evals < 0)),
                         gap=float(np.min(np.abs(evals))))
