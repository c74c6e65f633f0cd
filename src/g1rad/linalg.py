"""Dense complex matrix kernels: adjoints, Hermitian eigensolves, norms, solves.

All functions are pure; matrices are square complex ndarrays treated as
immutable values. Tolerances are relative, anchored to the Frobenius norm.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import DimensionMismatch, NotHermitian, Singular

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
PIVOT_TOL = 1e-13


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a).T


def herm_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2."""
    return 0.5 * (a + adjoint(a))


def skew_part(a: np.ndarray) -> np.ndarray:
    """Imaginary part (A - A*)/2i; the result is Hermitian."""
    return (a - adjoint(a)) / 2j


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix). The input
    must be Hermitian within HERMITIAN_TOL relative to its Frobenius norm.
    """
    h = as_matrix(h)
    fro = np.linalg.norm(h)
    if np.linalg.norm(h - adjoint(h)) > HERMITIAN_TOL * (1.0 + fro):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(h)
    return evals, evecs


def spectral_norm(a: np.ndarray) -> float:
    """Operator norm sqrt(lambda_max(A*A))."""
    a = np.asarray(a, dtype=np.complex128)
    gram = adjoint(a) @ a
    top = np.linalg.eigvalsh(gram)[-1]
    return float(np.sqrt(max(top, 0.0)))


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting.

    Raises Singular when the smallest pivot falls below
    PIVOT_TOL * ||A||_F, which covers exactly singular input as well.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"solve shapes {a.shape} and {b.shape}")
    with warnings.catch_warnings():
        # scipy warns on exact zero pivots; the threshold below raises instead
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a, check_finite=False)
    min_pivot = np.min(np.abs(np.diagonal(lu)))
    if min_pivot <= PIVOT_TOL * np.linalg.norm(a):
        raise Singular(f"pivot {min_pivot:.3e} below threshold")
    return lu_solve((lu, piv), b, check_finite=False)


def block2x2(a11, a12, a21, a22) -> np.ndarray:
    """Assemble [[A11, A12], [A21, A22]] from four equal-size square blocks."""
    blocks = [as_matrix(x) for x in (a11, a12, a21, a22)]
    n = blocks[0].shape[0]
    if any(b.shape[0] != n for b in blocks[1:]):
        raise DimensionMismatch("blocks must share one square size")
    return np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])
