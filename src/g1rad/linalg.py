"""Dense complex matrix kernels: adjoints, Hermitian parts, norms, solves.

All functions are pure; matrices are square complex ndarrays treated as
immutable values. Tolerances are relative, anchored to the Frobenius norm.
LU factorizations call LAPACK getrf/getrs directly: unlike scipy's
lu_factor, they never warn, so no warning filter has to be edited (the
process-wide filter list is not thread-safe).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DimensionMismatch, Singular

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


def spectral_norm(a: np.ndarray) -> float:
    """Operator norm sqrt(lambda_max(A*A))."""
    a = np.asarray(a, dtype=np.complex128)
    gram = adjoint(a) @ a
    top = np.linalg.eigvalsh(gram)[-1]
    return float(np.sqrt(max(top, 0.0)))


def _factor(a: np.ndarray, getrf) -> tuple[np.ndarray, np.ndarray]:
    """LU factors (lu, piv) of one square matrix by getrf.

    Raises Singular when the smallest pivot falls below
    PIVOT_TOL * ||A||_F, which covers exactly singular input as well.
    """
    lu, piv, _ = getrf(a)
    min_pivot = np.abs(lu.diagonal()).min()
    if min_pivot <= PIVOT_TOL * np.linalg.norm(a):
        raise Singular(f"pivot {min_pivot:.3e} below threshold")
    return lu, piv


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting; Singular below the pivot guard."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"solve shapes {a.shape} and {b.shape}")
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (a, b))
    lu, piv = _factor(a, getrf)
    return getrs(lu, piv, b)[0]


def resolvent_norms(a: np.ndarray, points) -> np.ndarray:
    """||(zI - A)^{-1}|| at each point z, over one stack of zI - A.

    Each matrix is factored and pivot-checked as solve does (the first
    point numerically on the spectrum raises Singular), then overwritten by
    its inverse from getrs against I. One stacked Gram product and eigvalsh
    give the norms as spectral_norm does, bit for bit. Memory is about three
    stacks of len(points) n x n matrices; callers chunk the points.
    """
    a = np.asarray(a, dtype=np.complex128)
    z = np.asarray(points, dtype=np.complex128).ravel()
    eye = np.eye(a.shape[0], dtype=np.complex128)
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (a,))
    inv = z[:, None, None] * eye - a
    for k, m in enumerate(inv):
        lu, piv = _factor(m, getrf)
        inv[k] = getrs(lu, piv, eye)[0]
    gram = np.conj(inv).transpose(0, 2, 1) @ inv
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def block2x2(a11, a12, a21, a22) -> np.ndarray:
    """Assemble [[A11, A12], [A21, A22]] from four equal-size square blocks."""
    blocks = [as_matrix(x) for x in (a11, a12, a21, a22)]
    n = blocks[0].shape[0]
    if any(b.shape[0] != n for b in blocks[1:]):
        raise DimensionMismatch("blocks must share one square size")
    return np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])
