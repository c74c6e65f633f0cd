"""Dense complex matrix kernels: adjoints, Hermitian parts, norms, resolvents.

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
    """Coerce to a nonempty square complex128 matrix, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
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


def _gram_norm(a: np.ndarray) -> float | np.ndarray:
    """sqrt(lambda_max(A*A)) of A as given, for one matrix or a stack."""
    gram = np.conj(a).swapaxes(-1, -2) @ a
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def spectral_norm(a: np.ndarray) -> float | np.ndarray:
    """Operator norm sqrt(lambda_max(A*A)) of one matrix, or of each matrix in a stack.

    When every matrix has its largest modulus in [2^-200, 2^200], A*A is
    formed as it is: its largest products neither underflow nor overflow
    and LAPACK does not rescale it, so a power of two would change no bit,
    and the check costs one reduction. Otherwise each matrix is evaluated as
    2^-e A, with e the exponent that brings its largest modulus into
    [1/2, 1) (but at least -1023, so that 2^-e is finite), and its norm is
    scaled back by 2^e; sqrt(4^-e x) = 2^-e sqrt(x) is exact.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-1] == 0:
        raise DimensionMismatch(f"expected nonempty matrices, got shape {a.shape}")
    big = np.abs(a).max(axis=(-2, -1))
    if all(2.0**-200 <= x <= 2.0**200 for x in big.ravel().tolist()):
        return _gram_norm(a)
    exp = np.maximum(np.frexp(big)[1], -1023)
    return np.ldexp(_gram_norm(a * np.ldexp(1.0, -exp)[..., None, None]), exp)


def resolvents(a: np.ndarray, points) -> np.ndarray:
    """The stack of (zI - A)^{-1} over the points z, in order.

    Each zI - A is factored by getrf and raises Singular when its smallest
    pivot falls below PIVOT_TOL * ||zI - A||_F, which covers exactly
    singular input as well; the first such point stops the stack. The
    Frobenius norms come from one einsum over the real view of the stack,
    which makes no temporary copy but sums in another order than
    np.linalg.norm of one matrix, so a threshold can sit a few ulps from
    PIVOT_TOL times that norm. getrs against I then overwrites the matrix by
    its inverse. Memory is one stack of len(points) n x n matrices; callers
    chunk the points.
    """
    a = np.asarray(a, dtype=np.complex128)
    z = np.asarray(points, dtype=np.complex128).ravel()
    eye = np.eye(a.shape[0], dtype=np.complex128)
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (a,))
    inv = z[:, None, None] * eye - a
    parts = inv.view(np.float64)
    floors = (PIVOT_TOL * np.sqrt(np.einsum("kij,kij->k", parts, parts))).tolist()
    for k, (m, floor) in enumerate(zip(inv, floors)):
        lu, piv, _ = getrf(m)
        min_pivot = min(map(abs, lu.diagonal().tolist()))
        if min_pivot <= floor:
            raise Singular(f"pivot {min_pivot:.3e} below threshold")
        inv[k] = getrs(lu, piv, eye)[0]
    return inv

