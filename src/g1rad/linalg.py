"""Dense complex matrix kernels: adjoints, Hermitian parts, norms, resolvents.

All functions are pure; matrices are square complex ndarrays treated as
immutable values. Tolerances are relative, anchored to the Frobenius norm.
Resolvent stacks are inverted by one np.linalg.inv call, which runs LAPACK
outside the GIL; only points that a pivot bound cannot clear are factored
again by LAPACK getrf/getrs, called directly. Neither warns (unlike scipy's
lu_factor; np.linalg.inv raises LinAlgError), so no warning filter has to be
edited: the process-wide filter list is not thread-safe.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DimensionMismatch, Singular

UNITARY_TOL = 1e-10
PIVOT_TOL = 1e-13
# n * PIVOT_TOL * ||M||_F * ||M^{-1}||_F at or below this clears a point of
# resolvents without getrf (see there)
_CLEAR_MARGIN = 2.0**-20
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


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


def _fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, by one einsum over its real
    view: no temporary copy, but another summation order than
    np.linalg.norm of one matrix, so it can differ from that by a few ulps."""
    parts = stack.view(np.float64)
    return np.sqrt(np.einsum("kij,kij->k", parts, parts))


def resolvents(a: np.ndarray, points) -> np.ndarray:
    """The stack of (zI - A)^{-1} over the points z, in order.

    The stack M of every zI - A is inverted by one np.linalg.inv call: LAPACK
    gesv (getrf, then getrs against I) on each matrix, inside a numpy gufunc
    that releases the GIL, so threads invert in parallel. With BLAS on one
    thread, as the package root pins it, that gives the bits of a
    getrf/getrs pair per point. A point raises Singular when the smallest
    pivot of its LU falls below PIVOT_TOL * ||M||_F, which covers exactly
    singular input as well; the first such point stops the stack.

    gesv does not return its pivots, so the guard is kept by a bound. With
    partial pivoting PM = LU, |l_ij| <= 1 gives ||L||_2 <= ||L||_F <= n, and
    a triangular U has min|u_ii| >= sigma_min(U) >= sigma_min(M) / ||L||_2
    >= 1 / (n ||M^{-1}||_F). So where n PIVOT_TOL ||M||_F ||M^{-1}||_F is at
    most _CLEAR_MARGIN = 2^-20, every pivot is at least 2^20 times the
    threshold. Rounding moves that bound by a relative delta: the computed
    LU is exact for M + E with ||E||_2 <= n^3 u rho ||M||_F (unit roundoff
    u, growth factor rho), and the computed ||M^{-1}||_F errs by about as
    much, so delta is about n^2 rho (u / PIVOT_TOL) 2^-20 = 1.1e-9 n^2 rho.
    The pivots stay at least (1 - delta) 2^20 times the threshold: delta is
    below 1/4 for every matrix up to n = 20, since rho <= 2^(n - 1), and
    for larger ones unless their growth is extreme. On the certify sweeps
    of the benchmark's operator files the product is at most about 4e-9.
    Each point that the bound does not clear (a NaN product included) is
    factored again by getrf, checked and solved by getrs, in order; when
    np.linalg.inv finds an exactly singular matrix, every point is. So
    Singular is raised at the same first point, with the same message, as
    by a getrf/getrs loop. The Frobenius norms come from _fro_norms. Memory
    is two stacks of len(points) n x n matrices, M and its inverse; callers
    chunk the points.
    """
    a = np.asarray(a, dtype=np.complex128)
    z = np.asarray(points, dtype=np.complex128).ravel()
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    m = z[:, None, None] * eye
    m -= a
    norms = _fro_norms(m)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inv = np.empty_like(m)
        suspects = range(z.size)
    else:
        cleared = n * PIVOT_TOL * norms * _fro_norms(inv) <= _CLEAR_MARGIN
        suspects = np.flatnonzero(~cleared).tolist()
    floors = (PIVOT_TOL * norms).tolist()
    for k in suspects:
        lu, piv, _ = _GETRF(m[k])
        min_pivot = min(map(abs, lu.diagonal().tolist()))
        if min_pivot <= floors[k]:
            raise Singular(f"pivot {min_pivot:.3e} below threshold")
        inv[k] = _GETRS(lu, piv, eye)[0]
    return inv
