"""Dense complex matrix kernels: adjoints, Hermitian parts, norms, resolvents.

All functions are pure; matrices are square complex ndarrays treated as
immutable values. Tolerances are relative, anchored to the Frobenius norm.
Resolvent stacks are inverted by one np.linalg.inv call, which runs LAPACK
outside the GIL; only points that a pivot bound cannot clear are factored
again by scipy's getrf/getrs, imported on the first such point, so most
processes load numpy's LAPACK only. Neither warns (unlike scipy's
lu_factor; np.linalg.inv raises LinAlgError), so no warning filter has to be
edited: the process-wide filter list is not thread-safe.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, Singular

UNITARY_TOL = 1e-10
PIVOT_TOL = 1e-13
# n * PIVOT_TOL * ||M||_F * ||M^{-1}||_F at or below this clears a point of
# resolvents without getrf (see there)
_CLEAR_MARGIN = 2.0**-20


@functools.cache
def _lu_routines():
    """scipy's LAPACK getrf and getrs for complex128. scipy.linalg is imported
    on first use: it loads a second OpenBLAS and costs more than g1rad."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)


def as_matrix(a) -> np.ndarray:
    """Coerce to a nonempty square complex128 matrix, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of one matrix or of each matrix in a stack."""
    return np.conj(a).swapaxes(-1, -2)


def herm_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2."""
    return 0.5 * (a + adjoint(a))


def skew_part(a: np.ndarray) -> np.ndarray:
    """Imaginary part (A - A*)/2i; the result is Hermitian."""
    return (a - adjoint(a)) / 2j


def diag_similarity(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """U diag(v) U* of each pair of a (k, n, n) stack of U and a (k, n) stack of v.

    The columns of every U are scaled by its v in one broadcast product,
    with the bits of a single (n, n) by (n,) product per matrix at n >= 2,
    in any layout. At n = 1, numpy multiplies a whole stack in another loop,
    which rounds differently, so there each matrix takes its own product.
    One matmul then takes every product with U*, with the bits of one call
    per matrix.
    """
    if u.shape[-1] > 1:
        scaled = u * values[:, None, :]
    else:
        scaled = np.empty(u.shape, dtype=np.result_type(u, values))
        for ui, vi, out in zip(u, values, scaled):
            np.multiply(ui, vi, out=out)
    return scaled @ adjoint(u)


def _slot(workspace: np.ndarray | None, i: int, k: int) -> np.ndarray | None:
    """workspace[i, :k] as an out= argument; None, a fresh array, without one."""
    return None if workspace is None else workspace[i, :k]


def _gram_norm(a: np.ndarray, workspace: np.ndarray | None) -> float | np.ndarray:
    """sqrt(lambda_max(A*A)) of A as given, for one matrix or a stack; with a
    workspace, conj(A) goes to workspace[0] and A*A to workspace[1]."""
    conj = np.conjugate(a, out=_slot(workspace, 0, len(a)))
    gram = np.matmul(conj.swapaxes(-1, -2), a, out=_slot(workspace, 1, len(a)))
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def spectral_norm(a: np.ndarray, workspace: np.ndarray | None = None) -> float | np.ndarray:
    """Operator norm sqrt(lambda_max(A*A)) of one matrix, or of each matrix in a stack.

    When every matrix has its largest modulus in [2^-200, 2^200], A*A is
    formed as it is: its largest products neither underflow nor overflow
    and LAPACK does not rescale it, so a power of two would change no bit,
    and the check costs one reduction. Otherwise each matrix is evaluated as
    2^-e A, with e the exponent that brings its largest modulus into
    [1/2, 1) (but at least -1023, so that 2^-e is finite), and its norm is
    scaled back by 2^e; sqrt(4^-e x) = 2^-e sqrt(x) is exact.

    A stack of k matrices may come with a workspace: a complex128 array of
    shape (2, m, n, n) with m >= k, as resolvents takes. |A| goes to the
    real view of workspace[1, :k], then conj(A) to workspace[0, :k] and the
    Gram stack to workspace[1, :k], so a stack in range allocates no stack
    of the size of A; the norms have the same bits either way.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-1] == 0:
        raise DimensionMismatch(f"expected nonempty matrices, got shape {a.shape}")
    scratch = _slot(workspace, 1, len(a))
    big = np.abs(a, out=None if scratch is None else scratch.real).max(axis=(-2, -1))
    # one comparison over the stack; a NaN fails it and takes the scaled route
    if ((2.0**-200 <= big) & (big <= 2.0**200)).all():
        return _gram_norm(a, workspace)
    # a member with a NaN or inf entry is evaluated as zero (at n >= 3,
    # eigvalsh would raise for the whole stack) and its norm is NaN
    finite = np.isfinite(big)
    exp = np.maximum(np.frexp(big)[1], -1023)
    scaled = np.where(finite[..., None, None], a, 0.0) * np.ldexp(1.0, -exp)[..., None, None]
    return np.where(finite, np.ldexp(_gram_norm(scaled, workspace), exp), np.nan)[()]


def _fro_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, by one einsum over its real
    view: no temporary copy, but another summation order than
    np.linalg.norm of one matrix, so it can differ from that by a few ulps."""
    parts = stack.view(np.float64)
    return np.sqrt(np.einsum("kij,kij->k", parts, parts))


def resolvents(a: np.ndarray, points, workspace: np.ndarray | None = None) -> np.ndarray:
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
    factored again by getrf, checked and solved by getrs (_lu_routines), in
    order; when np.linalg.inv finds an exactly singular matrix, every point
    is. So Singular is raised at the same first point, with the same
    message, as by a getrf/getrs loop. The Frobenius norms come from _fro_norms.

    Memory is two stacks of k = len(points) n x n matrices, M and its
    inverse; callers chunk the points. A workspace, a complex128 array of
    shape (2, m, n, n) with m >= k, takes M in workspace[0, :k], so only the
    inverse is allocated; spectral_norm then reuses the same workspace,
    since M is dead by then. A caller that sweeps many chunks allocates the
    workspace once, and its pages stay mapped between chunks.
    """
    a = np.asarray(a, dtype=np.complex128)
    z = np.asarray(points, dtype=np.complex128).ravel()
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    m = np.multiply(z[:, None, None], eye, out=_slot(workspace, 0, z.size))
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
        getrf, getrs = _lu_routines()
        lu, piv, _ = getrf(m[k])
        min_pivot = min(map(abs, lu.diagonal().tolist()))
        if min_pivot <= floors[k]:
            raise Singular(f"pivot {min_pivot:.3e} below threshold")
        inv[k] = getrs(lu, piv, eye)[0]
    return inv
