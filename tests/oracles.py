"""Independent oracles for the numerical radius, Herglotz functions, the
conjugate function, LU solves, Haar sampling and the G1 certificate, used
only by the tests."""

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.optimize import minimize_scalar

from g1rad import g1gen, linalg, wradius
from g1rad.errors import ConfigError, DimensionMismatch, Singular


def numradius_lower_bound(a, samples: int, seed: int) -> float:
    """Monte-Carlo lower bound: max |<Ax, x>| over seeded random unit vectors.

    Never exceeds w(A); serves as the independent oracle for
    numerical_radius.
    """
    a = linalg.as_matrix(a)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = samples
    while remaining > 0:
        m = min(remaining, 1 << 16)
        x = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        vals = np.abs(np.einsum("ij,jk,ik->i", np.conj(x), a, x))
        best = max(best, float(vals.max()))
        remaining -= m
    return best


def _lambda_max(a, adj, theta: float) -> float:
    phase = np.exp(1j * theta)
    return float(np.linalg.eigvalsh(0.5 * (phase * a + np.conj(phase) * adj))[-1])


def numradius_dense(a, samples: int = 4096, polish: int = 3) -> float:
    """w(A) from a fine eigvalsh grid, polished by bounded Brent search.

    The `polish` best grid-local maxima of lambda_max(theta) are refined by
    scipy's `minimize_scalar` on -lambda_max within one cell either side.
    """
    a = linalg.as_matrix(a)
    adj = linalg.adjoint(a)
    cell = 2.0 * np.pi / samples
    thetas = cell * np.arange(samples)
    phase = np.exp(1j * thetas)[:, None, None]
    vals = np.linalg.eigvalsh(0.5 * (phase * a + np.conj(phase) * adj))[:, -1]
    peaks = np.nonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))[0]
    best = float(vals.max())
    for i in peaks[np.argsort(vals[peaks])[::-1][:polish]]:
        res = minimize_scalar(lambda t: -_lambda_max(a, adj, t), method="bounded",
                              bounds=(thetas[i] - cell, thetas[i] + cell),
                              options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


def two_pass_grid(sample, grid_points: int, fro: float, rows: int) -> np.ndarray:
    """wradius._grid as one coarse pass of about 36 half-turn angles and one
    fill of the cells whose bound reaches the tie band, plus one angle either
    side: the reference that the pruning passes must match result for result.
    """
    half = grid_points // 2
    stride = max(s for s in range(1, max(1, half // 36) + 1) if half % s == 0)
    step = 2.0 * np.pi / grid_points
    grid_vals = np.full(grid_points, np.nan)
    wradius._sample(sample, grid_vals, np.arange(0, half, stride), step, rows)
    coarse = grid_vals[::stride]
    bounds = wradius._cell_bounds(coarse, stride * step)
    cells = np.nonzero(bounds >= coarse.max() - wradius.TIE_TOL - wradius._SLACK * fro)[0]
    need = np.zeros(half, dtype=bool)
    need[(cells[:, None] * stride + np.arange(-1, stride + 2)) % half] = True
    need[::stride] = False
    wradius._sample(sample, grid_vals, np.nonzero(need)[0], step, rows)
    return grid_vals


def solve(a, b) -> np.ndarray:
    """Solve A X = B by one LU with partial pivoting, pivot-guarded as
    linalg.resolvents is: the per-point reference for that stacked kernel."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"solve shapes {a.shape} and {b.shape}")
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (a, b))
    lu, piv, _ = getrf(a)
    min_pivot = np.abs(lu.diagonal()).min()
    if min_pivot <= linalg.PIVOT_TOL * np.linalg.norm(a):
        raise Singular(f"pivot {min_pivot:.3e} below threshold")
    return getrs(lu, piv, b)[0]


def eval_herglotz(f, z) -> complex:
    """f(z) at a point strictly inside the unit disk, summed atom by atom."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"|z| = {abs(z):.6f} is not inside the unit disk")
    e = np.exp(1j * f.angles)
    return complex(sum(w * (ej + z) / (ej - z) for ej, w in zip(e, f.weights)))


def apply_direct(f, a) -> np.ndarray:
    """Exact discrete-measure evaluation sum_j w_j (e^{i a_j} + A)(e^{i a_j} - A)^{-1}."""
    a = linalg.as_matrix(a)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    out = np.zeros_like(a)
    for alpha, weight in zip(f.angles, f.weights):
        e = np.exp(1j * alpha)
        out = out + weight * solve(e * eye - a, e * eye + a)
    return out


def fbar_direct(f, a) -> np.ndarray:
    """Conjugate-kernel summation sum_j w_j (e^{-i a_j} + A*)(e^{-i a_j} - A*)^{-1}.

    Independent of every f(A) route in g1rad.funcalc, so comparing it with
    the adjoint of f(A) checks fbar(A) = (f(A))*.
    """
    adj = linalg.adjoint(linalg.as_matrix(a))
    eye = np.eye(adj.shape[0], dtype=np.complex128)
    out = np.zeros_like(adj)
    for alpha, weight in zip(f.angles, f.weights):
        e = np.exp(-1j * alpha)
        out = out + weight * solve(e * eye - adj, e * eye + adj)
    return out


def haar_unitary_qr(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Haar unitary of g1gen._haar_unitaries, by scipy's LAPACK geqrf and ungqr, from
    the same two draws: geqrf leaves R on and above the diagonal of its
    output, so diag(R) is read from there, and ungqr turns the reflectors
    below it into Q.

    The np.linalg.qr route of g1gen must give the same unitary bit for bit.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    geqrf, ungqr = get_lapack_funcs(("geqrf", "ungqr"), dtype=np.complex128)
    qr, tau, _, _ = geqrf(z)
    q, _, _ = ungqr(qr, tau)
    diag = qr.diagonal()
    phases = np.where(np.abs(diag) > 0.0, diag / np.abs(diag), 1.0)
    return q * phases


def random_g1_one(seed: int, n: int, rho_max: float) -> tuple:
    """(matrix, spectrum, unitary, d) of g1gen.random_g1 by the one-operator
    route: the spectrum, then haar_unitary_qr's unitary from the same
    stream, and (U * lambda) @ U* on that one matrix. random_g1_stack must
    give every operator these bits at any stack size."""
    rng = np.random.default_rng(seed)
    spectrum = rho_max * g1gen._uniform_disk(rng, n)
    unitary = haar_unitary_qr(rng, n)
    matrix = (unitary * spectrum) @ unitary.conj().T
    return matrix, spectrum, unitary, 1.0 - float(np.abs(spectrum).max())


def _resolvent_norm(a, z) -> float:
    eye = np.eye(a.shape[0], dtype=np.complex128)
    return linalg.spectral_norm(solve(complex(z) * eye - a, eye))


def sweep_points(lam, circle_samples: int) -> np.ndarray:
    """Every test point of the certify sweep, in order, as one array: the
    unit circle, then the rings of g1gen.RING_RADII around each eigenvalue."""
    ring = np.exp(2j * np.pi * np.arange(circle_samples) / circle_samples)
    points = [ring]
    for center in lam:
        for rho in g1gen.RING_RADII:
            points.append(center + rho * ring)
    return np.concatenate(points)


def certify_pointwise(matrix, spectrum, circle_samples: int = 64) -> float:
    """g1gen.certify_core one test point at a time: an LU solve against I and
    a spectral norm per point, over all sweep_points and a full (points x n)
    distance table.

    The chunked sweep must match it bit for bit.
    """
    a = linalg.as_matrix(matrix)
    lam = np.asarray(spectrum, dtype=np.complex128).ravel()
    if circle_samples < 1:
        raise ConfigError("circle_samples must be positive")
    z = sweep_points(lam, circle_samples)
    dist = np.abs(z[:, None] - lam[None, :]).min(axis=1)
    keep = dist >= g1gen.TESTPOINT_GUARD
    worst = 0.0
    for zi, di in zip(z[keep], dist[keep]):
        worst = max(worst, abs(_resolvent_norm(a, zi) * di - 1.0))
    return float(worst)
