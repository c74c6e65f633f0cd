"""Numerical radius w(A) = sup |<Ax, x>| over unit vectors.

The computation uses the support-function identity

    w(A) = max_theta lambda_max(H(theta)),  H(theta) = (e^{i theta} A + e^{-i theta} A*) / 2.

Since H(theta + pi) = -H(theta), lambda_max(theta + pi) = -lambda_min(theta),
so one Hermitian eigensolve per angle in [0, pi) samples an angle and its
opposite on the uniform grid of grid_points angles (which must be even). A
coarse pass samples every stride-th angle, about 36 per half turn. Each
sample is a supporting line Re(e^{i theta_k} z) = lambda_k of the convex set
W(A), so the apex of a coarse cell's two lines bounds lambda_max on that cell
(Johnson's outer polygon). A fill pass samples every grid angle of the cells
whose bound reaches the tie band below the best coarse sample, plus one angle
either side; flat support functions, such as a nilpotent block's, fill every
cell. Stacked eigensolves run in chunks of at most GRID_BYTES of matrices.
Every surviving grid-local maximum whose two neighbours were sampled is
polished by a safeguarded Newton iteration on lambda_max(theta) inside the
two grid cells around it: lambda' = v* H' v (Hellmann-Feynman), lambda''
from the same eigendecomposition, the bracket shrinks by the sign of
lambda', and a Newton step that would not stay inside the bracket or does
not come from a concave model is replaced by bisection. The returned value
is the largest eigenvalue met along the way, and the witness is its
eigenvector, so the value is always achieved: a certified lower bound on
w(A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

REFINE_TOL = 1e-10
TIE_TOL = 1e-12
# Bytes of stacked matrices per eigensolve, grid and refinement alike;
# bounds the memory of a call for large n.
GRID_BYTES = 64 << 20
# Half-turn angles of the coarse pass.
_COARSE = 36
# Rounding allowance of a sampled eigenvalue and of a cell bound, per unit of
# ||A||_F: a cell is filled when its bound reaches the tie band less this.
_SLACK = 64 * np.finfo(float).eps
# Bisection alone shrinks any two-cell bracket (grid_points >= 8) below
# REFINE_TOL in 35 steps; the cap stops Newton steps that shrink it less.
_MAX_STEPS = 64


@dataclass(frozen=True)
class RadiusResult:
    """Numerical radius with the angle and unit vector that achieve it."""

    value: float
    theta_star: float
    witness: np.ndarray
    grid_points: int


def _pencil(re, im, thetas: np.ndarray) -> np.ndarray:
    """The stack H(theta) = cos(theta) Re A - sin(theta) Im A over thetas."""
    return np.cos(thetas)[:, None, None] * re - np.sin(thetas)[:, None, None] * im


def _cell_bounds(coarse: np.ndarray, width: float) -> np.ndarray:
    """Upper bound of lambda_max on each cell [theta_k, theta_k + width] of a
    uniform turn sampled at coarse[k] = lambda_max(theta_k) (width < pi).

    In the frame w = e^{i(theta_k + width/2)} z the two supporting lines meet
    at the apex w = u + iv, whose support on the cell is |w| cos(t + arg w),
    |t| <= width / 2.
    """
    lo, hi = coarse, np.roll(coarse, -1)
    c, s = np.cos(0.5 * width), np.sin(0.5 * width)
    u, v = (lo + hi) / (2.0 * c), (lo - hi) / (2.0 * s)
    apex = np.where(u * s >= np.abs(v) * c, np.hypot(u, v), -np.inf)
    return np.maximum(np.maximum(lo, hi), apex)


def _sample(re, im, grid_vals: np.ndarray, idx: np.ndarray, step: float, rows: int) -> None:
    """Set grid_vals at the half-turn indices idx and at their opposites."""
    half = len(grid_vals) // 2
    for start in range(0, len(idx), rows):
        part = idx[start:start + rows]
        evals = np.linalg.eigvalsh(_pencil(re, im, step * part))
        grid_vals[part], grid_vals[part + half] = evals[:, -1], -evals[:, 0]


def _grid(re, im, grid_points: int, fro: float, rows: int) -> np.ndarray:
    """lambda_max on the uniform grid; NaN at the angles the fill skipped."""
    half = grid_points // 2
    stride = max(s for s in range(1, max(1, half // _COARSE) + 1) if half % s == 0)
    step = 2.0 * np.pi / grid_points
    grid_vals = np.full(grid_points, np.nan)
    _sample(re, im, grid_vals, np.arange(0, half, stride), step, rows)
    coarse = grid_vals[::stride]
    bounds = _cell_bounds(coarse, stride * step)
    cells = np.nonzero(bounds >= coarse.max() - TIE_TOL - _SLACK * fro)[0]
    need = np.zeros(half, dtype=bool)
    need[(cells[:, None] * stride + np.arange(-1, stride + 2)) % half] = True
    need[::stride] = False
    _sample(re, im, grid_vals, np.nonzero(need)[0], step, rows)
    return grid_vals


def _refine(re, im, centers: np.ndarray, half_width: float, fro: float):
    """Safeguarded Newton ascent of lambda_max from each center.

    Returns each candidate's best (value, theta, eigenvector) over its
    iterates; the first iterate is the center itself.
    """
    best_val = np.full(len(centers), -np.inf)
    best_th = centers.copy()
    best_vec = np.empty((len(centers), re.shape[0]), dtype=np.complex128)
    live = np.arange(len(centers))
    th, lo, hi = centers, centers - half_width, centers + half_width
    for _ in range(_MAX_STEPS):
        if not live.size:
            break
        evals, vecs = np.linalg.eigh(_pencil(re, im, th))
        lam, v = evals[:, -1], vecs[:, :, -1]
        better = lam > best_val[live]
        best_val[live[better]] = lam[better]
        best_th[live[better]] = th[better]
        best_vec[live[better]] = v[better]

        # g_k = v_k* H'(theta) v with H' = -sin(theta) Re A - cos(theta) Im A.
        # One (1, n) product per candidate: its bits do not depend on the stack size.
        vk = v[:, None, :]
        dv = -(np.sin(th)[:, None] * (vk @ re.T)[:, 0] + np.cos(th)[:, None] * (vk @ im.T)[:, 0])
        g = np.einsum("kij,ki->kj", vecs.conj(), dv)
        d1 = g[:, -1].real
        gaps = lam[:, None] - evals[:, :-1]
        coupling = np.divide(np.abs(g[:, :-1]) ** 2, gaps, out=np.zeros_like(gaps),
                             where=gaps > TIE_TOL * fro)
        d2 = 2.0 * coupling.sum(axis=1) - lam

        lo = np.where(d1 > 0, th, lo)
        hi = np.where(d1 < 0, th, hi)
        newton = th - np.divide(d1, d2, out=np.zeros_like(d1), where=d2 < 0)
        inside = (d2 < 0) & (newton > lo) & (newton < hi)
        nxt = np.where(inside, newton, 0.5 * (lo + hi))
        moving = ((np.abs(nxt - th) > REFINE_TOL) & (hi - lo > REFINE_TOL)
                  & (np.abs(d1) > TIE_TOL * fro))
        live, th, lo, hi = live[moving], nxt[moving], lo[moving], hi[moving]
    return best_val, best_th, best_vec


def numerical_radius(a, grid_points: int = 720) -> RadiusResult:
    """Compute w(A) on a pruned half-turn theta grid with safeguarded Newton refinement.

    Grid-local maxima that cannot beat the incumbent (by the Lipschitz
    bound ||A||_F per radian) are pruned before refinement; all ties
    within TIE_TOL are refined and the smallest maximizing angle wins.
    """
    a = linalg.as_matrix(a)
    if grid_points < 8 or grid_points % 2:
        raise ValueError("grid_points must be even and at least 8")
    n = a.shape[0]
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        witness = np.zeros(n, dtype=np.complex128)
        witness[0] = 1.0
        return RadiusResult(0.0, 0.0, witness, grid_points)

    re, im = linalg.herm_part(a), linalg.skew_part(a)
    rows = max(1, GRID_BYTES // a.nbytes)
    step = 2.0 * np.pi / grid_points
    grid_vals = _grid(re, im, grid_points, fro, rows)
    grid_best = float(np.nanmax(grid_vals))

    local_max = (grid_vals >= np.roll(grid_vals, 1)) & (grid_vals >= np.roll(grid_vals, -1))
    viable = grid_vals >= grid_best - max(fro * step, TIE_TOL)
    centers = step * np.nonzero(local_max & viable)[0]
    parts = [_refine(re, im, centers[s:s + rows], step, fro)
             for s in range(0, len(centers), rows)]
    vals, thetas, vecs = (np.concatenate(p) for p in zip(*parts))

    wrapped = np.mod(thetas, 2.0 * np.pi)
    wrapped = np.where(wrapped >= 2.0 * np.pi, 0.0, wrapped)
    tied = vals >= vals.max() - TIE_TOL
    pick = int(np.argmin(np.where(tied, wrapped, np.inf)))
    return RadiusResult(float(vals[pick]), float(wrapped[pick]), vecs[pick].copy(), grid_points)
