"""Numerical radius w(A) = sup |<Ax, x>| over unit vectors.

The computation uses the support-function identity

    w(A) = max_theta lambda_max(H(theta)),  H(theta) = (e^{i theta} A + e^{-i theta} A*) / 2.

Since H(theta + pi) = -H(theta), lambda_max(theta + pi) = -lambda_min(theta),
so one Hermitian eigensolve per angle in [0, pi) samples an angle and its
opposite on the uniform grid of grid_points angles (which must be even).
Each sample is a supporting line Re(e^{i theta_k} z) = lambda_k of the convex
set W(A), so the apex of two neighbouring samples' lines bounds lambda_max on
the cell between them (Johnson's outer polygon). The grid is sampled in
pruning passes. The first samples every s_0-th half-turn angle, s_0 the
largest divisor of grid_points / 2 that leaves at least 15 angles. Each later
pass takes the largest divisor of the previous stride that is at most a
quarter of it, down to 1 (24, 6, 1 at 720 points), and samples at that stride
the cells of the previous stride whose bound reaches the tie band below the
best sample so far; the last pass adds one angle either side. Flat support
functions, such as a nilpotent block's, keep every cell. eigvalsh solves each
matrix on its own, so an angle has the same bits whichever pass samples it,
and every angle in the tie band is sampled: the passes decide only which
angles below it are skipped. Stacked eigensolves run in chunks of at most
GRID_BYTES of matrices.
An off-diagonal block A = [[0, X], [Y, 0]] (n even, both n/2 diagonal blocks
exactly zero) has H(theta) = [[0, B], [B*, 0]] with B(theta) = (e^{i theta} X
+ e^{-i theta} Y*) / 2, so lambda_max(theta) = sigma_max(B) = -lambda_min(theta):
w(A) = max_theta ||e^{i theta} X + e^{-i theta} Y*|| / 2, a support function
of period pi. Its passes sample sigma_max(B) as the square root of the top
eigvalsh of the (n/2) x (n/2) Gram matrix B*B, at theta and theta + pi. Each
entry of B*B sums n/2 products, so the sample rounds at about
(n/4) eps ||B|| <= (n/4) eps ||A||_F, the order of an n x n eigvalsh and
inside _SLACK ||A||_F (measured below 4 eps ||A||_F up to n = 128). The grid
only steers which centers are refined, and refinement stays on the full
matrix: of each twin pair of centers theta, theta + pi, the one in [0, pi] is
refined, and both of 0 and pi, since an iterate from 0 may wrap to just
below 2 pi, where the twin from pi wins the smallest-angle tie-break. So
results keep their bits whenever both routes choose the same centers.
Every surviving grid-local maximum whose two neighbours were sampled is
polished by a safeguarded Newton iteration on lambda_max(theta) inside the
two grid cells around it: lambda' = v* H' v (Hellmann-Feynman), lambda''
from the same eigendecomposition, the bracket shrinks by the sign of
lambda', and a Newton step that would not stay inside the bracket or does
not come from a concave model is replaced by bisection. Each Newton step
makes one stacked eigh over the live candidates; after it, each candidate's
step is two small products for V* H' v followed by Python float arithmetic
(derivatives, bracket, step and retire tests), so a candidate's bits do not
depend on the stack and results are the same at any GRID_BYTES chunking.
The returned value is the largest eigenvalue met along the way, and the
witness is its eigenvector, so the value is always achieved: a certified
lower bound on w(A). Every nonzero A is evaluated as 4^-k A, the least k
that brings its largest real or imaginary part below 1 (into [1/4, 1)), and the
value scaled back by 4^k. An even power of two keeps every step exact while
entries stay normal: sqrt(4^k x) = 2^k sqrt(x), whereas sqrt(2x) rounds. So
TIE_TOL and the slacks apply at unit scale, and w(4^j A) is 4^j w(A) bitwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

REFINE_TOL = 1e-10
TIE_TOL = 1e-12
# Bytes of stacked matrices per eigensolve, grid and refinement alike;
# bounds the memory of a call for large n.
GRID_BYTES = 64 << 20
# Rounding allowance of a sampled eigenvalue and of a cell bound, per unit of
# ||A||_F: a pass keeps a cell when its bound reaches the tie band less this.
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
    lo, hi = coarse, np.concatenate((coarse[1:], coarse[:1]))
    c, s = np.cos(0.5 * width), np.sin(0.5 * width)
    u, v = (lo + hi) / (2.0 * c), (lo - hi) / (2.0 * s)
    apex = np.where(u * s >= np.abs(v) * c, np.hypot(u, v), -np.inf)
    return np.maximum(np.maximum(lo, hi), apex)


def _eig_sampler(re, im):
    """Samples lambda_max(theta) and lambda_max(theta + pi) = -lambda_min(theta)
    at a stack of angles by eigvalsh of each H(theta)."""
    def sample(thetas):
        evals = np.linalg.eigvalsh(_pencil(re, im, thetas))
        return evals[:, -1], -evals[:, 0]
    return sample


def _gram_sampler(re, im):
    """The same samples for A = [[0, X], [Y, 0]] with Hermitian part re and skew
    part im: H(theta) = [[0, B], [B*, 0]] with B(theta) the pencil of the
    top-right blocks, so both are sigma_max(B), the square root of the top
    eigenvalue of the half-size Gram matrix B*B."""
    m = len(re) // 2
    re, im = re[:m, m:], im[:m, m:]

    def sample(thetas):
        b = _pencil(re, im, thetas)
        top = np.sqrt(np.linalg.eigvalsh(np.conj(b).swapaxes(1, 2) @ b)[:, -1])
        return top, top
    return sample


def _is_offdiagonal(a: np.ndarray) -> bool:
    """Whether A = [[0, X], [Y, 0]]: n even and both n/2 diagonal blocks exactly zero."""
    m, odd = divmod(len(a), 2)
    return not (odd or a[:m, :m].any() or a[m:, m:].any())


def _sample(sample, grid_vals: np.ndarray, idx: np.ndarray, step: float, rows: int) -> None:
    """Set grid_vals at the half-turn indices idx and at their opposites."""
    half = len(grid_vals) // 2
    for start in range(0, len(idx), rows):
        part = idx[start:start + rows]
        grid_vals[part], grid_vals[part + half] = sample(step * part)


@functools.cache
def _strides(half: int) -> tuple[int, ...]:
    """Half-turn strides of the pruning passes, coarsest first and ending at 1.

    The first is the largest divisor of half that leaves at least 15 angles;
    each later one is the largest divisor of the one before that is at most a
    quarter of it (1 once there is none). 360 half-turn angles give 24, 6, 1.
    """
    stride = max(s for s in range(1, max(1, half // 15) + 1) if half % s == 0)
    strides = [stride]
    while stride > 1:
        stride = max((s for s in range(1, stride // 4 + 1) if stride % s == 0), default=1)
        strides.append(stride)
    return tuple(strides)


def _grid(sample, grid_points: int, fro: float, rows: int) -> np.ndarray:
    """lambda_max on the uniform grid; NaN at the angles the passes skipped."""
    half = grid_points // 2
    step = 2.0 * np.pi / grid_points
    strides = _strides(half)
    grid_vals = np.full(grid_points, np.nan)
    _sample(sample, grid_vals, np.arange(0, half, strides[0]), step, rows)
    for wide, narrow in zip(strides, strides[1:]):
        # a cell with an unsampled end lies in a pruned cell: its bound is NaN
        bounds = _cell_bounds(grid_vals[::wide], wide * step)
        band = np.fmax.reduce(grid_vals) - TIE_TOL - _SLACK * fro
        cells = (bounds >= band).nonzero()[0]
        pad = int(narrow == 1)
        need = np.zeros(half, dtype=bool)
        need[(cells[:, None] * wide + np.arange(-pad, wide + pad + 1, narrow)) % half] = True
        need[::wide] = False
        _sample(sample, grid_vals, need.nonzero()[0], step, rows)
    return grid_vals


def _refine(re, im, centers: list[float], half_width: float, fro: float):
    """Safeguarded Newton ascent of lambda_max from each center.

    Each step makes one stacked eigh over the live candidates. Then, one
    candidate at a time, g = V* H'(theta) v comes from two small products and
    the rest is Python float arithmetic on the candidate's own eigenpairs:
    lambda' and lambda'' (dropping couplings across a gap of at most
    TIE_TOL ||A||_F), the bracket, the step and the retire tests. Returns
    each candidate's best (value, theta, eigenvector) over its iterates; the
    first iterate is the center itself.
    """
    n = re.shape[0]
    tie = TIE_TOL * fro
    # Re A v and Im A v of a candidate in one product
    parts = np.concatenate((re, im))
    best = [(-math.inf, theta, None) for theta in centers]
    live = [(k, theta, theta - half_width, theta + half_width) for k, theta in enumerate(centers)]
    for _ in range(_MAX_STEPS):
        if not live:
            break
        evals, vecs = np.linalg.eigh(_pencil(re, im, np.array([th for _, th, _, _ in live])))
        moving = []
        for (k, th, lo, hi), lams, basis in zip(live, evals.tolist(), vecs):
            lam, v = lams[-1], basis[:, -1]
            if lam > best[k][0]:
                # a copy, so the best vector does not keep the step's stack alive
                best[k] = (lam, th, v.copy())

            # g = V* H'(theta) v with H' = -sin(theta) Re A - cos(theta) Im A
            s, c = math.sin(th), math.cos(th)
            re_v, im_v = ((parts @ v).reshape(2, n) @ basis.conj()).tolist()
            g = [-(s * x + c * y) for x, y in zip(re_v, im_v)]
            d1 = g[-1].real
            coupling = sum(abs(gj) ** 2 / (lam - mu)
                           for gj, mu in zip(g, lams[:-1]) if lam - mu > tie)
            d2 = 2.0 * coupling - lam

            if d1 > 0:
                lo = th
            elif d1 < 0:
                hi = th
            nxt = 0.5 * (lo + hi)
            if d2 < 0 and lo < th - d1 / d2 < hi:
                nxt = th - d1 / d2
            if abs(nxt - th) > REFINE_TOL and hi - lo > REFINE_TOL and abs(d1) > tie:
                moving.append((k, nxt, lo, hi))
        live = moving
    return best


def numerical_radius(a, grid_points: int = 720) -> RadiusResult:
    """Compute w(A) on a pruned half-turn theta grid with safeguarded Newton refinement.

    Grid-local maxima that cannot beat the incumbent (by the Lipschitz
    bound ||A||_F per radian) are pruned before refinement; all ties
    within TIE_TOL are refined and the smallest maximizing angle wins.
    Evaluated at one scale (module docstring), so TIE_TOL applies at unit
    scale; an off-diagonal block [[0, X], [Y, 0]] is gridded on half-size
    Gram matrices (module docstring). Raises OverflowError when w(A)
    exceeds the largest double.
    """
    a = linalg.as_matrix(a)
    if grid_points < 8 or grid_points % 2:
        raise ValueError("grid_points must be even and at least 8")
    n = a.shape[0]
    big = max(float(np.abs(a.real).max()), float(np.abs(a.imag).max()))
    if big == 0.0:
        witness = np.zeros(n, dtype=np.complex128)
        witness[0] = 1.0
        return RadiusResult(0.0, 0.0, witness, grid_points)
    # two factors of 2^-k, since 4^-k overflows for subnormal entries
    k = (math.frexp(big)[1] + 1) // 2
    a = a * math.ldexp(1.0, -k) * math.ldexp(1.0, -k)
    fro = float(np.linalg.norm(a))

    re, im = linalg.herm_part(a), linalg.skew_part(a)
    block = _is_offdiagonal(a)
    sample = _gram_sampler(re, im) if block else _eig_sampler(re, im)
    rows = max(1, GRID_BYTES // a.nbytes)
    step = 2.0 * np.pi / grid_points
    grid_vals = _grid(sample, grid_points, fro, rows)
    grid_best = float(np.fmax.reduce(grid_vals))

    around = np.concatenate((grid_vals[-1:], grid_vals, grid_vals[:1]))
    local_max = (grid_vals >= around[:-2]) & (grid_vals >= around[2:])
    viable = grid_vals >= grid_best - fro * step
    chosen = local_max & viable
    if block:
        # the grid has period pi: refine one center of each twin pair, from
        # [0, pi], and both of 0 and pi, as 0's iterates may wrap below 0
        chosen[grid_points // 2 + 1:] = False
    centers = [step * k for k in np.flatnonzero(chosen).tolist()]
    found = [best for s in range(0, len(centers), rows)
             for best in _refine(re, im, centers[s:s + rows], step, fro)]

    top = max(value for value, _, _ in found)
    # the smallest tied angle in [0, 2 pi) wins; a tiny negative angle that
    # wraps to 2 pi itself counts as 0
    ties = []
    for i, (value, theta, _) in enumerate(found):
        if value >= top - TIE_TOL:
            wrapped = theta % (2.0 * math.pi)
            ties.append((wrapped if wrapped < 2.0 * math.pi else 0.0, i))
    wrapped, pick = min(ties)
    value, _, witness = found[pick]
    return RadiusResult(math.ldexp(value, 2 * k), wrapped, witness, grid_points)
