"""Generation and certification of growth-condition (G1) operators.

An operator is G1 when ||(z - A)^{-1}|| = 1 / dist(z, sigma(A)) away from
its spectrum. Normal matrices satisfy this exactly, so the generated
population is normal by construction: Haar unitary conjugations of spectra
drawn uniformly inside a disk of radius rho_max < 1. They are built a stack
at a time (random_g1_stack): each operator draws its spectrum and its
Ginibre matrix from its own generator, then one QR, one reconstruction U
diag(lambda) U* and one run of _validate cover the stack, and every
operator keeps the bits it has alone (random_g1 is a stack of one).
_validate holds G1Operator's checks, over a stack; G1Operator runs it on a
stack of one, so generated and loaded operators pass the same code.
Externally supplied candidates are admitted only through the numerical
certificate and, when they carry no unitary, a normality check. The
certificate sweeps the test points in chunks of at most _SWEEP_BYTES of
stacked n x n matrices, and each chunk builds its own points, so its memory
stays bounded whatever n and the sample count. A sweep allocates one
workspace of two chunk-sized stacks, which holds zI - A
(linalg.resolvents), then conj(R), |R| and the Gram stack of the inverses R
(linalg.spectral_norm), so only R is allocated per chunk and the workspace
stays mapped for the whole sweep: stacks allocated per chunk were trimmed
by glibc after each chunk and faulted back by the next. Both the inverse
and the eigensolve run in numpy gufuncs outside the GIL, so files certify
in parallel on threads.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CertificationFailed, ConfigError, SpectrumOnBoundary

BOUNDARY_GUARD = 1e-12
D_TOL = 1e-14
RECONSTRUCTION_TOL = 1e-10
NORMALITY_TOL = 1e-10
CERT_THRESHOLD = 1e-6
TESTPOINT_GUARD = 1e-6
RING_RADII = (0.05, 0.1, 0.2)
# Angles per sampling circle of the certify sweep.
CIRCLE_SAMPLES = 64
# Bytes of stacked n x n matrices per chunk of the certify sweep. The
# sweep holds three such stacks at once: its workspace and the inverses.
_SWEEP_BYTES = 256 << 10


def _raise_first_failure(checks) -> None:
    """Raise the first failed check of the first member of a stack that fails one.

    checks are (passed, exception type, message) triples, passed a boolean per
    member, in the order a single member is checked.
    """
    passed = functools.reduce(operator.and_, [ok for ok, _, _ in checks])
    if not passed.all():
        first = int(np.argmin(passed))
        raise next(kind(message) for ok, kind, message in checks if not ok[first])


def _validate(matrices: np.ndarray, spectra: np.ndarray,
              unitaries: np.ndarray | None) -> np.ndarray:
    """G1Operator's checks on a stack; returns each member's d.

    matrices and unitaries are (k, n, n) stacks and spectra (k, n); unitaries
    is None for operators without a diagonalizer. d = 1 - max|lambda| is
    min(1 - |lambda|) as the same double, since rounding 1 - x is monotone in
    x. Every member is checked: finite entries, finite eigenvalues
    (ValueError) off the BOUNDARY_GUARD band (SpectrumOnBoundary), then with
    a unitary, unitarity, A = U diag(lambda) U* and normality (ValueError), or
    without one normality alone (CertificationFailed). The residuals
    A*A - AA*, U*U - I and U diag(lambda) U* - A go to one stack, whose
    Frobenius norms are taken in one call; ||A||_F^2 is the trace of A*A.
    Each test is "value <= tolerance", so a NaN fails it. The first member
    that fails a check raises the first check it fails, with the message that
    G1Operator gives for it alone.
    """
    k, n = spectra.shape
    with np.errstate(invalid="ignore", over="ignore"):
        largest = np.abs(spectra).max(axis=-1)
        d = 1.0 - largest
        adj = linalg.adjoint(matrices)
        gram = adj @ matrices
        residuals = np.empty((1 if unitaries is None else 3, k, n, n), dtype=np.complex128)
        np.subtract(gram, matrices @ adj, out=residuals[0])
        if unitaries is not None:
            u_adj = linalg.adjoint(unitaries)
            np.matmul(u_adj, unitaries, out=residuals[1])
            residuals[1].reshape(k, -1)[:, ::n + 1] -= 1.0
            np.subtract((unitaries * spectra[:, None, :]) @ u_adj, matrices, out=residuals[2])
        norms = linalg._fro_norms(residuals.reshape(-1, n, n)).reshape(-1, k)
        normal = norms[0] <= NORMALITY_TOL * gram.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
    checks = [(np.isfinite(matrices).all(axis=(-2, -1)), ValueError,
               "matrix entries must be finite"),
              (np.isfinite(largest), ValueError, "eigenvalues must be finite"),
              (d > BOUNDARY_GUARD, SpectrumOnBoundary,
               f"eigenvalue within {BOUNDARY_GUARD} of the unit circle")]
    if unitaries is None:
        checks.append((normal, CertificationFailed, "matrix is not normal within tolerance"))
    else:
        checks += [
            (np.isfinite(unitaries).all(axis=(-2, -1)), ValueError,
             "matrix entries must be finite"),
            (norms[1] <= linalg.UNITARY_TOL, ValueError,
             "diagonalizer is not unitary within tolerance"),
            (norms[2] <= RECONSTRUCTION_TOL, ValueError,
             "matrix does not match U diag(spectrum) U*"),
            (normal, ValueError, "matrix is not normal within tolerance"),
        ]
    _raise_first_failure(checks)
    return d


@dataclass(frozen=True)
class G1Operator:
    """A matrix with known spectrum inside the unit disk and boundary distance d.

    d is derived, as 1 - max|lambda| (_validate). Generated operators carry
    their diagonalizing unitary and are validated as exactly normal;
    file-loaded candidates may omit the unitary, in which case a
    growth-condition certificate is required. A certificate, when given,
    must be <= CERT_THRESHOLD whether or not a unitary is present; it is
    checked first, so a failing certificate (or a missing one, without a
    unitary) is reported as such even when the rest of the bundle is
    inconsistent too. A finite-dimensional G1 matrix is normal, so every
    operator must pass the NORMALITY_TOL check: with a unitary its failure is
    a ValueError, like the bundle's other inconsistencies; without one it is
    a CertificationFailed, since the sampled certificate can miss a small
    departure from normality. The checks are _validate's on a stack of one,
    the same code that checks random_g1_stack's stacks; every one fails on a
    NaN.
    """

    matrix: np.ndarray
    spectrum: np.ndarray
    unitary: np.ndarray | None
    d: float = field(init=False)
    certificate: float | None = field(default=None)

    def __post_init__(self):
        if self.certificate is not None and not (self.certificate <= CERT_THRESHOLD):
            raise CertificationFailed(
                f"growth-condition certificate {self.certificate:.6e} exceeds {CERT_THRESHOLD}"
            )
        if self.unitary is None and self.certificate is None:
            raise CertificationFailed("operators without a diagonalizer need a growth certificate")
        matrix = linalg.as_matrix(self.matrix)
        lam = np.asarray(self.spectrum, dtype=np.complex128).ravel()
        n = matrix.shape[0]
        if lam.size != n:
            raise ValueError(f"{lam.size} eigenvalues for a {n}x{n} matrix")
        u = None if self.unitary is None else np.asarray(self.unitary, dtype=np.complex128)
        if u is not None and u.shape != matrix.shape:
            raise ValueError(f"a diagonalizer of shape {u.shape} for a {n}x{n} matrix")
        (d,) = _validate(matrix[None], lam[None], None if u is None else u[None]).tolist()
        vars(self).update(matrix=matrix, spectrum=lam, unitary=u, d=d)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def _haar_unitaries(rngs, n: int) -> np.ndarray:
    """One Haar-distributed n x n unitary per generator, as a (k, n, n) stack.

    Each generator draws one Ginibre matrix Z (real parts, then imaginary
    parts, of standard complex Gaussian entries). One np.linalg.qr call
    factors the stack, and each Q has its columns' phases fixed by diag(R)
    (F. Mezzadri, Notices AMS 54, 2007). np.linalg.qr runs LAPACK geqrf and
    ungqr from numpy's own LAPACK on each matrix, so sampling loads no second
    one; the tests hold each unitary to the bits of scipy's geqrf/ungqr on
    its own Z.
    """
    normals = np.empty((len(rngs), 2, n, n))
    for rng, out in zip(rngs, normals):
        rng.standard_normal(out=out)
    q, r = np.linalg.qr((normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0))
    diag = r.diagonal(axis1=-2, axis2=-1)
    size = np.abs(diag)
    return q * np.where(size > 0.0, diag / size, 1.0)[:, None, :]


def _uniform_disk(rng: np.random.Generator, k: int) -> np.ndarray:
    """k points uniform on the unit disk, by rejection from the bounding square."""
    out = np.empty(0, dtype=np.complex128)
    while out.size < k:
        x, y = rng.uniform(-1.0, 1.0, size=(max(2 * (k - out.size), 8), 2)).T
        keep = x ** 2 + y ** 2 <= 1.0
        out = np.concatenate((out, x[keep] + 1j * y[keep]))
    return out[:k]


def random_g1_stack(seeds, n: int, rho_max: float) -> list[G1Operator]:
    """One seed-deterministic normal operator per seed, with spectrum in the
    disk of radius rho_max, built and checked as one stack.

    Each operator draws from its own np.random.default_rng(seed): its
    spectrum, then its Ginibre matrix (_haar_unitaries). The QR, the phase fix,
    the products U diag(lambda) U* and _validate's checks then run once over
    the stack. Each operator gets the bits that a stack of its seed alone
    gives it (random_g1), which the tests check over stack sizes and n; it
    holds views of the stack's arrays.
    """
    if not 0.0 < rho_max < 1.0:
        raise ConfigError(f"rho_max must lie in (0, 1), got {rho_max}")
    if n < 1:
        raise ConfigError("dimension must be positive")
    if not len(seeds):
        return []
    rngs = [np.random.default_rng(seed) for seed in seeds]
    spectra = rho_max * np.array([_uniform_disk(rng, n) for rng in rngs])
    unitaries = _haar_unitaries(rngs, n)
    scaled = np.empty_like(unitaries)
    for u, lam, out in zip(unitaries, spectra, scaled):
        # one product per operator: at n = 1, numpy multiplies a whole
        # stack in another loop, which rounds differently
        np.multiply(u, lam, out=out)
    matrices = scaled @ linalg.adjoint(unitaries)
    d = _validate(matrices, spectra, unitaries).tolist()
    ops = []
    for fields in zip(matrices, spectra, unitaries, d):
        op = object.__new__(G1Operator)  # checked above, by _validate
        vars(op).update(zip(("matrix", "spectrum", "unitary", "d"), fields), certificate=None)
        ops.append(op)
    return ops


def random_g1(seed: int, n: int, rho_max: float) -> G1Operator:
    """Seed-deterministic normal operator with spectrum in the disk of radius rho_max."""
    return random_g1_stack((seed,), n, rho_max)[0]


def _test_points(lam: np.ndarray, circle_samples: int, start: int, stop: int) -> np.ndarray:
    """Points start to stop - 1 of the certify sweep, built from their indices.

    The sweep is the unit circle, then the circles of radii RING_RADII
    around each eigenvalue in turn, each sampled at the circle_samples
    angles 2 pi j / circle_samples. Every point is the same double whatever
    range it is built in.
    """
    parts = []
    for block in range(start // circle_samples, (stop - 1) // circle_samples + 1):
        first = block * circle_samples
        j = np.arange(max(start, first) - first, min(stop, first + circle_samples) - first)
        ring = np.exp(2j * np.pi * j / circle_samples)
        if block:
            center, radius = divmod(block - 1, len(RING_RADII))
            ring = lam[center] + RING_RADII[radius] * ring
        parts.append(ring)
    return np.concatenate(parts)


def certify_core(matrix, spectrum, circle_samples: int = CIRCLE_SAMPLES) -> float:
    """Worst deviation |resolvent norm * dist - 1| over the sampling set.

    Test points are circles of radii RING_RADII around each eigenvalue plus
    one sweep of the unit circle; points closer than TESTPOINT_GUARD to the
    spectrum are dropped to keep the resolvent solves conditioned. The
    points are swept in order, in chunks of at most _SWEEP_BYTES of stacked
    n x n matrices (at least one point). Each chunk builds its own points
    from its index range (_test_points), computes their distances to the
    spectrum, and takes linalg.spectral_norm of their linalg.resolvents as
    the resolvent norms, so no array spans the whole sweep. A Singular
    point stops the sweep. A spectrum without one eigenvalue per row raises
    ValueError first.
    """
    a = linalg.as_matrix(matrix)
    lam = np.asarray(spectrum, dtype=np.complex128).ravel()
    if lam.size != a.shape[0]:
        raise ValueError(f"{lam.size} eigenvalues for a {a.shape[0]}x{a.shape[0]} matrix")
    if circle_samples < 1:
        raise ConfigError("circle_samples must be positive")
    total = circle_samples * (1 + len(RING_RADII) * lam.size)
    chunk = max(1, _SWEEP_BYTES // a.nbytes)
    workspace = np.empty((2, min(chunk, total)) + a.shape, dtype=np.complex128)
    worst = 0.0
    for start in range(0, total, chunk):
        zc = _test_points(lam, circle_samples, start, min(start + chunk, total))
        dist = np.abs(zc[:, None] - lam[None, :]).min(axis=1)
        keep = dist >= TESTPOINT_GUARD
        norms = linalg.spectral_norm(linalg.resolvents(a, zc[keep], workspace), workspace)
        dev = np.abs(norms * dist[keep] - 1.0)
        # fmax skips a NaN deviation, as max(worst, nan) does
        worst = float(np.fmax.reduce(dev, initial=worst))
    return worst
