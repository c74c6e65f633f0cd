"""Generation and certification of growth-condition (G1) operators.

An operator is G1 when ||(z - A)^{-1}|| = 1 / dist(z, sigma(A)) away from
its spectrum. Normal matrices satisfy this exactly, so the generated
population is normal by construction: Haar unitary conjugations of spectra
drawn uniformly inside a disk of radius rho_max < 1. Externally supplied
candidates are admitted only through the numerical certificate, which
sweeps the test points in chunks of at most _SWEEP_BYTES of stacked n x n
matrices, so its memory stays bounded whatever n and the sample count.
"""

from __future__ import annotations

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
# Bytes of stacked n x n matrices per chunk of the certify sweep. The
# sweep holds a few such stacks at once.
_SWEEP_BYTES = 256 << 10


def boundary_distance(spectrum) -> float:
    """min_i (1 - |lambda_i|), the distance from the unit circle to the spectrum."""
    lam = np.asarray(spectrum, dtype=np.complex128).ravel()
    if lam.size == 0:
        raise ValueError("spectrum must be non-empty")
    margins = 1.0 - np.abs(lam)
    smallest = float(margins.min())
    if smallest <= BOUNDARY_GUARD:
        raise SpectrumOnBoundary(f"eigenvalue within {BOUNDARY_GUARD} of the unit circle")
    return smallest


@dataclass(frozen=True)
class G1Operator:
    """A matrix with known spectrum inside the unit disk and boundary distance d.

    Generated operators carry their diagonalizing unitary and are validated
    as exactly normal; file-loaded candidates may omit the unitary, in which
    case a growth-condition certificate is required. A certificate, when
    given, must be <= CERT_THRESHOLD whether or not a unitary is present; it
    is checked first, so a failing certificate is reported as such even when
    the rest of the bundle is inconsistent too.
    """

    matrix: np.ndarray
    spectrum: np.ndarray
    unitary: np.ndarray | None
    d: float
    certificate: float | None = field(default=None)

    def __post_init__(self):
        if self.certificate is not None and self.certificate > CERT_THRESHOLD:
            raise CertificationFailed(
                f"growth-condition certificate {self.certificate:.6e} exceeds {CERT_THRESHOLD}"
            )
        matrix = linalg.as_matrix(self.matrix)
        lam = np.asarray(self.spectrum, dtype=np.complex128).ravel()
        n = matrix.shape[0]
        if lam.size != n:
            raise ValueError(f"{lam.size} eigenvalues for a {n}x{n} matrix")
        if abs(self.d - boundary_distance(lam)) > D_TOL:
            raise ValueError("d does not match min(1 - |lambda|)")
        if self.unitary is not None:
            u = linalg.as_matrix(self.unitary)
            if np.linalg.norm(linalg.adjoint(u) @ u - np.eye(n)) > linalg.UNITARY_TOL:
                raise ValueError("diagonalizer is not unitary within tolerance")
            recon = (u * lam) @ linalg.adjoint(u)
            if np.linalg.norm(recon - matrix) > RECONSTRUCTION_TOL:
                raise ValueError("matrix does not match U diag(spectrum) U*")
            adj = linalg.adjoint(matrix)
            commutator = adj @ matrix - matrix @ adj
            if np.linalg.norm(commutator) > NORMALITY_TOL * np.linalg.norm(matrix) ** 2:
                raise ValueError("matrix is not normal within tolerance")
            object.__setattr__(self, "unitary", u)
        elif self.certificate is None:
            raise CertificationFailed("operators without a diagonalizer need a growth certificate")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "spectrum", lam)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R diagonal."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = np.where(np.abs(diag) > 0.0, diag / np.abs(diag), 1.0)
    return q * phases


def _uniform_disk(rng: np.random.Generator, k: int) -> np.ndarray:
    """k points uniform on the unit disk, by rejection from the bounding square."""
    out: list[complex] = []
    while len(out) < k:
        xy = rng.uniform(-1.0, 1.0, size=(max(2 * (k - len(out)), 8), 2))
        keep = xy[:, 0] ** 2 + xy[:, 1] ** 2 <= 1.0
        out.extend((xy[keep, 0] + 1j * xy[keep, 1]).tolist())
    return np.asarray(out[:k], dtype=np.complex128)


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
    return G1Operator(matrix=matrix, spectrum=spectrum, unitary=unitary,
                      d=boundary_distance(spectrum))


def certify_core(matrix, spectrum, circle_samples: int = 64) -> float:
    """Worst deviation |resolvent norm * dist - 1| over the sampling set.

    Test points are circles of radii RING_RADII around each eigenvalue plus
    one sweep of the unit circle; points closer than TESTPOINT_GUARD to the
    spectrum are dropped to keep the resolvent solves conditioned. The
    points are swept in order, in chunks of at most _SWEEP_BYTES of stacked
    n x n matrices (at least one point): the loop computes each chunk's
    distances to the spectrum, and linalg.spectral_norm of the chunk's
    linalg.resolvents its resolvent norms. A Singular point stops the sweep.
    A spectrum without one eigenvalue per row raises ValueError first.
    """
    a = linalg.as_matrix(matrix)
    lam = np.asarray(spectrum, dtype=np.complex128).ravel()
    if lam.size != a.shape[0]:
        raise ValueError(f"{lam.size} eigenvalues for a {a.shape[0]}x{a.shape[0]} matrix")
    if circle_samples < 1:
        raise ConfigError("circle_samples must be positive")
    ring = np.exp(2j * np.pi * np.arange(circle_samples) / circle_samples)
    points = [ring]
    for center in lam:
        for rho in RING_RADII:
            points.append(center + rho * ring)
    z = np.concatenate(points)
    del points
    chunk = max(1, _SWEEP_BYTES // a.nbytes)
    worst = 0.0
    for start in range(0, z.size, chunk):
        zc = z[start:start + chunk]
        dist = np.abs(zc[:, None] - lam[None, :]).min(axis=1)
        keep = dist >= TESTPOINT_GUARD
        norms = linalg.spectral_norm(linalg.resolvents(a, zc[keep]))
        dev = np.abs(norms * dist[keep] - 1.0)
        # fmax skips a NaN deviation, as max(worst, nan) does
        worst = float(np.fmax.reduce(dev, initial=worst))
    return worst

