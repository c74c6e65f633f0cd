"""Generation and certification of growth-condition (G1) operators.

An operator is G1 when ||(z - A)^{-1}|| = 1 / dist(z, sigma(A)) away from
its spectrum. Normal matrices satisfy this exactly, so the generated
population is normal by construction: Haar unitary conjugations of spectra
drawn uniformly inside a disk of radius rho_max < 1. They are built a stack
at a time, as one G1Stack of arrays (random_g1_stack): each operator fills
its spectrum's first rejection round and its Ginibre matrix from its own
seed's stream, then one QR, one reconstruction U diag(lambda) U* and one run
of _validate cover the stack, and each keeps the bits it has alone (random_g1
views a stack of one as a G1Operator). generators gives every stream that
sampling draws with the bits of np.random.default_rng(seed), seeding a chunk's
trials, or its functions and operators, in one pass of SeedSequence's hash.
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
from collections import namedtuple
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
            residuals[1].reshape(k, n * n)[:, ::n + 1] -= 1.0
            np.subtract((unitaries * spectra[:, None, :]) @ u_adj, matrices, out=residuals[2])
        norms = linalg._fro_norms(residuals.reshape(-1, n, n)).reshape(len(residuals), k)
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


# numpy's SeedSequence (pool size 4) and PCG64 seeding constants: the hash
# multipliers of the pool and of generate_state, the pool's mix, and PCG64's
# 128-bit LCG multiplier (M. O'Neill, PCG, HMC-CS-2014-0905).
_MULT_A, _MULT_B = 0x931E8875, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_OTHER_WORDS = [np.array([i for i in range(4) if i != src]) for src in range(4)]
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants of count successive hashmix calls, and the one after."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


# mix_entropy makes 16 hashmix calls (4 to fill the pool, 3 per pool word to
# mix it into the others) and generate_state(4, uint64) hashes 8 words
_HASH_A = _hash_constants(0x43B0D7E5, _MULT_A, 16)
_HASH_B = _hash_constants(0x8B51F9DD, _MULT_B, 8)
# Seeding with one draw, timeit on a 2-vCPU x86-64 host, numpy 2.4: the
# kernel costs about 45-75 us a call plus 2-2.5 us a seed, default_rng about
# 9 us a seed, so the kernel pays from about 8 seeds (69 against 62 us at 8,
# 68 against 84 at 10). 12 keeps a margin for the slower fixed cost; below it
# a list of seeds goes through default_rng.
_KERNEL_SEEDS = 12


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of value with its row of consts,
    a (rows + 1, 1) slice of _HASH_A or _HASH_B: xor, multiply, xorshift."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _pcg64_states(seeds) -> list:
    """The PCG64 (state, inc) of np.random.default_rng(seed) for each seed.

    SeedSequence hashes each seed's two 32-bit words (low first; a seed below
    2^32 hashes the same with its zero high word) into a pool of 4 words, as
    uint32 arrays over all the seeds at once. In the mixing step each source
    word's three mixes into the other pool words are independent, so they run
    as one (3, k) step. generate_state(4, uint64) hashes 8 words; PCG64 takes
    the first two uint64 as its initial state and the last two as its stream.
    """
    words = np.array(seeds, dtype=np.uint64)
    entropy = np.zeros((4, words.size), dtype=np.uint32)
    entropy[0] = words & 0xFFFFFFFF
    entropy[1] = words >> 32
    pool = _hashmix(entropy, _HASH_A[:5])
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[src], _HASH_A[4 + 3 * src:8 + 3 * src])
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).astype(np.uint64)
    state = (state[0::2] | state[1::2] << 32).tolist()  # 4 little-endian uint64 words
    states = []
    for high, low, seq_high, seq_low in zip(*state):
        inc = (seq_high << 65 | seq_low << 1 | 1) & _MASK128
        states.append(((((high << 64 | low) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def generators(seeds):
    """Yield one np.random.Generator per seed, with the stream of
    np.random.default_rng(seed); seeds are ints in [0, 2^64).

    From _KERNEL_SEEDS seeds on, one Generator, made for the call, is
    re-seeded in place for each seed (through bit_generator.state) from
    _pcg64_states, so each yielded Generator must be used up before the next
    is taken. Fewer seeds take one default_rng call each. No state outlives
    a call, so calls on different threads are independent. numpy's random
    compatibility policy (NEP 19) keeps SeedSequence and PCG64 seeding fixed
    across releases; the tests check the streams against default_rng bit for
    bit, the buffered 32-bit word included.
    """
    if len(seeds) < _KERNEL_SEEDS:
        yield from map(np.random.default_rng, seeds)
        return
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for state, inc in _pcg64_states(seeds):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """One Haar-distributed n x n unitary per Ginibre matrix of a
    (k, 2, n, n) block of standard normals, as a (k, n, n) stack.

    Each block member holds the real parts, then the imaginary parts, of its
    Ginibre matrix Z's standard complex Gaussian entries. One np.linalg.qr
    call factors the stack, and each Q has its columns' phases fixed by
    diag(R) (F. Mezzadri, Notices AMS 54, 2007). np.linalg.qr runs LAPACK
    geqrf and ungqr from numpy's own LAPACK on each matrix, so sampling loads
    no second one; the tests hold each unitary to the bits of scipy's
    geqrf/ungqr on its own Z.
    """
    q, r = np.linalg.qr((normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2.0))
    diag = r.diagonal(axis1=-2, axis2=-1)
    size = np.abs(diag)
    return q * np.where(size > 0.0, diag / size, 1.0)[:, None, :]


def _uniform_disk(rng: np.random.Generator, k: int) -> np.ndarray:
    """k points uniform on the unit disk, by rejection from the bounding square."""
    out = np.empty(0, dtype=np.complex128)
    while out.size < k:
        pts = rng.uniform(-1.0, 1.0, size=(max(2 * (k - out.size), 8), 2))
        x, y = pts.T
        # each row (x, y) read as the complex x + iy: the same doubles, no arithmetic
        kept = pts.view(np.complex128)[x ** 2 + y ** 2 <= 1.0, 0]
        out = np.concatenate((out, kept)) if out.size else kept
    return out[:k]


# k operators of one n: (k, n, n) matrices, (k, n) spectra, (k, n, n) unitaries or None, k floats d
G1Stack = namedtuple("G1Stack", "matrices spectra unitaries d")


def _member(cls, stack: tuple, i: int):
    """Member i of a checked stack as a cls of views of its parts; later fields keep defaults."""
    member = object.__new__(cls)  # no check: the stack's ran
    vars(member).update(zip(cls.__dataclass_fields__, [part[i] for part in stack]))
    return member


def random_g1_stack(seeds, n: int, rho_max: float, streams=None) -> G1Stack:
    """One seed-deterministic normal operator per seed, with spectrum in the
    disk of radius rho_max, built and checked as one G1Stack.

    Each operator takes one stream, the next of streams (by default
    generators(seeds), the streams of np.random.default_rng(seed)): one
    rng.random fill of the max(2n, 8) points of _uniform_disk's first round,
    whose 2d - 1 are the bits of its uniform(-1, 1) (numpy's -1 + 2d), then
    its Ginibre matrix's normals into its member of one (k, 2, n, n) block.
    The disk test and the first n points inside are taken over the stack; an
    operator whose first round keeps fewer (about 1 in 100 at n = 8) is drawn
    again, through _uniform_disk, from a default_rng of its seed. The QR
    (_haar_unitaries), the phase fix, the products U diag(lambda) U*
    (linalg.diag_similarity) and _validate's checks then run once over the
    stack. Each member has the bits that a stack of its seed alone gives it
    (random_g1), which the tests check over stack sizes and n.
    """
    if not 0.0 < rho_max < 1.0:
        raise ConfigError(f"rho_max must lie in (0, 1), got {rho_max}")
    if n < 1:
        raise ConfigError("dimension must be positive")
    points = np.empty((len(seeds), max(2 * n, 8), 2))
    normals = np.empty((len(seeds), 2, n, n))
    # the rows go first: zip stops on them without taking a stream past the last
    for row, out, rng in zip(points, normals, generators(seeds) if streams is None else streams):
        rng.random(out=row)
        rng.standard_normal(out=out)
    points = 2.0 * points - 1.0
    inside = points[..., 0] ** 2 + points[..., 1] ** 2 <= 1.0
    first = inside & (np.cumsum(inside, axis=1) <= n)
    full = first.sum(axis=1) == n
    spectra = np.empty((len(seeds), n), dtype=np.complex128)
    spectra[full] = points[full].view(np.complex128)[first[full], 0].reshape(-1, n)
    for i in np.flatnonzero(~full):
        rng = np.random.default_rng(seeds[i])
        spectra[i] = _uniform_disk(rng, n)
        rng.standard_normal(out=normals[i])
    spectra *= rho_max
    unitaries = _haar_unitaries(normals)
    matrices = linalg.diag_similarity(unitaries, spectra)
    return G1Stack(matrices, spectra, unitaries, _validate(matrices, spectra, unitaries).tolist())


def random_g1(seed: int, n: int, rho_max: float) -> G1Operator:
    """Seed-deterministic normal operator with spectrum in the disk of radius rho_max."""
    return _member(G1Operator, random_g1_stack((seed,), n, rho_max), 0)


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
