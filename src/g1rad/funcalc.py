"""Herglotz-class functions on the unit disk and their matrix calculus.

A function here is a discrete probability measure on the circle,

    f(z) = sum_j w_j (e^{i a_j} + z) / (e^{i a_j} - z),

which is analytic on |z| < 1 with Re(f) > 0 and f(0) = 1. Random functions
are drawn a stack at a time, as one HerglotzStack (random_herglotz_stack),
each with one uniform fill of its own seed's stream, and checked once over
the stack. Matrix arguments are handled by two independent routes, both on
checked G1 operators: unitary diagonalization of those that carry their
diagonalizer, over a function and an operator stack at a time
(apply_normal_stack), and trapezoidal quadrature of the Cauchy resolvent
integral over one linalg.resolvents stack, for any of them. The
conjugate function acts as fbar(A) = (f(A))*; the tests check this identity
against a direct conjugate-kernel summation kept in tests/oracles.py.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import g1gen, linalg
from .g1gen import G1Operator

WEIGHT_SUM_TOL = 1e-14
TWO_PI = 2.0 * np.pi
_NO_DIAGONALIZER = "apply_normal needs the operator's diagonalizer; use riesz_dunford"


def _check_atoms(angles: np.ndarray, weights: np.ndarray) -> None:
    """HerglotzFunction's checks on (k, atoms) stacks of angles and weights.

    Every check is written as "not (value within bounds)", so a NaN angle or
    weight fails it. The first member that fails a check raises the first
    check it fails, with HerglotzFunction's message for it alone.
    """
    if angles.shape[-1] < 1 or angles.shape != weights.shape:
        raise ValueError("need k >= 1 atoms with matching angle/weight lists")
    g1gen._raise_first_failure([
        ((angles.min(axis=-1) >= 0.0) & (angles.max(axis=-1) < TWO_PI), ValueError,
         "angles must lie in [0, 2pi)"),
        (weights.min(axis=-1) >= 0.0, ValueError, "weights must be nonnegative"),
        (abs(weights.sum(axis=-1) - 1.0) <= WEIGHT_SUM_TOL, ValueError,
         "weights must sum to 1"),
    ])


@dataclass(frozen=True)
class HerglotzFunction:
    """Atomic boundary measure: angles in [0, 2pi) and weights summing to 1.

    The checks are _check_atoms' on a stack of one, the same code that checks
    random_herglotz_stack's stacks. The atoms e^{i a_j} are computed once, here.
    """

    angles: np.ndarray
    weights: np.ndarray
    phases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=np.float64).ravel()
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        _check_atoms(angles[None], weights[None])
        vars(self).update(angles=angles, weights=weights, phases=np.exp(1j * angles))


def _kernel_sum(weights: np.ndarray, phases: np.ndarray, z):
    """Weighted Herglotz kernel sum of the atoms (weights, phases) along their
    last axis, broadcast over an array of points."""
    z = np.asarray(z, dtype=np.complex128)[..., None]
    return np.sum(weights * (phases + z) / (phases - z), axis=-1)


# k functions of one atom count: (k, atoms) angles, weights and phases e^{i a_j}
HerglotzStack = namedtuple("HerglotzStack", "angles weights phases")


def random_herglotz_stack(seeds, atoms: int, streams=None) -> HerglotzStack:
    """One seed-deterministic function per seed, drawn and checked as one stack.

    Each function takes one stream, the next of streams (by default
    g1gen.generators(seeds), the streams of np.random.default_rng(seed)):
    one rng.random fill of 2 atoms doubles d, whose first atoms give its
    angles 2 pi d and the rest its weights d, the bits of uniform(0, 2pi)
    then uniform() (numpy's low + (high - low) d). Each row of weights is
    then divided by its sum, _check_atoms checks the stack and one np.exp
    gives every phase. A row's sum along the last axis is the 1-d sum of the
    row, so each member has the bits that a stack of its seed alone gives it
    (random_herglotz).
    """
    draws = np.empty((len(seeds), 2 * atoms))
    # the rows go first: zip stops on them without taking a stream past the last
    for row, rng in zip(draws, g1gen.generators(seeds) if streams is None else streams):
        rng.random(out=row)
    angles = TWO_PI * draws[:, :atoms]
    weights = draws[:, atoms:] / draws[:, atoms:].sum(axis=-1, keepdims=True)
    _check_atoms(angles, weights)
    return HerglotzStack(angles, weights, np.exp(1j * angles))


def random_herglotz(seed: int, atoms: int) -> HerglotzFunction:
    """Draw angles uniformly on [0, 2pi) and normalized positive weights."""
    return g1gen._member(HerglotzFunction, random_herglotz_stack((seed,), atoms), 0)


def apply_normal_stack(fs: HerglotzStack, ops: g1gen.G1Stack) -> np.ndarray:
    """f(A) = U diag(f(lambda)) U* for k functions and m k operators that carry
    their diagonalizer U, as an (m k, n, n) stack: function i applies to
    operators m i to m i + m - 1 (a two-operator row's A and B, at m = 2).
    One array expression, each function broadcast over its operators, gives
    every kernel sum f(lambda), and one linalg.diag_similarity call every
    product, so each member has the bits of apply_normal on its pair alone.
    G1Operator has already checked that U is unitary, that A = U diag(lambda)
    U* and that the spectrum lies inside the unit disk. A stack without U
    raises ValueError; riesz_dunford takes any operator.
    """
    if ops.unitaries is None:
        raise ValueError(_NO_DIAGONALIZER)
    spectra = ops.spectra.reshape(len(fs.weights), -1, ops.spectra.shape[-1])
    values = _kernel_sum(fs.weights[:, None, None, :], fs.phases[:, None, None, :], spectra)
    return linalg.diag_similarity(ops.unitaries, values.reshape(ops.spectra.shape))


def apply_normal(f: HerglotzFunction, op: G1Operator) -> np.ndarray:
    """f(A) = U diag(f(lambda)) U*, by apply_normal_stack's expressions on one pair."""
    if op.unitary is None:
        raise ValueError(_NO_DIAGONALIZER)
    values = _kernel_sum(f.weights, f.phases, op.spectrum)
    return linalg.diag_similarity(op.unitary[None], values[None])[0]


def riesz_dunford(f: HerglotzFunction, op: G1Operator, nodes: int = 512) -> np.ndarray:
    """f(A) by trapezoidal quadrature of (1/2pi i) int f(z) (z - A)^{-1} dz.

    The contour is the circle of radius (max|spectrum| + 1)/2, midway
    between the spectral radius and the unit circle; the trapezoid rule
    converges geometrically there since the integrand is analytic in an
    annulus around it. G1Operator has already checked the spectrum.
    """
    if nodes < 32:
        raise ValueError("nodes must be at least 32")
    radius = 0.5 * (float(np.max(np.abs(op.spectrum))) + 1.0)
    z = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    values = z * _kernel_sum(f.weights, f.phases, z)
    terms = values[:, None, None] * linalg.resolvents(op.matrix, z)
    return terms.sum(axis=0) / nodes
