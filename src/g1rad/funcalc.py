"""Herglotz-class functions on the unit disk and their matrix calculus.

A function here is a discrete probability measure on the circle,

    f(z) = sum_j w_j (e^{i a_j} + z) / (e^{i a_j} - z),

which is analytic on |z| < 1 with Re(f) > 0 and f(0) = 1. Matrix arguments
are handled by two independent routes, both on a checked G1Operator:
unitary diagonalization of one that carries its diagonalizer, and
trapezoidal quadrature of the Cauchy resolvent integral, over one stack of
resolvents from linalg.resolvents, for any of them. The
conjugate function acts as fbar(A) = (f(A))*; the tests check this identity
against a direct conjugate-kernel summation kept in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .g1gen import G1Operator

WEIGHT_SUM_TOL = 1e-14
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class HerglotzFunction:
    """Atomic boundary measure: angles in [0, 2pi) and weights summing to 1.

    Every check is written as "not (value within bounds)", so a NaN angle or
    weight fails it. The atoms e^{i a_j} are computed once, here.
    """

    angles: np.ndarray
    weights: np.ndarray
    phases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=np.float64).ravel()
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if angles.size < 1 or angles.shape != weights.shape:
            raise ValueError("need k >= 1 atoms with matching angle/weight lists")
        if not (angles.min() >= 0.0 and angles.max() < TWO_PI):
            raise ValueError("angles must lie in [0, 2pi)")
        if not (weights.min() >= 0.0):
            raise ValueError("weights must be nonnegative")
        if not (abs(weights.sum() - 1.0) <= WEIGHT_SUM_TOL):
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "phases", np.exp(1j * angles))


def _kernel_sum(f: HerglotzFunction, z):
    """Weighted Herglotz kernel sum, broadcast over an array of points."""
    z = np.asarray(z, dtype=np.complex128)[..., None]
    e = f.phases
    return np.sum(f.weights * (e + z) / (e - z), axis=-1)


def random_herglotz(seed: int, atoms: int) -> HerglotzFunction:
    """Draw angles uniformly on [0, 2pi) and normalized positive weights."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, TWO_PI, size=atoms)
    weights = rng.uniform(size=atoms)
    weights /= weights.sum()
    return HerglotzFunction(angles, weights)


def apply_normal(f: HerglotzFunction, op: G1Operator) -> np.ndarray:
    """f(A) = U diag(f(lambda)) U* for an operator that carries its diagonalizer U.

    G1Operator has already checked that U is unitary, that A = U diag(lambda) U*
    and that the spectrum lies inside the unit disk. An operator without U
    raises ValueError; riesz_dunford takes any operator.
    """
    if op.unitary is None:
        raise ValueError("apply_normal needs the operator's diagonalizer; use riesz_dunford")
    return (op.unitary * _kernel_sum(f, op.spectrum)) @ linalg.adjoint(op.unitary)


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
    terms = (z * _kernel_sum(f, z))[:, None, None] * linalg.resolvents(op.matrix, z)
    return terms.sum(axis=0) / nodes
