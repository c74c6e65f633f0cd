"""Two-sided evaluation of the numerical-radius inequality catalog.

Each checker computes the left and right sides of one statement on concrete
matrices and returns an InequalityReport with the tightness ratio lhs/rhs.
Statements are named by their catalog ids (lemma21a..f, thm22, cor23,
thm24, rem25, cor26, rem27); variants select the sign or expression form.
Checkers take their operands as the sampler or G1Operator built them and
re-check none of them; only rem25's own hypothesis, a self-adjoint X, is checked.
f(A) is funcalc.apply_normal's, so every G1Operator must carry its diagonalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import funcalc, linalg, wradius
from .errors import NotSelfAdjoint
from .funcalc import HerglotzFunction
from .g1gen import G1Operator

PASS_REL = 1e-8
PASS_ABS = 1e-10
EQUALITY_REL = 1e-8
SELFADJOINT_TOL = 1e-10


@dataclass(frozen=True)
class InequalityReport:
    """One checked instance: both sides, tightness ratio, and pass flag."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    seed: int
    dim: int


def _report(name, lhs, rhs, seed, dim, equality=False) -> InequalityReport:
    lhs, rhs = float(lhs), float(rhs)
    if equality:
        passed = abs(lhs - rhs) <= EQUALITY_REL * (1.0 + rhs)
    else:
        passed = lhs <= rhs * (1.0 + PASS_REL) + PASS_ABS
    ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else math.inf)
    return InequalityReport(name, lhs, rhs, ratio, bool(passed), seed, dim)


def _w(m: np.ndarray) -> float:
    return wradius.numerical_radius(m).value


def _norm(m: np.ndarray) -> float:
    return linalg.spectral_norm(m)


def _offdiag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[[0, X], [Y, 0]] in one zeroed array: np.block's bits at a tenth of its
    cost. Blocks that are not both n x n raise ValueError, not broadcast."""
    n = len(x)
    if x.shape != (n, n) or y.shape != (n, n):
        raise ValueError(f"off-diagonal blocks of shapes {x.shape} and {y.shape}")
    out = np.zeros((2 * n, 2 * n), dtype=np.result_type(x, y))
    out[:n, n:] = x
    out[n:, :n] = y
    return out


def _sign(sign: str) -> float:
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return 1.0 if sign == "+" else -1.0


def _commutator(f, opa, opb, x, variant) -> np.ndarray:
    """f(A) X fbar(B) - f(B) X fbar(A), or f(A) X fbar(B) + 2X + f(B) X fbar(A)."""
    fa, fb = funcalc.apply_normal(f, opa), funcalc.apply_normal(f, opb)
    if variant == "commutator":
        return fa @ x @ linalg.adjoint(fb) - fb @ x @ linalg.adjoint(fa)
    if variant == "anticommutator2X":
        return fa @ x @ linalg.adjoint(fb) + 2.0 * x + fb @ x @ linalg.adjoint(fa)
    raise ValueError(f"variant must be 'commutator' or 'anticommutator2X', got {variant!r}")


def _cross(opa, opb, x) -> tuple:
    """(A X B*, B X A*)."""
    a, b = opa.matrix, opb.matrix
    return a @ x @ linalg.adjoint(b), b @ x @ linalg.adjoint(a)


def check_lemma21_a(a, x, seed: int = 0) -> InequalityReport:
    """w(A* X A) <= ||A||^2 w(X)."""
    lhs = _w(linalg.adjoint(a) @ x @ a)
    rhs = _norm(a) ** 2 * _w(x)
    return _report("lemma21a", lhs, rhs, seed, len(x))


def check_lemma21_b(a, x, sign: str, seed: int = 0) -> InequalityReport:
    """w(A X +/- X A*) <= 2 ||A|| w(X)."""
    lhs = _w(a @ x + _sign(sign) * (x @ linalg.adjoint(a)))
    rhs = 2.0 * _norm(a) * _w(x)
    return _report(f"lemma21b:{sign}", lhs, rhs, seed, len(x))


def check_lemma21_c(a, b, x, y, sign: str, seed: int = 0) -> InequalityReport:
    """w(A* X B +/- B* Y A) <= 2 ||A|| ||B|| w([[0, X], [Y, 0]])."""
    lhs = _w(linalg.adjoint(a) @ x @ b + _sign(sign) * (linalg.adjoint(b) @ y @ a))
    rhs = 2.0 * _norm(a) * _norm(b) * _w(_offdiag(x, y))
    return _report(f"lemma21c:{sign}", lhs, rhs, seed, len(x))


def check_lemma21_d(a, b, x, y, seed: int = 0) -> InequalityReport:
    """w([[0, A X B*], [B Y A*, 0]]) <= max(||A||^2, ||B||^2) w([[0, X], [Y, 0]])."""
    lhs = _w(_offdiag(a @ x @ linalg.adjoint(b), b @ y @ linalg.adjoint(a)))
    rhs = max(_norm(a) ** 2, _norm(b) ** 2) * _w(_offdiag(x, y))
    return _report("lemma21d", lhs, rhs, seed, len(x))


def check_lemma21_e(x, y, seed: int = 0) -> InequalityReport:
    """w([[0, X], [Y, 0]]) <= (w(X + Y) + w(X - Y)) / 2."""
    lhs = _w(_offdiag(x, y))
    rhs = 0.5 * (_w(x + y) + _w(x - y))
    return _report("lemma21e", lhs, rhs, seed, len(x))


def check_lemma21_f(x, theta: float, seed: int = 0) -> InequalityReport:
    """Equality w([[0, X], [e^{i theta} X, 0]]) = w(X), checked both ways."""
    lhs = _w(_offdiag(x, np.exp(1j * theta) * x))
    rhs = _w(x)
    return _report("lemma21f", lhs, rhs, seed, len(x), equality=True)


def check_thm22(f: HerglotzFunction, op: G1Operator, x, variant: str,
                seed: int = 0) -> InequalityReport:
    """w(f(A) X + X fbar(A)) <= (2/d^2) w(X - A X A*), and the difference form
    w(f(A) X - X fbar(A)) <= (4/d^2) ||A|| w(X)."""
    a = op.matrix
    fa = funcalc.apply_normal(f, op)
    fbar = linalg.adjoint(fa)
    if variant == "sum":
        lhs = _w(fa @ x + x @ fbar)
        rhs = (2.0 / op.d**2) * _w(x - a @ x @ linalg.adjoint(a))
    elif variant == "diff":
        lhs = _w(fa @ x - x @ fbar)
        rhs = (4.0 / op.d**2) * _norm(a) * _w(x)
    else:
        raise ValueError(f"variant must be 'sum' or 'diff', got {variant!r}")
    return _report(f"thm22:{variant}", lhs, rhs, seed, op.dim)


def check_cor23(f: HerglotzFunction, op: G1Operator, variant: str,
                seed: int = 0) -> InequalityReport:
    """||Re f(A)|| <= (1/d^2) ||I - A A*||, and ||Im f(A)|| <= (2/d^2) ||A||."""
    a = op.matrix
    fa = funcalc.apply_normal(f, op)
    if variant == "re":
        lhs = _norm(linalg.herm_part(fa))
        rhs = (1.0 / op.d**2) * _norm(np.eye(op.dim) - a @ linalg.adjoint(a))
    elif variant == "im":
        lhs = _norm(linalg.skew_part(fa))
        rhs = (2.0 / op.d**2) * _norm(a)
    else:
        raise ValueError(f"variant must be 're' or 'im', got {variant!r}")
    return _report(f"cor23:{variant}", lhs, rhs, seed, op.dim)


def check_thm24(f: HerglotzFunction, opa: G1Operator, opb: G1Operator, x,
                variant: str, seed: int = 0) -> InequalityReport:
    """w(f(A) X fbar(B) -/+ ...) <= (2/(dA dB)) [2w(X) + w(AXB* + BXA*) + w(AXB* - BXA*)]."""
    lhs = _w(_commutator(f, opa, opb, x, variant))
    axb, bxa = _cross(opa, opb, x)
    rhs = (2.0 / (opa.d * opb.d)) * (2.0 * _w(x) + _w(axb + bxa) + _w(axb - bxa))
    return _report(f"thm24:{variant}", lhs, rhs, seed, len(x))


def check_rem25(f: HerglotzFunction, opa: G1Operator, opb: G1Operator, x,
                variant: str, seed: int = 0) -> InequalityReport:
    """Operator-norm form for self-adjoint X:
    ||f(A) X fbar(B) -/+ ...|| <= (4/(dA dB)) max(||X|| + ||AXB*||, ||X|| + ||BXA*||)."""
    if not (np.linalg.norm(x - linalg.adjoint(x)) <= SELFADJOINT_TOL):
        raise NotSelfAdjoint("X must be self-adjoint within tolerance")
    lhs = _norm(_commutator(f, opa, opb, x, variant))
    axb, bxa = _cross(opa, opb, x)
    nx = _norm(x)
    rhs = (4.0 / (opa.d * opb.d)) * max(nx + _norm(axb), nx + _norm(bxa))
    return _report(f"rem25:{variant}", lhs, rhs, seed, len(x))


def check_cor26(f: HerglotzFunction, opa: G1Operator, opb: G1Operator, variant: str,
                seed: int = 0) -> InequalityReport:
    """||Im(f(A) fbar(B))|| and ||Re(f(A) fbar(B)) + I|| <= (2/(dA dB)) (1 + ||AB*||)."""
    product = funcalc.apply_normal(f, opa) @ linalg.adjoint(funcalc.apply_normal(f, opb))
    if variant == "im":
        lhs = _norm(linalg.skew_part(product))
    elif variant == "re_plus_I":
        lhs = _norm(linalg.herm_part(product) + np.eye(opa.dim))
    else:
        raise ValueError(f"variant must be 'im' or 're_plus_I', got {variant!r}")
    rhs = (2.0 / (opa.d * opb.d)) * (1.0 + _norm(opa.matrix @ linalg.adjoint(opb.matrix)))
    return _report(f"cor26:{variant}", lhs, rhs, seed, opa.dim)


def check_rem27(f: HerglotzFunction, opa: G1Operator, opb: G1Operator, x,
                variant: str, seed: int = 0) -> InequalityReport:
    """w(f(A) X fbar(B) -/+ ...) <= (4/(dA dB)) (1 + max(||A||^2, ||B||^2)) w(X)."""
    lhs = _w(_commutator(f, opa, opb, x, variant))
    norm_max = max(_norm(opa.matrix) ** 2, _norm(opb.matrix) ** 2)
    rhs = (4.0 / (opa.d * opb.d)) * (1.0 + norm_max) * _w(x)
    return _report(f"rem27:{variant}", lhs, rhs, seed, len(x))
