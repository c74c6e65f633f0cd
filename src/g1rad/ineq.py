"""Two-sided evaluation of the numerical-radius inequality catalog.

Each checker computes the left and right sides of one statement on concrete
matrices and returns an InequalityReport with the tightness ratio lhs/rhs.
Statements are named by their catalog ids (lemma21a..f, thm22, cor23,
thm24, rem25, cor26, rem27); variants select the sign or expression form.
Checkers take their operands as runner and the samplers built them and
re-check none of them; only rem25's own hypothesis, a self-adjoint X, is checked.
f(A) is funcalc.apply_normal_stack's, so every operator must carry its
diagonalizer. The w() checkers take one trial; the norm checkers cor23,
rem25 and cor26 take a chunk of trials of one n: one apply_normal_stack call
gives every f(A) and f(B), and each norm operand takes one spectral_norm
call, over the trials of one variant, or over the chunk when it does not
depend on the variant. Each right side is then formed in Python floats, in
the order of operations of one trial, so a trial has the same bits in any
chunk, a chunk of one included.
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


def _commutator(fa, fb, x, variant) -> np.ndarray:
    """f(A) X fbar(B) - f(B) X fbar(A), or f(A) X fbar(B) + 2X + f(B) X fbar(A),
    of matrices or of stacks."""
    if variant == "commutator":
        return fa @ x @ linalg.adjoint(fb) - fb @ x @ linalg.adjoint(fa)
    if variant == "anticommutator2X":
        return fa @ x @ linalg.adjoint(fb) + 2.0 * x + fb @ x @ linalg.adjoint(fa)
    raise ValueError(f"variant must be 'commutator' or 'anticommutator2X', got {variant!r}")


def _cross(a, b, x) -> tuple:
    """(A X B*, B X A*), of matrices or of stacks."""
    return a @ x @ linalg.adjoint(b), b @ x @ linalg.adjoint(a)


def _norms(stack: np.ndarray) -> list:
    """The spectral norm of each matrix of a stack, from one call, as floats."""
    return linalg.spectral_norm(stack).tolist()


def _even_odd(stack) -> tuple:
    """The A and B members of a stack that holds each trial's A, then its B."""
    return stack[0::2], stack[1::2]


def _by_variant(suite, allowed, variants, seeds, dim, sides) -> list:
    """The reports of a chunk of trials, in order.

    sides(variant, idx) returns the lhs and rhs lists of the trials idx that
    take variant, once for each variant of allowed that some trial takes; a
    variant that no trial takes makes no call. Any other variant raises
    ValueError, before sides is called.
    """
    bad = [v for v in variants if v not in allowed]
    if bad:
        raise ValueError(f"variant must be {' or '.join(map(repr, allowed))}, got {bad[0]!r}")
    reports = [None] * len(variants)
    for variant in allowed:
        idx = [i for i, v in enumerate(variants) if v == variant]
        if idx:
            for i, lhs, rhs in zip(idx, *sides(variant, idx)):
                reports[i] = _report(f"{suite}:{variant}", lhs, rhs, seeds[i], dim)
    return reports


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


def check_cor23(fs, ops, variants, seeds) -> list:
    """||Re f(A)|| <= (1/d^2) ||I - A A*||, and ||Im f(A)|| <= (2/d^2) ||A||, on
    a chunk of trials: f, A, variant and seed are each a stack or list over them."""
    fa = funcalc.apply_normal_stack(fs, ops)
    a, d = ops.matrices, ops.d

    def sides(variant, idx):
        if variant == "re":
            norms = _norms(np.eye(a.shape[-1]) - a[idx] @ linalg.adjoint(a[idx]))
            return (_norms(linalg.herm_part(fa[idx])),
                    [(1.0 / d[i]**2) * norm for i, norm in zip(idx, norms)])
        return (_norms(linalg.skew_part(fa[idx])),
                [(2.0 / d[i]**2) * norm for i, norm in zip(idx, _norms(a[idx]))])

    return _by_variant("cor23", ("re", "im"), variants, seeds, a.shape[-1], sides)


def check_thm24(f: HerglotzFunction, opa: G1Operator, opb: G1Operator, x,
                variant: str, seed: int = 0) -> InequalityReport:
    """w(f(A) X fbar(B) -/+ ...) <= (2/(dA dB)) [2w(X) + w(AXB* + BXA*) + w(AXB* - BXA*)]."""
    fa, fb = funcalc.apply_normal(f, opa), funcalc.apply_normal(f, opb)
    lhs = _w(_commutator(fa, fb, x, variant))
    axb, bxa = _cross(opa.matrix, opb.matrix, x)
    rhs = (2.0 / (opa.d * opb.d)) * (2.0 * _w(x) + _w(axb + bxa) + _w(axb - bxa))
    return _report(f"thm24:{variant}", lhs, rhs, seed, len(x))


def check_rem25(fs, ops, xs, variants, seeds) -> list:
    """Operator-norm form for self-adjoint X, on a chunk of trials (f, A and B
    (one stack, A first), X, variant and seed over them); any X that is not
    self-adjoint raises NotSelfAdjoint first:
    ||f(A) X fbar(B) -/+ ...|| <= (4/(dA dB)) max(||X|| + ||AXB*||, ||X|| + ||BXA*||)."""
    x = np.array(xs)
    if not (np.linalg.norm(x - linalg.adjoint(x), axis=(-2, -1)) <= SELFADJOINT_TOL).all():
        raise NotSelfAdjoint("X must be self-adjoint within tolerance")
    fa, fb = _even_odd(funcalc.apply_normal_stack(fs, ops))
    axb, bxa = _cross(*_even_odd(ops.matrices), x)
    rhs = [(4.0 / (da * db)) * max(nx + naxb, nx + nbxa) for da, db, nx, naxb, nbxa
           in zip(*_even_odd(ops.d), _norms(x), _norms(axb), _norms(bxa))]

    def sides(variant, idx):
        return _norms(_commutator(fa[idx], fb[idx], x[idx], variant)), [rhs[i] for i in idx]

    return _by_variant("rem25", ("commutator", "anticommutator2X"), variants, seeds,
                       x.shape[-1], sides)


def check_cor26(fs, ops, variants, seeds) -> list:
    """||Im(f(A) fbar(B))|| and ||Re(f(A) fbar(B)) + I|| <= (2/(dA dB)) (1 + ||AB*||),
    on a chunk of trials: f, A and B (one stack, A first), variant and seed over them."""
    fa, fb = _even_odd(funcalc.apply_normal_stack(fs, ops))
    product = fa @ linalg.adjoint(fb)
    a, b = _even_odd(ops.matrices)
    rhs = [(2.0 / (da * db)) * (1.0 + norm) for da, db, norm
           in zip(*_even_odd(ops.d), _norms(a @ linalg.adjoint(b)))]
    n = product.shape[-1]

    def sides(variant, idx):
        if variant == "im":
            return _norms(linalg.skew_part(product[idx])), [rhs[i] for i in idx]
        return _norms(linalg.herm_part(product[idx]) + np.eye(n)), [rhs[i] for i in idx]

    return _by_variant("cor26", ("im", "re_plus_I"), variants, seeds, n, sides)


def check_rem27(f: HerglotzFunction, opa: G1Operator, opb: G1Operator, x,
                variant: str, seed: int = 0) -> InequalityReport:
    """w(f(A) X fbar(B) -/+ ...) <= (4/(dA dB)) (1 + max(||A||^2, ||B||^2)) w(X)."""
    fa, fb = funcalc.apply_normal(f, opa), funcalc.apply_normal(f, opb)
    lhs = _w(_commutator(fa, fb, x, variant))
    norm_max = max(_norm(opa.matrix) ** 2, _norm(opb.matrix) ** 2)
    rhs = (4.0 / (opa.d * opb.d)) * (1.0 + norm_max) * _w(x)
    return _report(f"rem27:{variant}", lhs, rhs, seed, len(x))
