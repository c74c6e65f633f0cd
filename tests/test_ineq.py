"""Tests for the inequality checkers: saturation cases, random instances,
report invariants, and precondition enforcement."""

import math

import numpy as np
import pytest

from g1rad import funcalc, g1gen, ineq, linalg, runner, wradius
from g1rad.errors import NotSelfAdjoint
from g1rad.funcalc import HerglotzFunction

ATOM_AT_ZERO = HerglotzFunction(np.array([0.0]), np.array([1.0]))


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def zero_operator(n):
    return g1gen.G1Operator(matrix=np.zeros((n, n), dtype=complex),
                            spectrum=np.zeros(n, dtype=complex),
                            unitary=np.eye(n, dtype=complex))


# ---------------------------------------------------------------- lemma21a

def test_lemma21a_saturates_at_identity():
    rng = np.random.default_rng(60)
    x = random_complex(rng, 3)
    report = ineq.check_lemma21_a(np.eye(3, dtype=complex), x)
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-10)


def test_lemma21a_zero_contraction():
    rng = np.random.default_rng(61)
    report = ineq.check_lemma21_a(np.zeros((3, 3), dtype=complex), random_complex(rng, 3))
    assert report.passed
    assert report.lhs == pytest.approx(0.0, abs=1e-12)


def test_lemma21a_random_instances():
    rng = np.random.default_rng(62)
    for _ in range(5):
        report = ineq.check_lemma21_a(random_complex(rng, 4), random_complex(rng, 4))
        assert report.passed


def test_lemma21a_scale_covariance():
    rng = np.random.default_rng(63)
    a, x = random_complex(rng, 3), random_complex(rng, 3)
    base = ineq.check_lemma21_a(a, x)
    scaled = ineq.check_lemma21_a(2.5 * a, x)
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-9)


@pytest.mark.parametrize("check, args", [
    (ineq.check_lemma21_a, (np.eye(2, dtype=complex), np.eye(3, dtype=complex))),
    # a 1x1 Y must not broadcast against X
    (ineq.check_lemma21_e, (np.eye(3, dtype=complex), np.ones((1, 1), dtype=complex))),
    (ineq.check_thm24, (ATOM_AT_ZERO, zero_operator(3), zero_operator(2),
                        np.eye(3, dtype=complex), "commutator")),
], ids=["lemma21a", "lemma21e", "thm24"])
def test_mismatched_operands_raise(check, args):
    # checkers re-check no operand: the mismatched product raises, and no
    # report is returned
    with pytest.raises(ValueError):
        check(*args)


# ---------------------------------------------------------------- lemma21b

def test_lemma21b_identity_plus_saturates():
    rng = np.random.default_rng(64)
    x = random_complex(rng, 3)
    report = ineq.check_lemma21_b(np.eye(3, dtype=complex), x, "+")
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-10)


def test_lemma21b_identity_minus_vanishes():
    rng = np.random.default_rng(65)
    x = random_complex(rng, 3)
    report = ineq.check_lemma21_b(np.eye(3, dtype=complex), x, "-")
    assert report.passed
    assert report.lhs == pytest.approx(0.0, abs=1e-12)


def test_lemma21b_random_both_signs():
    rng = np.random.default_rng(66)
    a, x = random_complex(rng, 4), random_complex(rng, 4)
    for sign in ("+", "-"):
        assert ineq.check_lemma21_b(a, x, sign).passed


def test_lemma21b_bad_sign():
    with pytest.raises(ValueError):
        ineq.check_lemma21_b(np.eye(2, dtype=complex), np.eye(2, dtype=complex), "x")


# ---------------------------------------------------------------- lemma21c

def test_lemma21c_zero_operators():
    rng = np.random.default_rng(67)
    z = np.zeros((3, 3), dtype=complex)
    report = ineq.check_lemma21_c(z, z, random_complex(rng, 3), random_complex(rng, 3), "+")
    assert report.passed
    assert report.lhs == 0.0


def test_lemma21c_cross_consistency_with_part_f():
    # A = B = I, X = Y: lhs = w(2X) and rhs = 2 w([[0,X],[X,0]]) = 2 w(X)
    rng = np.random.default_rng(68)
    x = random_complex(rng, 3)
    eye = np.eye(3, dtype=complex)
    report = ineq.check_lemma21_c(eye, eye, x, x, "+")
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-8)


def test_lemma21c_random_both_signs():
    rng = np.random.default_rng(69)
    mats = [random_complex(rng, 3) for _ in range(4)]
    for sign in ("+", "-"):
        assert ineq.check_lemma21_c(*mats, sign).passed


def test_lemma21c_block_uses_the_default_grid(monkeypatch):
    calls = []
    radius = wradius.numerical_radius

    def recording(a, *args, **kwargs):
        calls.append((a.shape[0], args, kwargs))
        return radius(a, *args, **kwargs)

    monkeypatch.setattr(wradius, "numerical_radius", recording)
    assert runner.run_trial(runner.TrialConfig(), "lemma21c", 8, 0).passed
    assert (16, (), {}) in calls
    assert all(args == () and kwargs == {} for _, args, kwargs in calls)


# ---------------------------------------------------------------- lemma21d

def test_lemma21d_identity_saturates():
    rng = np.random.default_rng(70)
    x, y = random_complex(rng, 3), random_complex(rng, 3)
    eye = np.eye(3, dtype=complex)
    report = ineq.check_lemma21_d(eye, eye, x, y)
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-10)


def test_lemma21d_half_zero():
    rng = np.random.default_rng(71)
    x, y = random_complex(rng, 3), random_complex(rng, 3)
    report = ineq.check_lemma21_d(2 * np.eye(3, dtype=complex),
                                  np.zeros((3, 3), dtype=complex), x, y)
    assert report.passed
    assert report.lhs == pytest.approx(0.0, abs=1e-12)


def test_lemma21d_random():
    rng = np.random.default_rng(72)
    assert ineq.check_lemma21_d(*(random_complex(rng, 4) for _ in range(4))).passed


# ---------------------------------------------------------------- lemma21e

def test_lemma21e_equal_blocks():
    rng = np.random.default_rng(73)
    x = random_complex(rng, 3)
    report = ineq.check_lemma21_e(x, x)
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-8)


def test_lemma21e_opposite_blocks():
    # diag(I, -I) conjugation maps [[0,X],[-X,0]] to [[0,X],[X,0]]
    rng = np.random.default_rng(74)
    x = random_complex(rng, 3)
    report = ineq.check_lemma21_e(x, -x)
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-8)


def test_lemma21e_random():
    rng = np.random.default_rng(75)
    assert ineq.check_lemma21_e(random_complex(rng, 4), random_complex(rng, 4)).passed


# ---------------------------------------------------------------- lemma21f

def test_lemma21f_identity_theta_zero():
    report = ineq.check_lemma21_f(np.eye(2, dtype=complex), 0.0)
    assert report.passed
    assert report.lhs == pytest.approx(1.0, abs=1e-9)
    assert report.rhs == pytest.approx(1.0, abs=1e-9)


def test_lemma21f_shift_theta_pi():
    shift = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    report = ineq.check_lemma21_f(shift, np.pi)
    assert report.passed
    assert report.lhs == pytest.approx(0.5, abs=1e-9)
    assert report.rhs == pytest.approx(0.5, abs=1e-9)


def test_lemma21f_random_thetas():
    rng = np.random.default_rng(76)
    for _ in range(5):
        x = random_complex(rng, 3)
        theta = float(rng.uniform(0, 2 * np.pi))
        report = ineq.check_lemma21_f(x, theta)
        assert report.passed
        assert abs(report.lhs - report.rhs) <= 1e-8 * (1 + report.rhs)


# ---------------------------------------------------------------- thm22

def test_thm22_zero_operator_saturates_sum():
    rng = np.random.default_rng(77)
    x = random_complex(rng, 3)
    f = funcalc.random_herglotz(78, 8)
    report = ineq.check_thm22(f, zero_operator(3), x, "sum")
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_thm22_zero_operator_diff_vanishes():
    rng = np.random.default_rng(79)
    x = random_complex(rng, 3)
    f = funcalc.random_herglotz(80, 8)
    report = ineq.check_thm22(f, zero_operator(3), x, "diff")
    assert report.passed
    assert report.lhs <= 1e-10


def test_thm22_random_both_variants():
    rng = np.random.default_rng(81)
    for n in (2, 4, 8):
        op = g1gen.random_g1(82 + n, n, 0.8)
        f = funcalc.random_herglotz(83 + n, 8)
        x = random_complex(rng, n)
        for variant in ("sum", "diff"):
            assert ineq.check_thm22(f, op, x, variant).passed


def certificate_only(n):
    """A loaded operator without a diagonalizer: diag(0.5, -0.3, ...) and its certificate."""
    a = np.diag(np.resize([0.5, -0.3], n)).astype(complex)
    spectrum = np.diag(a)
    return g1gen.G1Operator(matrix=a, spectrum=spectrum, unitary=None,
                            certificate=g1gen.certify_core(a, spectrum))


@pytest.mark.parametrize("suite", ["thm22", "cor23", "thm24", "rem25", "cor26", "rem27"])
def test_checkers_reject_an_operator_without_its_diagonalizer(suite):
    # f(A) goes through apply_normal alone; the contour route is funcalc's, not theirs
    row = runner.SUITES[suite]
    head, seeds, tail = row.sample(np.random.default_rng(84), 2, runner.TrialConfig())
    inputs = head + tuple(certificate_only(2) for _ in seeds) + tail + (row.variants[0],)
    with pytest.raises(ValueError, match="riesz_dunford"):
        getattr(ineq, row.checker)(*inputs)


def test_thm22_bad_variant():
    f = funcalc.random_herglotz(86, 4)
    with pytest.raises(ValueError):
        ineq.check_thm22(f, zero_operator(2), np.eye(2, dtype=complex), "oops")


# ---------------------------------------------------------------- cor23

def test_cor23_zero_operator():
    f = funcalc.random_herglotz(87, 8)
    report_re = ineq.check_cor23(f, zero_operator(3), "re")
    assert report_re.passed
    assert report_re.lhs == pytest.approx(1.0, abs=1e-12)
    assert report_re.ratio == pytest.approx(1.0, abs=1e-9)
    report_im = ineq.check_cor23(f, zero_operator(3), "im")
    assert report_im.passed
    assert report_im.lhs <= 1e-12


def test_cor23_scalar_saturation():
    # A = diag(0.5), f = single atom at angle 0: f(A) = [[3]], d = 0.5,
    # so ||Re f(A)|| = 3 and (1/d^2)||I - AA*|| = 4 * 0.75 = 3
    op = g1gen.G1Operator(matrix=np.array([[0.5]], dtype=complex),
                          spectrum=np.array([0.5 + 0j]),
                          unitary=np.eye(1, dtype=complex))
    report = ineq.check_cor23(ATOM_AT_ZERO, op, "re")
    assert report.passed
    assert report.lhs == pytest.approx(3.0, abs=1e-12)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_cor23_random_both_variants():
    for n in (2, 4, 6):
        op = g1gen.random_g1(88 + n, n, 0.8)
        f = funcalc.random_herglotz(89 + n, 8)
        for variant in ("re", "im"):
            assert ineq.check_cor23(f, op, variant).passed


# ------------------------------------------------------------ equality cases

@pytest.mark.parametrize("lam", [0.8, 0.95, 0.5 * np.exp(2j)], ids=["0.8", "0.95", "0.5e^2i"])
def test_scalar_operator_attains_thm22_sum_and_cor23_re(lam):
    # A = lam I, f one atom at arg lam and X = I: f(A) = (1 + r)/(1 - r) I with
    # r = |lam|, and d = 1 - r, so each side of both statements is that value
    # (twice it for thm22:sum): the sharp inputs of the pass rule
    r = abs(lam)
    eye = np.eye(4, dtype=complex)
    op = g1gen.G1Operator(matrix=lam * eye, spectrum=np.full(4, lam, dtype=complex), unitary=eye)
    f = HerglotzFunction(np.array([np.angle(lam)]), np.array([1.0]))
    sharp = (1.0 + r) / (1.0 - r)
    for report, lhs in ((ineq.check_thm22(f, op, eye, "sum"), 2.0 * sharp),
                        (ineq.check_cor23(f, op, "re"), sharp)):
        assert report.lhs == pytest.approx(lhs, rel=1e-12)
        assert abs(report.ratio - 1.0) <= 1e-12


# ---------------------------------------------------------------- thm24

def test_thm24_same_operator_commutator_vanishes():
    rng = np.random.default_rng(90)
    op = g1gen.random_g1(91, 3, 0.8)
    f = funcalc.random_herglotz(92, 8)
    report = ineq.check_thm24(f, op, op, random_complex(rng, 3), "commutator")
    assert report.passed
    assert report.lhs <= 1e-10


def test_thm24_zero_operators_anticommutator():
    # F = I and d = 1 give lhs = w(4X) = 4 w(X) and rhs = 2 [2 w(X)] = 4 w(X)
    rng = np.random.default_rng(93)
    x = random_complex(rng, 3)
    f = funcalc.random_herglotz(94, 8)
    report = ineq.check_thm24(f, zero_operator(3), zero_operator(3), x, "anticommutator2X")
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_thm24_random_both_variants():
    rng = np.random.default_rng(95)
    for n in (2, 4, 6):
        opa = g1gen.random_g1(96 + n, n, 0.8)
        opb = g1gen.random_g1(97 + n, n, 0.8)
        f = funcalc.random_herglotz(98 + n, 8)
        x = random_complex(rng, n)
        for variant in ("commutator", "anticommutator2X"):
            assert ineq.check_thm24(f, opa, opb, x, variant).passed


def test_thm24_commutator_swap_invariance():
    rng = np.random.default_rng(99)
    opa = g1gen.random_g1(100, 3, 0.8)
    opb = g1gen.random_g1(101, 3, 0.8)
    f = funcalc.random_herglotz(102, 8)
    x = random_complex(rng, 3)
    forward = ineq.check_thm24(f, opa, opb, x, "commutator")
    swapped = ineq.check_thm24(f, opb, opa, x, "commutator")
    assert swapped.lhs == pytest.approx(forward.lhs, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------- rem25

def test_rem25_zero_x():
    f = funcalc.random_herglotz(103, 8)
    opa = g1gen.random_g1(104, 3, 0.8)
    opb = g1gen.random_g1(105, 3, 0.8)
    report = ineq.check_rem25(f, opa, opb, np.zeros((3, 3), dtype=complex), "commutator")
    assert report.passed
    assert report.lhs == 0.0


def test_rem25_zero_operators_identity_x():
    f = funcalc.random_herglotz(106, 8)
    report = ineq.check_rem25(f, zero_operator(3), zero_operator(3),
                              np.eye(3, dtype=complex), "anticommutator2X")
    assert report.passed
    assert report.lhs == pytest.approx(4.0, abs=1e-12)
    assert report.rhs == pytest.approx(4.0, abs=1e-12)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_rem25_rejects_non_hermitian_x():
    rng = np.random.default_rng(107)
    f = funcalc.random_herglotz(108, 8)
    opa = g1gen.random_g1(109, 3, 0.8)
    opb = g1gen.random_g1(110, 3, 0.8)
    with pytest.raises(NotSelfAdjoint):
        ineq.check_rem25(f, opa, opb, random_complex(rng, 3), "commutator")


def test_rem25_rejects_nan_x():
    x = np.eye(3, dtype=complex)
    x[0, 1] = np.nan
    with pytest.raises(NotSelfAdjoint):
        ineq.check_rem25(ATOM_AT_ZERO, zero_operator(3), zero_operator(3), x, "commutator")


def test_rem25_random_both_variants():
    rng = np.random.default_rng(111)
    for n in (2, 4):
        opa = g1gen.random_g1(112 + n, n, 0.8)
        opb = g1gen.random_g1(113 + n, n, 0.8)
        f = funcalc.random_herglotz(114 + n, 8)
        x = linalg.herm_part(random_complex(rng, n))
        for variant in ("commutator", "anticommutator2X"):
            assert ineq.check_rem25(f, opa, opb, x, variant).passed


# ---------------------------------------------------------------- cor26

def test_cor26_zero_operators():
    f = funcalc.random_herglotz(115, 8)
    report_im = ineq.check_cor26(f, zero_operator(3), zero_operator(3), "im")
    assert report_im.passed
    assert report_im.lhs <= 1e-12
    report_re = ineq.check_cor26(f, zero_operator(3), zero_operator(3), "re_plus_I")
    assert report_re.passed
    assert report_re.lhs == pytest.approx(2.0, abs=1e-12)
    assert report_re.ratio == pytest.approx(1.0, abs=1e-9)


def test_cor26_real_scalar_product():
    opa = g1gen.G1Operator(matrix=np.array([[0.5]], dtype=complex),
                           spectrum=np.array([0.5 + 0j]),
                           unitary=np.eye(1, dtype=complex))
    report = ineq.check_cor26(ATOM_AT_ZERO, opa, zero_operator(1), "im")
    assert report.passed
    assert report.lhs <= 1e-12


def test_cor26_random_both_variants():
    for n in (2, 4, 6):
        opa = g1gen.random_g1(116 + n, n, 0.8)
        opb = g1gen.random_g1(117 + n, n, 0.8)
        f = funcalc.random_herglotz(118 + n, 8)
        for variant in ("im", "re_plus_I"):
            assert ineq.check_cor26(f, opa, opb, variant).passed


# ---------------------------------------------------------------- rem27

def test_rem27_zero_x():
    f = funcalc.random_herglotz(119, 8)
    opa = g1gen.random_g1(120, 3, 0.8)
    opb = g1gen.random_g1(121, 3, 0.8)
    report = ineq.check_rem27(f, opa, opb, np.zeros((3, 3), dtype=complex), "commutator")
    assert report.passed
    assert report.lhs == 0.0


def test_rem27_zero_operators_saturate():
    rng = np.random.default_rng(122)
    x = random_complex(rng, 3)
    f = funcalc.random_herglotz(123, 8)
    report = ineq.check_rem27(f, zero_operator(3), zero_operator(3), x, "anticommutator2X")
    assert report.passed
    assert report.ratio == pytest.approx(1.0, abs=1e-9)


def test_rem27_random_both_variants():
    rng = np.random.default_rng(124)
    for n in (2, 4):
        opa = g1gen.random_g1(125 + n, n, 0.8)
        opb = g1gen.random_g1(126 + n, n, 0.8)
        f = funcalc.random_herglotz(127 + n, 8)
        x = random_complex(rng, n)
        for variant in ("commutator", "anticommutator2X"):
            assert ineq.check_rem27(f, opa, opb, x, variant).passed


# ------------------------------------------------------------ variants

@pytest.mark.parametrize("suite", [s for s, row in runner.SUITES.items()
                                   if len(row.variants) > 1])
def test_unknown_variant_raises(suite):
    row, config = runner.SUITES[suite], runner.TrialConfig()
    (inputs,) = runner._inputs([row.sample(np.random.default_rng(0), 2, config)], 2,
                               config.rho_max)
    with pytest.raises(ValueError, match="must be"):
        getattr(ineq, row.checker)(*inputs, "oops")


# ------------------------------------------------------------ report shape

def test_report_pass_rule_and_ratio_bounds():
    rng = np.random.default_rng(128)
    for _ in range(10):
        report = ineq.check_lemma21_a(random_complex(rng, 3), random_complex(rng, 3))
        assert report.lhs >= 0.0 and report.rhs >= 0.0
        assert report.passed == (report.lhs <= report.rhs * (1 + 1e-8) + 1e-10)
        if report.passed and math.isfinite(report.ratio):
            assert 0.0 <= report.ratio <= 1.0 + 1e-8


def test_report_ratio_sentinels():
    zero = ineq._report("x", 0.0, 0.0, 0, 1)
    assert zero.ratio == 0.0 and zero.passed
    degenerate = ineq._report("x", 1.0, 0.0, 0, 1)
    assert math.isinf(degenerate.ratio) and not degenerate.passed
    tiny = ineq._report("x", 5e-11, 0.0, 0, 1)
    assert tiny.passed
