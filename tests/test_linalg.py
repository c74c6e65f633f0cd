"""Unit and property tests for the dense matrix kernels."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from g1rad import ineq, linalg, wradius
from g1rad.errors import DimensionMismatch, Singular


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_adjoint_identity_fixed_point():
    eye = np.eye(3, dtype=complex)
    assert_allclose(linalg.adjoint(eye), eye)


def test_adjoint_transposes_real_matrix():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert_allclose(linalg.adjoint(a), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_adjoint_fixes_real_scalar():
    assert_allclose(linalg.adjoint(np.array([[3.0]], dtype=complex)), [[3.0]])


def test_adjoint_conjugates_scalar():
    assert_allclose(linalg.adjoint(np.array([[1j]])), np.array([[-1j]]))


def test_adjoint_involution():
    rng = np.random.default_rng(1)
    a = random_complex(rng, 5)
    assert_allclose(linalg.adjoint(linalg.adjoint(a)), a)


# the same values in another memory layout: column-major, or with negative strides
LAYOUTS = {
    "contiguous": lambda a: a,
    "transposed": lambda a: a.swapaxes(-1, -2).copy().swapaxes(-1, -2),
    "reversed": lambda a: a[::-1, ..., ::-1].copy()[::-1, ..., ::-1],
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_diag_similarity_has_the_bits_of_one_product_per_matrix(layout):
    # one broadcast product scales every U at n >= 2; at n = 1 numpy rounds
    # a stacked product otherwise, and each matrix takes its own
    rng = np.random.default_rng(61)
    for n in [*range(1, 17), 24, 32, 64]:
        for k in (1, 2, 7, 50):
            u = LAYOUTS[layout](rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)))
            values = LAYOUTS[layout](rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
            expected = oracles.diag_similarity_loop(u, values)
            assert linalg.diag_similarity(u, values).tobytes() == expected.tobytes(), (n, k)


def test_herm_part_fixes_hermitian():
    rng = np.random.default_rng(2)
    h = random_complex(rng, 4)
    h = 0.5 * (h + h.conj().T)
    assert_allclose(linalg.herm_part(h), h)


def test_herm_part_shift_matrix():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert_allclose(linalg.herm_part(a), np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_herm_part_kills_skew():
    rng = np.random.default_rng(3)
    s = random_complex(rng, 4)
    s = 0.5 * (s - s.conj().T)
    assert_allclose(linalg.herm_part(s), np.zeros((4, 4)), atol=1e-15)


def test_spectral_norm_identity():
    assert linalg.spectral_norm(np.eye(3, dtype=complex)) == pytest.approx(1.0)


def test_spectral_norm_diagonal():
    assert linalg.spectral_norm(np.diag([2.0, -3.0]).astype(complex)) == pytest.approx(3.0)


def test_spectral_norm_shift():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert linalg.spectral_norm(a) == pytest.approx(1.0)


def test_spectral_norm_of_a_stack_matches_single_calls_bitwise():
    rng = np.random.default_rng(7)
    for n in range(1, 10):
        stack = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        stack[0] = 0.0
        singles = np.array([linalg.spectral_norm(m) for m in stack])
        assert linalg.spectral_norm(stack).tobytes() == singles.tobytes()


@pytest.mark.parametrize("scale", [1e-12, 2.0**-600, 2.0**520], ids=["1e-12", "2^-600", "2^520"])
def test_spectral_norm_homogeneity(scale):
    # unscaled, the Gram product of 2^-600 A underflows to 0 and that of
    # 2^520 A overflows
    rng = np.random.default_rng(10)
    for n in range(1, 9):
        stack = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        base = linalg.spectral_norm(stack)
        # a power of two changes no bit
        exact = math.frexp(scale)[0] == 0.5
        assert_allclose(linalg.spectral_norm(scale * stack) / scale, base,
                        rtol=0.0 if exact else 1e-14)
        # each matrix of a stack takes its own power of two
        mixed = stack * np.array([1.0, scale, 2.0**-600, 2.0**520])[:, None, None]
        assert linalg.spectral_norm(mixed).tolist() == [linalg.spectral_norm(m) for m in mixed]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_nan_member_and_a_tiny_member_keep_the_bits_of_one_call_each(n):
    # the range check is one comparison over the stack: a NaN or inf fails
    # it, like 2^-300, so the stack takes the scaled route, where a member in
    # range keeps its bits and a non-finite member reads NaN at every n
    for bad in (np.nan, np.inf):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        stack[1, 0, 0] = bad
        stack[2] *= 2.0**-300
        singles = np.array([linalg.spectral_norm(m) for m in stack])
        assert np.isnan(singles[1]) and 0.0 < singles[2] < 2.0**-290
        assert linalg.spectral_norm(stack).tobytes() == singles.tobytes()


def test_spectral_norm_of_subnormal_and_huge_entries():
    assert linalg.spectral_norm(np.diag([5e-324, 0.0])) == 5e-324
    assert linalg.spectral_norm(np.diag([1e-320, -3e-320j])) == pytest.approx(3e-320, rel=1e-3)
    assert linalg.spectral_norm(np.diag([1.5e308, 1e308])) == 1.5e308


def test_solve_identity():
    # the per-point reference solve takes any right-hand side
    rng = np.random.default_rng(4)
    b = random_complex(rng, 3)
    assert_allclose(oracles.solve(np.eye(3, dtype=complex), b), b)


def test_solve_diagonal():
    x = linalg.resolvents(np.diag([-2.0, -4.0]).astype(complex), [0.0])[0]
    assert_allclose(x, np.diag([0.5, 0.25]))


def test_solve_singular():
    with pytest.raises(Singular):
        linalg.resolvents(np.ones((2, 2), dtype=complex), [0.0])


def test_solve_round_trip():
    rng = np.random.default_rng(5)
    eye = np.eye(6, dtype=complex)
    for _ in range(20):
        a = random_complex(rng, 6)
        z = 3.0 + rng.standard_normal() + 1j * rng.standard_normal()
        x = linalg.resolvents(a, [z])[0]
        m = z * eye - a
        assert np.linalg.norm(m @ x - eye) <= 1e-9 * np.linalg.norm(m) * np.linalg.norm(x)


def test_solve_singular_under_warnings_as_errors():
    # an exact zero pivot raises Singular, never a LAPACK warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Singular, match=r"^pivot 0\.000e\+00 below threshold$"):
            linalg.resolvents(np.ones((2, 2), dtype=complex), [0.0])


def test_concurrent_solves_leave_warning_filters_alone():
    before = list(warnings.filters)

    def work(_):
        for _ in range(1000):
            linalg.resolvents(np.diag([-2.0, -4.0]).astype(complex), [0.0])
            with pytest.raises(Singular):
                linalg.resolvents(np.ones((2, 2), dtype=complex), [0.0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert warnings.filters == before


def test_resolvent_norms_match_pointwise_solves_bitwise(getrf_calls):
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 9, 16):
        a = random_complex(rng, n)
        far = 3.0 * rng.standard_normal(12) + 3.0j * rng.standard_normal(12)
        # within 1e-9 of each eigenvalue, where the pivot bound cannot clear
        # a point and getrf factors it again; a 1x1 M has
        # ||M||_F ||M^{-1}||_F = 1, so the bound clears every point at n = 1
        near = np.linalg.eigvals(a) + 1e-9 * np.exp(2j * np.pi * rng.uniform(size=n))
        refactored = n if n > 1 else 0
        eye = np.eye(n, dtype=complex)
        for points, count in ((far, 0), (near, refactored),
                              (np.concatenate((far, near)), refactored)):
            expected = np.array([oracles.solve(z * eye - a, eye) for z in points])
            getrf_calls.clear()
            stack = linalg.resolvents(a, points)
            assert len(getrf_calls) == count
            assert stack.tobytes() == expected.tobytes()
            assert linalg.spectral_norm(stack).tolist() == [
                linalg.spectral_norm(m) for m in expected]


def test_a_workspace_changes_no_bit(getrf_calls):
    # one NaN-filled workspace, longer than any stack, serves every call in
    # turn, as in the certify sweep: points the pivot bound clears, points
    # getrf factors again from workspace[0], and stacks that spectral_norm
    # rescales by powers of two
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 9, 16):
        a = random_complex(rng, n)
        far = 3.0 * rng.standard_normal(12) + 3.0j * rng.standard_normal(12)
        near = np.linalg.eigvals(a) + 1e-9 * np.exp(2j * np.pi * rng.uniform(size=n))
        workspace = np.full((2, 40, n, n), np.nan, dtype=complex)
        for points in (far, near, np.concatenate((far, near))):
            getrf_calls.clear()
            expected = linalg.resolvents(a, points)
            count = len(getrf_calls)
            stack = linalg.resolvents(a, points, workspace)
            assert len(getrf_calls) == 2 * count
            assert stack.tobytes() == expected.tobytes()
            for scaled in (stack, stack * np.ldexp(1.0, rng.choice([-600, 0, 520], len(stack)))[
                    :, None, None]):
                assert (linalg.spectral_norm(scaled, workspace).tobytes()
                        == linalg.spectral_norm(scaled).tobytes())


def test_a_singular_stack_raises_at_its_first_near_singular_point(getrf_calls):
    # 0.25 + 2 ulp leaves a pivot of 1.1e-16, below the guard but not zero;
    # 0.5 makes zI - A exactly singular, so np.linalg.inv rejects the stack
    # and every point is factored by getrf, in order
    a = np.diag([0.5, 0.25]).astype(complex)
    points = [0.9, 0.25 + 1e-16, 0.9j, 0.5]
    eye = np.eye(2, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.array([z * eye - a for z in points]))
    with pytest.raises(Singular) as first:
        oracles.solve(points[1] * eye - a, eye)
    with pytest.raises(Singular) as exc:
        linalg.resolvents(a, points)
    assert str(exc.value) == str(first.value) == "pivot 1.110e-16 below threshold"
    assert len(getrf_calls) == 2


def test_resolvent_norms_empty_points():
    stack = linalg.resolvents(np.eye(3, dtype=complex), [])
    assert stack.shape == (0, 3, 3)
    assert linalg.spectral_norm(stack).shape == (0,)


def test_resolvent_norms_raise_at_the_first_singular_point():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(random_complex(rng, 2))
    a = (q * np.array([0.5, 0.25])) @ q.conj().T
    eye = np.eye(2, dtype=complex)
    messages = []
    for z in (0.25, 0.5):
        with pytest.raises(Singular) as first:
            oracles.solve(z * eye - a, eye)
        messages.append(str(first.value))
    assert messages[0] != messages[1]
    with pytest.raises(Singular) as exc:
        linalg.resolvents(a, [0.9, 0.25, 0.5])
    assert str(exc.value) == messages[0]


def test_offdiagonal_block_phase_preserves_norm():
    rng = np.random.default_rng(6)
    x = random_complex(rng, 3)
    zero = np.zeros((3, 3), dtype=complex)
    base = linalg.spectral_norm(np.block([[zero, x], [x, zero]]))
    for theta in (0.3, 1.7, 5.1):
        rotated = np.block([[zero, x], [np.exp(1j * theta) * x, zero]])
        assert linalg.spectral_norm(rotated) == pytest.approx(base, rel=1e-12)


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix(np.ones((2, 3)))


@pytest.mark.parametrize("call", [wradius.numerical_radius, linalg.spectral_norm,
                                  lambda m: ineq.check_lemma21_a(m, m)],
                         ids=["numerical_radius", "spectral_norm", "check_lemma21_a"])
def test_empty_matrix_is_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call(np.zeros((0, 0)))


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("entry", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                   complex(np.inf, 0.0), complex(0.0, -np.inf)])
def test_as_matrix_rejects_a_non_finite_real_or_imaginary_part(entry):
    # the other part of the entry is finite, so each part is checked
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        linalg.as_matrix(np.array([[1.0, 0.0], [entry, 1.0]], dtype=complex))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_norm_submultiplicative(seed, n):
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, n), random_complex(rng, n)
    assert linalg.spectral_norm(a @ b) <= (
        linalg.spectral_norm(a) * linalg.spectral_norm(b) * (1.0 + 1e-12) + 1e-12
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
def test_norm_adjoint_invariant(seed, n):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n)
    assert linalg.spectral_norm(a) == pytest.approx(
        linalg.spectral_norm(linalg.adjoint(a)), rel=1e-11)
