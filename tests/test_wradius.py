"""Tests for the numerical radius engine against the oracles in tests/oracles.py."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from g1rad import g1gen, linalg, wradius

SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_nilpotent_shift_halves_norm():
    # A^2 = 0 forces w(A) = ||A|| / 2
    result = wradius.numerical_radius(SHIFT)
    assert result.value == pytest.approx(0.5, abs=1e-10)


def test_normal_diagonal_equals_max_modulus():
    result = wradius.numerical_radius(np.diag([0.5, -0.3j]))
    assert result.value == pytest.approx(0.5, abs=1e-9)


def test_identity():
    assert wradius.numerical_radius(np.eye(4, dtype=complex)).value == pytest.approx(1.0, abs=1e-12)


def test_zero_matrix_degenerate_result():
    result = wradius.numerical_radius(np.zeros((3, 3), dtype=complex))
    assert result.value == 0.0
    assert result.theta_star == 0.0
    np.testing.assert_allclose(result.witness, [1.0, 0.0, 0.0])


def test_grid_points_validation():
    with pytest.raises(ValueError):
        wradius.numerical_radius(SHIFT, grid_points=4)


def test_odd_grid_points_rejected():
    # the half-turn grid needs theta + pi on the grid for every grid theta
    with pytest.raises(ValueError):
        wradius.numerical_radius(SHIFT, grid_points=721)


def test_engine_beats_monte_carlo_search():
    rng = np.random.default_rng(11)
    a = random_complex(rng, 4)
    value = wradius.numerical_radius(a).value
    assert value >= oracles.numradius_lower_bound(a, 100_000, seed=99) - 1e-8


def test_lower_bound_identity_exact():
    assert oracles.numradius_lower_bound(np.eye(3, dtype=complex), 100, seed=0) == pytest.approx(
        1.0, abs=1e-12)


def test_lower_bound_zero_matrix():
    assert oracles.numradius_lower_bound(np.zeros((2, 2), dtype=complex), 10, seed=0) == 0.0


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        oracles.numradius_lower_bound(SHIFT, 0, seed=0)


def test_lower_bound_converges_on_flat_instance():
    # near-identity matrix: the quadratic form is nearly constant on the
    # sphere, so 1e5 samples land within 1e-3 of the true radius
    rng = np.random.default_rng(21)
    a = np.eye(3, dtype=complex) + 0.05 * random_complex(rng, 3)
    value = wradius.numerical_radius(a).value
    bound = oracles.numradius_lower_bound(a, 100_000, seed=7)
    assert bound <= value + 1e-8
    assert value - bound <= 1e-3


def test_witness_certifies_value():
    rng = np.random.default_rng(12)
    for n in (2, 3, 5, 8):
        a = random_complex(rng, n)
        result = wradius.numerical_radius(a)
        achieved = abs(np.conj(result.witness) @ (a @ result.witness))
        assert achieved == pytest.approx(result.value, abs=1e-9)
        assert np.linalg.norm(result.witness) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= result.theta_star < 2.0 * np.pi


def test_sandwich_bounds():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 8, 16):
        a = random_complex(rng, n)
        value = wradius.numerical_radius(a).value
        norm = linalg.spectral_norm(a)
        assert 0.5 * norm - 1e-9 <= value <= norm + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       re=st.floats(-3.0, 3.0), im=st.floats(-3.0, 3.0))
def test_homogeneity(seed, re, im):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 3)
    c = complex(re, im)
    base = wradius.numerical_radius(a).value
    scaled = wradius.numerical_radius(c * a).value
    assert scaled == pytest.approx(abs(c) * base, rel=1e-9, abs=1e-12)


def test_adjoint_symmetry():
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = random_complex(rng, 4)
        wa = wradius.numerical_radius(a).value
        wstar = wradius.numerical_radius(linalg.adjoint(a)).value
        assert wstar == pytest.approx(wa, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_triangle_inequality(seed, n):
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, n), random_complex(rng, n)
    wab = wradius.numerical_radius(a + b).value
    assert wab <= wradius.numerical_radius(a).value + wradius.numerical_radius(b).value + 1e-9


def test_normal_matrices_hit_max_modulus():
    rng = np.random.default_rng(15)
    for n in (2, 4, 7):
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = g1gen.haar_unitary(rng, n)
        a = (u * lam) @ u.conj().T
        value = wradius.numerical_radius(a).value
        assert value == pytest.approx(np.max(np.abs(lam)), rel=1e-9)


def test_unitary_similarity_invariance():
    rng = np.random.default_rng(16)
    a = random_complex(rng, 5)
    base = wradius.numerical_radius(a).value
    for _ in range(5):
        u = g1gen.haar_unitary(rng, 5)
        conj = u.conj().T @ a @ u
        assert wradius.numerical_radius(conj).value == pytest.approx(base, rel=1e-9)


def degenerate_family(kind):
    """A matrix whose support function is flat, tied or otherwise degenerate."""
    rng = np.random.default_rng(31)
    x, y = random_complex(rng, 3), random_complex(rng, 3)
    zero = np.zeros((3, 3), dtype=complex)
    if kind == "nilpotent":
        return linalg.block2x2(zero, x, zero, zero)
    if kind == "antidiagonal":
        return linalg.block2x2(zero, x, y, zero)
    if kind == "identity":
        return np.eye(4, dtype=complex)
    if kind == "hermitian":
        return linalg.herm_part(random_complex(rng, 4))
    if kind == "tied_normal":
        u = g1gen.haar_unitary(rng, 4)
        return (u * np.array([2.0, 2.0j, -1.0 + 0.5j, 0.3])) @ u.conj().T
    u, v = random_complex(rng, 4)[:2]
    return np.outer(u, v.conj())


DEGENERATE = ("nilpotent", "antidiagonal", "identity", "hermitian", "tied_normal", "rank_one")


@pytest.mark.parametrize("kind", DEGENERATE)
def test_degenerate_families_match_dense_oracle(kind):
    a = degenerate_family(kind)
    value = wradius.numerical_radius(a).value
    assert value == pytest.approx(oracles.numradius_dense(a), rel=1e-12)


@pytest.mark.parametrize("kind", DEGENERATE)
def test_degenerate_families_witness_achieves_value(kind):
    a = degenerate_family(kind)
    result = wradius.numerical_radius(a)
    assert np.linalg.norm(result.witness) == pytest.approx(1.0, abs=1e-12)
    achieved = abs(np.conj(result.witness) @ (a @ result.witness))
    assert achieved == pytest.approx(result.value, rel=1e-12)
    assert 0.0 <= result.theta_star < 2.0 * np.pi


def test_degenerate_families_closed_forms():
    # W(N) is a disk of radius ||X|| / 2; W(uv*) an ellipse with foci 0 and v*u
    nilpotent = degenerate_family("nilpotent")
    assert wradius.numerical_radius(nilpotent).value == pytest.approx(
        0.5 * linalg.spectral_norm(nilpotent), rel=1e-12)
    u, v = random_complex(np.random.default_rng(32), 4)[:2]
    expected = 0.5 * (abs(np.vdot(v, u)) + np.linalg.norm(u) * np.linalg.norm(v))
    assert wradius.numerical_radius(np.outer(u, v.conj())).value == pytest.approx(
        expected, rel=1e-12)
    assert wradius.numerical_radius(degenerate_family("tied_normal")).value == pytest.approx(
        2.0, rel=1e-12)


def test_eigensolves_per_call(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(h, *args, _name=name, _solver=solver, **kwargs):
            calls.append(_name)
            return _solver(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(17)
    for n in range(2, 17):
        for _ in range(8):
            calls.clear()
            wradius.numerical_radius(random_complex(rng, n))
            # one grid eigvalsh first, then one stacked eigh per Newton step
            assert calls[0] == "eigvalsh"
            assert set(calls[1:]) == {"eigh"}
            assert len(calls) <= 6


@pytest.mark.parametrize("rows", range(1, 8))
def test_chunked_grid_is_bitwise_identical(monkeypatch, rows):
    rng = np.random.default_rng(41)
    inputs = [random_complex(rng, 5), degenerate_family("nilpotent")]
    expected = [wradius.numerical_radius(a) for a in inputs]
    for a, want in zip(inputs, expected):
        monkeypatch.setattr(wradius, "GRID_BYTES", rows * a.nbytes)
        got = wradius.numerical_radius(a)
        assert got.value == want.value
        assert got.theta_star == want.theta_star
        assert np.array_equal(got.witness, want.witness)


def test_memory_stays_within_budget(monkeypatch):
    # a random input has a few refinement candidates; the flat nilpotent block
    # has hundreds, so the candidate stacks are chunked too
    rng = np.random.default_rng(43)
    zero = np.zeros((32, 32), dtype=complex)
    for a in (random_complex(rng, 64), linalg.block2x2(zero, random_complex(rng, 32), zero, zero)):
        budget = 4 * a.nbytes
        monkeypatch.setattr(wradius, "GRID_BYTES", budget)
        tracemalloc.start()
        try:
            wradius.numerical_radius(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # unchunked, the 360-matrix half grid alone would take 90 budgets
        assert peak <= 8 * budget
