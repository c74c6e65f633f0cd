"""Tests for operator generation, boundary distance, and certification."""

import tracemalloc

import numpy as np
import pytest

import oracles
from g1rad import g1gen, linalg
from g1rad.errors import CertificationFailed, ConfigError, Singular, SpectrumOnBoundary

JORDAN = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)


def resolvent_norm(a, z) -> float:
    return linalg.spectral_norm(linalg.resolvents(a, [z]))[0]


def test_boundary_distance_origin():
    assert g1gen.boundary_distance([0.0]) == pytest.approx(1.0)


def test_boundary_distance_two_points():
    assert g1gen.boundary_distance([0.5, -0.25j]) == pytest.approx(0.5)


def test_boundary_distance_guard_band():
    with pytest.raises(SpectrumOnBoundary):
        g1gen.boundary_distance([0.999999999999])


def test_boundary_distance_matches_grid_search():
    rng = np.random.default_rng(50)
    lam = 0.8 * g1gen._uniform_disk(rng, 6)
    alphas = 2 * np.pi * np.arange(10_000) / 10_000
    ring = np.exp(1j * alphas)
    brute = np.abs(ring[:, None] - lam[None, :]).min()
    assert g1gen.boundary_distance(lam) == pytest.approx(brute, abs=1e-6)


def test_random_g1_respects_rho_max():
    op = g1gen.random_g1(seed=3, n=4, rho_max=0.8)
    assert np.all(np.abs(op.spectrum) <= 0.8)
    assert op.d >= 0.2


def test_random_g1_near_degenerate():
    op = g1gen.random_g1(seed=3, n=1, rho_max=1e-9)
    assert abs(op.matrix[0, 0]) <= 1e-9
    assert op.d == pytest.approx(1.0, abs=1e-8)


def test_random_g1_normality():
    op = g1gen.random_g1(seed=4, n=4, rho_max=0.8)
    a = op.matrix
    comm = linalg.adjoint(a) @ a - a @ linalg.adjoint(a)
    assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(a) ** 2


def test_random_g1_deterministic():
    op1 = g1gen.random_g1(seed=5, n=5, rho_max=0.7)
    op2 = g1gen.random_g1(seed=5, n=5, rho_max=0.7)
    assert np.array_equal(op1.matrix, op2.matrix)
    assert np.array_equal(op1.spectrum, op2.spectrum)
    assert np.array_equal(op1.unitary, op2.unitary)
    assert op1.d == op2.d


def test_random_g1_rejects_bad_rho():
    with pytest.raises(ConfigError):
        g1gen.random_g1(seed=0, n=2, rho_max=1.0)
    with pytest.raises(ConfigError):
        g1gen.random_g1(seed=0, n=2, rho_max=0.0)


def test_haar_unitarity():
    rng = np.random.default_rng(51)
    for n in (2, 4, 8, 16):
        u = g1gen.haar_unitary(rng, n)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10


def test_resolvent_norm_scalar():
    # growth condition at z = 1 for the point spectrum {0.5}
    assert resolvent_norm(np.array([[0.5]], dtype=complex), 1.0) == pytest.approx(2.0)


def test_resolvent_norm_zero_matrix_boundary():
    a = np.zeros((3, 3), dtype=complex)
    for alpha in (0.0, 1.1, 4.4):
        assert resolvent_norm(a, np.exp(1j * alpha)) == pytest.approx(1.0)


def test_resolvent_norm_normal_exact_formula():
    op = g1gen.random_g1(seed=6, n=5, rho_max=0.8)
    expected = 1.0 / np.min(np.abs(1.5 - op.spectrum))
    assert resolvent_norm(op.matrix, 1.5) == pytest.approx(expected, abs=1e-8)


def test_resolvent_norm_singular_on_spectrum():
    with pytest.raises(Singular):
        resolvent_norm(np.diag([0.5, 0.25]).astype(complex), 0.5)


def test_certify_zero_matrix():
    op = g1gen.G1Operator(matrix=np.zeros((2, 2), dtype=complex),
                          spectrum=np.zeros(2, dtype=complex),
                          unitary=np.eye(2, dtype=complex), d=1.0)
    assert g1gen.certify_core(op.matrix, op.spectrum) <= 1e-12


def test_certify_generated_operator():
    for seed in (7, 8, 9):
        op = g1gen.random_g1(seed=seed, n=4, rho_max=0.8)
        assert g1gen.certify_core(op.matrix, op.spectrum) <= 1e-8


def test_certify_rejects_jordan_block():
    assert g1gen.certify_core(JORDAN, [0.5, 0.5]) > 0.1


def test_boundary_resolvent_bound():
    # ||(e^{i a} - A)^{-1}|| <= 1/d on the unit circle for generated operators
    for seed in (10, 11):
        op = g1gen.random_g1(seed=seed, n=4, rho_max=0.8)
        for alpha in 2 * np.pi * np.arange(64) / 64:
            assert resolvent_norm(op.matrix, np.exp(1j * alpha)) <= 1.0 / op.d + 1e-6


def test_operator_validation_rejects_mismatched_d():
    op = g1gen.random_g1(seed=12, n=3, rho_max=0.8)
    with pytest.raises(ValueError):
        g1gen.G1Operator(matrix=op.matrix, spectrum=op.spectrum,
                         unitary=op.unitary, d=op.d + 1e-3)


def test_operator_validation_rejects_wrong_unitary():
    op = g1gen.random_g1(seed=13, n=3, rho_max=0.8)
    with pytest.raises(ValueError):
        g1gen.G1Operator(matrix=op.matrix, spectrum=op.spectrum,
                         unitary=2.0 * op.unitary, d=op.d)


def test_operator_validation_rejects_non_normal_without_certificate():
    with pytest.raises(CertificationFailed):
        g1gen.G1Operator(matrix=JORDAN, spectrum=np.array([0.5, 0.5]),
                         unitary=None, d=0.5)


def test_operator_rejects_failed_certificate_even_with_unitary():
    op = g1gen.random_g1(seed=129, n=3, rho_max=0.8)
    with pytest.raises(CertificationFailed):
        g1gen.G1Operator(matrix=op.matrix, spectrum=op.spectrum,
                         unitary=op.unitary, d=op.d, certificate=1.0)


def test_operator_accepts_certificate_backed_candidate():
    a = np.diag([0.5, -0.3]).astype(complex)
    cert = g1gen.certify_core(a, [0.5, -0.3])
    op = g1gen.G1Operator(matrix=a, spectrum=np.array([0.5, -0.3]),
                          unitary=None, d=0.5, certificate=cert)
    assert op.certificate <= 1e-6


def _triangular(seed, n):
    """Non-normal upper-triangular matrix with its spectrum on the diagonal."""
    rng = np.random.default_rng(seed)
    lam = 0.7 * g1gen._uniform_disk(rng, n)
    t = 0.3 * np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    return t + np.diag(lam), lam


@pytest.mark.parametrize("n", range(1, 17))
def test_certify_core_matches_pointwise_oracle_on_generated_operators(n):
    op = g1gen.random_g1(seed=200 + n, n=n, rho_max=0.8)
    assert g1gen.certify_core(op.matrix, op.spectrum) == oracles.certify_pointwise(
        op.matrix, op.spectrum)


@pytest.mark.parametrize("matrix, spectrum", [
    _triangular(1, 2), _triangular(2, 5), _triangular(3, 9),
    (JORDAN, [0.5, 0.5]),
    (np.zeros((3, 3), dtype=complex), np.zeros(3)),
])
@pytest.mark.parametrize("samples", [1, 7, 64])
def test_certify_core_matches_pointwise_oracle_on_hard_inputs(matrix, spectrum, samples):
    assert g1gen.certify_core(matrix, spectrum, samples) == oracles.certify_pointwise(
        matrix, spectrum, samples)


def test_certify_core_and_oracle_raise_the_same_singular():
    # the ring of radius 0.05 around the wrong eigenvalue 0.45 passes through 0.5
    u = g1gen.haar_unitary(np.random.default_rng(14), 2)
    a = (u * np.array([0.5, 0.25])) @ u.conj().T
    messages = []
    for certify in (g1gen.certify_core, oracles.certify_pointwise):
        with pytest.raises(Singular) as exc:
            certify(a, [0.45, 0.25])
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_sweep_budget_does_not_change_the_certificate(monkeypatch):
    op = g1gen.random_g1(seed=15, n=7, rho_max=0.8)
    for matrix, spectrum in (_triangular(4, 6), (JORDAN, [0.5, 0.5]), (op.matrix, op.spectrum)):
        expected = g1gen.certify_core(matrix, spectrum)
        for budget in (np.asarray(matrix, dtype=complex).nbytes, 1 << 40):
            with monkeypatch.context() as patch:
                patch.setattr(g1gen, "_SWEEP_BYTES", budget)
                assert g1gen.certify_core(matrix, spectrum) == expected


def test_certify_memory_stays_within_budget(monkeypatch):
    op = g1gen.random_g1(seed=16, n=48, rho_max=0.8)
    budget = 4 * op.matrix.nbytes
    monkeypatch.setattr(g1gen, "_SWEEP_BYTES", budget)
    tracemalloc.start()
    try:
        g1gen.certify_core(op.matrix, op.spectrum, circle_samples=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (points x n) distance table over all 1160 test points alone would
    # take 6 budgets
    assert peak <= 5 * budget
