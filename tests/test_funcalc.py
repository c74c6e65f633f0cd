"""Tests for Herglotz functions and the two matrix-calculus routes."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from g1rad import funcalc, g1gen, linalg
from g1rad.funcalc import HerglotzFunction

ATOM_AT_ZERO = HerglotzFunction(np.array([0.0]), np.array([1.0]))


def test_single_atom_normalized_at_origin():
    assert oracles.eval_herglotz(ATOM_AT_ZERO, 0.0) == pytest.approx(1.0)


def test_single_atom_half():
    # (1 + 0.5) / (1 - 0.5)
    assert oracles.eval_herglotz(ATOM_AT_ZERO, 0.5) == pytest.approx(3.0)


def test_two_atoms_normalized():
    f = HerglotzFunction(np.array([np.pi / 2, 3 * np.pi / 2]), np.array([0.5, 0.5]))
    assert oracles.eval_herglotz(f, 0.0) == pytest.approx(1.0)


def test_positive_real_part_near_boundary():
    f = funcalc.random_herglotz(31, 6)
    assert oracles.eval_herglotz(f, 0.9j).real > 0.0


def test_eval_rejects_boundary():
    with pytest.raises(ValueError, match="not inside the unit disk"):
        oracles.eval_herglotz(ATOM_AT_ZERO, 1.0)
    with pytest.raises(ValueError, match="not inside the unit disk"):
        oracles.eval_herglotz(ATOM_AT_ZERO, 1.2j)


def test_positivity_property():
    rng = np.random.default_rng(40)
    f = funcalc.random_herglotz(41, 12)
    for _ in range(200):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if abs(z) > 0.95:
            z *= 0.95 / abs(z)
        assert oracles.eval_herglotz(f, z).real > 0.0


def test_random_herglotz_single_atom_forced_weight():
    f = funcalc.random_herglotz(5, 1)
    assert_allclose(f.weights, [1.0])


def test_random_herglotz_normalization():
    for seed in range(20):
        f = funcalc.random_herglotz(seed, 8)
        assert abs(f.weights.sum() - 1.0) <= 1e-14
        assert np.all(f.weights >= 0.0)
        assert np.all((0.0 <= f.angles) & (f.angles < 2 * np.pi))
        assert abs(oracles.eval_herglotz(f, 0.0) - 1.0) <= 1e-14


def test_random_herglotz_seeds_differ():
    f1 = funcalc.random_herglotz(1, 4)
    f2 = funcalc.random_herglotz(2, 4)
    assert not np.allclose(f1.angles, f2.angles)


def test_random_herglotz_deterministic():
    f1 = funcalc.random_herglotz(9, 5)
    f2 = funcalc.random_herglotz(9, 5)
    assert_allclose(f1.angles, f2.angles)
    assert_allclose(f1.weights, f2.weights)


def test_herglotz_validation():
    with pytest.raises(ValueError):
        HerglotzFunction(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        HerglotzFunction(np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        HerglotzFunction(np.array([0.0, 1.0]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        HerglotzFunction(np.array([7.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="angles"):
        HerglotzFunction([np.nan, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match="weights"):
        HerglotzFunction([0.5, 1.0], [np.nan, 0.5])


# SHA-256 over seeds (0, 42, 987654321) of random_herglotz(seed, atoms): the
# bytes of angles and weights, recorded before the atoms e^{i a_j} were
# cached on the function
RANDOM_HERGLOTZ_SHA256 = {
    1: "571b7272458c59eb7e03b46a641b77629bd7d152d9ad632a41bdaeecbb7a9240",
    2: "020732d56420a592c69e4dd6fd8f7432de81cd39ab32101fb7a9d7b6fa76de9a",
    3: "afd5c24591133cd959b6221aff2ecef9c5840259deeec6ffe40ebd1c0d24ca74",
    4: "a1fda2ac8de3325e3a8c78c6017b3846f9bbe208fc01ae7f25ec112ae5d5f5a5",
    5: "9f31b0125967010a9edcd472ee55f767357f8137f229bef20b79baedc27d760a",
    6: "4bd4272a6f9061d680649c04f342e3451f50752574d8cdfb96d8ec442a488403",
    7: "0fe074ee93aa28a52856073b8a3004fddb81d96d607fe28fffcfd92e4e712e88",
    8: "4072d2f5b4955e525936d5c8678631e2596831e15fc2304d97dd39629548ac64",
}


@pytest.mark.parametrize("atoms", sorted(RANDOM_HERGLOTZ_SHA256))
def test_random_herglotz_draws_are_pinned(atoms):
    digest = hashlib.sha256()
    for seed in (0, 42, 987654321):
        f = funcalc.random_herglotz(seed, atoms)
        digest.update(f.angles.tobytes())
        digest.update(f.weights.tobytes())
    assert digest.hexdigest() == RANDOM_HERGLOTZ_SHA256[atoms]


def test_cached_phases_are_the_atoms():
    f = funcalc.random_herglotz(44, 5)
    assert f.phases.tobytes() == np.exp(1j * f.angles).tobytes()


def test_apply_normal_zero_spectrum_gives_identity():
    rng = np.random.default_rng(42)
    u = oracles.haar_unitary_qr(rng, 4)
    f = funcalc.random_herglotz(43, 8)
    op = g1gen.G1Operator(matrix=np.zeros((4, 4), dtype=complex),
                          spectrum=np.zeros(4, dtype=complex), unitary=u)
    fa = funcalc.apply_normal(f, op)
    assert_allclose(fa, np.eye(4), atol=1e-12)


def test_apply_normal_scalar_case():
    op = g1gen.G1Operator(matrix=[[0.5]], spectrum=[0.5], unitary=np.eye(1, dtype=complex))
    fa = funcalc.apply_normal(ATOM_AT_ZERO, op)
    assert_allclose(fa, [[3.0]])


def certified(matrix, spectrum) -> g1gen.G1Operator:
    """A certificate-only operator: no diagonalizer, as a bare operator file loads."""
    return g1gen.G1Operator(matrix=matrix, spectrum=spectrum, unitary=None,
                            certificate=g1gen.certify_core(matrix, spectrum))


def test_riesz_dunford_zero_matrix():
    f = funcalc.random_herglotz(44, 8)
    fa = funcalc.riesz_dunford(f, certified(np.zeros((2, 2), dtype=complex), [0.0, 0.0]))
    assert np.linalg.norm(fa - np.eye(2)) <= 1e-10


def test_apply_normal_rejects_an_operator_without_its_diagonalizer():
    op = certified(np.diag([0.5, -0.3]).astype(complex), [0.5, -0.3])
    with pytest.raises(ValueError, match="riesz_dunford"):
        funcalc.apply_normal(ATOM_AT_ZERO, op)


def test_riesz_dunford_scalar_case():
    op = g1gen.G1Operator(matrix=[[0.5]], spectrum=[0.5], unitary=np.eye(1, dtype=complex))
    fa = funcalc.riesz_dunford(ATOM_AT_ZERO, op)
    assert np.linalg.norm(fa - np.array([[3.0]])) <= 1e-10


def test_riesz_dunford_node_validation():
    op = certified(np.zeros((2, 2), dtype=complex), [0.0, 0.0])
    with pytest.raises(ValueError, match="nodes must be at least 32"):
        funcalc.riesz_dunford(ATOM_AT_ZERO, op, nodes=16)


def test_riesz_dunford_on_a_certificate_only_operator_matches_the_direct_sum():
    # a diagonal matrix passes the certificate without a diagonalizer, so only
    # the contour route applies to it
    lam = np.array([0.6, -0.3j, 0.2 + 0.1j])
    op = certified(np.diag(lam), lam)
    assert op.unitary is None
    f = funcalc.random_herglotz(51, 8)
    assert np.linalg.norm(funcalc.riesz_dunford(f, op)
                          - oracles.apply_direct(f, op.matrix)) <= 1e-10


def test_paths_agree_on_normal_input():
    for seed in range(10):
        rng_dim = 2 + seed % 7
        op = g1gen.random_g1(500 + seed, rng_dim, 0.8)
        f = funcalc.random_herglotz(600 + seed, 8)
        via_diag = funcalc.apply_normal(f, op)
        via_contour = funcalc.riesz_dunford(f, op, nodes=512)
        assert np.linalg.norm(via_diag - via_contour) <= 1e-8


# SHA-256 of riesz_dunford(f, op) over 20 random_g1 operators of n = 2-10,
# recorded when it took (matrix, spectrum) in place of the operator
RIESZ_DUNFORD_SHA256 = "84f19331e0c57cf9fce347a6def48aaec88410a1aef8d9b626b341e4d601587b"


def test_riesz_dunford_bits_are_pinned():
    digest = hashlib.sha256()
    for seed in range(20):
        op = g1gen.random_g1(seed, 2 + seed % 9, 0.8)
        f = funcalc.random_herglotz(100 + seed, 8)
        digest.update(funcalc.riesz_dunford(f, op, nodes=512).tobytes())
    assert digest.hexdigest() == RIESZ_DUNFORD_SHA256


def test_quadrature_geometric_convergence():
    # analytic integrand: halving the node spacing should crush the error
    for seed in range(5):
        op = g1gen.random_g1(700 + seed, 4, 0.7)
        scale = 0.7 / np.max(np.abs(op.spectrum))
        lam = op.spectrum * scale
        a = (op.unitary * lam) @ op.unitary.conj().T
        f = funcalc.random_herglotz(800 + seed, 8)
        scaled = g1gen.G1Operator(matrix=a, spectrum=lam, unitary=op.unitary)
        exact = funcalc.apply_normal(f, scaled)
        err_128 = np.linalg.norm(funcalc.riesz_dunford(f, scaled, nodes=128) - exact)
        err_512 = np.linalg.norm(funcalc.riesz_dunford(f, scaled, nodes=512) - exact)
        assert err_128 >= 1e3 * err_512


def test_spectral_mapping():
    for seed in range(5):
        op = g1gen.random_g1(900 + seed, 5, 0.8)
        f = funcalc.random_herglotz(950 + seed, 6)
        fa = funcalc.riesz_dunford(f, op, nodes=512)
        got = np.sort_complex(np.linalg.eigvals(fa))
        expected = np.sort_complex(np.array([oracles.eval_herglotz(f, lam)
                                             for lam in op.spectrum]))
        assert np.max(np.abs(got - expected)) <= 1e-8


def test_fbar_apply_identity_matrix():
    # fbar(A) from a computed f(A) is its adjoint; at A = 0, f(A) = I, so fbar(A) = I.
    assert_allclose(linalg.adjoint(np.eye(3, dtype=complex)), np.eye(3))
    assert_allclose(oracles.fbar_direct(ATOM_AT_ZERO, np.zeros((3, 3), dtype=complex)),
                    np.eye(3), atol=1e-12)


def test_fbar_direct_zero_matrix():
    f = funcalc.random_herglotz(45, 8)
    assert_allclose(oracles.fbar_direct(f, np.zeros((3, 3), dtype=complex)),
                    np.eye(3), atol=1e-12)


def test_fbar_direct_scalar_case():
    assert_allclose(oracles.fbar_direct(ATOM_AT_ZERO, np.array([[0.5]], dtype=complex)),
                    [[3.0]])


def test_fbar_direct_matches_adjoint_of_direct_sum():
    # fbar(A) = (f(A))* with f(A) evaluated atom by atom, no quadrature
    rng = np.random.default_rng(46)
    for seed in range(8):
        op = g1gen.random_g1(1000 + seed, 4, 0.8)
        f = funcalc.random_herglotz(1100 + seed, 8)
        direct = oracles.apply_direct(f, op.matrix)
        assert np.linalg.norm(oracles.fbar_direct(f, op.matrix)
                              - linalg.adjoint(direct)) <= 1e-10
    # also exercise a non-normal contraction
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    g *= 0.5 / linalg.spectral_norm(g)
    f = funcalc.random_herglotz(47, 8)
    assert np.linalg.norm(oracles.fbar_direct(f, g)
                          - linalg.adjoint(oracles.apply_direct(f, g))) <= 1e-10


def test_fbar_direct_matches_contour_route():
    op = g1gen.random_g1(48, 4, 0.8)
    f = funcalc.random_herglotz(49, 8)
    contour = funcalc.riesz_dunford(f, op, nodes=512)
    assert np.linalg.norm(oracles.fbar_direct(f, op.matrix)
                          - linalg.adjoint(contour)) <= 1e-8
