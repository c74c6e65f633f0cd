"""Tests for operator generation, the boundary distance d, and certification."""

import hashlib
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oracles
from g1rad import g1gen, linalg
from g1rad.errors import (CertificationFailed, ConfigError, G1RadError, Singular,
                          SpectrumOnBoundary)

JORDAN = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)


def resolvent_norm(a, z) -> float:
    return linalg.spectral_norm(linalg.resolvents(a, [z]))[0]


def diagonal(lam) -> g1gen.G1Operator:
    """diag(lam) with the identity as its unitary: its d is the spectrum's alone."""
    lam = np.asarray(lam, dtype=complex)
    return g1gen.G1Operator(matrix=np.diag(lam), spectrum=lam, unitary=np.eye(lam.size))


def test_boundary_distance_origin():
    assert diagonal([0.0]).d == pytest.approx(1.0)


def test_boundary_distance_two_points():
    assert diagonal([0.5, -0.25j]).d == pytest.approx(0.5)


def test_boundary_distance_guard_band():
    with pytest.raises(SpectrumOnBoundary):
        diagonal([0.999999999999])
    with pytest.raises(SpectrumOnBoundary):
        g1gen._validate(np.zeros((1, 1, 1), complex), np.array([[0.999999999999]]), None)


def test_boundary_distance_rejects_non_finite_eigenvalues():
    # a zero matrix keeps the entries finite, so the spectrum's check fails first
    for lam in ([np.nan], [0.5, np.nan], [complex(0.1, np.inf)]):
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            g1gen.G1Operator(matrix=np.zeros((len(lam), len(lam))), spectrum=lam,
                             unitary=np.eye(len(lam)))
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            g1gen._validate(np.zeros((1, len(lam), len(lam)), complex),
                            np.array([lam], dtype=complex), None)


def test_boundary_distance_is_the_smallest_margin_bit_for_bit():
    # 1 - max|lambda| against min(1 - |lambda|): rounding 1 - x is monotone
    rng = np.random.default_rng(52)
    for k in range(1, 40):
        lam = rng.uniform(0.0, 0.999, k) * np.exp(2j * np.pi * rng.uniform(size=k))
        assert diagonal(lam).d == float((1.0 - np.abs(lam)).min())


def test_boundary_distance_matches_grid_search():
    rng = np.random.default_rng(50)
    lam = 0.8 * g1gen._uniform_disk(rng, 6)
    alphas = 2 * np.pi * np.arange(10_000) / 10_000
    ring = np.exp(1j * alphas)
    brute = np.abs(ring[:, None] - lam[None, :]).min()
    assert diagonal(lam).d == pytest.approx(brute, abs=1e-6)


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


# SHA-256 over DRAW_SEEDS of random_g1(seed, n, 0.8): the bytes of matrix,
# spectrum, unitary and d. Recorded with np.linalg.qr in _haar_unitaries, on
# x86-64 with numpy 2.4.6 and its OpenBLAS 0.3.31; another BLAS build may
# round the products differently.
DRAW_SEEDS = (0, 42, 987654321)
RANDOM_G1_SHA256 = {
    1: "ef92398ede78ed16d761858cf6143afcabf4cbb34d8a71c7147f31d44239b924",
    2: "d4a19f7807bfca7d65de07776c95265e56c0973e7d236bec31be783ba7f13227",
    3: "67d2c4b03bfd7e638b200dc1ad6cc7231976b2070a710579b788ded4ae72a308",
    4: "b8527b3de0041b540f045c6800f25d5bb68252f40ec3c106726be251c3960d1d",
    5: "64065ddf7758e4e37bd862bbf5c425fdf53421e119c1b9b1c99d28e10eb0860a",
    6: "a6fc889a99fefba77c949efd1fb1c5eec0a1eb647a0c90c4b78546dfd92d8f28",
    7: "9441ffb10dd56aacd8260f088cc9f09addf01148e1e22eee57cf01d7e678531a",
    8: "3e6cbdb8012f60125d01a2ca2b20f2346edc56b4b3cad3028cc408d7545f68d2",
}


@pytest.mark.parametrize("n", sorted(RANDOM_G1_SHA256))
def test_random_g1_draws_are_pinned(n):
    digest = hashlib.sha256()
    for seed in DRAW_SEEDS:
        op = g1gen.random_g1(seed, n, 0.8)
        for part in (op.matrix, op.spectrum, op.unitary, np.float64(op.d)):
            digest.update(np.ascontiguousarray(part).tobytes())
    assert digest.hexdigest() == RANDOM_G1_SHA256[n]


def test_random_g1_rejects_bad_rho():
    with pytest.raises(ConfigError):
        g1gen.random_g1(seed=0, n=2, rho_max=1.0)
    with pytest.raises(ConfigError):
        g1gen.random_g1(seed=0, n=2, rho_max=0.0)


# ---------------------------------------------------------------- streams

EDGE_SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**62 - 1, 2**63, 2**64 - 1]
KERNEL = g1gen._KERNEL_SEEDS


def stream_bits(rng) -> list:
    """A generator's state and one draw of each kind that sampling takes from
    it, the buffered 32-bit word included, as exact values."""
    state = rng.bit_generator.state
    out = np.empty((2, 2, 2))
    rng.standard_normal(out=out)
    draws = [rng.uniform(-1.0, 1.0, size=(3, 2)), rng.uniform(0.0, 2.0 * np.pi, size=3),
             rng.uniform(size=3), np.float64(rng.uniform(0.0, 2.0 * np.pi)),
             rng.standard_normal((2, 2)), out]
    ints = [int(rng.integers(0, 1 << 62)), int(rng.integers(0, 1 << 32, dtype=np.uint32)),
            int(rng.integers(0, 1 << 32, dtype=np.uint32))]
    return [state, ints, *(np.asarray(d).tobytes() for d in draws)]


@pytest.mark.parametrize("k", [1, KERNEL - 1, KERNEL, 50])
def test_generators_give_the_streams_of_default_rng(k):
    seeds = EDGE_SEEDS + [int(s) for s in np.random.default_rng(2024).integers(
        0, 2**64, size=2000, dtype=np.uint64)] + [int(s) for s in range(100)]
    for start in range(0, len(seeds), k):
        chunk = seeds[start:start + k]
        got = [stream_bits(rng) for rng in g1gen.generators(chunk)]
        assert got == [stream_bits(np.random.default_rng(seed)) for seed in chunk]


def test_interleaved_generators_keep_their_own_streams():
    # no state outlives or is shared between calls: two lists drawn in turn
    first, second = list(range(10, 10 + KERNEL)), list(range(50, 50 + KERNEL))
    got = [(stream_bits(a), stream_bits(b))
           for a, b in zip(g1gen.generators(first), g1gen.generators(second))]
    assert got == [(stream_bits(np.random.default_rng(a)), stream_bits(np.random.default_rng(b)))
                   for a, b in zip(first, second)]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_generators_reject_a_seed_outside_64_bits(seed):
    with pytest.raises(OverflowError):
        list(g1gen.generators([seed] * KERNEL))


def test_uniform_disk_keeps_the_draws_of_concatenating_from_empty():
    # the first round's points are kept as drawn; later rounds append to them
    for seed in range(40):
        for k in (1, 2, 5, 9):
            rng = np.random.default_rng(seed)
            out = np.empty(0, dtype=np.complex128)
            while out.size < k:
                pts = rng.uniform(-1.0, 1.0, size=(max(2 * (k - out.size), 8), 2))
                keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0
                out = np.concatenate((out, pts[keep, 0] + 1j * pts[keep, 1]))
            expected = (out[:k].tobytes(), rng.bit_generator.state)
            rng = np.random.default_rng(seed)
            assert (g1gen._uniform_disk(rng, k).tobytes(), rng.bit_generator.state) == expected


def test_haar_unitarity():
    rng = np.random.default_rng(51)
    for n in (2, 4, 8, 16):
        u = g1gen._haar_unitaries(rng.standard_normal((1, 2, n, n)))[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10


@pytest.mark.parametrize("n", range(1, 17))
def test_haar_unitary_matches_numpy_qr_bit_for_bit(n):
    expected = [oracles.haar_unitary_qr(np.random.default_rng(seed), n) for seed in range(10)]
    # each seed's Ginibre block: its real parts, then its imaginary parts
    normals = [np.random.default_rng(seed).standard_normal((1, 2, n, n)) for seed in range(10)]
    for seed in range(10):
        u = g1gen._haar_unitaries(normals[seed])[0]
        assert u.tobytes() == expected[seed].tobytes()
    # one QR of the stack of all ten gives each unitary the same bits
    stack = g1gen._haar_unitaries(np.concatenate(normals))
    assert [u.tobytes() for u in stack] == [u.tobytes() for u in expected]


def _bytes(op):
    return [np.ascontiguousarray(part).tobytes()
            for part in (op.matrix, op.spectrum, op.unitary, np.float64(op.d))]


def members(ops):
    """Each operator of a G1Stack, as the G1Operator view that a w() trial takes."""
    return [g1gen._member(g1gen.G1Operator, ops, i) for i in range(len(ops.d))]


@pytest.mark.parametrize("n", range(1, 17))
def test_random_g1_matches_the_one_operator_oracle(n):
    # n = 1 is the size where numpy rounds U * lambda differently for a stack
    for seed in (0, 7, 123456789):
        expected = oracles.random_g1_one(seed, n, 0.8)
        op = g1gen.random_g1(seed, n, 0.8)
        assert _bytes(op) == [np.float64(x).tobytes() if np.isscalar(x) else x.tobytes()
                              for x in expected]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("size", [1, 2, 7, KERNEL - 1, KERNEL, 100])
def test_random_g1_stack_has_the_bits_of_one_call_per_seed(n, size):
    # random_g1 draws its stream from default_rng; from KERNEL seeds on the
    # stack draws them from the hashing kernel of g1gen.generators
    seeds = [1000 * n + 37 * i for i in range(size)]
    ops = g1gen.random_g1_stack(seeds, n, 0.7)
    assert [len(part) for part in ops] == [size] * 4
    for seed, op in zip(seeds, members(ops)):
        assert _bytes(op) == _bytes(g1gen.random_g1(seed, n, 0.7))
        assert op.certificate is None and op.dim == n


# At n = 8 the first rejection round of these seeds, 16 points, keeps fewer
# than 8 inside the disk, so random_g1_stack draws them again on their own.
SHORT_FIRST_ROUND = (79, 139, 337)


@pytest.mark.parametrize("size", [5, KERNEL + 3])
def test_an_operator_whose_first_round_falls_short_keeps_its_bits(size):
    n = 8
    for seed in SHORT_FIRST_ROUND:
        points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2 * n, 2))
        assert np.count_nonzero((points ** 2).sum(axis=1) <= 1.0) < n
    seeds = [1, 79, 2, 139, 337] + list(range(600, 600 + size - 5))
    for seed, op in zip(seeds, members(g1gen.random_g1_stack(seeds, n, 0.8))):
        assert _bytes(op) == _bytes(g1gen.random_g1(seed, n, 0.8))
        rng = np.random.default_rng(seed)
        spectrum = g1gen._uniform_disk(rng, n)
        normals = rng.standard_normal((1, 2, n, n))
        assert op.spectrum.tobytes() == (0.8 * spectrum).tobytes()
        assert op.unitary.tobytes() == g1gen._haar_unitaries(normals)[0].tobytes()


def test_random_g1_stack_of_no_seeds_is_empty():
    stack = g1gen.random_g1_stack([], 3, 0.8)
    assert [np.shape(part) for part in stack] == [(0, 3, 3), (0, 3), (0, 3, 3), (0,)]
    with pytest.raises(ConfigError):
        g1gen.random_g1_stack([], 3, 1.0)


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
                          unitary=np.eye(2, dtype=complex))
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


def _operator(op, **changes):
    fields = dict(matrix=op.matrix, spectrum=op.spectrum, unitary=op.unitary)
    return g1gen.G1Operator(**dict(fields, **changes))


def test_operator_derives_d_from_its_spectrum_bit_for_bit():
    for seed, n in ((12, 3), (14, 1), (18, 9)):
        op = g1gen.random_g1(seed=seed, n=n, rho_max=0.8)
        assert op.d == float((1.0 - np.abs(op.spectrum)).min())
    with pytest.raises(TypeError):
        _operator(op, d=op.d)


def test_operator_validation_rejects_a_nan_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        g1gen.G1Operator(matrix=np.diag([0.5, 0.2]), spectrum=[0.5, np.nan],
                         unitary=np.eye(2))


def test_operator_validation_rejects_wrong_unitary():
    op = g1gen.random_g1(seed=13, n=3, rho_max=0.8)
    message = "diagonalizer is not unitary within tolerance"
    with pytest.raises(ValueError, match=message):
        _operator(op, unitary=2.0 * op.unitary)
    for factor in (0.5, 2.0):
        # (cU)*(cU) - I = (c^2 - 1) I, of Frobenius norm |c^2 - 1| sqrt(n)
        scaled = np.sqrt(1.0 + factor * linalg.UNITARY_TOL / np.sqrt(3)) * op.unitary
        deviation = np.linalg.norm(scaled.conj().T @ scaled - np.eye(3))
        assert deviation == pytest.approx(factor * linalg.UNITARY_TOL, rel=1e-3)
        if factor < 1.0:
            _operator(op, unitary=scaled)
        else:
            with pytest.raises(ValueError, match=message):
                _operator(op, unitary=scaled)


def test_operator_validation_rejects_a_wrong_reconstruction():
    op = g1gen.random_g1(seed=17, n=3, rho_max=0.8)
    message = re.escape("matrix does not match U diag(spectrum) U*")
    for factor in (0.5, 2.0):
        # a shift by tI stays normal and misses U diag(spectrum) U* by t sqrt(n)
        shifted = op.matrix + factor * g1gen.RECONSTRUCTION_TOL / np.sqrt(3) * np.eye(3)
        if factor < 1.0:
            _operator(op, matrix=shifted)
        else:
            with pytest.raises(ValueError, match=message):
                _operator(op, matrix=shifted)


def test_operator_validation_rejects_non_normal_without_certificate():
    with pytest.raises(CertificationFailed):
        g1gen.G1Operator(matrix=JORDAN, spectrum=np.array([0.5, 0.5]),
                         unitary=None)
    # [[a, e], [0, -a]] with U = I: within e of U diag(a, -a) U*, and its
    # commutator ||A*A - AA*||_F is about 2 sqrt(2) a e against a bound of
    # NORMALITY_TOL ||A||_F^2 = 2 NORMALITY_TOL a^2
    a = 2e-3
    for factor in (0.5, 2.0):
        e = factor * g1gen.NORMALITY_TOL * a / np.sqrt(2.0)
        tilted = np.array([[a, e], [0.0, -a]], dtype=complex)
        commutator = tilted.conj().T @ tilted - tilted @ tilted.conj().T
        ratio = np.linalg.norm(commutator) / np.linalg.norm(tilted) ** 2
        assert ratio == pytest.approx(factor * g1gen.NORMALITY_TOL, rel=1e-3)
        bundle = dict(matrix=tilted, spectrum=[a, -a], unitary=np.eye(2))
        if factor < 1.0:
            g1gen.G1Operator(**bundle)
        else:
            with pytest.raises(ValueError, match="matrix is not normal within tolerance"):
                g1gen.G1Operator(**bundle)


def test_certificate_only_operator_must_be_normal():
    # a bare-file candidate that the sampled certificate admits, but whose
    # commutator ||A*A - AA*||_F / ||A||_F^2 is about 1.5e-5
    tilted = np.array([[0.5, 1e-5], [0.0, 0.2]], dtype=complex)
    certificate = g1gen.certify_core(tilted, [0.5, 0.2])
    assert certificate <= g1gen.CERT_THRESHOLD
    with pytest.raises(CertificationFailed, match="^matrix is not normal within tolerance$"):
        g1gen.G1Operator(matrix=tilted, spectrum=[0.5, 0.2], unitary=None,
                         certificate=certificate)
    # a failing certificate is still reported first
    with pytest.raises(CertificationFailed, match="certificate"):
        g1gen.G1Operator(matrix=tilted, spectrum=[0.5, 0.2], unitary=None, certificate=1.0)


def test_operator_rejects_failed_certificate_even_with_unitary():
    op = g1gen.random_g1(seed=129, n=3, rho_max=0.8)
    for certificate in (1.0, np.nan):
        with pytest.raises(CertificationFailed):
            _operator(op, certificate=certificate)


def test_operator_accepts_certificate_backed_candidate():
    a = np.diag([0.5, -0.3]).astype(complex)
    cert = g1gen.certify_core(a, [0.5, -0.3])
    op = g1gen.G1Operator(matrix=a, spectrum=np.array([0.5, -0.3]),
                          unitary=None, certificate=cert)
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
    u = oracles.haar_unitary_qr(np.random.default_rng(14), 2)
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


def test_dropped_points_and_partial_chunks_match_the_pointwise_oracle(monkeypatch):
    # the 0.05-ring around 0.5 meets 0.55 (point 64) and the 0.05-ring
    # around 0.55 meets 0.5 (point 288), so both are dropped. At 3 points a
    # chunk, point 64 is the middle of its chunk, point 288 the first of
    # its, and the 448th point fills a chunk of its own; at 1 point a chunk,
    # a dropped point leaves an empty one.
    matrix, spectrum = np.diag([0.5, 0.55]).astype(complex), np.array([0.5, 0.55])
    dist = np.abs(oracles.sweep_points(spectrum, 64)[:, None] - spectrum).min(axis=1)
    assert np.flatnonzero(dist < g1gen.TESTPOINT_GUARD).tolist() == [64, 288]
    expected = oracles.certify_pointwise(matrix, spectrum)
    assert g1gen.certify_core(matrix, spectrum) == expected
    for budget in (3 * matrix.nbytes, matrix.nbytes):
        with monkeypatch.context() as patch:
            patch.setattr(g1gen, "_SWEEP_BYTES", budget)
            assert g1gen.certify_core(matrix, spectrum) == expected


@pytest.mark.parametrize("n, samples", [(1, 1), (3, 7), (5, 64)])
def test_test_points_are_the_same_doubles_in_any_range(n, samples):
    lam = g1gen.random_g1(seed=17 + n, n=n, rho_max=0.8).spectrum
    expected = oracles.sweep_points(lam, samples)
    total = expected.size
    assert g1gen._test_points(lam, samples, 0, total).tobytes() == expected.tobytes()
    for step in (1, 5, samples + 1, 2 * samples):
        pieces = [g1gen._test_points(lam, samples, i, min(i + step, total))
                  for i in range(0, total, step)]
        assert np.concatenate(pieces).tobytes() == expected.tobytes()


def test_certify_sweep_does_not_hold_its_points():
    # 20,000 samples at n = 2 are 140,000 test points; one array of them
    # takes 2.2 MB, and their (points x n) distance table 4.5 MB
    op = g1gen.random_g1(seed=18, n=2, rho_max=0.8)
    tracemalloc.start()
    try:
        g1gen.certify_core(op.matrix, op.spectrum, circle_samples=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * g1gen._SWEEP_BYTES


def test_certify_sweep_keeps_its_stacks_mapped():
    # one workspace serves every chunk of a sweep. Stacks allocated afresh
    # per chunk are trimmed by the allocator after each chunk and faulted
    # back by the next: about 7,800 minor faults per n = 16 sweep. Whether
    # glibc trims depends on the process's allocation history, which this
    # suite's other tests change, and even the size of the environment can,
    # so the sweeps run in a fresh process that loads g1gen only, with
    # PYTHONPATH as its whole environment.
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the counts above come from glibc's malloc")
    code = (
        "import resource\n"
        "from g1rad import g1gen\n"
        "op = g1gen.random_g1(316, 16, 0.8)\n"
        "g1gen.certify_core(op.matrix, op.spectrum)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5):\n"
        "    g1gen.certify_core(op.matrix, op.spectrum)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {"PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
    assert int(child.stdout) < 5 * 1000


def test_generated_operators_certify_without_getrf(getrf_calls):
    # the pivot bound clears every point of a normal operator's sweep, so
    # a return to one getrf per point shows up here
    for n in (1, 4, 8, 16):
        op = g1gen.random_g1(seed=300 + n, n=n, rho_max=0.8)
        g1gen.certify_core(op.matrix, op.spectrum)
    assert getrf_calls == []
    # the counter does see the per-point route, 1e-9 from the Jordan block's
    # eigenvalue
    linalg.resolvents(JORDAN, [0.5 + 1e-9])
    assert getrf_calls == [(2, 2)]


def test_concurrent_certificates_match_serial_ones_bitwise():
    ops = [g1gen.random_g1(seed=400 + n, n=n, rho_max=0.8) for n in (8, 16)]
    serial = [g1gen.certify_core(op.matrix, op.spectrum) for op in ops]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            threaded = list(pool.map(lambda op: g1gen.certify_core(op.matrix, op.spectrum),
                                     ops, timeout=120))
            assert [x.hex() for x in threaded] == [x.hex() for x in serial]


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


def _tilted(a=2e-3):
    """[[a, e], [0, -a]] with U = I: within e of U diag(a, -a) U*, and
    ||A*A - AA*||_F / ||A||_F^2 is twice NORMALITY_TOL."""
    e = 2.0 * g1gen.NORMALITY_TOL * a / np.sqrt(2.0)
    return np.array([[a, e], [0.0, -a]], dtype=complex), np.array([a, -a]), np.eye(2)


def _nan_at(array, index):
    out = np.array(array, dtype=complex)
    out[index] = np.nan
    return out


# Faults of one member of a stack: (name, (matrix, spectrum, unitary) -> faulty triple)
STACK_FAULTS = [
    ("unitary 1e-9 off", lambda m, s, u: (m, s, (1.0 + 1e-9) * u)),
    ("not U diag(s) U*", lambda m, s, u: (m + 1e-9 * np.eye(2), s, u)),
    ("not normal", lambda m, s, u: _tilted()),
    ("NaN in the matrix", lambda m, s, u: (_nan_at(m, (0, 1)), s, u)),
    ("NaN in the spectrum", lambda m, s, u: (m, _nan_at(s, 1), u)),
    ("NaN in the unitary", lambda m, s, u: (m, s, _nan_at(u, (1, 0)))),
    ("eigenvalue on the circle", lambda m, s, u: (m, np.array([1.0, s[1]]), u)),
]


def _single_error(matrix, spectrum, unitary):
    with pytest.raises((G1RadError, ValueError)) as exc:
        g1gen.G1Operator(matrix=matrix, spectrum=spectrum, unitary=unitary)
    return type(exc.value), str(exc.value)


def _stack(members):
    return tuple(np.array(part) for part in zip(*members))


@pytest.mark.parametrize("name, fault", STACK_FAULTS, ids=[f[0] for f in STACK_FAULTS])
@pytest.mark.parametrize("slot", [0, 3, 6])
def test_a_stack_raises_its_faulty_members_own_error(name, fault, slot):
    ops = g1gen.random_g1_stack(range(500, 507), 2, 0.8)
    trios = list(zip(ops.matrices, ops.spectra, ops.unitaries))
    trios[slot] = fault(*trios[slot])
    kind, message = _single_error(*trios[slot])
    with pytest.raises(kind) as exc:
        g1gen._validate(*_stack(trios))
    assert type(exc.value) is kind and str(exc.value) == message


def test_a_stack_raises_the_first_faulty_members_error():
    ops = g1gen.random_g1_stack(range(510, 517), 2, 0.8)
    trios = list(zip(ops.matrices, ops.spectra, ops.unitaries))
    # member 2 fails a later check than member 5 does, but comes first
    trios[2] = _tilted()
    trios[5] = STACK_FAULTS[3][1](*trios[5])
    with pytest.raises(ValueError, match=r"^matrix is not normal within tolerance$"):
        g1gen._validate(*_stack(trios))
    good = _stack(zip(ops.matrices, ops.spectra, ops.unitaries))
    assert g1gen._validate(*good).tolist() == ops.d


@pytest.mark.parametrize("slot", [0, 2, 4])
def test_a_stack_without_unitaries_fails_a_non_normal_member_as_uncertified(slot):
    members = [(np.diag([0.5, -0.3]).astype(complex), np.array([0.5, -0.3]))] * 5
    members[slot] = _tilted()[:2]
    matrices, spectra = _stack(members)
    with pytest.raises(CertificationFailed, match=r"^matrix is not normal within tolerance$"):
        g1gen._validate(matrices, spectra, None)
