"""Tests for the numerical radius engine against the oracles in tests/oracles.py."""

import math
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


def golden_inputs():
    """Seeded inputs: 17 random matrices of n = 2..16, two [[0, X], [Y, 0]]
    blocks and one strictly upper-triangular matrix."""
    rng = np.random.default_rng(61)
    for _ in range(17):
        yield random_complex(rng, int(rng.integers(2, 17)))
    for n in (3, 4):
        zero = np.zeros((n, n), dtype=complex)
        yield np.block([[zero, random_complex(rng, n)], [random_complex(rng, n), zero]])
    yield np.triu(random_complex(rng, 6), 1)


# w(A) of golden_inputs() from the refinement in array arithmetic that the
# Python-float refinement replaced
GOLDEN = [
    4.852061665155888,
    4.613270515520759,
    7.776579109102523,
    6.6055314680980395,
    4.450735090714247,
    3.079617283685431,
    6.971108098448588,
    3.962858455200961,
    7.520145037437134,
    6.078447232446359,
    4.625335278572704,
    7.457840419122207,
    4.795083002836626,
    3.3090247681463363,
    2.6745368437350447,
    8.078217163502044,
    6.681878772806501,
    2.926096940867803,
    2.6974735536802736,
    1.6394032680979462,
]


def test_golden_values():
    inputs = list(golden_inputs())
    assert len(inputs) == len(GOLDEN)
    for a, want in zip(inputs, GOLDEN):
        result = wradius.numerical_radius(a)
        assert result.value == pytest.approx(want, rel=1e-13)
        achieved = abs(np.conj(result.witness) @ (a @ result.witness))
        assert achieved == pytest.approx(result.value, rel=1e-12)


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


@pytest.mark.parametrize("n", [2, 4, 8])
def test_homogeneity_where_the_frobenius_norm_overflows(n):
    # the sum of squares behind ||2^520 A||_F overflows to inf
    a = random_complex(np.random.default_rng(60 + n), n)
    base = wradius.numerical_radius(a)
    big = wradius.numerical_radius(2.0**520 * a)
    assert big.value / 2.0**520 == pytest.approx(base.value, rel=1e-13)
    assert big.theta_star == pytest.approx(base.theta_star, abs=1e-9)
    achieved = abs(np.conj(big.witness) @ (a @ big.witness))
    assert achieved == pytest.approx(base.value, rel=1e-12)
    # an even power of two keeps every step exact
    for k in (-300, -10, 10, 255):
        scaled = wradius.numerical_radius(4.0**k * a)
        assert scaled.value == 4.0**k * base.value
        assert scaled.theta_star == base.theta_star
        assert scaled.witness.tobytes() == base.witness.tobytes()


@pytest.mark.parametrize("scale", [1e-12, 1e-13, 2.0**-600])
def test_homogeneity_at_small_scales(scale):
    # an absolute TIE_TOL would tie every refined candidate here, and
    # ||2^-600 A||_F underflows to 0
    rng = np.random.default_rng(0)
    for n in (2, 4, 8, 16):
        for _ in range(20):
            a = random_complex(rng, n)
            base = wradius.numerical_radius(a).value
            small = wradius.numerical_radius(scale * a).value
            assert small / scale == pytest.approx(base, rel=1e-14)


def test_radius_near_the_largest_double():
    diagonal = np.diag([1e308, -0.5e308j])
    assert wradius.numerical_radius(diagonal).value == pytest.approx(1e308, rel=1e-12)
    with pytest.raises(OverflowError):
        wradius.numerical_radius(np.full((2, 2), 1e308))


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
        return np.block([[zero, x], [zero, zero]])
    if kind == "antidiagonal":
        return np.block([[zero, x], [y, zero]])
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


def count_eigensolves(monkeypatch):
    """Record (solver name, number of stacked matrices, matrix size) of every eigensolve."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(h, *args, _name=name, _solver=solver, **kwargs):
            calls.append((_name, len(h), h.shape[-1]))
            return _solver(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_eigensolves_per_call(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    passes = len(wradius._strides(360))
    rng = np.random.default_rng(17)
    for n in range(2, 17):
        for _ in range(8):
            calls.clear()
            wradius.numerical_radius(random_complex(rng, n))
            names = [name for name, _, _ in calls]
            # one eigvalsh per pruning pass, then one stacked eigh per Newton step
            assert names[:passes] == ["eigvalsh"] * passes
            assert set(names[passes:]) == {"eigh"}
            assert len(calls) <= 7
            # the full half-turn grid alone is 360 matrices
            assert sum(size for _, size, _ in calls) <= 64

    # W([[0, X], [Y, 0]]) = -W, so a block's grid has period pi and one center
    # of each twin pair is refined, but both when they sit at angles 0 and pi
    # (Y = X*). Conjugated by a unitary, the block takes the general path,
    # which refines its tied pair together: one eigh per Newton step over both
    # candidates, and every candidate step (one sine each) in exactly one stack
    sines = []
    sin = math.sin

    def counted_sin(x):
        sines.append(x)
        return sin(x)

    monkeypatch.setattr(math, "sin", counted_sin)
    for n in (2, 3, 4, 8):
        zero = np.zeros((n, n), dtype=complex)
        for _ in range(4):
            x = random_complex(rng, n)
            block = np.block([[zero, x], [random_complex(rng, n), zero]])
            u = g1gen.haar_unitary(rng, 2 * n)
            for a, candidates in ((block, 1), (np.block([[zero, x], [x.conj().T, zero]]), 2),
                                  (u @ block @ u.conj().T, 2)):
                calls.clear()
                sines.clear()
                wradius.numerical_radius(a)
                steps = [size for name, size, _ in calls if name == "eigh"]
                assert steps[0] == candidates
                assert steps == sorted(steps, reverse=True)
                assert sum(steps) == len(sines)
                assert len(calls) <= 7


def offdiagonal(x, y):
    zero = np.zeros_like(x)
    return np.block([[zero, x], [y, zero]])


def block_inputs():
    """[[0, X], [Y, 0]] for m = 1..16: Ginibre X and Y, Y = 0, Y = X*,
    Y = e^{it} X, diagonal X = Y, and Ginibre X and Y at 1e-12."""
    rng = np.random.default_rng(71)
    for m in range(1, 17):
        x, y = random_complex(rng, m), random_complex(rng, m)
        d = np.diag(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        twist = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        yield from (offdiagonal(x, y), offdiagonal(x, 0.0 * x), offdiagonal(x, x.conj().T),
                    offdiagonal(x, twist * x), offdiagonal(d, d),
                    offdiagonal(1e-12 * x, 1e-12 * y))


def test_blocks_match_dense_oracle():
    for a in block_inputs():
        result = wradius.numerical_radius(a)
        assert result.value == pytest.approx(oracles.numradius_dense(a), rel=1e-13)
        achieved = abs(np.conj(result.witness) @ (a @ result.witness))
        assert achieved == pytest.approx(result.value, rel=1e-13)


def test_gram_samples_round_inside_the_slack():
    # a pass keeps a cell by its bound less _SLACK ||A||_F, which must cover
    # the Gram route's rounding against the n x n eigvalsh, here 4 times over
    for a in block_inputs():
        fro = float(np.linalg.norm(a))
        gram = full_grid(a, 720, wradius._gram_sampler)
        assert np.abs(gram - full_grid(a, 720)).max() <= 0.25 * wradius._SLACK * fro


def test_ginibre_blocks_match_the_general_path_bitwise(monkeypatch):
    # the Gram samples only steer which centers are refined, on the full matrix
    rng = np.random.default_rng(73)
    inputs = [offdiagonal(random_complex(rng, m), random_complex(rng, m))
              for m in range(1, 17) for _ in range(4)]
    got = [wradius.numerical_radius(a) for a in inputs]
    monkeypatch.setattr(wradius, "_is_offdiagonal", lambda a: False)
    for a, block in zip(inputs, got):
        general = wradius.numerical_radius(a)
        assert block.value == general.value
        assert block.theta_star == general.theta_star
        assert np.array_equal(block.witness, general.witness)


def test_only_exact_offdiagonal_blocks_take_the_gram_route(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    rng = np.random.default_rng(75)
    block = offdiagonal(random_complex(rng, 4), random_complex(rng, 4))
    nudged = block.copy()
    nudged[5, 5] = 1e-300
    odd = np.zeros((7, 7), dtype=complex)
    odd[:3, 3:] = random_complex(rng, 4)[:3]
    odd[3:, :3] = random_complex(rng, 4)[:, :3]
    # grid eigensolves are of order n/2 on the Gram route, n otherwise;
    # refinement is always on the full matrix
    for a, grid_order in ((block, 4), (nudged, 8), (odd, 7)):
        calls.clear()
        wradius.numerical_radius(a)
        assert {order for name, _, order in calls if name == "eigvalsh"} == {grid_order}
        assert {order for name, _, order in calls if name == "eigh"} == {len(a)}


def full_grid(a, grid_points, sampler=wradius._eig_sampler):
    """lambda_max at every grid angle, from one unpruned half-turn stack."""
    sample = sampler(linalg.herm_part(a), linalg.skew_part(a))
    return np.concatenate(sample(2.0 * np.pi / grid_points * np.arange(grid_points // 2)))


def bound_inputs():
    rng = np.random.default_rng(51)
    yield from (random_complex(rng, n) for n in range(2, 17))
    yield from (degenerate_family(kind) for kind in DEGENERATE)


def pass_cells():
    """Cell counts of each pruning pass that bounds cells at 720 and 1440
    points, and of the two-pass grid's coarse pass."""
    counts = {8, 72, 144}
    for grid_points in (720, 1440):
        counts.update(grid_points // s for s in wradius._strides(grid_points // 2)[:-1])
    return sorted(counts)


def test_strides():
    assert wradius._strides(360) == (24, 6, 1)
    assert wradius._strides(720) == (48, 12, 3, 1)
    # fewer than 30 half-turn angles: one whole-grid pass
    for grid_points in (8, 10, 30):
        assert wradius._strides(grid_points // 2) == (1,)
    assert wradius._strides(30) == (2, 1)


@pytest.mark.parametrize("cells", pass_cells())
def test_cell_bound_is_sound(cells):
    # lambda_max anywhere in a cell stays below the apex bound of its two ends
    width = 2.0 * np.pi / cells
    inside = np.linspace(0.0, width, 64)
    for a in bound_inputs():
        re, im = linalg.herm_part(a), linalg.skew_part(a)
        slack = wradius._SLACK * np.linalg.norm(a)
        coarse = np.linalg.eigvalsh(wradius._pencil(re, im, width * np.arange(cells)))[:, -1]
        bounds = wradius._cell_bounds(coarse, width)
        thetas = (width * np.arange(cells)[:, None] + inside).ravel()
        fine = np.linalg.eigvalsh(wradius._pencil(re, im, thetas))[:, -1].reshape(cells, -1)
        assert np.all(fine <= bounds[:, None] + slack)


def tied_vertices(scale, seed):
    # W(A) is a polygon with two vertices of equal modulus. One is the maximizer
    # at the coarse angle 0; the other at 183 steps of 720, inside a cell whose
    # two supporting lines both pass through it, so the cell bound is tight. At
    # this scale the rounding of each sample is far above TIE_TOL.
    u = g1gen.haar_unitary(np.random.default_rng(seed), 4)
    top = np.array([2.0, 2.0 * np.exp(-183j * np.pi / 360), -1.0 + 0.5j, 0.3j])
    return (u * (scale * top)) @ u.conj().T


@pytest.mark.parametrize("grid_points", [720, 1440])
def test_fill_samples_every_angle_in_the_tie_band(grid_points):
    inputs = [*((a, wradius._eig_sampler) for a in bound_inputs()),
              *((tied_vertices(1e8, seed), wradius._eig_sampler) for seed in range(24)),
              *((a, wradius._gram_sampler) for a in block_inputs())]
    for a, sampler in inputs:
        re, im = linalg.herm_part(a), linalg.skew_part(a)
        fro = float(np.linalg.norm(a))
        got = wradius._grid(sampler(re, im), grid_points, fro, rows=grid_points)
        want = full_grid(a, grid_points, sampler)
        sampled = ~np.isnan(got)
        assert np.array_equal(got[sampled], want[sampled])
        assert sampled[want >= want.max() - wradius.TIE_TOL].all()


def two_pass_inputs():
    rng = np.random.default_rng(59)
    yield from (random_complex(rng, n) for n in range(2, 33))
    for n in (2, 3, 4, 6, 8):
        zero = np.zeros((n, n), dtype=complex)
        yield np.block([[zero, random_complex(rng, n)], [random_complex(rng, n), zero]])
    yield from (degenerate_family(kind) for kind in DEGENERATE)
    yield from (tied_vertices(1e8, seed) for seed in range(24))


@pytest.mark.parametrize("grid_points", [720, 1440])
def test_pruning_passes_match_the_two_pass_grid(monkeypatch, grid_points):
    # the passes skip other angles below the tie band than one coarse pass
    # and one fill did, which must not change a bit of the result
    for a in two_pass_inputs():
        got = wradius.numerical_radius(a, grid_points)
        with monkeypatch.context() as patch:
            patch.setattr(wradius, "_grid", oracles.two_pass_grid)
            want = wradius.numerical_radius(a, grid_points)
        assert got.value == want.value
        assert got.theta_star == want.theta_star
        assert np.array_equal(got.witness, want.witness)


@pytest.mark.parametrize("grid_points", [720, 1440])
def test_random_inputs_match_dense_oracle(grid_points):
    rng = np.random.default_rng(53)
    for n in range(2, 33):
        a = random_complex(rng, n)
        value = wradius.numerical_radius(a, grid_points).value
        assert value == pytest.approx(oracles.numradius_dense(a), rel=1e-12)


@pytest.mark.parametrize("grid_points", [720, 1440])
def test_nilpotent_block_samples_the_whole_half_turn(monkeypatch, grid_points):
    # a flat support function leaves no cell below the tie band
    calls = count_eigensolves(monkeypatch)
    wradius.numerical_radius(degenerate_family("nilpotent"), grid_points)
    assert sum(size for name, size, _ in calls if name == "eigvalsh") == grid_points // 2


@pytest.mark.parametrize("grid_points", [8, 10, 30])
def test_grids_without_a_coarse_stride(monkeypatch, grid_points):
    # fewer than 30 half-turn angles: the first pass is the whole grid
    calls = count_eigensolves(monkeypatch)
    rng = np.random.default_rng(55)
    for a in (random_complex(rng, 4), degenerate_family("nilpotent"), SHIFT):
        calls.clear()
        result = wradius.numerical_radius(a, grid_points)
        assert calls[0][:2] == ("eigvalsh", grid_points // 2)
        assert {name for name, _, _ in calls[1:]} == {"eigh"}
        assert result.value >= full_grid(a, grid_points).max() - wradius.TIE_TOL
        achieved = abs(np.conj(result.witness) @ (a @ result.witness))
        assert achieved == pytest.approx(result.value, rel=1e-12)


def test_fill_over_several_chunks_is_bitwise_identical(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    a = random_complex(np.random.default_rng(57), 6)
    want = wradius.numerical_radius(a)
    monkeypatch.setattr(wradius, "GRID_BYTES", 3 * a.nbytes)
    calls.clear()
    got = wradius.numerical_radius(a)
    # 5 chunks of the 15 first-pass angles, then 3 chunks for each later pass
    assert [size for name, size, _ in calls if name == "eigvalsh"] == [3] * 11
    assert got.value == want.value
    assert got.theta_star == want.theta_star
    assert np.array_equal(got.witness, want.witness)


@pytest.mark.parametrize("rows", range(1, 8))
def test_chunked_grid_is_bitwise_identical(monkeypatch, rows):
    rng = np.random.default_rng(41)
    zero = np.zeros((8, 8), dtype=complex)
    # the 16x16 off-diagonal block refines a tied pair of candidates in one stack
    inputs = [random_complex(rng, 5), degenerate_family("nilpotent"), random_complex(rng, 16),
              np.block([[zero, random_complex(rng, 8)], [random_complex(rng, 8), zero]])]
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
    for a in (random_complex(rng, 64), np.block([[zero, random_complex(rng, 32)], [zero, zero]])):
        budget = 4 * a.nbytes
        monkeypatch.setattr(wradius, "GRID_BYTES", budget)
        tracemalloc.start()
        try:
            wradius.numerical_radius(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # unchunked, the nilpotent block's last pass (300 of the 360
        # half-turn angles) alone would take 75 budgets
        assert peak <= 8 * budget
