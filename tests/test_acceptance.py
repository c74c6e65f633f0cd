"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Criterion 8 performs two full default-config runs
and dominates the wall time (several minutes).
"""

import hashlib
import sys
import time

import numpy as np
import pytest

import oracles
from g1rad import funcalc, g1gen, ineq, linalg, runner, wradius
from g1rad.errors import CertificationFailed, NotSelfAdjoint

DIMS = (2, 3, 4, 6, 8)
# SHA-256 of the default configuration's JSON and CSV reports
DEFAULT_JSON_SHA256 = "f026515b514b10341d7656221223e87a94a87ffad0abce22adda428c97fd8e53"
DEFAULT_CSV_SHA256 = "bc0ccc72078ffe293e559a2be3851d7da801fa586b3ce12eab07a7b10266ab2a"
JORDAN = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)


def announce(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def zero_operator(n):
    return g1gen.G1Operator(matrix=np.zeros((n, n), dtype=complex),
                            spectrum=np.zeros(n, dtype=complex),
                            unitary=np.eye(n, dtype=complex))


def test_criterion_1_lemma_suites():
    # 200 trials per part across dims {2,3,4,6,8}; equality form for part f
    config = runner.TrialConfig(
        master_seed=20_240_001, dims=DIMS, trials_per_suite=40,
        suites=("lemma21a", "lemma21b", "lemma21c", "lemma21d", "lemma21e", "lemma21f"),
    )
    start = time.perf_counter()
    result = runner.run_suite(config)
    elapsed = time.perf_counter() - start
    failures = [s.suite for s in result.suites if s.passed != s.total]
    totals_ok = all(s.total == 200 for s in result.suites)
    equality_ok = all(
        abs(r.lhs - r.rhs) <= 1e-8 * (1.0 + r.rhs)
        for r in result.details if r.name == "lemma21f"
    )
    ok = not failures and totals_ok and equality_ok and elapsed <= 120.0
    announce(1, ok,
             f"lemma21 parts a-f, 200 trials each: failures={failures or 'none'}, "
             f"part f equality ok={equality_ok}, runtime {elapsed:.1f}s (limit 120s)")


def test_criterion_2_thm22_suite():
    failures = 0
    worst = 0.0
    for index, variant in enumerate(("sum", "diff")):
        for trial in range(200):
            n = DIMS[trial % len(DIMS)]
            rng = np.random.default_rng((2, index, trial))
            f = funcalc.random_herglotz(20_000 + trial, 8)
            op = g1gen.random_g1(30_000 + trial, n, 0.8)
            report = ineq.check_thm22(f, op, random_complex(rng, n), variant)
            failures += 0 if report.passed else 1
            if np.isfinite(report.ratio):
                worst = max(worst, report.ratio)
    rng = np.random.default_rng(77)
    saturation = ineq.check_thm22(funcalc.random_herglotz(40_000, 8), zero_operator(4),
                                  random_complex(rng, 4), "sum")
    saturated = abs(saturation.ratio - 1.0) <= 1e-9
    ok = failures == 0 and saturated
    announce(2, ok,
             f"thm22 200 trials/variant: {failures} failures, max ratio {worst:.6f}; "
             f"A=0 sum saturation ratio {saturation.ratio:.12f}")


def _run_variant_suite(name, needs_x, hermitian_x, pair, base_seed):
    failures = 0
    for variant in runner.SUITES[name].variants:
        for trial in range(200):
            n = DIMS[trial % len(DIMS)]
            rng = np.random.default_rng((base_seed, trial))
            f = funcalc.random_herglotz(base_seed + trial, 8)
            opa = g1gen.random_g1(base_seed + 1000 + trial, n, 0.8)
            args = [f, opa]
            if pair:
                args.append(g1gen.random_g1(base_seed + 2000 + trial, n, 0.8))
            if needs_x:
                x = random_complex(rng, n)
                args.append(linalg.herm_part(x) if hermitian_x else x)
            args.append(variant)
            if not oracles.check_one(name, *args).passed:
                failures += 1
    return failures


def test_criterion_3_remaining_suites():
    counts = {
        "cor23": _run_variant_suite("cor23", False, False, False, 51_000),
        "thm24": _run_variant_suite("thm24", True, False, True, 52_000),
        "rem25": _run_variant_suite("rem25", True, True, True, 53_000),
        "cor26": _run_variant_suite("cor26", False, False, True, 54_000),
        "rem27": _run_variant_suite("rem27", True, False, True, 55_000),
    }
    rng = np.random.default_rng(56_000)
    rejected = False
    try:
        oracles.check_one("rem25", funcalc.random_herglotz(56_001, 8),
                          g1gen.random_g1(56_002, 3, 0.8), g1gen.random_g1(56_003, 3, 0.8),
                          random_complex(rng, 3), "commutator")
    except NotSelfAdjoint:
        rejected = True
    ok = all(v == 0 for v in counts.values()) and rejected
    announce(3, ok,
             f"200 trials/variant failures: {counts}; "
             f"rem25 rejects non-Hermitian X: {rejected}")


def test_criterion_4_functional_calculus_cross_validation():
    worst_gap = 0.0
    for trial in range(50):
        n = 2 + trial % 7
        op = g1gen.random_g1(61_000 + trial, n, 0.8)
        f = funcalc.random_herglotz(62_000 + trial, 8)
        via_diag = funcalc.apply_normal(f, op)
        via_contour = funcalc.riesz_dunford(f, op, nodes=512)
        worst_gap = max(worst_gap, float(np.linalg.norm(via_diag - via_contour)))
    agreement_ok = worst_gap <= 1e-8

    # geometric shrink checked near the stated spectral-radius bound, where
    # the nodes=128 error is still well above rounding
    worst_factor = np.inf
    rng = np.random.default_rng(63_000)
    for trial in range(20):
        op = g1gen.random_g1(64_000 + trial, 4, 0.7)
        lam = op.spectrum * (rng.uniform(0.65, 0.7) / np.max(np.abs(op.spectrum)))
        a = (op.unitary * lam) @ op.unitary.conj().T
        f = funcalc.random_herglotz(65_000 + trial, 8)
        scaled = g1gen.G1Operator(matrix=a, spectrum=lam, unitary=op.unitary)
        exact = funcalc.apply_normal(f, scaled)
        err_128 = np.linalg.norm(funcalc.riesz_dunford(f, scaled, nodes=128) - exact)
        err_512 = np.linalg.norm(funcalc.riesz_dunford(f, scaled, nodes=512) - exact)
        worst_factor = min(worst_factor, err_128 / max(err_512, 1e-300))
    shrink_ok = worst_factor >= 1e3
    ok = agreement_ok and shrink_ok
    announce(4, ok,
             f"50 pairs contour-vs-diagonalization worst gap {worst_gap:.2e} (<=1e-8); "
             f"128->512 node error shrink factor >= {worst_factor:.1e} (>=1e3)")


def test_criterion_5_conjugate_function_identity():
    worst = 0.0
    for trial in range(50):
        n = 2 + trial % 6
        if trial % 2 == 0:
            a = g1gen.random_g1(71_000 + trial, n, 0.8).matrix
        else:
            rng = np.random.default_rng(72_000 + trial)
            a = random_complex(rng, n)
            a *= 0.8 / linalg.spectral_norm(a)
        f = funcalc.random_herglotz(73_000 + trial, 8)
        gap = np.linalg.norm(oracles.fbar_direct(f, a)
                             - linalg.adjoint(oracles.apply_direct(f, a)))
        worst = max(worst, float(gap))
    ok = worst <= 1e-10
    announce(5, ok, f"fbar(A) vs (f(A))* on 50 instances: worst gap {worst:.2e} (<=1e-10)")


def test_criterion_6_numerical_radius_engine():
    shift_value = wradius.numerical_radius(np.array([[0.0, 1.0], [0.0, 0.0]],
                                                    dtype=complex)).value
    shift_ok = abs(shift_value - 0.5) <= 1e-10

    normal_ok = True
    rng = np.random.default_rng(81_000)
    for trial in range(100):
        n = DIMS[trial % len(DIMS)]
        op = g1gen.random_g1(82_000 + trial, n, 0.9)
        value = wradius.numerical_radius(op.matrix).value
        target = float(np.max(np.abs(op.spectrum)))
        if abs(value - target) > 1e-9:
            normal_ok = False

    sandwich_ok = True
    mc_ok = True
    for trial in range(500):
        n = 2 + trial % 7
        a = random_complex(rng, n)
        value = wradius.numerical_radius(a).value
        norm = linalg.spectral_norm(a)
        if not (0.5 * norm - 1e-9 <= value <= norm + 1e-9):
            sandwich_ok = False
        if oracles.numradius_lower_bound(a, 100_000, seed=trial) > value + 1e-8:
            mc_ok = False
    ok = shift_ok and normal_ok and sandwich_ok and mc_ok
    announce(6, ok,
             f"shift w={shift_value:.12f} (0.5+/-1e-10: {shift_ok}); "
             f"100 normals match max|lambda|: {normal_ok}; "
             f"500-instance sandwich: {sandwich_ok}; MC bound never exceeds: {mc_ok}")


def test_criterion_7_g1_certification():
    worst = 0.0
    for trial in range(40):
        n = DIMS[trial % len(DIMS)]
        op = g1gen.random_g1(91_000 + trial, n, 0.8)
        worst = max(worst, g1gen.certify_core(op.matrix, op.spectrum, circle_samples=64))
    normals_ok = worst <= 1e-8
    jordan_cert = g1gen.certify_core(JORDAN, [0.5, 0.5], circle_samples=64)
    jordan_ok = jordan_cert > 0.1
    gate_ok = False
    try:
        g1gen.G1Operator(matrix=JORDAN, spectrum=np.array([0.5, 0.5]),
                         unitary=None, certificate=jordan_cert)
    except CertificationFailed:
        gate_ok = True
    ok = normals_ok and jordan_ok and gate_ok
    announce(7, ok,
             f"40 generated operators worst certificate {worst:.2e} (<=1e-8); "
             f"Jordan block certificate {jordan_cert:.3f} (>0.1), rejected: {gate_ok}")


def test_criterion_8_determinism():
    config = runner.TrialConfig()  # the default configuration
    first = runner.run_suite(config)
    second = runner.run_suite(config)
    text_first = runner.render_report(first.suites, first.details, "json", config)
    text_second = runner.render_report(second.suites, second.details, "json", config)
    bytes_ok = text_first.encode() == text_second.encode()
    csv_text = runner.render_report(first.suites, first.details, "csv", config)
    pinned_ok = (hashlib.sha256(text_first.encode()).hexdigest() == DEFAULT_JSON_SHA256
                 and hashlib.sha256(csv_text.encode()).hexdigest() == DEFAULT_CSV_SHA256)

    replay_ok = True
    for suite, dim, trial in (("thm22", 4, 7), ("lemma21d", 8, 199), ("rem25", 3, 42)):
        replayed = runner.run_trial(config, suite, dim, trial)
        if replayed not in first.details:
            replay_ok = False
    all_passed = all(s.passed == s.total for s in first.suites)
    ok = bytes_ok and pinned_ok and replay_ok and all_passed
    announce(8, ok,
             f"two default-config runs byte-identical: {bytes_ok}; "
             f"JSON and CSV reports match their pinned SHA-256: {pinned_ok}; "
             f"replay reproduces sampled trials exactly: {replay_ok}; "
             f"default run all-pass: {all_passed}")
