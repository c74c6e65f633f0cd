"""Tests for the batch driver, report rendering, and operator loading."""

import dataclasses
import hashlib
import json
import math
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from g1rad import funcalc, g1gen, ineq, runner, serialize
from g1rad.errors import CertificationFailed, ConfigError, ParseError, SpectrumOnBoundary

TINY = runner.TrialConfig(master_seed=7, dims=(2,), trials_per_suite=1, suites=("thm22",))


def test_counting_contract():
    result = runner.run_suite(TINY)
    assert len(result.suites) == 1
    assert result.suites[0].total == 1
    assert len(result.details) == 1


def test_total_is_dims_times_trials():
    cfg = runner.TrialConfig(master_seed=1, dims=(2, 3), trials_per_suite=3,
                             suites=("lemma21a", "lemma21f"))
    result = runner.run_suite(cfg)
    assert all(s.total == 6 for s in result.suites)
    assert len(result.details) == 12


def test_run_is_deterministic():
    r1 = runner.run_suite(TINY)
    r2 = runner.run_suite(TINY)
    t1 = runner.render_report(r1.suites, r1.details, "json", TINY)
    t2 = runner.render_report(r2.suites, r2.details, "json", TINY)
    assert t1 == t2


def test_trials_run_serially_on_the_calling_thread(monkeypatch):
    cfg = runner.TrialConfig(master_seed=3, dims=(2, 3), trials_per_suite=4,
                             suites=("lemma21a", "thm22"))
    monkeypatch.setenv("WRAD_THREADS", "1")
    one = runner.run_suite(cfg)
    threads = []
    trial = runner.run_trial

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return trial(*args, **kwargs)

    monkeypatch.setattr(runner, "run_trial", recording)
    monkeypatch.setenv("WRAD_THREADS", "3")
    three = runner.run_suite(cfg)
    # one call per chunk: the four trials of either suite at n = 2 or 3 fit
    # one chunk per dim
    assert threads == [threading.get_ident()] * 4
    assert (runner.render_report(one.suites, one.details, "json", cfg)
            == runner.render_report(three.suites, three.details, "json", cfg))


def test_bad_threads_env(monkeypatch):
    monkeypatch.setenv("WRAD_THREADS", "zero")
    with pytest.raises(ConfigError):
        runner.worker_count()


def test_replay_reproduces_batch_trial():
    cfg = runner.TrialConfig(master_seed=11, dims=(2, 3), trials_per_suite=3,
                             suites=("thm24",))
    result = runner.run_suite(cfg)
    for dim in (2, 3):
        for trial in range(3):
            replayed = runner.run_trial(cfg, "thm24", dim, trial)
            assert replayed in result.details


# rem25 at n = 16: a trial's two operators hold 16 KiB of matrices and
# unitaries, so the cell runs two full chunks of PER_CHUNK trials and a half one
PER_CHUNK = runner._CELL_BYTES // (2 * 32 * 16 * 16)
CHUNKED = runner.TrialConfig(master_seed=19, dims=(16,),
                             trials_per_suite=2 * PER_CHUNK + PER_CHUNK // 2,
                             suites=("rem25",), report_format="csv")


def test_a_cell_spans_chunks_and_replays_trial_by_trial(monkeypatch):
    stacks = []
    build = g1gen.random_g1_stack

    def counting(seeds, n, rho_max, streams=None):
        stacks.append(len(seeds))
        return build(seeds, n, rho_max, streams)

    monkeypatch.setattr(g1gen, "random_g1_stack", counting)
    result = runner.run_suite(CHUNKED)
    assert stacks == [2 * PER_CHUNK, 2 * PER_CHUNK, 2 * (PER_CHUNK // 2)]
    trials = range(CHUNKED.trials_per_suite)
    assert result.details == [runner.run_trial(CHUNKED, "rem25", 16, t) for t in trials]


# The two tests below fix the chunk budget at 64 KiB, so that their sizes are
# exact figures that hold whatever runner._CELL_BYTES is.
BUDGET = 64 << 10


@pytest.mark.parametrize("suite, dim, trials, chunks", [
    ("cor23", 8, 70, [32, 32, 6]),  # 64 KiB over one operator's 2 KiB
    ("thm24", 3, 70, [70]),  # 102 trials of functions, and more of operators, fit
    ("rem25", 64, 3, [1, 1, 1]),  # one trial's operators hold 256 KiB, past the budget
    ("lemma21a", 2, 5, [5]),  # two 2 x 2 Ginibre matrices: 512 trials fit
    ("lemma21c", 8, 35, [16, 16, 3]),  # 64 KiB over four 8 x 8 Ginibre matrices of 1 KiB
])
def test_a_chunk_is_the_budget_over_one_trials_operators(monkeypatch, suite, dim, trials,
                                                          chunks):
    sizes = []
    inputs = runner._inputs

    def recording(*args):  # (config, suite, dim, trials)
        sizes.append(len(args[-1]))
        return inputs(*args)

    monkeypatch.setattr(runner, "_CELL_BYTES", BUDGET)
    monkeypatch.setattr(runner, "_inputs", recording)
    row = runner.SUITES[suite]
    if row.chunked:  # one call per chunk, whose last argument is the seeds
        monkeypatch.setattr(ineq, row.checker, lambda *args: list(args[-1]))
    else:
        monkeypatch.setattr(ineq, row.checker, lambda *args, seed: seed)
    cfg = runner.TrialConfig(dims=(dim,), trials_per_suite=trials, suites=(suite,))
    seeds = runner._run_cell(cfg, suite, dim)
    assert sizes == chunks
    assert seeds == [runner.trial_seed(cfg.master_seed, suite, dim, t) for t in range(trials)]


@pytest.mark.parametrize("suite, dim, atoms, size", [
    ("cor23", 2, 20_000, 1),  # one trial's function alone is past the budget
    ("cor23", 2, 8, 128),  # the functions' cap, under the operators' 512
    ("cor23", 8, 8, 32),  # the operators' cap, under the functions' 51
    ("rem25", 8, 8, 16),
    ("thm22", 4, 100, 6),
    # two Ginibre matrices of 64 bytes; the atoms count for nothing without a function
    ("lemma21a", 2, 20_000, 512),
])
def test_a_chunk_keeps_its_functions_within_the_budget(monkeypatch, suite, dim, atoms, size):
    # a function's chunk bytes grow with its atoms: 16 atoms (n + 2) a trial
    monkeypatch.setattr(runner, "_CELL_BYTES", BUDGET)
    config = runner.TrialConfig(dims=(dim,), atoms=atoms, suites=(suite,))
    assert runner._chunk_size(config, suite, dim) == size


def test_a_batch_hashes_each_trials_seed_once(monkeypatch):
    calls = []
    trial_seed = runner.trial_seed
    monkeypatch.setattr(runner, "trial_seed", lambda *args: calls.append(args) or trial_seed(*args))
    config = runner.TrialConfig(master_seed=3, dims=(2, 3), trials_per_suite=4,
                                suites=("lemma21a", "thm22", "cor23", "rem25"))
    runner.run_suite(config)
    assert len(calls) == len(set(calls)) == 2 * 4 * 4


def test_the_chunk_budget_does_not_change_the_report(monkeypatch):
    def report():
        result = runner.run_suite(CHUNKED)
        return runner.render_report(result.suites, result.details, "csv", CHUNKED)

    expected = report()
    for budget in (1, 100 << 10, 1 << 40):  # a trial a chunk, chunks of 6, one chunk
        with monkeypatch.context() as patch:
            patch.setattr(runner, "_CELL_BYTES", budget)
            assert report() == expected


def bits(report) -> tuple:
    return (report.name, report.lhs.hex(), report.rhs.hex(), report.ratio.hex(),
            report.passed, report.seed, report.dim)


@pytest.mark.parametrize("budget", [1, 100 << 10, 1 << 40], ids=["1B", "100KiB", "1TiB"])
def test_chunked_norm_suites_give_each_trial_the_bits_of_run_trial(monkeypatch, budget):
    # every chunk of every suite goes through run_trial's range form. At
    # n = 1 a product over a whole stack rounds otherwise than one per
    # operator; at n = 16 and 100 KiB, cor23 runs chunks of 12, rem25 and
    # cor26 of 6. The w() suites run fewer trials, at n = 1-3.
    monkeypatch.setattr(runner, "_CELL_BYTES", budget)
    norm = ("cor23", "rem25", "cor26")
    for config in (
            runner.TrialConfig(master_seed=23, dims=(1, 2, 3, 5, 8, 16), trials_per_suite=13,
                               suites=norm),
            runner.TrialConfig(master_seed=23, dims=(1, 2, 3), trials_per_suite=5,
                               suites=tuple(s for s in runner.ALL_SUITES if s not in norm))):
        batch = runner.run_suite(config).details
        alone = [runner.run_trial(config, suite, dim, trial) for suite in config.suites
                 for dim in config.dims for trial in range(config.trials_per_suite)]
        assert list(map(bits, batch)) == list(map(bits, alone))


@pytest.mark.parametrize("suite", ["cor23", "thm22"])
def test_chunks_on_both_sides_of_the_kernel_give_each_trial_the_bits_of_run_trial(
        monkeypatch, suite):
    # a trial alone draws its streams from default_rng; a chunk of at least
    # g1gen._KERNEL_SEEDS trials draws them from the hashing kernel
    kernel = g1gen._KERNEL_SEEDS
    config = runner.TrialConfig(master_seed=31, dims=(1, 3), trials_per_suite=2 * kernel + 1,
                                suites=(suite,))
    alone = [bits(runner.run_trial(config, suite, dim, trial)) for dim in config.dims
             for trial in range(config.trials_per_suite)]
    for size in (kernel - 1, kernel, 2 * kernel + 1):
        monkeypatch.setattr(runner, "_chunk_size", lambda *args: size)
        assert list(map(bits, runner.run_suite(config).details)) == alone


def _op_bits(op):
    return [op.matrix.tobytes(), op.spectrum.tobytes(), op.unitary.tobytes(), op.d]


def _f_bits(f):
    return [f.angles.tobytes(), f.weights.tobytes(), f.phases.tobytes()]


@pytest.mark.parametrize("total", [g1gen._KERNEL_SEEDS + k for k in (-1, 0, 1)])
def test_one_seeding_pass_builds_what_separate_passes_build(total):
    # _inputs seeds a chunk's functions' and operators' streams in one
    # generators call; 79 and 139 need a second disk round at n = 8
    f_seeds = list(range(300, 300 + total // 2))
    op_seeds = [79, 139] + list(range(400, 400 + total - len(f_seeds) - 2))
    streams = g1gen.generators(f_seeds + op_seeds)
    fs = funcalc.random_herglotz_stack(f_seeds, 8, streams)
    ops = g1gen.random_g1_stack(op_seeds, 8, 0.8, streams)
    assert next(streams, None) is None
    assert list(map(_f_bits, fs)) == list(map(_f_bits, funcalc.random_herglotz_stack(f_seeds, 8)))
    assert list(map(_op_bits, ops)) == list(map(_op_bits, g1gen.random_g1_stack(op_seeds, 8, 0.8)))


@pytest.mark.parametrize("build", [
    lambda seeds, streams: funcalc.random_herglotz_stack(seeds, 8, streams),
    lambda seeds, streams: g1gen.random_g1_stack(seeds, 3, 0.8, streams),
])
@pytest.mark.parametrize("total", [8, 20])
def test_a_builder_leaves_the_next_stream_untaken(build, total):
    # from _KERNEL_SEEDS on, generators re-seeds one Generator in place, so a
    # stream taken past a builder's own would shift every later one
    streams = g1gen.generators(list(range(total)))
    build(list(range(5)), streams)
    assert next(streams).bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_a_chunks_operators_are_gone_before_the_next_chunk_is_built(monkeypatch):
    refs = []
    build = g1gen.random_g1_stack

    def tracking(seeds, n, rho_max, streams=None):
        assert all(ref() is None for ref in refs), "the last chunk's operators are still held"
        ops = build(seeds, n, rho_max, streams)
        refs[:] = map(weakref.ref, ops)
        return ops

    monkeypatch.setattr(g1gen, "random_g1_stack", tracking)
    assert len(runner.run_suite(CHUNKED).details) == CHUNKED.trials_per_suite


def test_a_cell_holds_one_chunk_of_operators_at_a_time(monkeypatch):
    # rem25 at n = 64: a trial's two operators hold 256 KiB of matrices and
    # unitaries, so the cell runs chunks of max(1, _CELL_BYTES // 256 KiB)
    # trials. With the temporaries of building and checking them it peaks at
    # about 9 such chunks; the cell's 400 operators built as one stack took
    # 300 MB.
    monkeypatch.setattr(ineq, "check_rem25", lambda *args: [
        ineq._report("rem25", 0.0, 1.0, seed, 64) for seed in args[-1]])
    config = runner.TrialConfig(master_seed=1, dims=(64,), trials_per_suite=200,
                                suites=("rem25",))
    tracemalloc.start()
    try:
        runner.run_suite(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * max(runner._CELL_BYTES, 2 * 2 * 16 * 64 * 64)


def test_sub_seed_is_the_draw_of_integers_below_2_62():
    # one raw word shifted right by two: numpy's Lemire draw on [0, 2^62)
    # never rejects and keeps the word's top 62 bits
    edges = [0, 1, 2**32 - 1, 2**32, 2**62 - 1, 2**63, 2**64 - 1]
    seeds = edges + np.random.default_rng(89).integers(0, 2**64, 2000, dtype=np.uint64).tolist()
    for seed in seeds:
        raw, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        subs = [runner._sub_seed(raw) for _ in range(3)]
        assert subs == [int(drawn.integers(0, 1 << 62)) for _ in range(3)], seed
        assert all(type(sub) is int for sub in subs)


def test_trial_seed_is_stable():
    assert runner.trial_seed(42, "thm22", 2, 0) == runner.trial_seed(42, "thm22", 2, 0)
    assert runner.trial_seed(42, "thm22", 2, 0) != runner.trial_seed(42, "thm22", 2, 1)
    assert runner.trial_seed(42, "thm22", 2, 0) != runner.trial_seed(43, "thm22", 2, 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        runner.TrialConfig(suites=()).validate()
    with pytest.raises(ConfigError):
        runner.TrialConfig(suites=("nope",)).validate()
    with pytest.raises(ConfigError):
        runner.TrialConfig(trials_per_suite=0).validate()
    with pytest.raises(ConfigError):
        runner.TrialConfig(rho_max=1.2).validate()
    with pytest.raises(ConfigError):
        runner.TrialConfig(dims=(0,)).validate()
    with pytest.raises(ConfigError):
        runner.TrialConfig(report_format="xml").validate()


@pytest.mark.parametrize("field, value", [("atoms", 10**12), ("dims", (2, 10**8))])
def test_config_refuses_a_trial_past_the_byte_cap(field, value):
    # refused on construction, so nothing is drawn; only sizes past the cap are tried
    with pytest.raises(ConfigError, match="past"):
        runner.TrialConfig(suites=("cor23",), **{field: value})


@pytest.mark.parametrize("suites, refused", [
    (("cor23", "lemma21a"), None),  # an operator and a function; two Ginibre matrices
    (("cor23", "rem25"), "rem25"),  # two operators, a function and a Hermitian matrix
    (("lemma21c",), "lemma21c"),  # four Ginibre matrices
])
def test_the_size_guard_counts_every_input_of_the_largest_row(suites, refused):
    # at n = 2100 an operator holds 141 MB and an n x n matrix 71 MB, so a
    # cor23 or lemma21a trial fits the 256 MiB cap, and a lemma21c (282 MB)
    # or rem25 (353 MB) trial does not
    if refused is None:
        runner.TrialConfig(suites=suites, dims=(2, 2100))
    else:
        with pytest.raises(ConfigError, match=f"a {refused} trial at dim 2100 .* past"):
            runner.TrialConfig(suites=suites, dims=(2, 2100))


@pytest.mark.parametrize("fields", [{}, {"dims": (64,)}, {"atoms": 20_000}])
def test_the_size_guard_passes_the_default_and_large_configs(fields):
    assert runner.TrialConfig(**fields).suites == runner.ALL_SUITES


def test_config_is_validated_on_construction():
    with pytest.raises(ConfigError):
        runner.TrialConfig(suites=())


# Trial seeds hash str(master_seed), so 7.0 would draw other trials than the 7
# a report writes; 2.5 would run and report dim 2.
@pytest.mark.parametrize("field, value", [
    ("master_seed", 7.0), ("dims", (2.5,)), ("dims", ("3",)), ("dims", (True,)),
    ("trials_per_suite", "2"), ("atoms", False), ("rho_max", "0.5"), ("rho_max", True),
])
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    with pytest.raises(ConfigError, match=field):
        runner.TrialConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("suites", ("thm22", "cor23", "thm22")),
                                          ("dims", (2, 3, 2))])
def test_config_rejects_repeated_suites_and_dims(field, value):
    # a repeat would rerun the same seeded trials and count each twice
    with pytest.raises(ConfigError, match="must not repeat"):
        runner.TrialConfig(**{field: value})


def test_config_normalizes_its_fields():
    cfg = runner.TrialConfig(master_seed=np.int64(7), dims=[np.int64(2)],
                             trials_per_suite=np.int32(1), rho_max=np.float64(0.8),
                             atoms=np.uint8(8), suites=["thm22"])
    values = (cfg.master_seed, *cfg.dims, cfg.trials_per_suite, cfg.atoms)
    assert all(type(v) is int for v in values) and type(cfg.rho_max) is float
    assert cfg == TINY and hash(cfg) == hash(TINY)


def test_config_rebuilds_from_its_report():
    result = runner.run_suite(TINY)
    text = runner.render_report(result.suites, result.details, "json", TINY)
    assert runner.TrialConfig(**json.loads(text)["config"]) == TINY


def test_json_round_trip():
    result = runner.run_suite(TINY)
    doc = json.loads(runner.render_report(result.suites, result.details, "json", TINY))
    assert doc["config"]["master_seed"] == 7
    assert [s["suite"] for s in doc["suites"]] == ["thm22"]
    assert doc["details"] == [runner.report_to_json(r) for r in result.details]


def test_json_emits_17_digit_floats():
    result = runner.run_suite(TINY)
    report = result.details[0]
    doc = json.loads(runner.render_report(result.suites, result.details, "json", TINY))
    assert doc["details"][0]["lhs"] == report.lhs  # exact double round-trip


@pytest.mark.parametrize("lhs, rhs, ratio", [
    (0.1, 0.30000000000000004, 1.0 / 3.0),
    (1.2345678901234567e-300, 9.8765432109876543e+300, 5e-324),
    (-0.0, 0.0, 0.0),
    (math.nan, 1.0, math.nan),
    (1.0, 0.0, math.inf),
    (-1.0, 0.0, -math.inf),
    (math.inf, math.inf, math.nan),
])
def test_a_json_row_is_the_dumps_of_its_dict(lhs, rhs, ratio):
    for passed in (True, False):
        report = ineq.InequalityReport("rem25:commutator", lhs, rhs, ratio, passed,
                                       (1 << 64) - 1, 16)
        row = runner.report_json(report)
        assert row == serialize.dumps(runner.report_to_json(report))
        assert serialize.dumps([row]) == f"[{row}]"


def test_empty_details_json():
    text = runner.render_report([], [], "json", TINY)
    doc = json.loads(text)
    assert doc["details"] == []


def test_csv_shape_and_round_trip():
    result = runner.run_suite(TINY)
    text = runner.render_report(result.suites, result.details, "csv", TINY)
    lines = text.strip().split("\n")
    assert lines[0] == "name,lhs,rhs,ratio,pass,seed,dim"
    assert len(lines) == 2
    name, lhs, rhs, ratio, passed, seed, dim = lines[1].split(",")
    report = result.details[0]
    assert name == report.name
    assert float(lhs) == report.lhs and float(rhs) == report.rhs
    assert float(ratio) == report.ratio
    assert (passed == "true") == report.passed
    assert int(seed) == report.seed and int(dim) == report.dim


def test_report_keys_name_every_report_field():
    assert len(runner.REPORT_KEYS) == len(dataclasses.fields(ineq.InequalityReport))
    result = runner.run_suite(TINY)
    doc = json.loads(runner.render_report(result.suites, result.details, "json", TINY))
    assert tuple(doc["details"][0]) == runner.REPORT_KEYS
    text = runner.render_report(result.suites, result.details, "csv", TINY)
    assert tuple(text.split("\n")[0].split(",")) == runner.REPORT_KEYS


def test_suite_report_hides_trial_time():
    result = runner.run_suite(TINY)
    assert "trial_time" not in result.suites[0].to_json()
    assert result.suites[0].trial_time >= 0.0


# (name, passed, lhs, rhs) of trials 0 and 1 at seed 42, dim 3, for every suite in
# catalog order. A change in any sampler's draw order moves these values.
GOLDEN_DIM3 = [
    ("lemma21a", True, 19.047440719456567, 32.48427210612017),
    ("lemma21a", True, 48.77323180330873, 79.0464693421086),
    ("lemma21b:+", True, 8.743598728895536, 17.582053378322776),
    ("lemma21b:-", True, 6.583073832279329, 13.39460415970214),
    ("lemma21c:+", True, 13.604325297686222, 54.62504404825038),
    ("lemma21c:-", True, 37.62949054344524, 113.527975215344),
    ("lemma21d", True, 26.062080142744342, 64.46532899570147),
    ("lemma21d", True, 29.155746649237333, 51.163837100870616),
    ("lemma21e", True, 2.9282829618162083, 4.4858207287016505),
    ("lemma21e", True, 3.0335617007556577, 4.429814586375118),
    ("lemma21f", True, 3.070082566637629, 3.0700825666376277),
    ("lemma21f", True, 3.9531296300225964, 3.9531296300225973),
    ("thm22:sum", True, 4.346948071708306, 65.02013327791981),
    ("thm22:diff", True, 4.154730261340076, 289.97780509335223),
    ("cor23:re", True, 1.4294186999351857, 8.838762483882148),
    ("cor23:im", True, 0.6384592143536154, 27.300523314054903),
    ("thm24:commutator", True, 6.350166422955826, 212.29514250383644),
    ("thm24:anticommutator2X", True, 8.910227119979183, 184.43013467528627),
    ("rem25:commutator", True, 2.543388201327338, 144.1830449411301),
    ("rem25:anticommutator2X", True, 7.328139952301894, 349.3142002682494),
    ("cor26:im", True, 0.48997083580378065, 23.521961058705116),
    ("cor26:re_plus_I", True, 2.1253145405833154, 25.74951270850123),
    ("rem27:commutator", True, 1.3578537806977478, 205.32106364026313),
    ("rem27:anticommutator2X", True, 7.136541002789556, 113.43803629312357),
]


def test_golden_trials_pin_the_draw_order():
    cfg = runner.TrialConfig(master_seed=42)
    got = [runner.run_trial(cfg, suite, 3, trial)
           for suite in runner.ALL_SUITES for trial in (0, 1)]
    assert len(got) == len(GOLDEN_DIM3)
    for report, (name, passed, lhs, rhs) in zip(got, GOLDEN_DIM3):
        assert (report.name, report.passed) == (name, passed)
        assert report.lhs == pytest.approx(lhs, rel=1e-9)
        assert report.rhs == pytest.approx(rhs, rel=1e-9)


# SHA-256 of the CSV reports of two seed-42 batches of two trials per suite and
# dim: every suite at dims 2-4, and lemma21c-f at dims 6 and 8
BATCH_CSV_SHA256 = {
    ((2, 3, 4), runner.ALL_SUITES):
        "1ce2129d1103d478c2cceaf81cf01b589deedd416cf2f90f9cbceddb2a3a526c",
    ((6, 8), ("lemma21c", "lemma21d", "lemma21e", "lemma21f")):
        "4d6cba39a4de4a38cd647f4285e0c7d66a09cd3c534dd882f396f57b365158f9",
}


@pytest.mark.parametrize("dims, suites", sorted(BATCH_CSV_SHA256))
def test_batch_csv_reports_are_pinned(dims, suites):
    cfg = runner.TrialConfig(master_seed=42, dims=dims, trials_per_suite=2, suites=suites,
                             report_format="csv")
    result = runner.run_suite(cfg)
    text = runner.render_report(result.suites, result.details, "csv", cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == BATCH_CSV_SHA256[(dims, suites)]


# SHA-256 of the CSV report of the seed-42 batch of 50 trials of cor23, rem25
# and cor26 at dims 2-8, where f(A), the G1 operators and their d are drawn
NORM_ONLY_CSV_SHA256 = "15edeefa8b58ca936ba063314f982d6d89ca9b20ab001d98eb786739e9edd465"


def test_norm_only_csv_report_is_pinned():
    cfg = runner.TrialConfig(master_seed=42, dims=(2, 3, 4, 5, 6, 7, 8), trials_per_suite=50,
                             suites=("cor23", "rem25", "cor26"), report_format="csv")
    result = runner.run_suite(cfg)
    text = runner.render_report(result.suites, result.details, "csv", cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == NORM_ONLY_CSV_SHA256


# SHA-256 of the JSON report of the seed-42 batch of 60 trials of cor23, rem25
# and cor26 at dims 1, 2, 3, 5, 8 and 16. At n = 1, numpy multiplies a whole
# stack in another loop than one operator, which rounds differently.
NORM_DIMS_JSON_SHA256 = "683a1e955381ff2cbf0a504edc373bfb1026da3e6db74991aa6b10716051df2d"


def test_norm_suites_json_report_from_n_1_to_16_is_pinned():
    cfg = runner.TrialConfig(master_seed=42, dims=(1, 2, 3, 5, 8, 16), trials_per_suite=60,
                             suites=("cor23", "rem25", "cor26"))
    result = runner.run_suite(cfg)
    text = runner.render_report(result.suites, result.details, "json", cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == NORM_DIMS_JSON_SHA256


def test_every_variant_reaches_its_checker():
    cfg = runner.TrialConfig(master_seed=3)
    assert runner.ALL_SUITES == tuple(runner.SUITES)
    for suite, row in runner.SUITES.items():
        names = {runner.run_trial(cfg, suite, 2, t).name for t in range(len(row.variants))}
        assert names == {f"{suite}:{v}" if v else suite for v in row.variants}


INFINITE_CFG = runner.TrialConfig(master_seed=5, dims=(2, 3), trials_per_suite=3,
                                  suites=("lemma21a",))
INFINITE_SEED = runner.trial_seed(5, "lemma21a", 3, 1)


def run_with_an_infinite_ratio(monkeypatch):
    """INFINITE_CFG's run, with the trial of INFINITE_SEED doctored to rhs == 0 < lhs."""
    honest = ineq.check_lemma21_a

    def check(a, x, seed=0):
        if seed == INFINITE_SEED:
            return ineq._report("lemma21a", 1.0, 0.0, seed, a.shape[0])
        return honest(a, x, seed=seed)

    monkeypatch.setattr(ineq, "check_lemma21_a", check)
    return runner.run_suite(INFINITE_CFG)


def test_worst_case_names_an_infinite_ratio(monkeypatch):
    suite = run_with_an_infinite_ratio(monkeypatch).suites[0]
    assert suite.passed == suite.total - 1
    assert math.isinf(suite.max_ratio)
    assert (suite.argmax_seed, suite.argmax_dim) == (INFINITE_SEED, 3)


def test_an_infinite_ratio_renders_as_infinity_in_json_and_inf_in_csv(monkeypatch):
    result = run_with_an_infinite_ratio(monkeypatch)
    text = runner.render_report(result.suites, result.details, "json", INFINITE_CFG)
    assert f'"ratio": Infinity, "pass": false, "seed": {INFINITE_SEED}, "dim": 3}}' in text
    assert '"max_ratio": Infinity' in text
    rows = runner.render_report(result.suites, result.details, "csv", INFINITE_CFG).split("\n")
    assert f"lemma21a,1,0,inf,false,{INFINITE_SEED},3" in rows


def test_worker_count_follows_affinity(monkeypatch):
    monkeypatch.delenv("WRAD_THREADS", raising=False)
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 64)
    assert runner.worker_count() == 3


# ------------------------------------------------------------ load_operator

def write_json(path, obj):
    path.write_text(json.dumps(obj))


def test_load_full_bundle_zero_operator(tmp_path):
    op = g1gen.G1Operator(matrix=np.zeros((2, 2), dtype=complex),
                          spectrum=np.zeros(2, dtype=complex),
                          unitary=np.eye(2, dtype=complex))
    path = tmp_path / "zero.json"
    write_json(path, serialize.g1operator_to_json(op))
    loaded = runner.load_operator(path)
    assert loaded.d == 1.0
    assert loaded.unitary is not None
    assert loaded.certificate <= 1e-6


def test_load_bare_matrix_with_spectrum(tmp_path):
    a = np.diag([0.5, -0.3]).astype(complex)
    obj = serialize.matrix_to_json(a)
    obj["spectrum"] = [[0.5, 0.0], [-0.3, 0.0]]
    path = tmp_path / "bare.json"
    write_json(path, obj)
    loaded = runner.load_operator(path)
    assert loaded.unitary is None
    assert loaded.d == pytest.approx(0.5)
    assert loaded.certificate <= 1e-6


def test_load_rejects_jordan_block(tmp_path):
    obj = serialize.matrix_to_json(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    obj["spectrum"] = [[0.5, 0.0], [0.5, 0.0]]
    path = tmp_path / "jordan.json"
    write_json(path, obj)
    with pytest.raises(CertificationFailed):
        runner.load_operator(path)


def test_load_rejects_boundary_spectrum(tmp_path):
    obj = serialize.matrix_to_json(np.diag([1.0, 0.0]).astype(complex))
    obj["spectrum"] = [[1.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "boundary.json"
    write_json(path, obj)
    with pytest.raises(SpectrumOnBoundary):
        runner.load_operator(path)


def test_load_checks_a_bundle_d_against_the_operator(tmp_path):
    op = g1gen.random_g1(seed=12, n=3, rho_max=0.8)
    obj = serialize.g1operator_to_json(op)
    path = tmp_path / "op.json"
    message = re.escape("inconsistent operator file: d does not match min(1 - |lambda|)")
    for d in (op.d + 1e-3, op.d + 2.0 * g1gen.D_TOL, op.d - 2.0 * g1gen.D_TOL, math.nan):
        path.write_text(serialize.dumps(dict(obj, d=d)))
        with pytest.raises(ParseError, match=message):
            runner.load_operator(path)
    path.write_text(serialize.dumps(dict(obj, d=op.d + 0.5 * g1gen.D_TOL)))
    assert runner.load_operator(path).d == op.d


def test_load_rejects_a_diagonalizer_of_another_size(tmp_path):
    obj = serialize.g1operator_to_json(g1gen.random_g1(seed=12, n=2, rho_max=0.8))
    obj["unitary"] = serialize.matrix_to_json(np.eye(3, dtype=complex))
    path = tmp_path / "op.json"
    write_json(path, obj)
    message = re.escape("inconsistent operator file: a diagonalizer of shape (3, 3) for a 2x2 matrix")
    with pytest.raises(ParseError, match=f"^{message}$"):
        runner.load_operator(path)


def test_load_requires_spectrum(tmp_path):
    obj = serialize.matrix_to_json(np.diag([0.5, 0.0]).astype(complex))
    path = tmp_path / "nospec.json"
    write_json(path, obj)
    with pytest.raises(ParseError):
        runner.load_operator(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        runner.load_operator(path)
    path2 = tmp_path / "empty.json"
    write_json(path2, {"something": 1})
    with pytest.raises(ParseError):
        runner.load_operator(path2)


def test_load_missing_file():
    with pytest.raises(ParseError):
        runner.load_operator("/no/such/file.json")


# -------------------------------------------------------------- wire formats

def test_matrix_json_round_trip():
    rng = np.random.default_rng(18)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = json.loads(json.dumps(serialize.matrix_to_json(a)))
    np.testing.assert_array_equal(serialize.matrix_from_json(doc), a)


def test_operator_from_json_reports_the_first_bad_field():
    op = g1gen.random_g1(seed=2, n=2, rho_max=0.8)
    good = serialize.g1operator_to_json(op)
    obj = {"matrix": {"n": 0}, "spectrum": [], "unitary": {"n": True}, "d": "0.5"}
    messages = ("matrix dimension must be positive", "spectrum must be a non-empty list",
                "field 'n' has wrong type", "field 'd' has wrong type")
    for key, message in zip(list(obj), messages):
        with pytest.raises(ParseError, match=re.escape(message)):
            serialize.operator_from_json(obj)
        obj[key] = good[key]
    matrix, spectrum, unitary, d = serialize.operator_from_json(obj)
    np.testing.assert_array_equal(matrix, op.matrix)
    np.testing.assert_array_equal(spectrum, op.spectrum)
    np.testing.assert_array_equal(unitary, op.unitary)
    assert d == op.d
    bare = dict(serialize.matrix_to_json(op.matrix), spectrum=good["spectrum"])
    assert serialize.operator_from_json(bare)[2:] == (None, None)


def test_number_fields_reject_json_booleans():
    # bool is a subclass of int, so true would otherwise read as 1
    for kind in (int, float):
        for flag in (True, False):
            with pytest.raises(ParseError, match="wrong type"):
                serialize._require({"x": flag}, "x", kind)
    assert serialize._require({"x": 1}, "x", float) == 1.0
    with pytest.raises(ParseError, match="wrong type"):
        serialize.matrix_from_json({"n": True, "re": [[0.5]], "im": [[0.0]]})
