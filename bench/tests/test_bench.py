"""Tests of the benchmark itself: its correctness gate, inputs and span accounting.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from g1rad import ineq, wradius  # noqa: E402

LAYER_TIMES = ("wradius.self_s", "wradius.grid_s", "wradius.refine_s", "runner.self_s",
               "ineq.check.self_s", "funcalc.self_s", "g1gen.self_s", "linalg.self_s",
               "serialize.self_s", "bench.self_s")


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    monkeypatch.setenv("WRAD_THREADS", "1")


def reference_batch(tmp_path, name="catalog-small"):
    return workloads.make_batch(workloads.WORKLOADS[name], workloads.DEFAULT_SEED, tmp_path)


def traced_run(batch):
    tracer = tracing.Tracer()
    tracer.install()
    root = tracer.open(tracing.ROOT)
    try:
        text, failed = workloads.run_batch(batch)
    finally:
        tracer.close(root)
        tracer.uninstall()
    return tracer, text, failed


@pytest.mark.parametrize("name", ["catalog-small", "certify-files"])
def test_gate_passes_on_the_seed_code(tmp_path, name):
    text, failed = workloads.run_batch(reference_batch(tmp_path, name))
    assert gate.check_batch(text, failed) == []
    assert gate.check_reference(name, text) == []


def test_inflated_numerical_radius_fails_the_gate(tmp_path, monkeypatch):
    original = wradius.numerical_radius

    @functools.wraps(original)
    def inflated(a, grid_points=720):
        result = original(a, grid_points)
        return dataclasses.replace(result, value=1.01 * result.value)

    monkeypatch.setattr(wradius, "numerical_radius", inflated)
    batch = reference_batch(tmp_path)
    text, failed = workloads.run_batch(batch)
    assert gate.check_reference("catalog-small", text)
    tracer, _, _ = traced_run(batch)
    assert tracer.witness_problems


def test_flipped_pass_flag_fails_the_gate(tmp_path, monkeypatch):
    original = ineq.check_lemma21_a
    calls = []

    @functools.wraps(original)
    def flipped(*args, **kwargs):
        report = original(*args, **kwargs)
        calls.append(report)
        if len(calls) == 1:
            report = dataclasses.replace(report, passed=not report.passed)
        return report

    monkeypatch.setattr(ineq, "check_lemma21_a", flipped)
    text, failed = workloads.run_batch(reference_batch(tmp_path))
    assert failed == 1
    assert gate.check_batch(text, failed)
    assert gate.check_reference("catalog-small", text)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_generation_is_seed_deterministic(tmp_path, name):
    workload = workloads.WORKLOADS[name]

    def inputs(seed, sub):
        batch = workloads.make_batch(workload, seed, tmp_path / sub)
        return batch.config, [p.read_bytes() for p in batch.paths]

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "a") != inputs(8, "c")


def test_self_times_and_children_add_up_to_each_span():
    tracer = tracing.Tracer()
    tracer.install()
    root = tracer.open(tracing.ROOT)

    def nested(depth):
        span = tracer.open(f"bench.level{depth}")
        time.sleep(0.001)
        if depth:
            nested(depth - 1)
            nested(depth - 1)
        tracer.close(span)

    nested(3)
    worker = threading.Thread(target=nested, args=(1,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(root)
    tracer.uninstall()

    children, selfs = tracing.analyse(tracer.spans)
    for span in tracer.spans:
        child_time = sum(c.duration for c in children[id(span)])
        assert selfs[id(span)] + child_time == pytest.approx(span.duration, abs=1e-9)
    from_thread = [s for s in tracer.spans if s.name == "bench.level1" and s.parent is root]
    assert len(from_thread) == 1


def test_traced_batch_accounts_for_its_wall_time(tmp_path):
    batch = reference_batch(tmp_path)
    plain, _ = workloads.run_batch(batch)
    tracer, text, failed = traced_run(batch)
    assert text == plain and failed == 0
    assert tracer.witness_problems == []
    assert wradius.numerical_radius.__module__ == "g1rad.wradius"
    assert not hasattr(wradius.numerical_radius, "__wrapped__")

    _, selfs = tracing.analyse(tracer.spans)
    metrics = tracing.layer_metrics(tracer.spans)
    wall = metrics["trace.wall_s"][0]
    assert sum(selfs.values()) == pytest.approx(wall, rel=1e-9)
    assert sum(metrics[k][0] for k in LAYER_TIMES) == pytest.approx(wall, rel=1e-9)
    assert metrics["wradius.eigsolve_calls_per_w"][0] == 44
    again = tracing.layer_metrics(traced_run(batch)[0].spans)
    for key in tracing.COUNTS:
        assert again[key] == metrics[key]


def test_traced_pool_trials_hang_under_run_suite(tmp_path, monkeypatch):
    monkeypatch.setenv("WRAD_THREADS", "2")
    tracer, _, failed = traced_run(reference_batch(tmp_path, "norm-only"))
    assert failed == 0
    trials = [s for s in tracer.spans if s.name == "runner.run_trial"]
    assert trials and all(s.parent.name == "runner.run_suite" for s in trials)


def test_host_speed_scaling_undoes_a_uniform_slowdown():
    ref = hostspeed.REF_PASS_S
    assert hostspeed.scaled(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert hostspeed.scaled(1.0, ref, ref) == pytest.approx(1.0)
    assert hostspeed.pass_s() > 0


def test_host_speed_kernel_uses_nothing_of_g1rad():
    tree = ast.parse(Path(hostspeed.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported and not any(name.startswith("g1rad") for name in imported)
