"""Run one benchmark workload in this process and print its figures as one JSON line.

    python3 bench/worker.py setup WORKLOAD SEED
    python3 bench/worker.py run WORKLOAD SEED SECONDS TRACE

``bench/run.py`` starts this script in a fresh process for every workload
and every set-up sample, with BLAS pinned to one thread. ``setup`` imports
g1rad, builds and validates the batch and runs one warm-up operation.
``run`` first runs the default-seed batch as warm-up and compares it with
the committed reference, then repeats the seed's batch in rounds, at one
worker and at ``nproc`` workers in alternating order, until SECONDS have
passed. A rate is the operations of all rounds over their summed wall
time at the reference host speed: each batch is timed between two
measurements of the ``hostspeed`` kernel, which scale its wall time. With
TRACE 1 each round also runs both worker counts traced; the per-layer
figures are medians over rounds.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2
MAX_PROBLEMS = 20


@contextmanager
def workdir():
    """A private scratch directory inside the checkout, removed afterwards."""
    path = BENCH.parent / ".bench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:  # another worker still uses it
            pass


class Run:
    """Outcome bookkeeping of one workload run."""

    def __init__(self, batch):
        self.batch = batch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report = None

    def once(self, threads: int, tracer=None) -> tuple[float, float]:
        """Run the batch once; check it; return (wall s, process CPU s)."""
        os.environ["WRAD_THREADS"] = str(threads)
        if tracer is not None:
            tracer.install()
            root = tracer.open(tracing.ROOT)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            text, failed = workloads.run_batch(self.batch)
        except Exception:  # one bad batch is a failed result, not a crash
            traceback.print_exc()
            text, failed = None, self.batch.ops
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tracer is not None:
                tracer.close(root)
                tracer.uninstall()
        self.attempted += self.batch.ops
        self.failed += failed
        if text is None:
            self.problems.append(f"batch raised at {threads} workers")
            return wall, cpu
        self.problems += gate.check_batch(text, failed)
        if self.report is None:
            self.report = text
        elif text != self.report:
            self.problems.append(f"report at {threads} workers differs from the first report")
        return wall, cpu


def setup(name: str, seed: int) -> None:
    with workdir() as wd:
        workloads.warmup(workloads.make_batch(workloads.WORKLOADS[name], seed, wd))


def traced_round(current: Run, order: tuple, nproc: int) -> tuple[dict, float, list]:
    """Run the batch traced at each worker count; return (1-worker layer
    metrics, trial inflation, problems)."""
    tracers = {}
    problems = []
    for threads in order:
        tracers[threads] = tracing.Tracer()
        current.once(threads, tracers[threads])
        problems += tracers[threads].witness_problems
    one, many = tracers[1].spans, tracers[nproc].spans
    metrics = tracing.layer_metrics(one)
    many_metrics = tracing.layer_metrics(many)
    for key in tracing.COUNTS:
        if many_metrics[key] != metrics[key]:
            problems.append(f"{key} differs between 1 and {nproc} workers")
    one_op = tracing.op_mean_s(one)
    inflation = tracing.op_mean_s(many) / one_op if one_op else 0.0
    return metrics, inflation, problems


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    with workdir() as wd:
        reference = Run(workloads.make_batch(workload, workloads.DEFAULT_SEED, wd / "reference"))
        reference.once(1)
        problems = list(reference.problems)
        if reference.report is not None:
            problems += gate.check_reference(name, reference.report)

        current = Run(workloads.make_batch(workload, seed, wd / "batch"))
        wall = {1: [], nproc: []}
        scaled = {1: [], nproc: []}
        passes = []
        cpu_per_wall, overhead, inflation, traced = [], [], [], []
        start = time.perf_counter()
        rounds, round_s = 0, 0.0
        before = None
        # Stop before a round that would end past the deadline.
        while rounds < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
            round_start = time.perf_counter()
            order = (1, nproc) if rounds % 2 == 0 else (nproc, 1)
            for threads in order:
                # The pass after one batch is the pass before the next.
                if before is None:
                    before = hostspeed.pass_s()
                    passes.append(before)
                batch_wall, cpu = current.once(threads)
                after = hostspeed.pass_s()
                passes.append(after)
                wall[threads].append(batch_wall)
                scaled[threads].append(hostspeed.scaled(batch_wall, before, after))
                before = after
                if threads == nproc:
                    cpu_per_wall.append(cpu / batch_wall)
            if trace:
                metrics, inflated, found = traced_round(current, order, nproc)
                traced.append(metrics)
                overhead.append(metrics["trace.wall_s"][0] / wall[1][-1])
                inflation.append(inflated)
                problems += found
                before = None
            rounds += 1
            round_s = time.perf_counter() - round_start
        problems += current.problems

    ops = current.batch.ops
    raw_rate = {threads: ops * len(walls) / sum(walls) for threads, walls in wall.items()}
    rate = {threads: ops * len(walls) / sum(walls) for threads, walls in scaled.items()}
    if trace:
        metrics = {}
        for key, (_, unit) in traced[0].items():
            values = [t[key][0] for t in traced]
            if key in tracing.COUNTS and len(set(values)) > 1:
                problems.append(f"count {key} changed between traced rounds: {values}")
            metrics[key] = (statistics.median(values), unit)
        metrics["runner.scaling_eff"] = (rate[nproc] / (nproc * rate[1]), "ratio")
        metrics["runner.trial_inflation"] = (statistics.median(inflation), "ratio")
        metrics["runner.cpu_per_wall"] = (statistics.median(cpu_per_wall), "ratio")
        metrics["runner.report_bytes"] = (len((current.report or "").encode()), "bytes")
        metrics["trace.overhead"] = (statistics.median(overhead), "ratio")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": (rate[nproc], "1/s"),
            "ops_per_s_1w": (rate[1], "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "correct": not problems,
        "attempted": reference.attempted + current.attempted,
        "failed": reference.failed + current.failed,
        "problem_count": len(problems),
        "problems": problems[:MAX_PROBLEMS],
        "rounds": rounds,
        "ops_per_batch": ops,
        "raw_ops_per_s": raw_rate[nproc],
        "raw_ops_per_s_1w": raw_rate[1],
        "host_speed": hostspeed.REF_PASS_S / statistics.median(passes),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup(name, seed)
        return 0
    result = run(name, seed, float(argv[3]), argv[4] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
