"""g1rad benchmark: runs workloads in fresh processes, checks them and prints every metric.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                       # every workload, untraced then traced

Run from anywhere; the package is imported from ``src/`` next to this
directory, so no install step is needed. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``. The lines before it give the
environment and a table of every metric with its unit. The exit code is 0
when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 170
# BLAS pinned to one thread: on matrices of size 16 or less this measured no
# different at 2 workers, and it keeps WRAD_THREADS the only parallelism.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# This process times hostspeed passes too, so it pins BLAS before numpy loads.
os.environ.update(BLAS_ENV)

import hostspeed  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env.pop("WRAD_THREADS", None)
    return env


def worker(*args, capture: bool) -> str:
    """Run worker.py to completion and return its standard output.

    A timer kills a worker that runs too long. The wait itself blocks, so
    the caller's clock sees the exit at once (``Popen.wait`` with a timeout
    polls in steps of up to 50 ms).
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else subprocess.DEVNULL) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read() if capture else ""
            code = proc.wait()
        finally:
            timer.cancel()
    if code != 0:
        raise BenchError(f"worker {args[:2]} exited with code {code}")
    return out


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import, validate and warm up.

    Called after the workload run, which has already compiled the package's
    bytecode, so that compiling it is not counted. Like the rates, each
    sample is scaled to the reference host speed by ``hostspeed`` passes
    taken in this process right before and after it.
    """
    samples = []
    before = hostspeed.pass_s()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        worker("setup", workload, seed, capture=False)
        wall = time.perf_counter() - start
        after = hostspeed.pass_s()
        samples.append(hostspeed.scaled(wall, before, after))
        before = after
    return statistics.median(samples)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_env": BLAS_ENV,
        "wrad_threads": [1, len(os.sched_getaffinity(0))],
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def run_one(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    lines = worker("run", workload, seed, seconds, int(trace), capture=True).strip().splitlines()
    if not lines:
        raise BenchError(f"worker {workload} printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": setup_seconds(workload, seed), "unit": "s"}
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(result["metrics"]))
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            raise BenchError(f"{workload}: {m['name']} unit differs from BENCHMARK.json")
    return result


def print_table(workload: str, trace: bool, result: dict) -> None:
    print(f"# {workload} (trace {int(trace)}): correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"rounds={result['rounds']} ops/batch={result['ops_per_batch']} "
          f"problems={result['problem_count']}")
    for problem in result["problems"]:
        print(f"#   problem: {problem}")
    if not trace:
        # The rates as the wall clock read them, before scaling to the
        # reference host speed; the median speed is relative to it.
        print(f"#   unscaled: ops_per_s {result['raw_ops_per_s']:.6g} "
              f"ops_per_s_1w {result['raw_ops_per_s_1w']:.6g} 1/s; "
              f"host speed {result['host_speed']:.4g}")
    for name, m in result["metrics"].items():
        print(f"{workload:14s} {name:32s} {m['value']:>16.6g} {m['unit']}")
    # A share that reads 0 on working code takes no relative bound, so it is
    # printed here and carried in the result by "attempted" and "failed".
    share = result["failed"] / result["attempted"]
    print(f"{workload:14s} {'failed_share':32s} {share:>16.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both when --workload all, else 0)")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "g1rad" / "__init__.py").is_file():
            raise BenchError(f"no g1rad sources under {ROOT / 'src'}")
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        seconds = args.seconds or spec["run_seconds"]
        selected = names if args.workload == "all" else [args.workload]
        if args.trace is None:
            traces = (False, True) if args.workload == "all" else (False,)
        else:
            traces = (bool(args.trace),)

        print(json.dumps({"environment": environment(), "seed": args.seed, "seconds": seconds}))
        results = {}
        for workload in selected:
            for trace in traces:
                result = run_one(spec, workload, args.seed, seconds, trace)
                print_table(workload, trace, result)
                results[(workload, trace)] = result
        print(json.dumps({"versions": result["versions"]}))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{w}/{n}": m for (w, _), r in results.items() for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
