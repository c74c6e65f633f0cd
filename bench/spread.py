"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py [--workloads a,b] [--runs 10] [--first-seed 1]
                            [--trace 0|1] [--out bench/baseline.json]

Each run is ``bench/run.py --workload W --seed S`` with seeds first-seed,
first-seed+1, ... The spread of a metric is the distance between the first
and third quartile of its values (``statistics.quantiles(values, n=4)``) as
a share of their median. An end-to-end metric whose spread exceeds a third
of its bound in BENCHMARK.json is flagged ``WIDE``; ``setup_s`` is reported
but not flagged. ``--out`` writes every value, with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{out}")
    info = dict(json.loads(lines[0]), **json.loads(lines[-2]))
    return result, info


def summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        units = {}
        for seed in seeds:
            result, report["environment"] = run(workload, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        report["workloads"][workload] = {}
        for name, vals in values.items():
            s = summary(vals)
            s["unit"] = units[name]
            report["workloads"][workload][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  WIDE"
            print(f"{workload:14s} {name:32s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:7.2%}" + (f" (bound {bound:.0%})" if bound else "") + flag,
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
