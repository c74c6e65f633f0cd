"""Benchmark workloads: fixed-size batches whose inputs derive from a seed.

Verify workloads run through ``runner.run_suite`` and ``runner.render_report``
as ``g1rad verify`` does. The certify workload writes operator files and
loads each through ``runner.load_operator`` as ``g1rad certify`` does, on a
thread pool sized by ``runner.worker_count`` the way ``run_suite`` sizes its
own. One operation is one verify trial or one certified operator file.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from g1rad import g1gen, runner, serialize
from g1rad.errors import G1RadError

DEFAULT_SEED = 42
CIRCLE_SAMPLES = 64
RHO_MAX = 0.8
LAYOUTS = ("bundle", "bare")


@dataclass(frozen=True)
class Workload:
    """One batch shape. ``suites`` empty means the certify workload."""

    name: str
    dims: tuple
    suites: tuple = ()
    trials: int = 0
    files_per_cell: int = 0

    @property
    def certify(self) -> bool:
        return not self.suites


# Why each workload exists is set out in bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("catalog-small", dims=(2, 3, 4), suites=runner.ALL_SUITES, trials=2),
    Workload("block-large", dims=(6, 8),
             suites=("lemma21c", "lemma21d", "lemma21e", "lemma21f"), trials=2),
    Workload("norm-only", dims=(2, 3, 4, 5, 6, 7, 8),
             suites=("cor23", "rem25", "cor26"), trials=50),
    Workload("certify-files", dims=(4, 8, 16), files_per_cell=1),
)}


@dataclass(frozen=True)
class Batch:
    """The inputs of one batch: a verify config, or operator files on disk."""

    config: runner.TrialConfig | None
    paths: tuple

    @property
    def ops(self) -> int:
        if self.config is None:
            return len(self.paths)
        c = self.config
        return len(c.suites) * len(c.dims) * c.trials_per_suite


def make_batch(workload: Workload, seed: int, workdir: Path) -> Batch:
    """Build the batch for ``seed``; certify files are written under ``workdir``."""
    if not workload.certify:
        config = runner.TrialConfig(master_seed=seed, dims=workload.dims,
                                    trials_per_suite=workload.trials,
                                    suites=workload.suites)
        config.validate()
        return Batch(config, ())
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for n in workload.dims:
        for layout in LAYOUTS:
            for k in range(workload.files_per_cell):
                op_seed = runner.trial_seed(seed, f"certify-{layout}", n, k)
                op = g1gen.random_g1(op_seed, n, RHO_MAX)
                if layout == "bundle":
                    obj = serialize.g1operator_to_json(op)
                else:
                    obj = dict(serialize.matrix_to_json(op.matrix),
                               spectrum=serialize.spectrum_to_json(op.spectrum))
                path = workdir / f"op-n{n}-{layout}-{k}.json"
                path.write_text(serialize.dumps(obj) + "\n", encoding="utf-8")
                paths.append(path)
    return Batch(None, tuple(paths))


def warmup(batch: Batch) -> None:
    """One operation of the batch: its first trial or its first file."""
    if batch.config is not None:
        c = batch.config
        runner.run_trial(c, c.suites[0], int(c.dims[0]), 0)
    else:
        runner.load_operator(batch.paths[0], CIRCLE_SAMPLES)


def _certify_one(path: Path) -> dict:
    try:
        op = runner.load_operator(path, CIRCLE_SAMPLES)
    except G1RadError as exc:
        return {"file": path.name, "error": f"{type(exc).__name__}: {exc}"}
    return {"file": path.name, "n": op.dim, "d": float(op.d),
            "certificate": float(op.certificate), "normal": op.unitary is not None}


def run_batch(batch: Batch) -> tuple[str, int]:
    """Run the batch once at the current WRAD_THREADS; return (report text, failed ops)."""
    if batch.config is not None:
        result = runner.run_suite(batch.config)
        text = runner.render_report(result.suites, result.details, "json", batch.config)
        return text, sum(1 for r in result.details if not r.passed)
    workers = runner.worker_count()
    if workers == 1:
        rows = [_certify_one(p) for p in batch.paths]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_certify_one, batch.paths))
    return serialize.dumps(rows) + "\n", sum(1 for r in rows if "error" in r)
