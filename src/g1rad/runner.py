"""Seeded batch driver for the inequality suites.

Every trial derives its RNG stream from a SHA-256 hash of
(master_seed, suite, dim, trial), so any single report can be replayed
without rerunning the batch.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import funcalc, g1gen, ineq, linalg, serialize
from .errors import ConfigError, ParseError
from .g1gen import G1Operator
from .ineq import InequalityReport


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 62))


def _matrices(count: int) -> Callable:
    """Sampler of `count` Ginibre matrices."""
    return lambda rng, dim, config: tuple(_ginibre(rng, dim) for _ in range(count))


def _operators(count: int, x: str = "") -> Callable:
    """Sampler of f, then `count` G1 operators, then X when `x` is "ginibre"
    or "hermitian" (the Hermitian part of a Ginibre matrix)."""
    def sample(rng, dim, config) -> tuple:
        f = funcalc.random_herglotz(_sub_seed(rng), config.atoms)
        ops = tuple(g1gen.random_g1(_sub_seed(rng), dim, config.rho_max) for _ in range(count))
        if not x:
            return (f, *ops)
        m = _ginibre(rng, dim)
        return (f, *ops, linalg.herm_part(m) if x == "hermitian" else m)
    return sample


class Suite(NamedTuple):
    """A catalog statement: its ``ineq`` checker's name, variants and input sampler."""

    checker: str
    variants: tuple
    sample: Callable


_COMMUTATORS = ("commutator", "anticommutator2X")
# A sampler's draw order fixes its trials' inputs; reordering changes every report.
SUITES = {
    "lemma21a": Suite("check_lemma21_a", ("",), _matrices(2)),
    "lemma21b": Suite("check_lemma21_b", ("+", "-"), _matrices(2)),
    "lemma21c": Suite("check_lemma21_c", ("+", "-"), _matrices(4)),
    "lemma21d": Suite("check_lemma21_d", ("",), _matrices(4)),
    "lemma21e": Suite("check_lemma21_e", ("",), _matrices(2)),
    "lemma21f": Suite("check_lemma21_f", ("",), lambda rng, dim, config: (
        _ginibre(rng, dim), float(rng.uniform(0.0, 2.0 * np.pi)))),
    "thm22": Suite("check_thm22", ("sum", "diff"), _operators(1, "ginibre")),
    "cor23": Suite("check_cor23", ("re", "im"), _operators(1)),
    "thm24": Suite("check_thm24", _COMMUTATORS, _operators(2, "ginibre")),
    "rem25": Suite("check_rem25", _COMMUTATORS, _operators(2, "hermitian")),
    "cor26": Suite("check_cor26", ("im", "re_plus_I"), _operators(2)),
    "rem27": Suite("check_rem27", _COMMUTATORS, _operators(2, "ginibre")),
}
ALL_SUITES = tuple(SUITES)


@dataclass(frozen=True)
class TrialConfig:
    """Population and scheduling parameters for a verification run."""

    master_seed: int = 42
    dims: tuple = (2, 3, 4, 6, 8)
    trials_per_suite: int = 200
    rho_max: float = 0.8
    atoms: int = 8
    suites: tuple = ALL_SUITES
    report_format: str = "json"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not self.suites:
            raise ConfigError("at least one suite must be selected")
        unknown = [s for s in self.suites if s not in ALL_SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {', '.join(unknown)}")
        if not self.dims or any(int(d) < 1 for d in self.dims):
            raise ConfigError("dims must be a non-empty list of positive integers")
        if self.trials_per_suite < 1:
            raise ConfigError("trials_per_suite must be at least 1")
        if not 0.0 < self.rho_max < 1.0:
            raise ConfigError("rho_max must lie in (0, 1)")
        if self.atoms < 1:
            raise ConfigError("atoms must be at least 1")
        if self.report_format not in ("json", "csv"):
            raise ConfigError("report_format must be 'json' or 'csv'")

    def to_json(self) -> dict:
        return {
            "master_seed": int(self.master_seed),
            "dims": [int(d) for d in self.dims],
            "trials_per_suite": int(self.trials_per_suite),
            "rho_max": float(self.rho_max),
            "atoms": int(self.atoms),
            "suites": list(self.suites),
            "report_format": self.report_format,
        }


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate over all trials of one suite."""

    suite: str
    total: int
    passed: int
    max_ratio: float
    argmax_seed: int
    argmax_dim: int
    trial_time: float

    def to_json(self) -> dict:
        # trial_time (the suite's summed per-trial time) is console-only:
        # emitted reports must be byte-identical across runs.
        return {
            "suite": self.suite,
            "total": self.total,
            "passed": self.passed,
            "max_ratio": self.max_ratio,
            "argmax_seed": self.argmax_seed,
            "argmax_dim": self.argmax_dim,
        }


@dataclass
class RunResult:
    suites: list
    details: list


def trial_seed(master_seed: int, suite: str, dim: int, trial: int) -> int:
    """Stable 64-bit stream seed for one (suite, dim, trial) cell."""
    tag = f"{master_seed}:{suite}:{dim}:{trial}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def run_trial(config: TrialConfig, suite: str, dim: int, trial: int) -> InequalityReport:
    """Draw the trial's inputs from its derived seed and run the checker.

    Multi-variant suites rotate their variants with the trial index ("" is
    no variant argument). The checker is looked up on ``ineq`` at call time.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    row = SUITES[suite]
    seed = trial_seed(config.master_seed, suite, dim, trial)
    inputs = row.sample(np.random.default_rng(seed), dim, config)
    variant = row.variants[trial % len(row.variants)]
    if variant:
        inputs += (variant,)
    return getattr(ineq, row.checker)(*inputs, seed=seed)


def worker_count() -> int:
    """Worker threads for a pool: WRAD_THREADS, else the CPUs in the affinity mask.

    Its only caller is the benchmark's certify pool; ``verify`` runs its
    trials serially.
    """
    env = os.environ.get("WRAD_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"WRAD_THREADS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ConfigError("WRAD_THREADS must be at least 1")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_suite(config: TrialConfig) -> RunResult:
    """Run every (suite, dim, trial) cell in order and aggregate one report per suite."""
    suites, details = [], []
    for suite in config.suites:
        reports, elapsed = [], 0.0
        for dim in config.dims:
            for trial in range(config.trials_per_suite):
                start = time.perf_counter()
                reports.append(run_trial(config, suite, int(dim), trial))
                elapsed += time.perf_counter() - start
        # an infinite ratio (rhs == 0 < lhs) is the worst case, not skipped
        argmax = max(reports, key=lambda r: r.ratio)
        suites.append(SuiteReport(
            suite=suite,
            total=len(reports),
            passed=sum(1 for r in reports if r.passed),
            max_ratio=argmax.ratio,
            argmax_seed=argmax.seed,
            argmax_dim=argmax.dim,
            trial_time=elapsed,
        ))
        details.extend(reports)
    return RunResult(suites=suites, details=details)


def report_to_json(report: InequalityReport) -> dict:
    return {
        "name": report.name,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "pass": report.passed,
        "seed": report.seed,
        "dim": report.dim,
    }


def render_report(suites, details, fmt: str, config: TrialConfig) -> str:
    """Render the run as a JSON document or a CSV of per-trial reports."""
    if fmt == "json":
        payload = {
            "config": config.to_json(),
            "suites": [s.to_json() for s in suites],
            "details": [report_to_json(r) for r in details],
        }
        return serialize.dumps(payload) + "\n"
    if fmt == "csv":
        lines = ["name,lhs,rhs,ratio,pass,seed,dim"]
        for r in details:
            lines.append(",".join([
                r.name,
                serialize.fmt_float(r.lhs),
                serialize.fmt_float(r.rhs),
                serialize.fmt_float(r.ratio),
                "true" if r.passed else "false",
                str(r.seed),
                str(r.dim),
            ]))
        return "\n".join(lines) + "\n"
    raise ConfigError(f"report format must be 'json' or 'csv', got {fmt!r}")


def load_operator(path, circle_samples: int = 64) -> G1Operator:
    """Load an operator file and gate it on the growth-condition certificate.

    Accepts either the full operator bundle (matrix, spectrum, unitary, d)
    or a bare matrix object with an explicit "spectrum" field; non-normal
    candidates without a spectrum cannot be admitted. An inconsistent file,
    such as one whose spectrum lacks an eigenvalue per row or whose "d" is
    more than D_TOL from the operator's own, raises ParseError, after the
    certificate is checked. A certificate-only candidate that is not normal
    raises CertificationFailed (see G1Operator).
    """
    obj = serialize.read_json(path)
    if not isinstance(obj, dict):
        raise ParseError("operator file must contain a JSON object")

    if "matrix" in obj:
        matrix = serialize.matrix_from_json(serialize._require(obj, "matrix", dict))
        spectrum = serialize.spectrum_from_json(serialize._require(obj, "spectrum", list))
        unitary = None
        if obj.get("unitary") is not None:
            unitary = serialize.matrix_from_json(obj["unitary"])
        d = serialize._require(obj, "d", float)
    elif "re" in obj or "im" in obj or "n" in obj:
        matrix = serialize.matrix_from_json(obj)
        if "spectrum" not in obj:
            raise ParseError("bare matrix input requires an explicit spectrum field")
        spectrum = serialize.spectrum_from_json(obj["spectrum"])
        unitary = None
        d = None
    else:
        raise ParseError("unrecognized operator file layout")

    try:
        certificate = g1gen.certify_core(matrix, spectrum, circle_samples)
        op = G1Operator(matrix=matrix, spectrum=spectrum, unitary=unitary,
                        certificate=certificate)
    except ValueError as exc:
        raise ParseError(f"inconsistent operator file: {exc}") from exc
    if d is not None and not (abs(d - op.d) <= g1gen.D_TOL):
        raise ParseError("inconsistent operator file: d does not match min(1 - |lambda|)")
    return op
