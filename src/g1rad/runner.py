"""Seeded batch driver for the inequality suites.

Every trial derives its RNG stream from a SHA-256 hash of
(master_seed, suite, dim, trial), so any single report can be replayed
without rerunning the batch. run_suite samples each (suite, dim) cell in
chunks of consecutive trials (_run_cell) whose G1 operators, at most
_CELL_BYTES of them, g1gen builds and checks as one stack. An operator has
the same bits in any chunk, so run_trial alone replays any trial exactly.
"""

from __future__ import annotations

import hashlib
import numbers
import operator
import os
import time
from dataclasses import dataclass, fields
from itertools import chain, islice
from typing import Callable, NamedTuple

import numpy as np

from . import funcalc, g1gen, ineq, linalg, serialize
from .errors import CertificationFailed, ConfigError, ParseError, Singular
from .g1gen import G1Operator
from .ineq import InequalityReport

# Bytes of matrices and unitaries that one chunk of a cell's G1 operators
# holds, unless its first trial alone holds more.
_CELL_BYTES = 64 << 10


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 62))


def _matrices(count: int) -> Callable:
    """Sampler of `count` Ginibre matrices."""
    return lambda rng, dim, config: (tuple(_ginibre(rng, dim) for _ in range(count)), (), ())


def _operators(count: int, x: str = "") -> Callable:
    """Sampler of f, then the sub-seeds of `count` G1 operators, then X when
    `x` is "ginibre" or "hermitian" (the Hermitian part of a Ginibre matrix)."""
    def sample(rng, dim, config) -> tuple:
        f = funcalc.random_herglotz(_sub_seed(rng), config.atoms)
        seeds = tuple(_sub_seed(rng) for _ in range(count))
        if not x:
            return (f,), seeds, ()
        m = _ginibre(rng, dim)
        return (f,), seeds, (linalg.herm_part(m) if x == "hermitian" else m,)
    return sample


class Suite(NamedTuple):
    """A catalog statement: its ``ineq`` checker's name, variants and input sampler.

    ``sample(rng, dim, config)`` draws a trial's (head, seeds, tail): the
    checker's inputs are head, then the G1 operators of the sub-seeds, then
    tail.
    """

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
        (_ginibre(rng, dim), float(rng.uniform(0.0, 2.0 * np.pi))), (), ())),
    "thm22": Suite("check_thm22", ("sum", "diff"), _operators(1, "ginibre")),
    "cor23": Suite("check_cor23", ("re", "im"), _operators(1)),
    "thm24": Suite("check_thm24", _COMMUTATORS, _operators(2, "ginibre")),
    "rem25": Suite("check_rem25", _COMMUTATORS, _operators(2, "hermitian")),
    "cor26": Suite("check_cor26", ("im", "re_plus_I"), _operators(2)),
    "rem27": Suite("check_rem27", _COMMUTATORS, _operators(2, "ginibre")),
}
ALL_SUITES = tuple(SUITES)
REPORT_FORMATS = ("json", "csv")
# The report row's names of the InequalityReport fields, in order. attrgetter reads
# them without the dict that vars() would build and keep on every report.
REPORT_KEYS = ("name", "lhs", "rhs", "ratio", "pass", "seed", "dim")
_report_values = operator.attrgetter(*(f.name for f in fields(InequalityReport)))


def _integer(value, what: str) -> int:
    """An integer field as an int; a bool, float or string is a ConfigError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


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
        # the written config must be the one the trials used: they hash str(master_seed)
        for name in ("master_seed", "trials_per_suite", "atoms"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "dims", tuple(_integer(d, "dims") for d in self.dims))
        object.__setattr__(self, "suites", tuple(self.suites))
        if isinstance(self.rho_max, bool) or not isinstance(self.rho_max, numbers.Real):
            raise ConfigError(f"rho_max must be a number, got {self.rho_max!r}")
        object.__setattr__(self, "rho_max", float(self.rho_max))
        self.validate()

    def validate(self) -> None:
        if not self.suites:
            raise ConfigError("at least one suite must be selected")
        unknown = [s for s in self.suites if s not in ALL_SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {', '.join(unknown)}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError("dims must be a non-empty list of positive integers")
        # a repeat would rerun its trials with the same seeds and count them twice
        for what, values in (("suites", self.suites), ("dims", self.dims)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{what} must not repeat, got {', '.join(map(str, values))}")
        if self.trials_per_suite < 1:
            raise ConfigError("trials_per_suite must be at least 1")
        if not 0.0 < self.rho_max < 1.0:
            raise ConfigError("rho_max must lie in (0, 1)")
        if self.atoms < 1:
            raise ConfigError("atoms must be at least 1")
        if self.report_format not in REPORT_FORMATS:
            raise ConfigError(f"report_format must be one of {', '.join(REPORT_FORMATS)}")

    def to_json(self) -> dict:
        return dict(vars(self))


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
        # trial_time (the suite's summed time over its cells) is console-only:
        # emitted reports must be byte-identical across runs.
        return {k: v for k, v in vars(self).items() if k != "trial_time"}


@dataclass
class RunResult:
    suites: list
    details: list


def trial_seed(master_seed: int, suite: str, dim: int, trial: int) -> int:
    """Stable 64-bit stream seed for one (suite, dim, trial)."""
    tag = f"{master_seed}:{suite}:{dim}:{trial}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def _draw(config: TrialConfig, suite: str, dim: int, trial: int) -> tuple:
    """The trial's (head, seeds, tail), drawn from its derived seed."""
    rng = np.random.default_rng(trial_seed(config.master_seed, suite, dim, trial))
    return SUITES[suite].sample(rng, dim, config)


def _inputs(draws: list, dim: int, rho_max: float) -> list:
    """Each draw's checker inputs, with the G1 operators of all the draws
    built as one stack."""
    ops = iter(g1gen.random_g1_stack([s for _, seeds, _ in draws for s in seeds], dim, rho_max))
    return [head + tuple(islice(ops, len(seeds))) + tail for head, seeds, tail in draws]


def run_trial(config: TrialConfig, suite: str, dim: int, trial: int, *,
              inputs: tuple | None = None) -> InequalityReport:
    """Run the checker on the trial's inputs, drawn from its derived seed.

    Multi-variant suites rotate their variants with the trial index ("" is
    no variant argument). The checker is looked up on ``ineq`` at call time.
    run_suite passes the inputs that it drew for the trial with its chunk;
    without them the trial is drawn as a cell of one, to the same bits.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    row = SUITES[suite]
    if inputs is None:
        (inputs,) = _inputs([_draw(config, suite, dim, trial)], dim, config.rho_max)
    variant = row.variants[trial % len(row.variants)]
    if variant:
        inputs += (variant,)
    seed = trial_seed(config.master_seed, suite, dim, trial)
    return getattr(ineq, row.checker)(*inputs, seed=seed)


def _run_cell(config: TrialConfig, suite: str, dim: int) -> list:
    """The reports of every trial of a (suite, dim) cell, run chunk by chunk.

    Each trial draws its inputs from its own stream, its G1 operators as
    sub-seeds; one g1gen.random_g1_stack call builds and checks a chunk's
    operators, and run_trial runs each trial's checker. A chunk is as many
    consecutive trials as keep their operators' matrices and unitaries within
    _CELL_BYTES, and at least one; every trial of a suite draws as many
    operators as the first, and a suite that draws none runs one trial per
    chunk. Only one chunk's inputs are held.
    """
    trials = range(config.trials_per_suite)
    draws = (_draw(config, suite, dim, trial) for trial in trials)
    first = next(draws)
    bytes_per_trial = 32 * dim * dim * len(first[1])  # a complex matrix and unitary each
    size = max(1, _CELL_BYTES // bytes_per_trial) if bytes_per_trial else 1
    draws, reports = chain((first,), draws), []
    for start in range(0, len(trials), size):
        # no name holds a chunk's inputs, so they go before the next chunk is drawn
        reports += [run_trial(config, suite, dim, trial, inputs=args) for trial, args in
                    zip(trials[start:], _inputs(list(islice(draws, size)), dim, config.rho_max))]
    return reports


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
    """Run every (suite, dim) cell in order and aggregate one report per suite."""
    suites, details = [], []
    for suite in config.suites:
        reports, elapsed = [], 0.0
        for dim in config.dims:
            start = time.perf_counter()
            reports += _run_cell(config, suite, dim)
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
    return dict(zip(REPORT_KEYS, _report_values(report)))


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return serialize.fmt_float(value) if isinstance(value, float) else str(value)


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
        lines = [",".join(REPORT_KEYS)]
        lines.extend(",".join(map(_csv_cell, _report_values(r))) for r in details)
        return "\n".join(lines) + "\n"
    raise ConfigError(f"report format must be one of {', '.join(REPORT_FORMATS)}, got {fmt!r}")


def load_operator(path, circle_samples: int = g1gen.CIRCLE_SAMPLES) -> G1Operator:
    """Load an operator file and gate it on the growth-condition certificate.

    serialize.operator_from_json reads the file. An inconsistent file, such
    as one whose spectrum lacks an eigenvalue per row or whose "d" is more
    than D_TOL from the operator's own, raises ParseError after the
    certificate is checked. A certificate-only candidate that is not normal
    raises CertificationFailed (see G1Operator). So does a sweep that meets a
    singular resolvent: its test points keep TESTPOINT_GUARD away from the
    filed spectrum, so the matrix has an eigenvalue there that the filed
    spectrum lacks (or is far from normal).
    """
    matrix, spectrum, unitary, d = serialize.operator_from_json(serialize.read_json(path))
    try:
        certificate = g1gen.certify_core(matrix, spectrum, circle_samples)
        op = G1Operator(matrix=matrix, spectrum=spectrum, unitary=unitary,
                        certificate=certificate)
    except ValueError as exc:
        raise ParseError(f"inconsistent operator file: {exc}") from exc
    except Singular as exc:
        raise CertificationFailed(
            f"the resolvent is singular at a test point away from the filed spectrum ({exc}): "
            "the matrix has an eigenvalue that the spectrum lacks, or is far from normal"
        ) from exc
    if d is not None and not (abs(d - op.d) <= g1gen.D_TOL):
        raise ParseError("inconsistent operator file: d does not match min(1 - |lambda|)")
    return op
