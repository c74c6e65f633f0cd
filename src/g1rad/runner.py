"""Seeded batch driver for the inequality suites.

Every trial derives its RNG stream from a SHA-256 hash of
(master_seed, suite, dim, trial), so any single report can be replayed
without rerunning the batch. A SUITES row names its ineq checker, its
variants and the kinds of its checker's inputs, which a trial draws in that
order. run_suite runs each (suite, dim) cell in chunks of consecutive trials
(_run_cell), one run_trial call per chunk, each chunk holding at most
_CELL_BYTES of each kind of input (_chunk_size). g1gen.generators seeds a
chunk's trial streams, and funcalc and g1gen build and check its functions
and its G1 operators as one stack each. Every stream is that of
default_rng(seed), and every function and operator has the same bits in any
chunk, so run_trial alone replays any trial exactly.

The split between chunks and trials is deliberate. The rows that take no
w() (cor23, rem25 and cor26) are chunked: their checker takes a whole chunk
in one call. The nine w() suites call their checker once per trial, so that
every w() goes through wradius.numerical_radius on its own matrix, where
the benchmark's tracer checks each result against its witness; a stacked
w() waits until that check covers stacked calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import operator
import os
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import funcalc, g1gen, ineq, linalg, serialize
from .errors import CertificationFailed, ConfigError, ParseError, Singular
from .g1gen import G1Operator
from .ineq import InequalityReport

# Bytes (_input_bytes) that one chunk of a cell holds of each kind of its
# trials' inputs, unless one trial alone holds more.
_CELL_BYTES = 128 << 10
# Bytes of one trial's inputs at a config's largest dim, in its largest row,
# past which TrialConfig refuses it, before any draw.
_TRIAL_BYTES = 256 << 20


def _input_bytes(dim: int, atoms: int) -> dict:
    """Bytes of one checker input of each kind at n = dim: a G1 operator's
    matrix and unitary (32 n^2), a function's atoms, phases and kernel sums
    at n eigenvalues (16 atoms (n + 2)), an n x n complex matrix (16 n^2)
    and an angle (8)."""
    return {"op": 32 * dim * dim, "f": 16 * atoms * (dim + 2),
            "ginibre": 16 * dim * dim, "hermitian": 16 * dim * dim, "angle": 8}


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _sub_seed(rng: np.random.Generator) -> int:
    # int(rng.integers(0, 1 << 62)) from the one raw word it takes: numpy's
    # Lemire draw never rejects on a power-of-two range and keeps the top bits
    return rng.bit_generator.random_raw() >> 2


# Each kind of checker input, as drawn from a trial's generator. An "f" and
# an "op" are drawn as the sub-seeds of their function and G1 operator, which
# _inputs builds with their chunk.
_DRAWS = {
    "ginibre": _ginibre,
    "hermitian": lambda rng, dim: linalg.herm_part(_ginibre(rng, dim)),
    "angle": lambda rng, dim: float(rng.uniform(0.0, 2.0 * np.pi)),
    "f": lambda rng, dim: _sub_seed(rng),
    "op": lambda rng, dim: _sub_seed(rng),
}


class Suite(NamedTuple):
    """A catalog statement: its ``ineq`` checker's name, its variants and the
    kinds of its checker's inputs (keys of _DRAWS), in the checker's argument
    order, which is also the order a trial draws them in.

    A checker takes a trial's inputs, then its variant ("" is none) and seed,
    and returns its report. A ``chunked`` checker takes a chunk of trials:
    each input as the sequence of its values over the trials, then their
    variants and seeds, and returns their reports, in order.
    """

    checker: str
    variants: tuple
    inputs: tuple
    chunked: bool = False


_COMMUTATORS = ("commutator", "anticommutator2X")
# A row's inputs fix its trials' draws; reordering them changes every report.
SUITES = {
    "lemma21a": Suite("check_lemma21_a", ("",), ("ginibre",) * 2),
    "lemma21b": Suite("check_lemma21_b", ("+", "-"), ("ginibre",) * 2),
    "lemma21c": Suite("check_lemma21_c", ("+", "-"), ("ginibre",) * 4),
    "lemma21d": Suite("check_lemma21_d", ("",), ("ginibre",) * 4),
    "lemma21e": Suite("check_lemma21_e", ("",), ("ginibre",) * 2),
    "lemma21f": Suite("check_lemma21_f", ("",), ("ginibre", "angle")),
    "thm22": Suite("check_thm22", ("sum", "diff"), ("f", "op", "ginibre")),
    "cor23": Suite("check_cor23", ("re", "im"), ("f", "op"), chunked=True),
    "thm24": Suite("check_thm24", _COMMUTATORS, ("f", "op", "op", "ginibre")),
    "rem25": Suite("check_rem25", _COMMUTATORS, ("f", "op", "op", "hermitian"), chunked=True),
    "cor26": Suite("check_cor26", ("im", "re_plus_I"), ("f", "op", "op"), chunked=True),
    "rem27": Suite("check_rem27", _COMMUTATORS, ("f", "op", "op", "ginibre")),
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
        sizes = _input_bytes(max(self.dims), self.atoms)
        need, suite = max((sum(map(sizes.get, SUITES[s].inputs)), s) for s in self.suites)
        if need > _TRIAL_BYTES:
            raise ConfigError(f"a {suite} trial at dim {max(self.dims)} with {self.atoms} atoms "
                              f"takes {need} bytes, past the cap of {_TRIAL_BYTES}")
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


def _inputs(config: TrialConfig, suite: str, dim: int, seeds: list) -> list:
    """The checker inputs of the trials with these derived seeds, each drawn
    from its seed's stream (g1gen.generators), with the functions and the G1
    operators of all the trials built and checked as one stack each. One
    generators call seeds the functions' streams, then the operators', and
    the two builders take them in turn from it."""
    kinds = SUITES[suite].inputs
    inputs = [[_DRAWS[kind](rng, dim) for kind in kinds] for rng in g1gen.generators(seeds)]
    slots = [[(args, i) for args in inputs for i, k in enumerate(kinds) if k == kind]
             for kind in ("f", "op")]
    f_subs, op_subs = ([args[i] for args, i in kind_slots] for kind_slots in slots)
    streams = g1gen.generators(f_subs + op_subs)
    built = funcalc.random_herglotz_stack(f_subs, config.atoms, streams) if f_subs else []
    if op_subs:
        built += g1gen.random_g1_stack(op_subs, dim, config.rho_max, streams)
    for (args, i), value in zip(slots[0] + slots[1], built):
        args[i] = value
    return inputs


def run_trial(config: TrialConfig, suite: str, dim: int, trial: int | range, *,
              seeds: list | None = None, inputs: list | None = None
              ) -> InequalityReport | list:
    """The report of one trial, drawn from its derived seed; or, for a range
    of consecutive trials, their reports. A range may come with the list of
    its trials' seeds, and with their inputs drawn from those seeds.

    Multi-variant suites rotate their variants with the trial index. A
    chunked row's checker takes the range in one call; any other checker is
    called once per trial. Either is looked up on ``ineq`` at call time. A
    trial alone is drawn as a chunk of one, to the bits it has in any chunk.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    row = SUITES[suite]
    trials = trial if isinstance(trial, range) else range(trial, trial + 1)
    if seeds is None:
        seeds = [trial_seed(config.master_seed, suite, dim, t) for t in trials]
    if inputs is None:
        inputs = _inputs(config, suite, dim, seeds)
    variants = [row.variants[t % len(row.variants)] for t in trials]
    check = getattr(ineq, row.checker)
    if row.chunked:
        reports = check(*zip(*inputs), variants, seeds)
    else:
        reports = [check(*args, *(variant,) if variant else (), seed=seed)
                   for args, variant, seed in zip(inputs, variants, seeds)]
    return reports if trials is trial else reports[0]


def _chunk_size(config: TrialConfig, suite: str, dim: int) -> int:
    """Trials per chunk of a (suite, dim) cell: as many as keep their inputs
    of each kind (their G1 operators, their functions, their Ginibre
    matrices, ...) within _CELL_BYTES by _input_bytes, and at least one."""
    kinds = SUITES[suite].inputs
    sizes = _input_bytes(dim, config.atoms)
    return max(1, min(_CELL_BYTES // (sizes[kind] * kinds.count(kind)) for kind in kinds))


def _run_cell(config: TrialConfig, suite: str, dim: int) -> list:
    """The reports of every trial of a (suite, dim) cell, one run_trial call
    per chunk of consecutive trials (_chunk_size). Each trial's seed is hashed
    once, for its inputs and its report. Only one chunk's inputs are held."""
    size = _chunk_size(config, suite, dim)
    trials, reports = range(config.trials_per_suite), []
    for start in range(0, len(trials), size):
        chunk = trials[start:start + size]
        seeds = [trial_seed(config.master_seed, suite, dim, t) for t in chunk]
        # no name holds a chunk's inputs, so they go before the next chunk is drawn
        reports += run_trial(config, suite, dim, chunk, seeds=seeds,
                             inputs=_inputs(config, suite, dim, seeds))
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


# A report's JSON row, as serialize.dumps writes report_to_json's dict: one
# format over REPORT_KEYS, with lhs, rhs and ratio as .17g (finite only)
_JSON_ROW = "{" + ", ".join(f"{json.dumps(key)}: %{spec}" for key, spec in zip(
    REPORT_KEYS, ("s", ".17g", ".17g", ".17g", "s", "d", "d"))) + "}"


def report_json(report: InequalityReport) -> serialize.Fragment:
    """One report as the JSON object that a batch's details list holds and
    verify --replay writes: the text of serialize.dumps(report_to_json(report)).
    A report whose lhs, rhs and ratio are finite gets it from one format,
    which is faster; NaN and Infinity have no .17g form."""
    name, lhs, rhs, ratio, passed, seed, dim = _report_values(report)
    if math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(ratio):
        return serialize.Fragment(_JSON_ROW % (json.dumps(name), lhs, rhs, ratio,
                                               "true" if passed else "false", seed, dim))
    return serialize.Fragment(serialize.dumps(report_to_json(report)))


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
            "details": [report_json(r) for r in details],
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
