"""Span tracing of g1rad from outside the package, and the per-layer metrics.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records a span (name, parent, start, end), and installs a
numpy proxy as ``wradius.np`` so that the Hermitian eigensolves inside
``numerical_radius`` become spans too. Nothing under ``src/`` changes;
``uninstall`` puts the original functions back.

A span opened on a thread with no open span of its own (a pool worker) takes
as parent the innermost open span of the thread that installed the tracer,
so trials run by ``run_suite``'s pool hang under ``run_suite``. A span's
self time is its duration minus the part of it covered by its children, so
at one worker the self times of all spans add up to the root span.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import gate

MODULES = ("runner", "ineq", "wradius", "funcalc", "g1gen", "linalg", "serialize")
ROOT = "bench.batch"
EIG = "wradius.eig"
WITNESS = "bench.witness"
OP_SPANS = ("runner.run_trial", "runner.load_operator")
BLOCK_SIZES = (2, 4, 8, 16)
# Exact counts: equal in every traced batch of the same inputs.
COUNTS = ("wradius.calls", "wradius.eigsolve_calls_per_w", "wradius.eig_matrices_per_w",
          "g1gen.resolvent_norm.calls", "linalg.solve.calls", "linalg.spectral_norm.calls")


class Span:
    __slots__ = ("name", "parent", "start", "end", "n", "count")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.n = 0
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _LinalgProxy:
    """numpy.linalg with eigvalsh and eigh recorded as EIG spans."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(np.linalg, name)
        setattr(self, name, value)
        return value

    def eigvalsh(self, a, *args, **kwargs):
        return self._tracer.eig(np.linalg.eigvalsh, a, args, kwargs)

    def eigh(self, a, *args, **kwargs):
        return self._tracer.eig(np.linalg.eigh, a, args, kwargs)


class _NumpyProxy:
    """numpy with linalg replaced; other attributes are looked up once and kept."""

    def __init__(self, tracer):
        self.linalg = _LinalgProxy(tracer)

    def __getattr__(self, name):
        value = getattr(np, name)
        setattr(self, name, value)
        return value


class Tracer:
    """Collects spans in memory; one tracer serves one traced batch."""

    def __init__(self):
        self.spans: list[Span] = []
        self.witness_problems: list[str] = []
        self._local = threading.local()
        self._home: list[Span] = []
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        home = self._home
        parent = stack[-1] if stack else (home[-1] if home else None)
        span = Span(name, parent)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def eig(self, fn, a, args, kwargs):
        shape = np.shape(a)
        span = self.open(EIG)
        span.n = shape[-1]
        span.count = int(np.prod(shape[:-2], dtype=np.int64))
        try:
            return fn(a, *args, **kwargs)
        finally:
            self.close(span)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if name == "wradius.numerical_radius":
                check = self.open(WITNESS)
                problem = gate.witness_problem(args[0] if args else kwargs["a"], result)
                self.close(check)
                if problem:
                    self.witness_problems.append(problem)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self._home = self._stack()
        for modname in MODULES:
            module = importlib.import_module(f"g1rad.{modname}")
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, f"{modname}.{attr}"))
        wradius = importlib.import_module("g1rad.wradius")
        self._patches.append((wradius, "np", wradius.np))
        wradius.np = _NumpyProxy(self)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _covered(span: Span, children: list) -> float:
    """Length of the union of the children's intervals, clipped to the span."""
    total = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def analyse(spans: list) -> tuple[dict, dict]:
    """(children by parent id, self time by span id)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    selfs = {id(s): s.duration - _covered(s, children[id(s)]) for s in spans}
    return children, selfs


def _mean_ms(seconds: list) -> float:
    return 1e3 * statistics.fmean(seconds) if seconds else 0.0


def _quantile(values, q: int) -> float:
    """q-th decile; the value itself for fewer than two samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(spans: list) -> dict:
    """Per-layer figures of one traced batch, as {name: (value, unit)}."""
    children, selfs = analyse(spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        layer_self[s.name.split(".")[0]] += selfs[id(s)]
    root = by_name[ROOT][0]

    def total(name):
        return sum(s.duration for s in by_name[name])

    w_calls = by_name["wradius.numerical_radius"]
    grid_s = refine_s = 0.0
    eig_calls = eig_matrices = 0
    grid_by_n = defaultdict(list)
    refine_by_n = defaultdict(list)
    for w in w_calls:
        eigs = sorted((c for c in children[id(w)] if c.name == EIG), key=lambda c: c.start)
        if not eigs:
            continue
        refine = sum(e.duration for e in eigs[1:])
        grid_s += eigs[0].duration
        refine_s += refine
        eig_calls += len(eigs)
        eig_matrices += sum(e.count for e in eigs)
        grid_by_n[eigs[0].n].append(eigs[0].duration)
        refine_by_n[eigs[0].n].append(refine)

    trial_ms = [1e3 * s.duration for s in by_name["runner.run_trial"]]
    m = {
        "wradius.calls": (len(w_calls), "count"),
        "wradius.self_s": (layer_self["wradius"] - grid_s - refine_s, "s"),
        "wradius.grid_s": (grid_s, "s"),
        "wradius.refine_s": (refine_s, "s"),
        "wradius.eigsolve_calls_per_w": (eig_calls / len(w_calls) if w_calls else 0.0, "count"),
        "wradius.eig_matrices_per_w": (eig_matrices / len(w_calls) if w_calls else 0.0, "count"),
    }
    for k in BLOCK_SIZES:
        m[f"wradius.grid_ms.n{k}"] = (_mean_ms(grid_by_n[k]), "ms")
    for k in BLOCK_SIZES:
        m[f"wradius.refine_ms.n{k}"] = (_mean_ms(refine_by_n[k]), "ms")
    m.update({
        "runner.run_trial.ms_p50": (_quantile(trial_ms, 5), "ms"),
        "runner.run_trial.ms_p90": (_quantile(trial_ms, 9), "ms"),
        "runner.run_trial.self_s": (sum(selfs[id(s)] for s in by_name["runner.run_trial"]), "s"),
        "runner.self_s": (layer_self["runner"], "s"),
        "runner.render_report_s": (total("runner.render_report"), "s"),
        "ineq.check.self_s": (layer_self["ineq"], "s"),
        "funcalc.self_s": (layer_self["funcalc"], "s"),
        "funcalc.apply_normal.s": (total("funcalc.apply_normal"), "s"),
        "funcalc.random_herglotz.s": (total("funcalc.random_herglotz"), "s"),
        "g1gen.self_s": (layer_self["g1gen"], "s"),
        "g1gen.random_g1.s": (total("g1gen.random_g1"), "s"),
        "g1gen.certify_core.s": (total("g1gen.certify_core"), "s"),
        "g1gen.resolvent_norm.calls": (len(by_name["g1gen.resolvent_norm"]), "count"),
        "linalg.self_s": (layer_self["linalg"], "s"),
        "linalg.solve.calls": (len(by_name["linalg.solve"]), "count"),
        "linalg.solve.s": (total("linalg.solve"), "s"),
        "linalg.spectral_norm.calls": (len(by_name["linalg.spectral_norm"]), "count"),
        "linalg.spectral_norm.s": (total("linalg.spectral_norm"), "s"),
        "serialize.self_s": (layer_self["serialize"], "s"),
        "serialize.matrix_from_json.s": (total("serialize.matrix_from_json"), "s"),
        "bench.self_s": (layer_self["bench"], "s"),
        "trace.wall_s": (root.duration, "s"),
    })
    return m


def op_mean_s(spans: list) -> float:
    """Mean duration of the per-operation spans (trials or certified files)."""
    durations = [s.duration for s in spans if s.name in OP_SPANS]
    return statistics.fmean(durations) if durations else 0.0
