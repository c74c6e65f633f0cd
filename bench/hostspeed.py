"""Host speed meter: a fixed numpy-and-Python kernel timed next to each batch.

The benchmark runs on shared virtual machines whose speed drifts by up to 2x
within seconds, in process CPU time as much as in wall time, so no statistic
of the batch times alone is steady between runs. The kernel here does the
same kind of work as the workloads (small Hermitian eigensolves, spectral
norms, solves and interpreted complex arithmetic) and uses nothing of
g1rad, so a change to the program leaves it as it is. Timed on every CPU
right before and right after a batch, it tells how fast the host ran during
that batch.

``scaled(wall, before, after)`` gives the batch's wall time at the
reference speed, the speed at which one kernel pass takes ``REF_PASS_S``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

SIZES = (2, 4, 8, 16)
ITERATIONS = 15
PASSES = 3
# About the median pass time, between batches, on the 2-vCPU host the
# baseline was measured on.
REF_PASS_S = 0.006


def _inputs():
    rng = np.random.default_rng(0)
    out = []
    for n in SIZES:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append((a, a + a.conj().T))
    return out


INPUTS = _inputs()


def one_pass() -> float:
    """Wall time of one pass of the kernel."""
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        for a, h in INPUTS:
            np.linalg.eigvalsh(h)
            np.linalg.norm(a, 2)
            np.linalg.solve(a, h)
            acc = 0.0
            for i in range(200):
                acc += abs(complex(i, 1.0)) ** 0.5
    return time.perf_counter() - start


def pass_s() -> float:
    """Mean over this process's CPUs of the median pass time on each.

    The calling thread is pinned to each CPU in turn and then given its
    affinity back, so threads it starts later may run on every CPU. The
    vCPUs of a shared host drift apart in speed, and a batch at ``nproc``
    workers runs on all of them; the median of a few passes keeps one
    interrupt from setting a CPU's figure.
    """
    cpus = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(one_pass() for _ in range(PASSES)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, given the pass times around it."""
    return wall * REF_PASS_S / ((before + after) / 2.0)
