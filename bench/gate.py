"""Correctness gate applied to every benchmark run.

Each check returns a list of problems; an empty list means it passed.

* every operation passes (``check_batch``);
* the report at ``nproc`` workers is byte-identical to the 1-worker report
  (compared by the caller);
* on the default seed, the report matches the committed reference in
  ``bench/reference``: same trials, same pass flags, ratios within
  ``RATIO_TOL`` and both sides within ``SIDE_RTOL`` relative
  (``check_reference``);
* every certified operator's certificate is at most ``CERT_THRESHOLD``;
* in the traced run, every ``numerical_radius`` result is achieved by its
  witness up to rounding (``witness_problem``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from g1rad.g1gen import CERT_THRESHOLD

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RATIO_TOL = 1e-9
SIDE_RTOL = 1e-9
D_RTOL = 1e-12
WITNESS_RTOL = 1e-12


def check_batch(text: str, failed: int) -> list[str]:
    problems = [f"{failed} operations failed"] if failed else []
    if text.startswith("["):
        for row in json.loads(text):
            cert = row.get("certificate")
            if cert is not None and not cert <= CERT_THRESHOLD:
                problems.append(f"{row['file']}: certificate {cert} above {CERT_THRESHOLD}")
    return problems


def reference_rows(text: str) -> list:
    """The rows of a report that the reference pins down."""
    obj = json.loads(text)
    if isinstance(obj, list):
        return [[r["file"], r.get("n"), r.get("d"), r.get("normal")] for r in obj]
    return [[r["name"], r["seed"], r["dim"], r["pass"], r["lhs"], r["rhs"], r["ratio"]]
            for r in obj["details"]]


def _close(value, ref, rtol) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def check_reference(workload: str, text: str) -> list[str]:
    """Compare a default-seed report with ``reference/<workload>.json``."""
    path = REFERENCE_DIR / f"{workload}.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    got = reference_rows(text)
    if len(got) != len(expected):
        return [f"reference: {len(got)} rows, expected {len(expected)}"]
    problems = []
    for row, ref in zip(got, expected):
        if len(ref) == 4:
            ok = row[:2] == ref[:2] and row[3] == ref[3] and _close(row[2], ref[2], D_RTOL)
        else:
            ok = (row[:4] == ref[:4] and _close(row[4], ref[4], SIDE_RTOL)
                  and _close(row[5], ref[5], SIDE_RTOL) and abs(row[6] - ref[6]) <= RATIO_TOL)
        if not ok:
            problems.append(f"reference mismatch: got {row}, expected {ref}")
    return problems


def witness_problem(a, result) -> str | None:
    """None when the unit witness x achieves |<Ax, x>| >= w(A) up to rounding."""
    a = np.asarray(a, dtype=np.complex128)
    x = result.witness
    scale = float(np.linalg.norm(a))
    achieved = abs(np.vdot(x, a @ x))
    if abs(np.linalg.norm(x) - 1.0) > WITNESS_RTOL * a.shape[0] or \
            achieved < result.value - WITNESS_RTOL * a.shape[0] * scale:
        return f"w = {result.value!r} but the witness gives {achieved!r} (n = {a.shape[0]})"
    return None
