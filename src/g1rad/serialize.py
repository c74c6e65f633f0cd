"""JSON/CSV wire formats.

Floats are written with 17 significant digits so every IEEE double
round-trips exactly; report emission is deterministic byte-for-byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_number(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return fmt_float(x)


class Fragment(str):
    """JSON text that dumps writes as it is, such as a row rendered already."""


def dumps(obj) -> str:
    """Serialize nested dict/list/scalar structures with .17g floats."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_json_number(float(obj)))
    elif isinstance(obj, str):
        out.append(obj if isinstance(obj, Fragment) else json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def read_json(path):
    """Parse a JSON file; an unreadable file or invalid JSON is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # ValueError covers JSONDecodeError and UnicodeDecodeError (bytes that
    # are not UTF-8); RecursionError is json's answer to very deep nesting
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _require(obj, key, kind):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}")
    value = obj[key]
    # JSON true/false load as bool, a subclass of int: no number field takes them
    if isinstance(value, bool) and kind in (int, float):
        raise ParseError(f"field {key!r} has wrong type")
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError as exc:
            raise ParseError(f"field {key!r} is too large for a double") from exc
    if not isinstance(value, kind):
        raise ParseError(f"field {key!r} has wrong type")
    return value


def _number_rows(rows, what: str) -> np.ndarray:
    """Rows of JSON numbers as a float64 array; np.asarray alone would read
    "0.5" as 0.5 and true as 1.0."""
    if not all(isinstance(row, list)
               and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row)
               for row in rows):
        raise ParseError(f"{what} entries must be JSON numbers in lists")
    try:
        return np.asarray(rows, dtype=np.float64)
    except (OverflowError, ValueError) as exc:
        raise ParseError(f"{what} entries not numeric: {exc}") from exc


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {
        "n": int(a.shape[0]),
        "re": [[float(v) for v in row] for row in a.real],
        "im": [[float(v) for v in row] for row in a.imag],
    }


def matrix_from_json(obj) -> np.ndarray:
    n = _require(obj, "n", int)
    if n < 1:
        raise ParseError("matrix dimension must be positive")
    re_arr = _number_rows(_require(obj, "re", list), "matrix")
    im_arr = _number_rows(_require(obj, "im", list), "matrix")
    if re_arr.shape != (n, n) or im_arr.shape != (n, n):
        raise ParseError(f"matrix arrays must both be {n}x{n}")
    if not np.all(np.isfinite(re_arr)) or not np.all(np.isfinite(im_arr)):
        raise ParseError("matrix entries must be finite")
    return re_arr + 1j * im_arr


def spectrum_to_json(lam: np.ndarray) -> list:
    lam = np.asarray(lam, dtype=np.complex128).ravel()
    return [[float(v.real), float(v.imag)] for v in lam]


def spectrum_from_json(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ParseError("spectrum must be a non-empty list of [re, im] pairs")
    arr = _number_rows(obj, "spectrum")
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(np.isfinite(arr)):
        raise ParseError("spectrum must be a list of finite [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def g1operator_to_json(op) -> dict:
    obj = {
        "matrix": matrix_to_json(op.matrix),
        "spectrum": spectrum_to_json(op.spectrum),
        "unitary": matrix_to_json(op.unitary) if op.unitary is not None else None,
        "d": float(op.d),
    }
    return obj


def operator_from_json(obj) -> tuple:
    """(matrix, spectrum, unitary, d) of a bundle, as g1operator_to_json writes
    it and read in that order, or of a bare matrix object with a "spectrum"
    field, which has no unitary and no d. Whether they agree is not checked."""
    if not isinstance(obj, dict):
        raise ParseError("operator file must contain a JSON object")
    if "matrix" in obj:
        matrix = matrix_from_json(_require(obj, "matrix", dict))
        spectrum = spectrum_from_json(_require(obj, "spectrum", list))
        unitary = None if obj.get("unitary") is None else matrix_from_json(obj["unitary"])
        return matrix, spectrum, unitary, _require(obj, "d", float)
    if "re" in obj or "im" in obj or "n" in obj:
        matrix = matrix_from_json(obj)
        if "spectrum" not in obj:
            raise ParseError("bare matrix input requires an explicit spectrum field")
        return matrix, spectrum_from_json(obj["spectrum"]), None, None
    raise ParseError("unrecognized operator file layout")
