"""JSON file formats for schemes, operators, vectors, kernels, and reports.

Complex scalars are two-element [re, im] arrays and matrices are row-major
nested lists, so parsing a serialized object reproduces it bit-exactly.
A parsed matrix or vector with a NaN or infinite entry is malformed
(SchemeParseError).  An infinite condition number serializes as null.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import SchemeParseError
from .matrixcore import ToleranceConfig
from .scheme import Scheme, SchemeReport

SCHEME_FORMAT = "starprod-scheme"


def complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pair_to_complex(value: Any, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(part, (int, float)) for part in value)
    ):
        raise SchemeParseError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_pair(entry) for entry in row] for row in m]


def _require_finite(values: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise SchemeParseError(f"{where}: entries must be finite (NaN or inf found)")
    return values


def json_to_matrix(data: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SchemeParseError(f"{where}: expected a nested list of rows")
    width = len(data[0])
    if width == 0 or any(len(row) != width for row in data):
        raise SchemeParseError(f"{where}: rows have inconsistent lengths")
    matrix = np.array(
        [[_pair_to_complex(entry, where) for entry in row] for row in data],
        dtype=complex,
    )
    return _require_finite(matrix, where)


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(entry) for entry in np.asarray(v, dtype=complex).reshape(-1)]


def json_to_vector(data: Any, where: str = "vector") -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemeParseError(f"{where}: expected a non-empty list of [re, im] pairs")
    return _require_finite(
        np.array([_pair_to_complex(entry, where) for entry in data], dtype=complex), where
    )


def serialize_scheme(s: Scheme) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "format": SCHEME_FORMAT,
        "d": s.d,
        "dequantizers": [matrix_to_json(op) for op in s.dequantizers],
    }
    if s.name is not None:
        payload["name"] = s.name
    if s.quantizers is not None:
        payload["quantizers"] = [matrix_to_json(op) for op in s.quantizers]
    return payload


def _parse_family(data: Any, d: int, label: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemeParseError(f"{label}: expected a non-empty list of matrices")
    ops = []
    for idx, entry in enumerate(data):
        op = json_to_matrix(entry, where=f"{label}[{idx}]")
        if op.shape != (d, d):
            raise SchemeParseError(
                f"{label}[{idx}]: expected a {d}x{d} matrix, got {op.shape}"
            )
        ops.append(op)
    return np.stack(ops)


def parse_scheme(payload: Any) -> Scheme:
    if not isinstance(payload, dict):
        raise SchemeParseError("scheme file: expected a JSON object")
    try:
        d = int(payload["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemeParseError("scheme file: missing or invalid 'd'") from exc
    if d < 1:
        raise SchemeParseError(f"scheme file: dimension must be positive, got {d}")
    if "dequantizers" not in payload:
        raise SchemeParseError("scheme file: missing 'dequantizers'")
    deq = _parse_family(payload["dequantizers"], d, "dequantizers")
    qs = None
    if payload.get("quantizers") is not None:
        qs = _parse_family(payload["quantizers"], d, "quantizers")
        if qs.shape[0] != deq.shape[0]:
            raise SchemeParseError(
                f"scheme file: {qs.shape[0]} quantizers for {deq.shape[0]} dequantizers"
            )
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemeParseError("scheme file: 'name' must be a string")
    return Scheme(dequantizers=deq, quantizers=qs, name=name)


def save_scheme(s: Scheme, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(serialize_scheme(s), fh, indent=1)
        fh.write("\n")


def load_scheme(path: str) -> Scheme:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemeParseError(f"{path}: invalid JSON ({exc})") from exc
    return parse_scheme(payload)


def save_operator(m: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"matrix": matrix_to_json(m)}, fh, indent=1)
        fh.write("\n")


def load_operator(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemeParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "matrix" not in payload:
        raise SchemeParseError(f"{path}: expected an object with a 'matrix' field")
    return json_to_matrix(payload["matrix"], where=f"{path}: matrix")


def save_vector(v: np.ndarray, path: str, **extra: Any) -> None:
    payload = {"values": vector_to_json(v), **extra}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_vector(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemeParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "values" not in payload:
        raise SchemeParseError(f"{path}: expected an object with a 'values' field")
    return json_to_vector(payload["values"], where=f"{path}: values")


def save_kernel(d: int, values: np.ndarray, path: str, assoc_residual: float | None = None) -> None:
    """Write a kernel file: plain JSON with one k-slice of ``values`` per line.

    Each slice goes through ``json.dumps`` without indentation, which uses
    CPython's C encoder; floats are written by ``repr``, so they reload
    bit-exactly.
    """
    pairs = np.ascontiguousarray(values, dtype=complex).view(float)
    n = pairs.shape[0]
    pairs = pairs.reshape(n, n, n, 2)
    with open(path, "w") as fh:
        fh.write(f'{{"d": {json.dumps(d)}, "n": {n}, "values": [')
        for k, part in enumerate(pairs):
            fh.write(("," if k else "") + "\n" + json.dumps(part.tolist()))
        fh.write("\n]")
        if assoc_residual is not None:
            fh.write(f', "associativity_residual": {json.dumps(assoc_residual)}')
        fh.write("}\n")


def load_kernel(path: str) -> tuple[int, np.ndarray]:
    """Read a kernel file; any malformed content raises SchemeParseError."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemeParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "values" not in payload or "d" not in payload:
        raise SchemeParseError(f"{path}: expected an object with 'd' and 'values'")
    d = payload["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SchemeParseError(f"{path}: 'd' must be a positive integer, got {d!r}")
    raw = payload["values"]
    if not isinstance(raw, list) or not raw:
        raise SchemeParseError(f"{path}: values: expected a non-empty nested list")
    n = len(raw)
    if "n" in payload and (isinstance(payload["n"], bool) or payload["n"] != n):
        raise SchemeParseError(f"{path}: 'n' is {payload['n']!r} but values hold {n} slices")
    try:
        pairs = np.array(raw)
    except (ValueError, TypeError) as exc:
        raise SchemeParseError(f"{path}: values: ragged nesting ({exc})") from exc
    if pairs.dtype.kind not in "biuf":
        raise SchemeParseError(f"{path}: values: entries must be numbers")
    if pairs.shape != (n, n, n, 2):
        raise SchemeParseError(
            f"{path}: values: expected shape {(n, n, n, 2)} of [re, im] pairs, "
            f"got {pairs.shape}"
        )
    # Viewing (re, im) float pairs as complex keeps every bit, -0.0 included.
    values = pairs.astype(float, copy=False).view(complex).reshape(n, n, n)
    return d, values


def tolerances_to_json(tol: ToleranceConfig) -> dict[str, float]:
    return {
        "rank_tol": tol.rank_tol,
        "residual_tol": tol.residual_tol,
        "eig_tol": tol.eig_tol,
    }


def report_to_json(report: SchemeReport) -> dict[str, Any]:
    """SchemeReport as plain JSON-ready data; infinities become null."""
    condition = report.condition_number
    return {
        "cardinality": report.cardinality,
        "tomographic": report.tomographic,
        "rank": report.rank,
        "condition_number": None if math.isinf(condition) else condition,
        "self_dual_coefficient": report.self_dual_coefficient,
        "scaled_unitary": report.scaled_unitary,
        "povm": {
            "sum_residual": report.povm.sum_residual,
            "hermiticity_residual": report.povm.hermiticity_residual,
            "min_effect_eigenvalue": report.povm.min_effect_eigenvalue,
            "is_povm": report.povm.is_povm,
        },
        "negativity": None
        if report.negativity is None
        else {
            "min_dequantizer_eigenvalue": report.negativity.min_dequantizer_eigenvalue,
            "min_quantizer_eigenvalue": report.negativity.min_quantizer_eigenvalue,
        },
        "matrix_unit_like": None
        if report.matrix_unit_like is None
        else matrix_to_json(report.matrix_unit_like),
    }
