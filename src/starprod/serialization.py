"""JSON file formats for schemes, operators, vectors, bases, kernels, and reports.

Every complex array is a rectangular nesting of [re, im] number pairs in
row-major order.  ``_encode`` builds it as lists, ``write_json`` writes the
same nesting straight from the array, and one decoder parses it, so a parsed
file reproduces the array bit-exactly.  A nesting that is ragged, too
shallow or too deep, has an empty axis, or holds a non-number or a NaN or
infinite entry is malformed (SchemeParseError, naming the file).
``write_json`` writes library objects as they are: a dataclass as its
fields, a numpy scalar as its value, and a NaN or infinite number as null.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Iterable

import numpy as np

from .errors import SchemeParseError
from .matrixcore import ToleranceConfig
from .operator_space import VectorizationBasis
from .scheme import Scheme

SCHEME_FORMAT = "starprod-scheme"


def _encode(a: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs, one level per axis of ``a``."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _decode(data: Any, ndim: int, where: str) -> np.ndarray:
    """Complex array of ``ndim`` axes from nested [re, im] number pairs.

    The float pairs are viewed as complex, which keeps every bit (-0.0 and
    subnormals included).  For a stack of matrices (ndim 3) a non-finite
    entry is reported with the index of its member, as ``where[i]``.
    """
    try:
        pairs = np.array(data)
    except (ValueError, TypeError) as exc:
        raise SchemeParseError(f"{where}: ragged nesting ({exc})") from exc
    # An empty list ends the nesting early, so full depth rules out empty axes.
    if pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        raise SchemeParseError(
            f"{where}: expected {ndim} non-empty nested axes of [re, im] pairs, "
            f"got shape {pairs.shape}"
        )
    if pairs.dtype.kind not in "biuf":
        raise SchemeParseError(
            f"{where}: entries must be numbers that fit a float or a 64-bit integer"
        )
    pairs = pairs.astype(float, copy=False)
    finite = np.isfinite(pairs)
    if not finite.all():
        if ndim == 3:
            where += f"[{np.argwhere(~finite)[0, 0]}]"
        raise SchemeParseError(f"{where}: entries must be finite (NaN or inf found)")
    return pairs.view(complex).reshape(pairs.shape[:-1])


def _require_keys(payload: Any, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(payload, dict) or any(key not in payload for key in keys):
        raise SchemeParseError(f"{where}: expected a JSON object with keys {list(keys)}")


def read_json(path: str, *keys: str) -> dict[str, Any]:
    """The JSON object in the file at ``path``; it must hold every key in ``keys``."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad syntax, bad UTF-8 and over-long integer literals.
            raise SchemeParseError(f"{path}: invalid JSON ({exc})") from exc
    _require_keys(payload, keys, path)
    return payload


# Floats formatted per C-encoder call in _array_text: bounds its token list
# (about 64 bytes per float) for large stacks.
_BLOCK_FLOATS = 4096


def _nest(items: Iterable[str], level: int, brackets: str = "[]") -> str:
    """Item texts in brackets, laid out as ``json.dumps(..., indent=1)`` lays
    out a container nested ``level`` deep."""
    inner = "\n" + " " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * level + brackets[1]


def _array_text(a: np.ndarray, level: int) -> str:
    """``json.dumps(_encode(a), indent=1)`` for a non-empty ``a`` nested ``level``
    deep, with NaN and infinite parts written as null.

    The C encoder formats the floats of a block of members (items along the
    first axis) at once; the tokens are then grouped axis by axis, innermost
    (the [re, im] pair) first, each axis with the layout of its own depth.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    rows = a.view(float).reshape(len(a), -1)
    finite = np.isfinite(rows)
    if not finite.all():
        rows = rows.astype(object)
        rows[~finite] = None
    axes = list(enumerate((*a.shape[1:], 2), start=level + 1))[::-1]
    fills = [(size, _nest(["{}"] * size, depth).format) for depth, size in axes]
    step = max(1, _BLOCK_FLOATS // rows.shape[1])
    members: list[str] = []
    for start in range(0, len(rows), step):
        items = json.dumps(rows[start : start + step].ravel().tolist())[1:-1].split(", ")
        for size, fill in fills:
            items = list(map(fill, *(items[k::size] for k in range(size))))
        members += items
    return _nest(members, level)


def _json_text(value: Any, level: int) -> str:
    """``json.dumps(value, indent=1)`` for ``value`` nested ``level`` deep, with
    every np.ndarray in it written as its ``_encode`` nesting, every dataclass
    as the dict of its fields, every numpy scalar as its Python value and
    every NaN or infinite float as null."""
    if isinstance(value, np.ndarray):
        if value.size:
            return _array_text(value, level)
        value = _encode(value)
    elif isinstance(value, np.generic):
        value = value.item()
    elif dataclasses.is_dataclass(value):
        # Not dataclasses.asdict, which would deep-copy arrays off the fast path.
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict) and value:
        # Non-string keys become strings the way json.dump converts them.
        items = (
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_json_text(v, level + 1)}"
            for k, v in value.items()
        )
        return _nest(items, level, "{}")
    if isinstance(value, (list, tuple)) and value:
        return _nest((_json_text(v, level + 1) for v in value), level)
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    return json.dumps(value)


def write_json(payload: dict[str, Any], path: str) -> None:
    """Write the bytes of ``json.dump(payload, fh, indent=1)`` and a final newline.

    ``payload`` may hold library objects as they are (see ``_json_text``):
    an np.ndarray is written as its nesting of [re, im] pairs and a dataclass
    as its fields, so callers hand results over without building lists or
    dicts.  Non-finite numbers are written as null, so the file is valid JSON.
    """
    text = _json_text(payload, 0)
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def _dimension(payload: dict[str, Any], where: str) -> int:
    """The ``d`` field, which must be a JSON integer >= 1."""
    d = payload["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SchemeParseError(f"{where}: 'd' must be a JSON integer >= 1, got {d!r}")
    return d


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return _encode(m)


def json_to_matrix(data: Any, where: str = "matrix") -> np.ndarray:
    return _decode(data, 2, where)


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return _encode(np.asarray(v, dtype=complex).reshape(-1))


def json_to_vector(data: Any, where: str = "vector") -> np.ndarray:
    return _decode(data, 1, where)


def _scheme_payload(s: Scheme) -> dict[str, Any]:
    """The scheme file's fields, with the families as arrays."""
    payload: dict[str, Any] = {"format": SCHEME_FORMAT, "d": s.d, "dequantizers": s.dequantizers}
    if s.name is not None:
        payload["name"] = s.name
    if s.quantizers is not None:
        payload["quantizers"] = s.quantizers
    return payload


def serialize_scheme(s: Scheme) -> dict[str, Any]:
    """The scheme file's fields as plain JSON data."""
    return {
        key: _encode(value) if isinstance(value, np.ndarray) else value
        for key, value in _scheme_payload(s).items()
    }


def _parse_family(data: Any, d: int, label: str) -> np.ndarray:
    family = _decode(data, 3, label)
    if family.shape[1:] != (d, d):
        raise SchemeParseError(f"{label}: expected {d}x{d} matrices, got shape {family.shape}")
    return family


def parse_scheme(payload: Any) -> Scheme:
    _require_keys(payload, ("d", "dequantizers"), "scheme")
    d = _dimension(payload, "scheme")
    deq = _parse_family(payload["dequantizers"], d, "dequantizers")
    qs = None
    if payload.get("quantizers") is not None:
        qs = _parse_family(payload["quantizers"], d, "quantizers")
        if qs.shape[0] != deq.shape[0]:
            raise SchemeParseError(
                f"scheme: {qs.shape[0]} quantizers for {deq.shape[0]} dequantizers"
            )
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemeParseError("scheme: 'name' must be a string")
    return Scheme(dequantizers=deq, quantizers=qs, name=name)


def save_scheme(s: Scheme, path: str) -> None:
    write_json(_scheme_payload(s), path)


def load_scheme(path: str) -> Scheme:
    payload = read_json(path, "d", "dequantizers")
    try:
        return parse_scheme(payload)
    except SchemeParseError as exc:
        raise SchemeParseError(f"{path}: {exc}") from exc


def save_operator(m: np.ndarray, path: str) -> None:
    write_json({"matrix": np.asarray(m, dtype=complex)}, path)


def load_operator(path: str) -> np.ndarray:
    """Operator file ``{"matrix": matrix}``; gauge files use the same format."""
    return json_to_matrix(read_json(path, "matrix")["matrix"], where=f"{path}: matrix")


def save_vector(v: np.ndarray, path: str, **extra: Any) -> None:
    write_json({"values": np.asarray(v, dtype=complex).reshape(-1), **extra}, path)


def load_vector(path: str) -> np.ndarray:
    return json_to_vector(read_json(path, "values")["values"], where=f"{path}: values")


def load_basis(path: str, tol: ToleranceConfig) -> VectorizationBasis:
    """Basis file ``{"operators": [matrix, ...]}``, checked for trace orthonormality."""
    ops = _decode(read_json(path, "operators")["operators"], 3, f"{path}: operators")
    return VectorizationBasis.orthonormal(ops, tag=path, tol=tol)


def save_kernel(d: int, values: np.ndarray, path: str, assoc_residual: float | None = None) -> None:
    """Write a kernel file: plain JSON with one k-slice of ``values`` per line.

    Each slice goes through ``json.dumps`` without indentation, which uses
    CPython's C encoder; floats are written by ``repr``, so they reload
    bit-exactly.  Encoding slice by slice keeps one slice of Python floats
    alive at a time.
    """
    values = np.asarray(values, dtype=complex)
    with open(path, "w") as fh:
        fh.write(f'{{"d": {json.dumps(d)}, "n": {len(values)}, "values": [')
        for k, part in enumerate(values):
            fh.write(("," if k else "") + "\n" + json.dumps(_encode(part)))
        fh.write("\n]")
        if assoc_residual is not None:
            fh.write(f', "associativity_residual": {json.dumps(assoc_residual)}')
        fh.write("}\n")


def load_kernel(path: str) -> tuple[int, np.ndarray]:
    """Read a kernel file; any malformed content raises SchemeParseError."""
    payload = read_json(path, "d", "values")
    d = _dimension(payload, path)
    values = _decode(payload["values"], 3, f"{path}: values")
    n = len(values)
    if values.shape != (n, n, n):
        raise SchemeParseError(
            f"{path}: values: expected shape {(n, n, n)} of [re, im] pairs, got {values.shape}"
        )
    if "n" in payload and (isinstance(payload["n"], bool) or payload["n"] != n):
        raise SchemeParseError(f"{path}: 'n' is {payload['n']!r} but values hold {n} slices")
    return d, values
