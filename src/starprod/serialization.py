"""JSON file formats for schemes, operators, vectors, kernels, and reports.

Every complex array is a rectangular nesting of [re, im] number pairs in
row-major order.  ``_encode`` builds it as lists; one formatter,
``_member_texts``, writes the same nesting straight from the array for both
writers (``write_json``'s indented layout and ``save_kernel``'s compact
lines); and one decoder parses it, so a parsed file reproduces the array
bit-exactly.  A nesting that is ragged, too shallow or too deep, has an
empty axis, or holds a non-number (true and false included) or a NaN or
infinite entry is malformed (SchemeParseError, naming the file).
``write_json`` writes library objects as they are: a dataclass as its
fields, a numpy scalar as its value, and a NaN or infinite number as null.

Both writers open their output through ``_overwrite``, which writes over an
existing file in place instead of truncating it first.  The file keeps its
inode, mode and links, and a write that stops part-way leaves a file that
ends in NUL or is cut short, which the loaders refuse (``_overwrite`` says
when).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import re
import stat
from typing import Any, Iterable, Iterator, TextIO

import numpy as np

from .errors import SchemeParseError
from .scheme import Scheme
from .star_product import StarKernel

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
    if pairs.dtype.kind not in "iuf":
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


_NOT_A_NUMBER = "entries must be numbers, not true or false"


def _holds_bool(data: list) -> bool:
    """Whether a nesting of lists holds a true or false, walked without recursion."""
    stack = [data]
    while stack:
        for x in stack.pop():
            if x is True or x is False:
                return True
            if isinstance(x, list):
                stack.append(x)
    return False


def _spells_a_boolean(text: str) -> bool:
    """Whether ``text`` holds ``true`` or ``false``, tried at each u and l.
    No number spells either letter, and ``str.find`` finds one letter by
    memchr, where a search for the word stops at nearly every digit."""
    for word, letter in (("true", "u"), ("false", "l")):
        at = word.index(letter)
        i = text.find(letter)
        while i >= 0:
            if i >= at and text.startswith(word, i - at):
                return True
            i = text.find(letter, i + 1)
    return False


def read_json(path: str, *keys: str) -> dict[str, Any]:
    """The JSON object in the file at ``path``; it must hold every key in ``keys``,
    and no list-valued field may hold true or false, which numpy reads as 1 or 0."""
    with open(path) as fh:
        try:
            text = fh.read()
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad syntax, bad UTF-8 and over-long integer literals.
            raise SchemeParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or any(key not in payload for key in keys):
        raise SchemeParseError(f"{path}: expected a JSON object with keys {list(keys)}")
    if _spells_a_boolean(text):
        for key, value in payload.items():
            if isinstance(value, list) and _holds_bool(value):
                raise SchemeParseError(f"{path}: {key}: {_NOT_A_NUMBER}")
    return payload


# Floats per block of consecutive members in _member_texts: bounds the block's
# distinct tokens (about 70 bytes per float when all are distinct), where a
# whole-array dedup would hold one token per distinct float of the array.
_BLOCK_FLOATS = 1 << 15


def _layout(depth: int, indent: bool, brackets: str = "[]") -> tuple[str, str, str]:
    """The opening, separator and closing text of a container nested ``depth``
    deep: ``json.dumps(..., indent=1)``'s layout, or ``json.dumps``' compact one."""
    if not indent:
        return brackets[0], ", ", brackets[1]
    inner = "\n" + " " * (depth + 1)
    return brackets[0] + inner, "," + inner, "\n" + " " * depth + brackets[1]


def _nest(items: Iterable[str], level: int, brackets: str = "[]") -> str:
    """Item texts in brackets, laid out as ``json.dumps(..., indent=1)`` lays
    out a container nested ``level`` deep."""
    opening, separator, closing = _layout(level, True, brackets)
    return opening + separator.join(items) + closing


def _member_texts(a: np.ndarray, depth: int, indent: bool) -> Iterator[str]:
    """The JSON text of each member of ``a`` (each item along its first axis,
    as a nesting of [re, im] pairs; no member may be empty) nested ``depth``
    deep, in ``_layout(..., indent)``; NaN and infinite parts become null.

    Floats are told apart by bit pattern (which keeps 0.0 and -0.0 apart), and
    the distinct floats of a block of consecutive members are formatted by one
    call to CPython's C encoder, whose ``repr`` reloads them bit-exactly.  A
    block holds at most ``_BLOCK_FLOATS`` floats (one member when a member
    holds more), which bounds the Python strings alive at a time.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    shape = (*a.shape[1:], 2)
    width = math.prod(shape)
    # Between two tokens of a member the text depends only on how many axes
    # end there; built innermost axis (the [re, im] pair) first.
    separators: list[str] = []
    head = tail = ""
    for k in reversed(range(len(shape))):
        opening, separator, closing = _layout(depth + k, indent)
        separators = ([*separators, tail + separator + head] * shape[k])[:-1]
        head, tail = opening + head, tail + closing
    parts = [head, *[""] * (2 * width - 1), tail]
    parts[2:-1:2] = separators
    rows = a.view(np.uint64).reshape(len(a), width)
    step = max(1, _BLOCK_FLOATS // max(1, width))
    for start in range(0, len(rows), step):
        # Flat, so the inverse has one shape under numpy 1 and 2.
        distinct, inverse = np.unique(rows[start : start + step].ravel(), return_inverse=True)
        floats = distinct.view(float)
        tokens = np.array(json.dumps(floats.tolist())[1:-1].split(", "), dtype=object)
        tokens[~np.isfinite(floats)] = "null"
        block = tokens[inverse].tolist()
        for i in range(0, len(block), width):
            parts[1:-1:2] = block[i : i + width]
            yield "".join(parts)


def _json_text(value: Any, level: int) -> str:
    """``json.dumps(value, indent=1)`` for ``value`` nested ``level`` deep, with
    every np.ndarray in it written as its ``_encode`` nesting, every dataclass
    as the dict of its fields, every numpy scalar as its Python value and
    every NaN or infinite float as null."""
    if isinstance(value, np.ndarray):
        if value.size:
            return _nest(_member_texts(value, level + 1, True), level)
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


@contextlib.contextmanager
def _overwrite(path: str) -> Iterator[TextIO]:
    """``path`` opened for text writing as ``open(path, "w")`` opens it, but
    written over its old text instead of truncated first: the old tail is cut
    once the new text is written.  Truncating an existing file frees its
    blocks, which the write then allocates again.

    A regular file's old last byte becomes NUL before the new text goes in,
    so a write that fails or stops short of the old end leaves a file ending
    in NUL, which every loader refuses; one that stops past it leaves a
    prefix of the new text, as ``open(path, "w")`` does.  A file that is not
    regular, such as /dev/null or a pipe, is written as it is.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        if regular and info.st_size:
            os.pwrite(fd, b"\0", info.st_size - 1)
        yield fh
        if regular:
            fh.truncate()


def write_json(payload: dict[str, Any], path: str) -> None:
    """Write the bytes of ``json.dump(payload, fh, indent=1)`` and a final newline.

    ``payload`` may hold library objects as they are (see ``_json_text``):
    an np.ndarray is written as its nesting of [re, im] pairs and a dataclass
    as its fields, so callers hand results over without building lists or
    dicts.  Non-finite numbers are written as null, so the file is valid JSON.
    """
    text = _json_text(payload, 0)
    with _overwrite(path) as fh:
        fh.write(text)
        fh.write("\n")


def _dimension(payload: dict[str, Any], where: str) -> int:
    """The ``d`` field, which must be a JSON integer >= 1."""
    d = payload["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SchemeParseError(f"{where}: 'd' must be a JSON integer >= 1, got {d!r}")
    return d


def _scheme_payload(s: Scheme) -> dict[str, Any]:
    """The scheme file's fields, with the families as arrays."""
    payload: dict[str, Any] = {"format": SCHEME_FORMAT, "d": s.d, "dequantizers": s.dequantizers}
    if s.name is not None:
        payload["name"] = s.name
    if s.quantizers is not None:
        payload["quantizers"] = s.quantizers
    return payload


def _parse_family(data: Any, d: int, label: str) -> np.ndarray:
    family = _decode(data, 3, label)
    if family.shape[1:] != (d, d):
        raise SchemeParseError(f"{label}: expected {d}x{d} matrices, got shape {family.shape}")
    return family


def save_scheme(s: Scheme, path: str) -> None:
    write_json(_scheme_payload(s), path)


def load_scheme(path: str) -> Scheme:
    payload = read_json(path, "d", "dequantizers")
    where = f"{path}: scheme"
    d = _dimension(payload, where)
    deq = _parse_family(payload["dequantizers"], d, f"{path}: dequantizers")
    qs = None
    if payload.get("quantizers") is not None:
        qs = _parse_family(payload["quantizers"], d, f"{path}: quantizers")
        if qs.shape[0] != deq.shape[0]:
            raise SchemeParseError(
                f"{where}: {qs.shape[0]} quantizers for {deq.shape[0]} dequantizers"
            )
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemeParseError(f"{where}: 'name' must be a string")
    return Scheme(dequantizers=deq, quantizers=qs, name=name)


def save_operator(m: np.ndarray, path: str) -> None:
    write_json({"matrix": np.asarray(m, dtype=complex)}, path)


def load_operator(path: str) -> np.ndarray:
    """Operator file ``{"matrix": matrix}``; gauge files use the same format."""
    return _decode(read_json(path, "matrix")["matrix"], 2, f"{path}: matrix")


def save_vector(v: np.ndarray, path: str, **extra: Any) -> None:
    write_json({"values": np.asarray(v, dtype=complex).reshape(-1), **extra}, path)


def load_vector(path: str) -> np.ndarray:
    return _decode(read_json(path, "values")["values"], 1, f"{path}: values")


def save_kernel(kernel: StarKernel, path: str, assoc_residual: float | None = None) -> None:
    """Write ``kernel`` to a kernel file: plain JSON with its ``d``, its size
    ``n`` and one k-slice of its ``values`` per line, then ``assoc_residual``
    when one is given.  ``load_kernel`` reads it back as the same kernel.

    Each line holds the bytes ``json.dumps(_encode(slice))`` would write, with
    NaN and infinite parts as null; a kernel of a covariant scheme repeats
    most of its floats, within a slice and between slices, and
    ``_member_texts`` formats each distinct float of a block of slices once.
    """
    d, values = kernel
    with _overwrite(path) as fh:
        fh.write(f'{{"d": {json.dumps(d)}, "n": {len(values)}, "values": [')
        for k, line in enumerate(_member_texts(values, 1, False)):
            fh.write(("," if k else "") + "\n" + line)
        fh.write("\n]")
        if assoc_residual is not None:
            fh.write(f', "associativity_residual": {json.dumps(assoc_residual)}')
        fh.write("}\n")


# save_kernel's first line, and its text after the last slice line.
_KERNEL_HEADER = re.compile(r'\{"d": ([1-9]\d*), "n": ([1-9]\d*), "values": \[\n')
_KERNEL_TRAILER = re.compile(r'\](, "associativity_residual": -?(0|[1-9]\d*)(\.\d+)?([eE][-+]?\d+)?)?\}\n')


def load_kernel(path: str) -> StarKernel:
    """The kernel in a file of ``save_kernel``'s layout, bit for bit as it was
    saved, read one k-slice line at a time: one slice's nested lists are alive
    at a time, and the n x n x n array is made once the first slice has passed
    its shape check.  Any other text, another JSON layout of the same kernel
    included, raises SchemeParseError naming the file and, past the header,
    the slice."""
    # Undecodable bytes become lone surrogates, which no accepted line holds,
    # so they are refused in the line they stand in.
    with open(path, errors="surrogateescape") as fh:
        header = _KERNEL_HEADER.fullmatch(fh.readline())
        if header is None:
            raise SchemeParseError(
                f'{path}: expected the header line {{"d": <int >= 1>, "n": <int >= 1>, "values": ['
            )
        try:
            d, n = int(header[1]), int(header[2])
        except ValueError as exc:  # a literal too long for int()
            raise SchemeParseError(f"{path}: invalid JSON ({exc})") from exc
        for k in range(n):
            where = f"{path}: values[{k}]"
            more = k < n - 1
            line = fh.readline()
            if not line.endswith("\n") or line.endswith(",\n") != more:
                ending = "',' and a newline" if more else "a newline, without ','"
                raise SchemeParseError(f"{where}: slice {k + 1} of {n} must end in {ending}")
            try:
                data = json.loads(line[: -2 if more else -1])
            except (ValueError, RecursionError) as exc:
                raise SchemeParseError(f"{where}: invalid JSON ({exc})") from exc
            part = _decode(data, 2, where)
            del data  # so one slice's lists are alive at a time
            # Past _decode a slice spells finite numbers only, with no t or f,
            # unless it holds a true or false that numpy read as 1 or 0.
            if "t" in line or "f" in line:
                raise SchemeParseError(f"{where}: {_NOT_A_NUMBER}")
            if part.shape != (n, n):
                raise SchemeParseError(f"{where}: expected {n}x{n} pairs, got shape {part.shape}")
            if k == 0:
                values = np.empty((n, n, n), dtype=complex)
            values[k] = part
        if _KERNEL_TRAILER.fullmatch(fh.read()) is None:
            raise SchemeParseError(
                f"{path}: expected ']}}' or '], \"associativity_residual\": <number>}}' and a "
                f"newline after the {n} slice lines"
            )
    return StarKernel(d, values)
