import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import stat
import sys
import tracemalloc
import types

import numpy as np
import pytest

from starprod import PovmDiagnostics, Scheme, SchemeParseError, classify
from starprod import cli, serialization
from starprod.catalog import SCHEMES, build_scheme, entries, mub_qubit_scheme, sic_qubit_scheme
from starprod.scheme import with_canonical_quantizers
from starprod.serialization import (
    _decode,
    _dimension,
    _encode,
    load_kernel,
    load_operator,
    load_scheme,
    load_vector,
    read_json,
    save_kernel,
    save_operator,
    save_scheme,
    save_vector,
    write_json,
)
from starprod.star_product import star_kernel
from starprod.verification import CheckResult

from _helpers import random_complex, reference_kernel_texts

# Signed zeros, subnormals and the float range ends must survive every file format.
_EDGE = [-0.0, 5e-324, -2.2e-308, 1e308, -1e308, 0.0]


def _with_edges(values):
    values.real.flat[: len(_EDGE)] = _EDGE
    values.imag.flat[-len(_EDGE) :] = _EDGE
    return values


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64).tobytes()


def _straddling_stack(rng):
    """Four 4 x 4 members: m, m, m with each zero's sign flipped, and m reversed."""
    part = rng.choice([0.0, -0.0, 0.5, -0.25, 1e-300], size=(4, 4, 2)).view(complex)[..., 0]
    flipped = part.copy()
    flipped.view(float)[part.view(float) == 0.0] *= -1
    assert _bits(flipped) != _bits(part)
    return np.stack([part, part, flipped, part[::-1]])


def _json_file(tmp_path, payload):
    """Path (as a string) of a file holding ``payload`` as JSON text."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestComplexEncoding:
    def test_matrix_round_trip_bit_exact(self, tmp_path, rng):
        m = random_complex(rng, (3, 4))
        assert np.array_equal(load_operator(_json_file(tmp_path, {"matrix": _encode(m)})), m)

    def test_vector_round_trip_bit_exact(self, tmp_path, rng):
        v = random_complex(rng, 7)
        assert np.array_equal(load_vector(_json_file(tmp_path, {"values": _encode(v)})), v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, tmp_path, bad):
        path = _json_file(tmp_path, {"matrix": [[[1.0, 0.0], [0.0, bad]]]})
        with pytest.raises(SchemeParseError, match=re.escape(f"{path}: matrix: entries must be finite")):
            load_operator(path)
        path = _json_file(tmp_path, {"values": [[1.0, 0.0], [bad, 0.0]]})
        with pytest.raises(SchemeParseError, match=re.escape(f"{path}: values: entries must be finite")):
            load_vector(path)

    def test_bad_pair(self, tmp_path):
        with pytest.raises(SchemeParseError):
            load_operator(_json_file(tmp_path, {"matrix": [[[1.0], [0.0, 0.0]]]}))
        with pytest.raises(SchemeParseError):
            load_operator(_json_file(tmp_path, {"matrix": [[["a", 0.0], [0.0, 0.0]]]}))

    def test_ragged_rows(self, tmp_path):
        with pytest.raises(SchemeParseError):
            load_operator(_json_file(tmp_path, {"matrix": [[[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}))


class TestSchemeFiles:
    def test_round_trip_bit_exact_all_catalog(self, tmp_path):
        path = str(tmp_path / "scheme.json")
        for entry in entries():
            s = entry.scheme
            save_scheme(s, path)
            back = load_scheme(path)
            assert np.array_equal(back.dequantizers, s.dequantizers), entry.scheme.name
            assert back.name == s.name
            if s.quantizers is None:
                assert back.quantizers is None
            else:
                assert np.array_equal(back.quantizers, s.quantizers)

    def test_json_text_round_trip(self, tmp_path, rng):
        edges = Scheme(
            dequantizers=_with_edges(random_complex(rng, (4, 2, 2))),
            quantizers=_with_edges(random_complex(rng, (4, 2, 2))),
            name="edges",
        )
        for s in (sic_qubit_scheme("povm"), edges):
            path = tmp_path / "scheme.json"
            save_scheme(s, str(path))
            again = load_scheme(str(path))
            assert _bits(again.dequantizers) == _bits(s.dequantizers)
            if s.quantizers is not None:
                assert _bits(again.quantizers) == _bits(s.quantizers)
            # Serializing the parsed scheme reproduces the same file bytes.
            path2 = tmp_path / "scheme2.json"
            save_scheme(again, str(path2))
            assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"d": 2},
            {"d": 0, "dequantizers": []},
            {"d": 2, "dequantizers": []},
            {"d": 2, "dequantizers": [[[0, 0]]]},
            {"d": 2, "dequantizers": [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]], "name": 5},
            {
                "d": 2,
                "dequantizers": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]],
                "quantizers": [],
            },
            {"d": "2", "dequantizers": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
            {"d": 2.0, "dequantizers": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]},
            {"d": True, "dequantizers": [[[[1, 0]]]]},
            {"d": 1, "dequantizers": [[[[10**400, 0]]]]},
        ],
    )
    def test_malformed_payloads(self, tmp_path, payload):
        path = _json_file(tmp_path, payload)
        with pytest.raises(SchemeParseError, match=re.escape(path)):
            load_scheme(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", ["dequantizers", "quantizers"])
    def test_non_finite_entries(self, tmp_path, bad, family):
        path = tmp_path / "scheme.json"
        save_scheme(sic_qubit_scheme("povm"), str(path))
        payload = json.loads(path.read_text())
        payload["quantizers"] = payload["dequantizers"]
        payload[family][2][1][0] = [0.5, bad]
        with pytest.raises(SchemeParseError, match=rf"{family}\[2\]: entries must be finite"):
            load_scheme(_json_file(tmp_path, payload))

    def test_true_and_false_outside_the_arrays(self, tmp_path):
        # The text holds both words, so the arrays are walked, and hold neither.
        path = tmp_path / "scheme.json"
        save_scheme(sic_qubit_scheme("povm"), str(path))
        payload = {**json.loads(path.read_text()), "name": "true-or-false", "flag": False}
        back = load_scheme(_json_file(tmp_path, payload))
        assert back.name == "true-or-false"
        assert _bits(back.dequantizers) == _bits(sic_qubit_scheme("povm").dequantizers)

    def test_quantizer_count_mismatch(self, tmp_path):
        op = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(SchemeParseError):
            load_scheme(_json_file(tmp_path, {"d": 2, "dequantizers": [op, op], "quantizers": [op]}))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemeParseError):
            load_scheme(str(path))


class TestOperatorVectorKernelFiles:
    def test_operator_round_trip(self, tmp_path, rng):
        m = _with_edges(random_complex(rng, (3, 3)))
        path = tmp_path / "op.json"
        save_operator(m, str(path))
        assert _bits(load_operator(str(path))) == _bits(m)

    def test_vector_round_trip_with_metadata(self, tmp_path, rng):
        v = _with_edges(random_complex(rng, 6))
        path = tmp_path / "vec.json"
        save_vector(v, str(path), scheme="mub-qubit")
        assert _bits(load_vector(str(path))) == _bits(v)
        assert json.loads(path.read_text())["scheme"] == "mub-qubit"

    def test_kernel_round_trip(self, tmp_path, rng):
        values = _with_edges(random_complex(rng, (4, 4, 4)))
        path = tmp_path / "kernel.json"
        save_kernel(2, values, str(path), assoc_residual=1.5e-12)
        d, back = load_kernel(str(path))
        assert d == 2
        assert _bits(back) == _bits(values)
        assert json.loads(path.read_text())["associativity_residual"] == 1.5e-12

    def test_kernel_file_is_plain_json_one_slice_per_line(self, tmp_path, rng):
        values = random_complex(rng, (4, 4, 4))
        path = tmp_path / "kernel.json"
        save_kernel(2, values, str(path))
        text = path.read_text()
        payload = json.loads(text)
        assert list(payload) == ["d", "n", "values"]
        assert payload["d"] == 2 and payload["n"] == 4
        assert payload["values"][1][2][3] == [values[1, 2, 3].real, values[1, 2, 3].imag]
        lines = text.splitlines()
        assert len(lines) == 4 + 2
        assert [json.loads(line.rstrip(",")) for line in lines[1:-1]] == payload["values"]
        save_kernel(2, values, str(path), assoc_residual=0.25)
        assert list(json.loads(path.read_text())) == ["d", "n", "values", "associativity_residual"]

    def test_operator_missing_field(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text('{"values": []}')
        with pytest.raises(SchemeParseError):
            load_operator(str(path))


def _canonical_kernel(s):
    return star_kernel(with_canonical_quantizers(s)).values


_RESIDUALS = (None, 3.25e-13)


@functools.cache
def _registered_kernel(name, **params):
    """d, the canonical kernel and its ``reference_kernel_texts`` for
    ``_RESIDUALS``, of a registered scheme: built once per module."""
    s = build_scheme(name, **params)
    values = _canonical_kernel(s)
    values.flags.writeable = False
    return s.d, values, reference_kernel_texts(s.d, values, _RESIDUALS)


def _assert_same_text(got, expected, label=""):
    """``got == expected``, failing with both lengths and the first differing
    offset instead of pytest's diff, which takes minutes over megabytes."""
    if got == expected:
        return
    at = len(os.path.commonprefix([got, expected]))
    window = slice(max(0, at - 40), at + 40)
    pytest.fail(
        f"{label}: lengths {len(got)} and {len(expected)}, first difference at offset {at}:\n"
        f"  got      {got[window]!r}\n  expected {expected[window]!r}",
        pytrace=False,
    )


# Block bounds, in floats, for an array of n members of ``width`` floats each.
_BLOCK_BOUNDS = {
    "one-float": lambda n, width: 1,
    "one-member": lambda n, width: width,
    # (n + 1) // 2 members a block, from a bound that is not a multiple of a member.
    "mid-array": lambda n, width: width * ((n + 1) // 2) + width // 2,
    "2**40": lambda n, width: 2**40,
}


def _bound_blocks(monkeypatch, bound):
    """Make ``_member_texts`` split each array into blocks by ``_BLOCK_BOUNDS[bound]``."""
    member_texts = serialization._member_texts

    def bounded(a, depth, indent):
        floats = _BLOCK_BOUNDS[bound](len(a), 2 * math.prod(np.shape(a)[1:]))
        monkeypatch.setattr(serialization, "_BLOCK_FLOATS", floats)
        yield from member_texts(a, depth, indent)

    monkeypatch.setattr(serialization, "_member_texts", bounded)


class TestKernelWriterBytes:
    """``save_kernel`` formats each distinct float of a block of slices once;
    the file must equal the one float-by-float ``json.dumps`` writer, byte for byte."""

    @staticmethod
    def _assert_reference_bytes(tmp_path, d, values, expected=None):
        if expected is None:
            expected = reference_kernel_texts(d, values, _RESIDUALS)
        path = tmp_path / "kernel.json"
        for residual, text in zip(_RESIDUALS, expected):
            save_kernel(d, values, str(path), assoc_residual=residual)
            _assert_same_text(path.read_text(), text, f"kernel file, residual {residual}")

    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_registered_scheme_kernels(self, tmp_path, name):
        self._assert_reference_bytes(tmp_path, *_registered_kernel(name))

    @pytest.mark.parametrize("p", [5, 7])
    def test_mub_prime_kernels(self, tmp_path, p):
        self._assert_reference_bytes(tmp_path, *_registered_kernel("mub-prime", p=p))

    def test_ginibre_kernel_with_every_float_distinct(self, tmp_path, rng):
        values = _canonical_kernel(Scheme(dequantizers=random_complex(rng, (9, 3, 3))))
        assert len(np.unique(values.view(np.uint64))) == 2 * values.size
        self._assert_reference_bytes(tmp_path, 3, values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_kernels(self, tmp_path, rng, n):
        self._assert_reference_bytes(tmp_path, 1, random_complex(rng, (n, n, n)))

    def test_signed_zeros_extremes_and_repeats(self, tmp_path):
        # 0.0 and -0.0 compare equal as floats, so grouping by float value
        # instead of by bit pattern would write one of them with the other's text.
        floats = [0.0, -0.0, 5e-324, 1e308, -1e308, 0.0, -0.0, 0.5, 0.5, 5e-324,
                  -1e308, 1e308, 0.1, -0.0, 0.0, 0.1, 2.0, 2.0]
        values = np.array(floats).view(complex).reshape(1, 3, 3)
        values = np.concatenate([values, values[:, ::-1], values[:, :, ::-1]])
        self._assert_reference_bytes(tmp_path, 1, values)
        text = (tmp_path / "kernel.json").read_text()
        assert "[0.0, -0.0], [5e-324, 1e+308]" in text

    def test_non_finite_entries_are_null_and_rejected_on_load(self, tmp_path):
        values = np.full((2, 2, 2), 0.5 + 0.25j)
        values[1, 0, 1] = complex(math.nan, math.inf)
        values[0, 1, 0] = complex(-math.inf, 0.0)
        path = tmp_path / "kernel.json"
        save_kernel(1, values, str(path))

        def refuse(token):
            raise AssertionError(f"non-JSON token {token}")

        data = json.loads(path.read_text(), parse_constant=refuse)
        assert data["values"][1][0][1] == [None, None]
        assert data["values"][0][1][0] == [None, 0.0]
        with pytest.raises(SchemeParseError, match=re.escape(str(path))):
            load_kernel(str(path))


class TestKernelWriterBlocks(TestKernelWriterBytes):
    """``TestKernelWriterBytes``' cases with the block bound moved: where the
    blocks of slices break must not change a byte."""

    @pytest.fixture(
        autouse=True, params=list(_BLOCK_BOUNDS), ids=["one-float", "one-slice", "mid-kernel", "2**40"]
    )
    def _block_bound(self, request, monkeypatch):
        _bound_blocks(monkeypatch, request.param)

    def test_repeats_and_signed_zeros_straddle_a_block_boundary(self, tmp_path, rng):
        # Slices 1 and 2, on either side of the mid-kernel blocks' boundary,
        # hold the same floats but for the sign of each zero.
        self._assert_reference_bytes(tmp_path, 2, _straddling_stack(rng))

    def test_empty_kernel(self, tmp_path):
        self._assert_reference_bytes(tmp_path, 1, np.zeros((0, 0, 0), dtype=complex))


class TestKernelWriterWork:
    def test_repeats_between_slices_are_formatted_once_a_block(self, tmp_path, monkeypatch):
        counted = []
        dumps = json.dumps

        def counting_dumps(obj, *args, **kwargs):
            if isinstance(obj, list):
                counted.append(len(obj))
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(serialization.json, "dumps", counting_dumps)
        save_kernel(*_registered_kernel("mub-prime", p=7)[:2], str(tmp_path / "k.json"))
        # Of the kernel's 351,232 floats, distinct per slice: 92,056; per
        # block of five slices: 52,780; over the whole kernel: 36,791.
        assert sum(counted) <= 60_000

    # At a bound of one float each block is one slice, never the whole kernel.
    @pytest.mark.parametrize("block_floats", [serialization._BLOCK_FLOATS, 1])
    def test_peak_memory_of_an_all_distinct_kernel_stays_bounded(
        self, tmp_path, rng, monkeypatch, block_floats
    ):
        monkeypatch.setattr(serialization, "_BLOCK_FLOATS", block_floats)
        values = random_complex(rng, (56, 56, 56))
        tracemalloc.start()
        try:
            save_kernel(7, values, str(tmp_path / "k.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-kernel dedup holds a token for each of the 351,232 floats (about 43 MB).
        assert peak <= 4 * values.nbytes


_PAIR = [0.5, -0.25]
_GOOD_VALUES = [[[_PAIR, _PAIR], [_PAIR, _PAIR]], [[_PAIR, _PAIR], [_PAIR, _PAIR]]]
_HEADER_REFUSED = 'expected the header line {"d": <int >= 1>, "n": <int >= 1>, "values": ['
_TRAILER_REFUSED = "expected ']}' or '], \"associativity_residual\": <number>}' and a newline"


def _kernel_payload(**changes):
    payload = {"d": 1, "n": 2, "values": _GOOD_VALUES}
    payload.update(changes)
    return payload


def _kernel_file(tmp_path, payload):
    """Path of a file holding ``payload`` in ``save_kernel``'s layout (the "d"
    and "n" header line, then one line per slice of "values"), or as one line
    of JSON where that layout cannot hold it."""
    path = tmp_path / "kernel.json"
    if list(payload) == ["d", "n", "values"] and isinstance(payload["values"], list):
        head = f'{{"d": {json.dumps(payload["d"])}, "n": {json.dumps(payload["n"])}, "values": ['
        path.write_text("\n".join([head, ",\n".join(map(json.dumps, payload["values"])), "]}\n"]))
    else:
        path.write_text(json.dumps(payload))
    return str(path)


class TestKernelFileContract:
    def test_well_formed_payload_loads(self, tmp_path):
        path = _kernel_file(tmp_path, _kernel_payload())
        d, values = load_kernel(path)
        assert d == 1 and values.shape == (2, 2, 2)
        assert np.all(values == 0.5 - 0.25j)
        # The files below differ from save_kernel's only where their case says.
        save_kernel(1, values, str(tmp_path / "saved.json"))
        assert (tmp_path / "saved.json").read_text() == (tmp_path / "kernel.json").read_text()

    @pytest.mark.parametrize(
        "payload, expected",
        [
            (_kernel_payload(values=[_GOOD_VALUES[0], [[_PAIR, _PAIR], [_PAIR]]]), "values[1]: ragged"),
            (
                _kernel_payload(values=[_GOOD_VALUES[0], [[_PAIR, _PAIR], [_PAIR, [0.5]]]]),
                "values[1]: ragged",
            ),
            (_kernel_payload(values=[[_PAIR, _PAIR], [_PAIR, _PAIR]]), "values[0]: expected 2 non-empty"),
            (_kernel_payload(values=[0.5, 0.5]), "values[0]: expected 2 non-empty"),
            (_kernel_payload(values=[]), "values[0]: slice 1 of 2 must end in ','"),
            (_kernel_payload(values={"0": _GOOD_VALUES}), _HEADER_REFUSED),
        ],
        ids=["ragged-slice", "ragged-pair", "short-nesting", "flat", "empty", "object"],
    )
    def test_ragged_or_short_nesting(self, tmp_path, payload, expected):
        self._assert_rejected(tmp_path, payload, expected)

    @pytest.mark.parametrize(
        "entry, expected",
        [
            ("0.5", "entries must be numbers"),
            (None, "entries must be numbers"),
            ({"re": 0.5}, "entries must be numbers"),
            ([0.5], "ragged nesting"),
        ],
        ids=["0.5", "None", "entry2", "entry3"],
    )
    def test_non_numeric_entries(self, tmp_path, entry, expected):
        values = json.loads(json.dumps(_GOOD_VALUES))
        values[1][0][1][1] = entry
        self._assert_rejected(tmp_path, _kernel_payload(values=values), f"values[1]: {expected}")

    @pytest.mark.parametrize(
        "slice_, expected",
        [
            ([[[0.5, True], _PAIR], [_PAIR, _PAIR]], "entries must be numbers, not true or false"),
            ([[[0, False], [1, 0]], [[0, 0], [0, 0]]], "entries must be numbers, not true or false"),
            ([[[True, False]] * 2] * 2, "entries must be numbers"),
        ],
        ids=["among-floats", "among-ints", "all-bool"],
    )
    def test_boolean_entries(self, tmp_path, slice_, expected):
        # numpy reads a true or false among numbers as 1 or 0.
        values = [_GOOD_VALUES[0], slice_]
        self._assert_rejected(tmp_path, _kernel_payload(values=values), f"values[1]: {expected}")

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([[[[0.5, 0.5, 0.5]] * 2] * 2] * 2, "expected 2 non-empty nested axes"),
            ([[[_PAIR] * 3] * 2] * 2, "expected 2x2 pairs, got shape (2, 3)"),
            ([[[_PAIR] * 2] * 3] * 2, "expected 2x2 pairs, got shape (3, 2)"),
            ([[[[_PAIR, _PAIR]] * 2] * 2] * 2, "expected 2 non-empty nested axes"),
        ],
        ids=["triple", "wide-row", "tall-slice", "deep"],
    )
    def test_wrong_shape(self, tmp_path, values, expected):
        self._assert_rejected(tmp_path, _kernel_payload(values=values), f"values[0]: {expected}")

    @pytest.mark.parametrize("d", ["x", None, 0, -2, 2.5, True, [2]])
    def test_bad_d(self, tmp_path, d):
        self._assert_rejected(tmp_path, _kernel_payload(d=d), _HEADER_REFUSED)

    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, "values[0]: slice 1 of 1 must end in a newline, without ','"),
            (3, "values[0]: expected 3x3 pairs, got shape (2, 2)"),
            *[(n, _HEADER_REFUSED) for n in ("2", None, True, 2.0)],
        ],
        ids=["1", "3", "2", "None", "True", "2.0"],
    )
    def test_n_disagrees_with_values(self, tmp_path, n, expected):
        self._assert_rejected(tmp_path, _kernel_payload(n=n), expected)

    def test_missing_keys(self, tmp_path):
        self._assert_rejected(tmp_path, {"n": 2, "values": _GOOD_VALUES}, _HEADER_REFUSED)
        self._assert_rejected(tmp_path, [_GOOD_VALUES], _HEADER_REFUSED)

    @staticmethod
    def _assert_rejected(tmp_path, payload, expected):
        path = _kernel_file(tmp_path, payload)
        with pytest.raises(SchemeParseError, match=re.escape(path)) as info:
            load_kernel(path)
        assert expected in str(info.value)


def _generic_load_kernel(path):
    """``load_kernel`` through the whole-file parse every other file type uses."""
    payload = read_json(path, "d", "values")
    d = _dimension(payload, path)
    values = _decode(payload["values"], 3, f"{path}: values")
    n = len(values)
    if values.shape != (n, n, n):
        raise SchemeParseError(
            f"{path}: values: expected shape {(n, n, n)} of [re, im] pairs, got {values.shape}"
        )
    m = payload.get("n", n)
    if isinstance(m, bool) or not isinstance(m, int) or m != n:
        raise SchemeParseError(f"{path}: 'n' is {m!r} but values hold {n} slices")
    return d, values


def _outcome(load, path):
    """``("ok", d, bits)`` for a loaded kernel, else the exception's type and text."""
    try:
        d, values = load(path)
    except Exception as exc:  # any difference from the generic path counts
        return type(exc).__name__, str(exc)
    return "ok", d, _bits(values)


def _kernel_text(tmp_path, n, residual=None, seed=0):
    """``save_kernel``'s text for a seeded n x n x n kernel with repeated floats."""
    values = np.random.default_rng(seed).integers(-3, 4, (n, n, n, 2)) / 4.0
    values = values.view(complex)[..., 0]
    values.flat[0] = complex(1 / 3, -0.0)
    path = tmp_path / "saved.json"
    save_kernel(n, values, str(path), assoc_residual=residual)
    return path.read_text(), values


# Number tokens of the header, the slices and the trailer.
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_SWAPS = [b"NaN", b"Infinity", b"1", b"-0", b"true", b"null", b"1e400", b"1.50", b"1" * 30]
_BYTES = b'[]{},:" \n\r\t0123456789.-+eEnx\xff'


def _mutate(data, rng):
    """``data`` with one seeded byte insert, delete or replace, or one number
    token swapped for a token from ``_SWAPS``."""
    kind = rng.integers(4)
    if kind == 3:
        tokens = list(_NUMBER.finditer(data))
        token = tokens[rng.integers(len(tokens))]
        return data[: token.start()] + _SWAPS[rng.integers(len(_SWAPS))] + data[token.end() :]
    pos = int(rng.integers(len(data) + (kind == 0)))
    byte = bytes([_BYTES[rng.integers(len(_BYTES))]])
    return data[:pos] + (byte if kind != 1 else b"") + data[pos + (kind != 0) :]


def _assert_loaded_as_generic_or_refused(path):
    """``load_kernel``'s outcome for the file at ``path``: a load gives the
    whole-file parse's d and bits, and a refusal is a SchemeParseError naming
    the file."""
    outcome = _outcome(load_kernel, str(path))
    if outcome[0] == "ok":
        assert outcome == _outcome(_generic_load_kernel, str(path))
    else:
        assert outcome[0] == "SchemeParseError" and str(path) in outcome[1], outcome
    return outcome


class TestKernelLineReader:
    """``load_kernel`` reads ``save_kernel``'s layout one slice line at a time
    and refuses any other text; what it loads, the whole-file parse loads to
    the same bits."""

    def test_seeded_mutations_match_the_generic_path(self, tmp_path):
        rng = np.random.default_rng(20140)
        path = tmp_path / "kernel.json"
        loaded = refused = 0
        for case in range(480):
            n, residual = 1 + case % 3, (None, 2.5e-13)[case // 3 % 2]
            data = _kernel_text(tmp_path, n, residual, seed=case)[0].encode()
            for _ in range(1 + case % 2):
                data = _mutate(data, rng)
            path.write_bytes(data)
            outcome = _assert_loaded_as_generic_or_refused(path)
            loaded += outcome[0] == "ok"
            refused += outcome[0] == "SchemeParseError"
        # Both the slice reader's accepting and its refusing branches ran
        # (80 and 400 of the 480 mutants).
        assert loaded >= 50 and refused >= 300

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("residual", [None, 2.5e-13])
    def test_saved_files_never_reach_the_generic_path(self, tmp_path, monkeypatch, n, residual):
        values = _kernel_text(tmp_path, n, residual)[1]

        def refuse(*args):
            raise AssertionError("a save_kernel file went through read_json")

        monkeypatch.setattr(serialization, "read_json", refuse)
        d, back = load_kernel(str(tmp_path / "saved.json"))
        assert d == n and _bits(back) == _bits(values)

    @staticmethod
    def _edge_texts(text):
        """Variants of the ``save_kernel`` text of a 3 x 3 x 3 kernel, by case;
        a lone surrogate stands for a byte that is not UTF-8."""
        lines = text.splitlines(keepends=True)
        payload = json.loads(text)
        nan_line = re.sub(r"-?\d+\.\d+", "NaN", lines[3], count=1)
        return {
            "n-zero": '{"d": 1, "n": 0, "values": [\n]}\n',
            "n-past-the-lines": text.replace('"n": 3', '"n": 4', 1),
            "n-billion-over-one-line": '{"d": 1, "n": 1000000000, "values": [\n[[[0.5, 0.0]]]\n]}\n',
            "n-float": text.replace('"n": 3', '"n": 3.0', 1),
            "d-too-long-for-int": text.replace('"d": 3', f'"d": {"1" * 5000}', 1),
            "reordered-keys": text.replace('"d": 3, "n": 3', '"n": 3, "d": 3', 1),
            "nan-in-last-slice": "".join([*lines[:3], nan_line, *lines[4:]]),
            "bad-utf8-in-slice": "".join([*lines[:2], lines[2].replace(", ", ",\udcff ", 1), *lines[3:]]),
            "crlf": text.replace("\n", "\r\n"),
            "indent-1": json.dumps(payload, indent=1),
            "single-line": json.dumps(payload),
            "duplicate-values-empty": text.replace("\n]}", '\n], "values": []}'),
            "duplicate-values-other": text.replace(
                "\n]}", f'\n], "values": {json.dumps(payload["values"][::-1])}}}'
            ),
            "hidden-values-header": '{"values": [], "q": {"d": 3, "n": 3, "values": [\n'
            + "".join(lines[1:-1])
            + ']}, "d": 3}\n',
            "one-pair-slice": "".join([lines[0], lines[1], "[[[0.5, 0.0]]],\n", *lines[3:]]),
            "slice-line-without-comma": text.replace("]]],\n", "]]] \n", 1),
            "last-slice-with-comma": text.replace("]]]\n]}", "]]],\n]}"),
            "value-before-closing-bracket": text.replace("\n]}", "\n0]}"),
            "text-after-the-trailer": text + " ",
        }

    _EDGE_CASES = {
        "n-zero": _HEADER_REFUSED,
        "n-past-the-lines": "values[0]: expected 4x4 pairs, got shape (3, 3)",
        "n-billion-over-one-line": "values[0]: slice 1 of 1000000000 must end in ','",
        "n-float": _HEADER_REFUSED,
        "d-too-long-for-int": "invalid JSON (Exceeds the limit",
        "reordered-keys": _HEADER_REFUSED,
        "nan-in-last-slice": "values[2]: entries must be finite",
        "bad-utf8-in-slice": "values[1]: invalid JSON",
        "crlf": None,
        "indent-1": _HEADER_REFUSED,
        "single-line": _HEADER_REFUSED,
        "duplicate-values-empty": _TRAILER_REFUSED,
        "duplicate-values-other": _TRAILER_REFUSED,
        "hidden-values-header": _HEADER_REFUSED,
        "one-pair-slice": "values[1]: expected 3x3 pairs, got shape (1, 1)",
        "slice-line-without-comma": "values[0]: slice 1 of 3 must end in ','",
        "last-slice-with-comma": "values[2]: slice 3 of 3 must end in a newline, without ','",
        "value-before-closing-bracket": _TRAILER_REFUSED,
        "text-after-the-trailer": _TRAILER_REFUSED,
    }

    @pytest.mark.parametrize("case, expected", _EDGE_CASES.items(), ids=list(_EDGE_CASES))
    def test_edge_cases(self, tmp_path, case, expected):
        """Each case loads the saved values, where ``expected`` is None, or
        is refused with ``expected`` in the error."""
        text, values = _kernel_text(tmp_path, 3)
        path = tmp_path / "kernel.json"
        path.write_bytes(self._edge_texts(text)[case].encode(errors="surrogateescape"))
        outcome = _assert_loaded_as_generic_or_refused(path)
        if expected is None:
            assert outcome == ("ok", 3, _bits(values))
        else:
            assert outcome[0] == "SchemeParseError" and expected in outcome[1]

    def test_one_slice_of_lists_is_alive_at_a_time(self, tmp_path, monkeypatch):
        values = _kernel_text(tmp_path, 5)[1]
        slices = []

        def loads(text):
            if slices:
                previous = slices.pop()
                # Referred to by ``previous`` and getrefcount's argument, not by the reader.
                assert sys.getrefcount(previous) <= 2
            slices.append(json.loads(text))
            return slices[-1]

        monkeypatch.setattr(serialization, "json", types.SimpleNamespace(loads=loads))
        _, back = load_kernel(str(tmp_path / "saved.json"))
        assert _bits(back) == _bits(values)

    def test_header_n_allocates_nothing_before_a_full_slice(self, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text('{"d": 1, "n": 300, "values": [\n[[[0.5, 0.0]]],\n')
        tracemalloc.start()
        try:
            with pytest.raises(SchemeParseError, match=r"values\[0\]: expected 300x300 pairs"):
                load_kernel(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The n x n x n array would take 300**3 * 16 bytes = 432 MB.
        assert peak < 1e6

    def test_peak_memory_stays_within_twice_the_array(self, tmp_path):
        path = str(tmp_path / "kernel.json")
        save_kernel(*_registered_kernel("mub-prime", p=7)[:2], path)
        tracemalloc.start()
        try:
            _, values = load_kernel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * values.nbytes


def _written(tmp_path, payload):
    """The text ``write_json`` writes for ``payload`` and the JSON it parses to."""
    path = tmp_path / "report.json"
    write_json(payload, str(path))
    text = path.read_text()
    return text, json.loads(text)


class TestReportJson:
    def test_infinite_condition_number_is_null(self, tmp_path):
        underfilled = Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3])
        _, data = _written(tmp_path, classify(underfilled))
        assert data["condition_number"] is None

    def test_full_report_serializes(self, tmp_path):
        report = classify(sic_qubit_scheme("povm"))
        text, data = _written(tmp_path, report)
        assert data["povm"]["is_povm"] is True
        assert math.isclose(data["condition_number"], np.sqrt(3), rel_tol=1e-12)
        assert "NaN" not in text and "Infinity" not in text

    def test_matrix_unit_like_serialized(self, tmp_path):
        from starprod.catalog import matrix_units_scheme

        _, data = _written(tmp_path, classify(matrix_units_scheme(2)))
        u = _decode(data["matrix_unit_like"], 2, "matrix_unit_like")
        assert np.abs(u - np.eye(2)).max() <= 1e-12


def _lists(value):
    """``value`` with every array replaced by its ``_encode`` lists, every
    dataclass by the dict of its fields, every numpy scalar by its Python
    value and every NaN or infinite float by None."""
    if isinstance(value, np.ndarray):
        return _lists(_encode(value))
    if isinstance(value, np.generic):
        return _lists(value.item())
    if dataclasses.is_dataclass(value):
        return {f.name: _lists(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lists(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


_R = np.random.default_rng(20)
_WRITER_PAYLOADS = {
    "edge-floats": {
        "values": _with_edges(random_complex(_R, (3, 4))),
        "floats": [*_EDGE, np.float64(-0.0)],
    },
    "length-1-axes": {
        "vector": random_complex(_R, 1),
        "matrix": random_complex(_R, (1, 1)),
        "stack": random_complex(_R, (1, 1, 1)),
        "mixed": random_complex(_R, (3, 1, 2)),
    },
    "vector-matrix-stack": {
        "values": random_complex(_R, 5),
        "matrix": random_complex(_R, (4, 6)),
        "dequantizers": random_complex(_R, (5, 3, 3)),
        "real": np.arange(3.0),
    },
    "multi-block": {
        "stack": random_complex(_R, (300, 3, 3)),
        "vector": random_complex(_R, 5000),
        "wide": random_complex(_R, (2, 2100)),
    },
    "nested": {
        "outer": {
            "inner": [random_complex(_R, (2, 2)), {"deep": (1, random_complex(_R, 2), [2.5, "x"])}]
        },
        "pairs": ((1, 2), [3, (4,)]),
    },
    "empty": {
        "list": [],
        "dict": {},
        "tuple": (),
        "array": np.zeros((0, 2), dtype=complex),
        "both": [[], {}],
    },
    "scalars": {
        "none": None,
        "true": True,
        "false": False,
        "int": -7,
        "long": 10**30,
        "name": "Wigner–Weyl ∂ é",
        "float64": np.float64(0.1),
    },
    "non-string-keys": {"keys": {1: "int", 2.5: "float", True: "bool", None: "null"}},
    "non-finite": {
        "floats": [math.nan, math.inf, -math.inf, np.float64(-math.inf), np.float32(math.nan)],
        "array": np.array([1.0, math.inf, -math.nan + 1j * -math.inf, 2.5]),
        "numpy-scalars": [np.int64(-3), np.float32(0.5), np.bool_(True), np.float64(1e-300)],
    },
    "dataclasses": {
        "nested": {
            "report": dataclasses.replace(
                classify(Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3])),
                matrix_unit_like=random_complex(_R, (2, 2)),
            )
        },
        "povm": PovmDiagnostics(
            sum_residual=1e-9, hermiticity_residual=0.0, min_effect_eigenvalue=-0.5, is_povm=False
        ),
        "checks": [
            CheckResult(
                name="check",
                passed=False,
                seconds=0.25,
                details={"worst": np.float64(np.inf), "n": np.int64(7)},
            )
        ],
    },
    # Members 1 and 2, on either side of the mid-array blocks' boundary, hold
    # the same floats but for the sign of each zero.
    "block-boundary": {"stack": _straddling_stack(_R)},
}


class TestWriteJson:
    """write_json writes the bytes of json.dump(..., indent=1) plus a newline."""

    @pytest.mark.parametrize("case", list(_WRITER_PAYLOADS))
    def test_matches_indented_dump(self, tmp_path, case):
        payload = _WRITER_PAYLOADS[case]
        path = tmp_path / "out.json"
        write_json(payload, str(path))
        _assert_same_text(path.read_bytes(), (json.dumps(_lists(payload), indent=1) + "\n").encode(), case)

    def test_file_writers_match_indented_dump(self, tmp_path, rng):
        s = Scheme(
            dequantizers=_with_edges(random_complex(rng, (4, 2, 2))),
            quantizers=random_complex(rng, (4, 2, 2)),
            name="Wigner–Weyl ∂",
        )
        m = _with_edges(random_complex(rng, (4, 6)))
        v = _with_edges(random_complex(rng, 7))
        paths = {name: tmp_path / f"{name}.json" for name in ("scheme", "operator", "vector")}
        save_scheme(s, str(paths["scheme"]))
        save_operator(m, str(paths["operator"]))
        save_vector(v, str(paths["vector"]), scheme=s.name)
        expected = {
            "scheme": {
                "format": "starprod-scheme",
                "d": s.d,
                "dequantizers": _encode(s.dequantizers),
                "name": s.name,
                "quantizers": _encode(s.quantizers),
            },
            "operator": {"matrix": _encode(m)},
            "vector": {"values": _encode(v), "scheme": s.name},
        }
        for name, path in paths.items():
            _assert_same_text(path.read_bytes(), (json.dumps(expected[name], indent=1) + "\n").encode(), name)


class TestWriteJsonBlocks(TestWriteJson):
    """``TestWriteJson``'s cases with the block bound moved: where the blocks
    of members break must not change a byte."""

    @pytest.fixture(autouse=True, params=list(_BLOCK_BOUNDS))
    def _block_bound(self, request, monkeypatch):
        _bound_blocks(monkeypatch, request.param)


# Each writer as (long, short): two calls that write a longer and a shorter
# file at one path.
_WRITERS = {
    "scheme": (
        lambda path: save_scheme(build_scheme("mub-prime", p=5), path),
        lambda path: save_scheme(build_scheme("pauli"), path),
    ),
    "report": (
        lambda path: write_json({"report": classify(build_scheme("mub-prime", p=5))}, path),
        lambda path: write_json({"report": classify(build_scheme("pauli"))}, path),
    ),
    "kernel": (
        lambda path: save_kernel(*_registered_kernel("mub-prime", p=3)[:2], path, assoc_residual=1e-13),
        lambda path: save_kernel(*_registered_kernel("pauli")[:2], path),
    ),
    "operator": (
        lambda path: save_operator(np.eye(9), path),
        lambda path: save_operator(np.eye(2), path),
    ),
    "vector": (
        lambda path: save_vector(np.arange(40.0), path, scheme="long"),
        lambda path: save_vector(np.arange(4.0), path),
    ),
}


class TestWrittenOverInPlace:
    """Every writer writes over an existing file instead of truncating it
    first, and leaves the bytes a write to a fresh path leaves."""

    @pytest.mark.parametrize("writer", list(_WRITERS))
    def test_shorter_file_over_a_longer_one_matches_a_fresh_write(self, tmp_path, writer):
        write_long, write_short = _WRITERS[writer]
        path, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
        write_long(str(path))
        old_size = path.stat().st_size
        write_short(str(path))
        write_short(str(fresh))
        assert path.stat().st_size < old_size
        assert path.read_bytes() == fresh.read_bytes()
        # And back: a longer file over a shorter one.
        write_long(str(path))
        write_long(str(fresh))
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("writer", list(_WRITERS))
    def test_existing_output_keeps_its_inode_and_mode(self, tmp_path, writer):
        write_long, write_short = _WRITERS[writer]
        path = tmp_path / "out.json"
        write_long(str(path))
        path.chmod(0o600)
        before = path.stat()
        write_short(str(path))
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o600

    @pytest.mark.parametrize("writer", list(_WRITERS))
    def test_symlinked_output_is_written_through_to_its_target(self, tmp_path, writer):
        write_long, write_short = _WRITERS[writer]
        target, link, fresh = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "fresh.json"
        write_long(str(target))
        link.symlink_to(target)
        write_short(str(link))
        write_short(str(fresh))
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["emit", "pauli"], ["kernel", "{scheme}"], ["quantize", "{scheme}", "--report", os.devnull]],
        ids=["emit", "kernel", "quantize-report"],
    )
    def test_dev_null_output_exits_0(self, tmp_path, capsys, argv):
        scheme = tmp_path / "pauli.json"
        save_scheme(build_scheme("pauli"), str(scheme))
        argv = [arg.format(scheme=scheme) for arg in argv]
        assert cli.main([*argv, "-o", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("writer", list(_WRITERS))
    def test_no_writer_opens_with_o_trunc(self, tmp_path, monkeypatch, writer):
        # A writer on builtin open(path, "w") calls no os.open, so it fails too.
        write_long, write_short = _WRITERS[writer]
        path = str(tmp_path / "out.json")
        write_long(path)
        flags, os_open = [], os.open

        def recording_open(file, flag, *args, **kwargs):
            if file == path:
                flags.append(flag)
            return os_open(file, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        write_short(path)
        assert len(flags) == 1
        assert flags[0] & os.O_CREAT and flags[0] & os.O_ACCMODE == os.O_WRONLY
        assert not flags[0] & os.O_TRUNC


class _FailingFile:
    """A text file whose writes raise OSError once ``budget`` characters are
    written, after writing the characters that fit."""

    def __init__(self, fh, budget):
        self._fh, self._budget = fh, budget

    def write(self, text):
        if len(text) > self._budget:
            self._fh.write(text[: self._budget])
            raise OSError(28, "No space left on device")
        self._budget -= len(text)
        return self._fh.write(text)


def _assert_refused(path, load):
    """Neither ``load`` (with SchemeParseError naming the file) nor json.loads
    accepts the file at ``path``."""
    with pytest.raises(SchemeParseError, match=f"^{re.escape(str(path))}: "):
        load(str(path))
    with pytest.raises(ValueError):
        json.loads(path.read_text())


class TestInterruptedWrite:
    """A write that stops part-way over an older, longer file leaves a file
    that ends in NUL, which every loader refuses."""

    @pytest.mark.parametrize("k", [0, 1, 10])
    def test_kernel_stopped_after_k_slices(self, tmp_path, monkeypatch, rng, k):
        path = tmp_path / "kernel.json"
        save_kernel(2, random_complex(rng, (20, 20, 20)), str(path), assoc_residual=1e-13)
        member_texts = serialization._member_texts

        def stopping(a, depth, indent):
            for i, text in enumerate(member_texts(a, depth, indent)):
                if i == k:
                    raise KeyboardInterrupt
                yield text

        monkeypatch.setattr(serialization, "_member_texts", stopping)
        with pytest.raises(KeyboardInterrupt):
            save_kernel(2, random_complex(rng, (16, 16, 16)), str(path))
        assert path.read_bytes().endswith(b"\0")
        _assert_refused(path, load_kernel)

    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "writer, load",
        [("scheme", load_scheme), ("kernel", load_kernel), ("operator", load_operator),
         ("vector", load_vector)],
    )
    def test_write_failing_with_os_error(self, tmp_path, monkeypatch, writer, load, share):
        # share 1.0 stops one character short: the new text but its final newline.
        write_long, write_short = _WRITERS[writer]
        path, fresh = tmp_path / "out.json", tmp_path / "fresh.json"
        write_short(str(fresh))
        budget = min(int(share * fresh.stat().st_size), fresh.stat().st_size - 1)
        write_long(str(path))
        overwrite = serialization._overwrite

        @contextlib.contextmanager
        def failing(path):
            with overwrite(path) as fh:
                yield _FailingFile(fh, budget)

        monkeypatch.setattr(serialization, "_overwrite", failing)
        with pytest.raises(OSError, match="No space left on device"):
            write_short(str(path))
        assert path.read_bytes().endswith(b"\0")
        _assert_refused(path, load)
