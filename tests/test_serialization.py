import dataclasses
import json
import math
import re

import numpy as np
import pytest

from starprod import Scheme, SchemeParseError, ToleranceConfig, classify
from starprod.catalog import entries, mub_qubit_scheme, sic_qubit_scheme
from starprod.serialization import (
    _encode,
    json_to_matrix,
    json_to_vector,
    load_kernel,
    load_operator,
    load_scheme,
    load_vector,
    matrix_to_json,
    parse_scheme,
    save_kernel,
    save_operator,
    save_scheme,
    save_vector,
    serialize_scheme,
    vector_to_json,
    write_json,
)
from starprod.verification import CheckResult

from _helpers import random_complex

# Signed zeros, subnormals and the float range ends must survive every file format.
_EDGE = [-0.0, 5e-324, -2.2e-308, 1e308, -1e308, 0.0]


def _with_edges(values):
    values.real.flat[: len(_EDGE)] = _EDGE
    values.imag.flat[-len(_EDGE) :] = _EDGE
    return values


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64).tobytes()


class TestComplexEncoding:
    def test_matrix_round_trip_bit_exact(self, rng):
        m = random_complex(rng, (3, 4))
        assert np.array_equal(json_to_matrix(matrix_to_json(m)), m)

    def test_vector_round_trip_bit_exact(self, rng):
        v = random_complex(rng, 7)
        assert np.array_equal(json_to_vector(vector_to_json(v)), v)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(SchemeParseError, match="where: entries must be finite"):
            json_to_matrix([[[1.0, 0.0], [0.0, bad]]], where="where")
        with pytest.raises(SchemeParseError, match="where: entries must be finite"):
            json_to_vector([[1.0, 0.0], [bad, 0.0]], where="where")

    def test_bad_pair(self):
        with pytest.raises(SchemeParseError):
            json_to_matrix([[[1.0], [0.0, 0.0]]])
        with pytest.raises(SchemeParseError):
            json_to_matrix([[["a", 0.0], [0.0, 0.0]]])

    def test_ragged_rows(self):
        with pytest.raises(SchemeParseError):
            json_to_matrix([[[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])


class TestSchemeFiles:
    def test_round_trip_bit_exact_all_catalog(self):
        for entry in entries():
            s = entry.scheme
            back = parse_scheme(serialize_scheme(s))
            assert np.array_equal(back.dequantizers, s.dequantizers), entry.name
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
    def test_malformed_payloads(self, payload):
        with pytest.raises(SchemeParseError):
            parse_scheme(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", ["dequantizers", "quantizers"])
    def test_non_finite_entries(self, bad, family):
        payload = serialize_scheme(sic_qubit_scheme("povm"))
        payload["quantizers"] = payload["dequantizers"]
        payload[family][2][1][0] = [0.5, bad]
        with pytest.raises(SchemeParseError, match=rf"{family}\[2\]: entries must be finite"):
            parse_scheme(json.loads(json.dumps(payload)))

    def test_quantizer_count_mismatch(self):
        op = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(SchemeParseError):
            parse_scheme({"d": 2, "dequantizers": [op, op], "quantizers": [op]})

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


_PAIR = [0.5, -0.25]
_GOOD_VALUES = [[[_PAIR, _PAIR], [_PAIR, _PAIR]], [[_PAIR, _PAIR], [_PAIR, _PAIR]]]


def _kernel_payload(**changes):
    payload = {"d": 1, "n": 2, "values": _GOOD_VALUES}
    payload.update(changes)
    return payload


class TestKernelFileContract:
    def test_well_formed_payload_loads(self, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(_kernel_payload()))
        d, values = load_kernel(str(path))
        assert d == 1 and values.shape == (2, 2, 2)
        assert np.all(values == 0.5 - 0.25j)

    @pytest.mark.parametrize(
        "payload",
        [
            # ragged nesting
            _kernel_payload(values=[_GOOD_VALUES[0], [[_PAIR, _PAIR], [_PAIR]]]),
            _kernel_payload(values=[_GOOD_VALUES[0], [[_PAIR, _PAIR], [_PAIR, [0.5]]]]),
            # short nesting
            _kernel_payload(values=[[_PAIR, _PAIR], [_PAIR, _PAIR]]),
            _kernel_payload(values=[0.5, 0.5]),
            _kernel_payload(values=[]),
            _kernel_payload(values={"0": _GOOD_VALUES}),
        ],
        ids=["ragged-slice", "ragged-pair", "short-nesting", "flat", "empty", "object"],
    )
    def test_ragged_or_short_nesting(self, tmp_path, payload):
        self._assert_rejected(tmp_path, payload)

    @pytest.mark.parametrize("entry", ["0.5", None, {"re": 0.5}, [0.5]])
    def test_non_numeric_entries(self, tmp_path, entry):
        values = json.loads(json.dumps(_GOOD_VALUES))
        values[1][0][1][1] = entry
        self._assert_rejected(tmp_path, _kernel_payload(values=values))

    @pytest.mark.parametrize(
        "values",
        [
            [[[[0.5, 0.5, 0.5]] * 2] * 2] * 2,
            [[[_PAIR] * 3] * 2] * 2,
            [[[_PAIR] * 2] * 3] * 2,
            [[[[_PAIR, _PAIR]] * 2] * 2] * 2,
        ],
        ids=["triple", "wide-row", "tall-slice", "deep"],
    )
    def test_wrong_shape(self, tmp_path, values):
        self._assert_rejected(tmp_path, _kernel_payload(values=values))

    @pytest.mark.parametrize("d", ["x", None, 0, -2, 2.5, True, [2]])
    def test_bad_d(self, tmp_path, d):
        self._assert_rejected(tmp_path, _kernel_payload(d=d))

    @pytest.mark.parametrize("n", [1, 3, "2", None, True])
    def test_n_disagrees_with_values(self, tmp_path, n):
        self._assert_rejected(tmp_path, _kernel_payload(n=n))

    def test_missing_keys(self, tmp_path):
        self._assert_rejected(tmp_path, {"n": 2, "values": _GOOD_VALUES})
        self._assert_rejected(tmp_path, [_GOOD_VALUES])

    @staticmethod
    def _assert_rejected(tmp_path, payload):
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemeParseError, match=re.escape(str(path))):
            load_kernel(str(path))


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
        u = json_to_matrix(data["matrix_unit_like"])
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
        "tolerances": ToleranceConfig(rank_tol=1e-9),
        "checks": [
            CheckResult(
                name="check",
                passed=False,
                seconds=0.25,
                details={"worst": np.float64(np.inf), "n": np.int64(7)},
            )
        ],
    },
}


class TestWriteJson:
    """write_json writes the bytes of json.dump(..., indent=1) plus a newline."""

    @pytest.mark.parametrize("case", list(_WRITER_PAYLOADS))
    def test_matches_indented_dump(self, tmp_path, case):
        payload = _WRITER_PAYLOADS[case]
        path = tmp_path / "out.json"
        write_json(payload, str(path))
        assert path.read_bytes() == (json.dumps(_lists(payload), indent=1) + "\n").encode()

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
            "scheme": serialize_scheme(s),
            "operator": {"matrix": matrix_to_json(m)},
            "vector": {"values": vector_to_json(v), "scheme": s.name},
        }
        for name, path in paths.items():
            assert path.read_bytes() == (json.dumps(expected[name], indent=1) + "\n").encode(), name
