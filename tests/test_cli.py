import argparse
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from starprod import cli, errors, verification
from starprod.cli import main
from starprod.serialization import (
    _encode,
    load_kernel,
    load_operator,
    load_scheme,
    load_vector,
    save_operator,
    save_scheme,
    save_vector,
)
from starprod.catalog import (
    SCHEMES,
    build_scheme,
    entries,
    matrix_units_scheme,
    mub_prime_scheme,
    mub_qubit_scheme,
    pauli_scheme,
    sic_qubit_scheme,
)
from starprod.operator_space import devectorize
from starprod.scheme import (
    Scheme,
    dequantization_matrix,
    gauge_quantizers,
    scheme_from_dequantization_matrix,
    with_canonical_quantizers,
)
from starprod.star_product import (
    associativity_residual,
    cubic_unitary_residual,
    reconstruct,
    star_kernel,
    star_multiply,
)

from _helpers import conditioned_frame, random_complex


@pytest.fixture
def emit(tmp_path):
    def _emit(name, *flags):
        out = tmp_path / f"{name.replace(' ', '_')}_{len(list(tmp_path.iterdir()))}.json"
        code = main(["emit", name, *flags, "-o", str(out)])
        assert code == 0
        return out

    return _emit


class TestEmit:
    def test_sic_povm_effects_sum_to_identity(self, emit):
        s = load_scheme(str(emit("sic-qubit", "--normalization", "povm")))
        assert np.abs(s.dequantizers.sum(axis=0) - np.eye(2)).max() <= 1e-12

    def test_livine_matches_phase_space_quartet(self, emit):
        s = load_scheme(str(emit("livine")))
        expected = np.array([[2, 1 - 1j], [1 + 1j, 0]], dtype=complex) / 4
        assert np.abs(s.dequantizers[0] - expected).max() <= 1e-15
        assert np.array_equal(s.quantizers, 2 * s.dequantizers)

    def test_mub_prime_p3(self, emit):
        s = load_scheme(str(emit("mub-prime", "--p", "3")))
        assert (s.d, s.n_points) == (3, 12)

    def test_matrix_units_d3(self, emit):
        s = load_scheme(str(emit("matrix-units", "--d", "3")))
        assert np.array_equal(dequantization_matrix(s), np.eye(9))

    def test_wh_sic_default_fiducials(self, emit):
        for d in ("2", "3"):
            s = load_scheme(str(emit("wh-sic", "--d", d)))
            assert s.n_points == int(d) ** 2

    def test_random_povm_seeded(self, emit):
        a = load_scheme(str(emit("random-povm", "--seed", "5")))
        b = load_scheme(str(emit("random-povm", "--seed", "5")))
        assert np.array_equal(a.dequantizers, b.dequantizers)

    def test_unknown_scheme_exits_2(self, tmp_path):
        assert main(["emit", "nonesuch", "-o", str(tmp_path / "x.json")]) == 2

    def test_help_lists_every_scheme(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["emit", "--help"])
        lines = capsys.readouterr().out.splitlines()
        listed = [line.split()[0] for line in lines[lines.index(_SCHEME_HEADER) + 1 :]]
        assert listed == list(SCHEMES)

    def test_wh_sic_without_shipped_fiducial_exits_2(self, tmp_path, capsys):
        assert main(["emit", "wh-sic", "--d", "4", "-o", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "no fiducial shipped for d=4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["matrix-units", "random-povm"])
    def test_oversized_dimension_exits_2(self, tmp_path, capsys, name):
        # numpy rejects the size before it allocates anything.
        assert main(["emit", name, "--d", "100000", "-o", str(tmp_path / "x.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: array is too big") and err.count("\n") == 1
        assert not (tmp_path / "x.json").exists()


def _subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestToleranceFlags:
    def test_no_subcommand_takes_a_tolerance(self):
        subparsers = _subparsers()
        assert set(subparsers) == {
            "emit", "classify", "quantize", "symbol", "reconstruct", "kernel", "intertwine", "verify"
        }
        for name, sub in subparsers.items():
            flags = [flag for a in sub._actions for flag in a.option_strings]
            assert not [flag for flag in flags if flag.endswith("-tol")], name

    def test_a_tolerance_the_subcommand_does_not_read_is_refused(self, emit, tmp_path, capsys):
        scheme_path, out = emit("mub-prime", "--p", "3"), tmp_path / "k.json"
        with pytest.raises(SystemExit) as info:
            main(["kernel", str(scheme_path), "--eig-tol", "1e-9", "-o", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --eig-tol" in capsys.readouterr().err
        assert not out.exists()

    # No basis changes a classification, and the tolerances are fixed: these
    # flags are gone, so each is an argparse usage error.
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "{scheme}", "--basis", "pauli"],
            ["classify", "{scheme}", "--rank-tol", "1e-8"],
            ["quantize", "{scheme}", "-o", "{out}", "--residual-tol", "1e-8"],
            ["emit", "random-povm", "-o", "{out}", "--rank-tol", "1e-8"],
            ["verify", "--rank-tol", "1e-9"],
            ["verify", "--residual-tol", "0.5"],
            ["verify", "--eig-tol", "0.5"],
        ],
        ids=[
            "classify-basis",
            "classify-rank-tol",
            "quantize-residual-tol",
            "emit-rank-tol",
            "verify-rank-tol",
            "verify-residual-tol",
            "verify-eig-tol",
        ],
    )
    def test_a_knob_that_cannot_change_the_answer_is_refused(self, emit, tmp_path, capsys, argv):
        report, out = tmp_path / "r.json", tmp_path / "o.json"
        argv = [arg.format(scheme=emit("livine"), out=out) for arg in argv]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--report", str(report)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not report.exists() and not out.exists()


_SCHEME_HEADER = "schemes and the flags each takes (with defaults):"
_STOCK = [(name, params) for name, b in SCHEMES.items() for params, _ in b.stock]


@pytest.mark.parametrize(
    "index", range(len(_STOCK)), ids=[f"{name}-{params}" for name, params in _STOCK]
)
def test_emit_stock_parameters_writes_the_regression_entry(tmp_path, index):
    name, params = _STOCK[index]
    flags = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
    out, reference = tmp_path / "emit.json", tmp_path / "entry.json"
    assert main(["emit", name, *flags, "-o", str(out)]) == 0
    save_scheme(entries()[index].scheme, str(reference))
    assert out.read_bytes() == reference.read_bytes()


class TestClassify:
    def test_livine_report(self, emit, tmp_path, capsys):
        scheme_path = emit("livine")
        report_path = tmp_path / "livine.report.json"
        code = main(["classify", str(scheme_path), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "self-dual, c = 0.5" in out
        assert "NOT a POVM" in out
        report = json.loads(report_path.read_text())["report"]
        assert report["self_dual_coefficient"] == pytest.approx(0.5)
        assert report["povm"]["min_effect_eigenvalue"] == pytest.approx(
            (1 - np.sqrt(3)) / 4, abs=1e-12
        )

    def test_sic_povm_report(self, emit, tmp_path, capsys):
        scheme_path = emit("sic-qubit", "--normalization", "povm")
        code = main(["classify", str(scheme_path), "--report", str(tmp_path / "r.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "minimal, tomographic" in out
        assert "POVM: yes" in out
        assert "1.732050808" in out

    def test_underfilled_report(self, tmp_path, capsys):
        s = Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3], name="under")
        path = tmp_path / "under.json"
        save_scheme(s, str(path))
        code = main(["classify", str(path), "--report", str(tmp_path / "r.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "underfilled, not tomographic" in out
        assert "quantizers undefined" in out

    @pytest.mark.parametrize("phase", [1, 1j])
    def test_underfilled_with_quantizers_has_them(self, tmp_path, capsys, phase):
        # Quantizers i D are not Hermitian, so no negativity is reported; the
        # file still carries quantizers, Hermitian or not.
        deq = mub_qubit_scheme().dequantizers[:3]
        path = tmp_path / "under.json"
        save_scheme(Scheme(dequantizers=deq, quantizers=phase * deq, name="under"), str(path))
        assert main(["classify", str(path), "--report", str(tmp_path / "r.json")]) == 0
        out = capsys.readouterr().out
        assert "underfilled, not tomographic" in out
        assert "quantizers undefined" not in out
        assert ("min quantizer eigenvalue" in out) == (phase == 1)

    def test_report_names_no_basis(self, emit, tmp_path):
        report_path = tmp_path / "r.json"
        assert main(["classify", str(emit("livine")), "--report", str(report_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert list(payload) == ["tool", "version", "tolerances", "scheme", "report"]

    def test_default_report_path(self, emit, tmp_path, capsys):
        scheme_path = emit("pauli")
        assert main(["classify", str(scheme_path)]) == 0
        assert (tmp_path / (scheme_path.name + ".report.json")).exists()

    def test_basis_file_flag_is_gone(self, emit, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["classify", str(emit("livine")), "--basis-file", str(tmp_path / "b.json")])
        assert info.value.code == 2

    # Two self-dual families with c = 1: the row-stacking basis itself (the
    # matrix units E_ij, not Hermitian, so no negativity is reported) and the
    # Hermitian Pauli family.
    _SCALED_FAMILIES = {"rowstacking": lambda: matrix_units_scheme(2), "pauli": pauli_scheme}

    @classmethod
    def _scaled(cls, tmp_path, family, scale):
        path = tmp_path / "scaled.json"
        deq = scale * cls._SCALED_FAMILIES[family]().dequantizers
        save_scheme(Scheme(dequantizers=deq), str(path))
        return path

    @pytest.mark.parametrize("family", ["rowstacking", "pauli"])
    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_scale_inside_the_float_range(self, tmp_path, capsys, scale, family):
        report_path = tmp_path / "r.json"
        path = self._scaled(tmp_path, family, scale)
        assert main(["classify", str(path), "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        c = format(scale * scale, ".10g")
        assert f"self-dual, c = {c}\n" in out
        assert f"scaled unitary: U U^dag = c I with c = {c}\n" in out
        report = json.loads(report_path.read_text())["report"]
        assert report["self_dual_coefficient"] == pytest.approx(scale * scale, rel=1e-12)
        assert report["scaled_unitary"] == pytest.approx(scale * scale, rel=1e-12)
        if family == "rowstacking":
            assert "eigenvalue: " not in out
            assert report["negativity"] is None
            return
        # The hermiticity test is relative too: the dual's entries are ~1/scale.
        assert "min dequantizer eigenvalue: " in out and "min quantizer eigenvalue: " in out
        negativity = report["negativity"]
        assert negativity["min_dequantizer_eigenvalue"] == pytest.approx(-np.sqrt(0.5) * scale, rel=1e-12)
        assert negativity["min_quantizer_eigenvalue"] == pytest.approx(-np.sqrt(0.5) / scale, rel=1e-12)

    def test_rescaled_sic_stays_not_self_dual(self, tmp_path, capsys):
        # The self-duality residual is compared relative to the scheme's
        # largest entry, so a tiny scale does not make every family self-dual.
        path = tmp_path / "sic.json"
        save_scheme(Scheme(dequantizers=1e-20 * sic_qubit_scheme().dequantizers), str(path))
        assert main(["classify", str(path), "--report", str(tmp_path / "r.json")]) == 0
        out = capsys.readouterr().out
        assert "\nnot self-dual\n" in out
        assert "scaled unitary" not in out

    # At these scales the sums of squares the classification takes overflow
    # or underflow; unchecked, 1e154 gives c = inf (the invalid JSON token
    # Infinity) and 1e-154 a self-dual c = 0.
    @pytest.mark.parametrize("family", ["rowstacking", "pauli"])
    @pytest.mark.parametrize("scale", [1e154, 1e-154, 1e-170])
    def test_scale_outside_the_float_range_exits_2(self, tmp_path, capsys, scale, family):
        report_path = tmp_path / "r.json"
        path = self._scaled(tmp_path, family, scale)
        capsys.readouterr()
        assert main(["classify", str(path), "--report", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: scheme scale out of float64 range: ")
        assert captured.err.count("\n") == 1
        assert not report_path.exists()

    def test_malformed_scheme_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["classify", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["classify", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("command", ["classify", "kernel"])
    def test_non_finite_entry_exits_2(self, emit, tmp_path, capsys, command):
        path = emit("sic-qubit", "--normalization", "povm")
        payload = json.loads(path.read_text())
        payload["dequantizers"][1][0][0] = [float("nan"), 0.0]
        path.write_text(json.dumps(payload))
        argv = [command, str(path)] + (["-o", str(tmp_path / "k.json")] if command == "kernel" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert "Traceback" not in err


class TestQuantize:
    def test_sic_povm_duals(self, emit, tmp_path):
        scheme_path = emit("sic-qubit", "--normalization", "povm")
        out = tmp_path / "sic_q.json"
        assert main(["quantize", str(scheme_path), "-o", str(out)]) == 0
        s = load_scheme(str(out))
        expected = 3 * 2 * s.dequantizers - np.eye(2)  # 3 Pi - I with Pi = 2 U
        assert np.abs(s.quantizers - expected).max() <= 1e-12

    def test_mub_completeness(self, emit, tmp_path, capsys):
        scheme_path = emit("mub-qubit")
        out = tmp_path / "mub_q.json"
        assert main(["quantize", str(scheme_path), "-o", str(out)]) == 0
        assert "completeness residual" in capsys.readouterr().out
        s = load_scheme(str(out))
        assert s.quantizers is not None and s.n_points == 6
        # The printed residual is mirrored in a machine-readable report.
        report = json.loads((tmp_path / "mub_q.json.report.json").read_text())
        assert report["completeness_residual"] <= 1e-10

    def test_ill_conditioned_overfilled_completeness(self, tmp_path, capsys):
        # 9 x 12 frame with condition number 1e8: the SVD dual keeps the
        # residual near kappa * eps; normal equations, which square kappa,
        # leave a residual of order 1 here.
        s = scheme_from_dequantization_matrix(conditioned_frame(12, 1e8, seed=7))
        path = tmp_path / "frame.json"
        save_scheme(s, str(path))
        out = tmp_path / "frame_q.json"
        assert main(["quantize", str(path), "-o", str(out)]) == 0
        assert "completeness residual" in capsys.readouterr().out
        report = json.loads((tmp_path / "frame_q.json.report.json").read_text())
        assert report["completeness_residual"] <= 1e-7

    def test_underfilled_exits_1(self, tmp_path):
        s = Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3])
        path = tmp_path / "under.json"
        save_scheme(s, str(path))
        assert main(["quantize", str(path), "-o", str(tmp_path / "out.json")]) == 1

    def test_valid_gauge(self, emit, tmp_path):
        scheme_path = emit("mub-qubit")
        u = dequantization_matrix(load_scheme(str(scheme_path)))
        _, _, vh = np.linalg.svd(u)
        null = vh[-1].conj()
        g = np.outer(np.ones(4), null.conj())
        gauge_path = tmp_path / "gauge.json"
        gauge_path.write_text(json.dumps({"matrix": _encode(g)}))
        out = tmp_path / "gauged.json"
        code = main(["quantize", str(scheme_path), "--gauge", str(gauge_path), "-o", str(out)])
        assert code == 0

    def test_invalid_gauge_exits_1(self, emit, tmp_path, rng):
        scheme_path = emit("mub-qubit")
        g = rng.standard_normal((4, 6))
        gauge_path = tmp_path / "gauge.json"
        gauge_path.write_text(json.dumps({"matrix": _encode(g)}))
        code = main(
            [
                "quantize",
                str(scheme_path),
                "--gauge",
                str(gauge_path),
                "-o",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 1


class TestSymbolReconstruct:
    def test_symbol_of_matrix_unit(self, tmp_path):
        scheme_path = tmp_path / "mu.json"
        save_scheme(matrix_units_scheme(2), str(scheme_path))
        op_path = tmp_path / "op.json"
        save_operator(np.array([[1, 0], [0, 0]], dtype=complex), str(op_path))
        out = tmp_path / "symbol.json"
        assert main(["symbol", str(scheme_path), str(op_path), "-o", str(out)]) == 0
        assert np.array_equal(load_vector(str(out)), np.array([1, 0, 0, 0], dtype=complex))

    def test_round_trip_through_files(self, emit, tmp_path, rng):
        scheme_path = emit("mub-qubit")
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op_path = tmp_path / "op.json"
        save_operator(a, str(op_path))
        sym_path = tmp_path / "sym.json"
        assert main(["symbol", str(scheme_path), str(op_path), "-o", str(sym_path)]) == 0
        back_path = tmp_path / "back.json"
        assert (
            main(["reconstruct", str(scheme_path), str(sym_path), "-o", str(back_path)])
            == 0
        )
        assert np.abs(load_operator(str(back_path)) - a).max() <= 1e-10

    def test_wrong_length_symbol_exits_2(self, emit, tmp_path):
        scheme_path = emit("mub-qubit")
        sym_path = tmp_path / "sym.json"
        save_vector(np.zeros(5, dtype=complex), str(sym_path))
        code = main(
            ["reconstruct", str(scheme_path), str(sym_path), "-o", str(tmp_path / "o.json")]
        )
        assert code == 2

    def test_dimension_mismatch_exits_2(self, emit, tmp_path):
        scheme_path = emit("mub-qubit")
        op_path = tmp_path / "op3.json"
        save_operator(np.eye(3, dtype=complex), str(op_path))
        assert main(["symbol", str(scheme_path), str(op_path), "-o", str(tmp_path / "s.json")]) == 2


class TestNonFiniteInputs:
    """Operator, vector, gauge and fiducial files with NaN/inf entries are
    malformed input (exit 2), like scheme files."""

    @staticmethod
    def _poison(path, field, bad):
        payload = json.loads(path.read_text())
        entry = payload[field]
        while isinstance(entry[0][0], list):
            entry = entry[-1]
        entry[0] = [bad, 0.0]
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", ["operator", "symbol", "gauge", "fiducial"])
    def test_exits_2_without_output(self, emit, tmp_path, capsys, kind, bad):
        out = tmp_path / "out.json"
        bad_path = tmp_path / f"{kind}.json"
        if kind == "operator":
            save_operator(np.eye(2, dtype=complex), str(bad_path))
            self._poison(bad_path, "matrix", bad)
            argv = ["symbol", str(emit("mub-qubit")), str(bad_path), "-o", str(out)]
        elif kind == "symbol":
            save_vector(np.ones(6, dtype=complex), str(bad_path))
            self._poison(bad_path, "values", bad)
            argv = ["reconstruct", str(emit("mub-qubit")), str(bad_path), "-o", str(out)]
        elif kind == "gauge":
            bad_path.write_text(json.dumps({"matrix": _encode(np.zeros((4, 6)))}))
            self._poison(bad_path, "matrix", bad)
            argv = ["quantize", str(emit("mub-qubit")), "--gauge", str(bad_path), "-o", str(out)]
        else:
            save_vector(np.array([1, 0], dtype=complex), str(bad_path))
            self._poison(bad_path, "values", bad)
            argv = ["emit", "wh-sic", "--d", "2", "--fiducial", str(bad_path), "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "finite" in err and str(bad_path) in err
        assert "Traceback" not in err
        assert not out.exists()


_BIG = 10**400  # a JSON integer literal that neither a float nor a 64-bit integer holds
_MUB = mub_qubit_scheme()
_SCHEME = {
    "format": "starprod-scheme",
    "d": _MUB.d,
    "dequantizers": _encode(_MUB.dequantizers),
    "name": _MUB.name,
}
_BIG_ENTRY_SCHEME = json.loads(json.dumps(_SCHEME))
_BIG_ENTRY_SCHEME["dequantizers"][2][1][0] = [_BIG, 0]
_BOOL_ENTRY_SCHEME = json.loads(json.dumps(_SCHEME))
_BOOL_ENTRY_SCHEME["dequantizers"][2][1][0] = [True, 0]
_CLASSIFY = ["classify", "{scheme}", "--report", "{out}"]
_CLASSIFY_BAD = ["classify", "{bad}", "--report", "{out}"]
_SYMBOL_BAD = ["symbol", "{scheme}", "{bad}", "-o", "{out}"]
_RECONSTRUCT_BAD = ["reconstruct", "{scheme}", "{bad}", "-o", "{out}"]
_GAUGE_BAD = ["quantize", "{scheme}", "--gauge", "{bad}", "-o", "{out}"]
# A true or false entry is refused, alone or among numbers (which numpy would read as 1 or 0).
_NOT_A_NUMBER = "entries must be numbers, not true or false"

# id: (payload of the offending file or None, argv, fragment of the error message)
_MALFORMED = {
    "scheme-big-int": (_BIG_ENTRY_SCHEME, _CLASSIFY_BAD, "fit a float or a 64-bit integer"),
    "operator-big-int": (
        {"matrix": [[[_BIG, 0], [0, 0]], [[0, 0], [1, 0]]]},
        _SYMBOL_BAD,
        "fit a float or a 64-bit integer",
    ),
    "vector-big-int": (
        {"values": [[_BIG, 0]] + [[0, 0]] * 5},
        _RECONSTRUCT_BAD,
        "fit a float or a 64-bit integer",
    ),
    "gauge-big-int": (
        {"matrix": [[[_BIG, 0]] + [[0, 0]] * 5] * 4},
        _GAUGE_BAD,
        "fit a float or a 64-bit integer",
    ),
    "scheme-all-bool": (
        {**_SCHEME, "dequantizers": [[[[True, False]] * 2] * 2] * 6},
        _CLASSIFY_BAD,
        f"dequantizers: {_NOT_A_NUMBER}",
    ),
    "scheme-bool-entry": (_BOOL_ENTRY_SCHEME, _CLASSIFY_BAD, f"dequantizers: {_NOT_A_NUMBER}"),
    "operator-all-bool": ({"matrix": [[[True, False]] * 2] * 2}, _SYMBOL_BAD, f"matrix: {_NOT_A_NUMBER}"),
    "operator-bool-entry": (
        {"matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]},
        _SYMBOL_BAD,
        f"matrix: {_NOT_A_NUMBER}",
    ),
    "vector-all-bool": ({"values": [[False, True]] * 6}, _RECONSTRUCT_BAD, f"values: {_NOT_A_NUMBER}"),
    "vector-bool-entry": (
        {"values": [[1, 0]] * 5 + [[0, False]]},
        _RECONSTRUCT_BAD,
        f"values: {_NOT_A_NUMBER}",
    ),
    "gauge-all-bool": ({"matrix": [[[False, False]] * 6] * 4}, _GAUGE_BAD, f"matrix: {_NOT_A_NUMBER}"),
    "gauge-bool-entry": (
        {"matrix": [[[0.0, 0.0]] * 5 + [[0.0, True]]] * 4},
        _GAUGE_BAD,
        f"matrix: {_NOT_A_NUMBER}",
    ),
    "scheme-members-not-d-by-d": ({**_SCHEME, "d": 3}, _CLASSIFY_BAD, "expected 3x3 matrices"),
    "scheme-d-string": ({**_SCHEME, "d": "2"}, _CLASSIFY_BAD, "'d' must be a JSON integer"),
    "scheme-d-float": ({**_SCHEME, "d": 2.7}, _CLASSIFY_BAD, "'d' must be a JSON integer"),
    "scheme-d-bool": ({**_SCHEME, "d": True}, _CLASSIFY_BAD, "'d' must be a JSON integer"),
    "matrix-units-d0": (
        None,
        ["emit", "matrix-units", "--d", "0", "-o", "{out}"],
        "matrix units need d >= 1",
    ),
    "mub-prime-p4": (None, ["emit", "mub-prime", "--p", "4", "-o", "{out}"], "4 is not prime"),
    "mub-prime-p0": (None, ["emit", "mub-prime", "--p", "0", "-o", "{out}"], "0 is not prime"),
    # 2^89 - 1 is prime: refused by size before weeks of trial division.
    "mub-prime-p-huge": (
        None,
        ["emit", "mub-prime", "--p", str(2**89 - 1), "-o", "{out}"],
        "mub-prime: array is too big for p=618970019642690137449562111",
    ),
    "random-povm-seed-negative": (
        None,
        ["emit", "random-povm", "--d", "2", "--seed", "-1", "-o", "{out}"],
        "seeds must be non-negative",
    ),
    "mub-prime-d": (
        None,
        ["emit", "mub-prime", "--d", "5", "-o", "{out}"],
        "mub-prime takes --p; got --d",
    ),
    "pauli-seed": (
        None,
        ["emit", "pauli", "--seed", "9", "-o", "{out}"],
        "pauli takes --variant; got --seed",
    ),
    "pauli-variant-underscore": (
        None,
        ["emit", "pauli", "--variant", "with_i_sigma_y", "-o", "{out}"],
        "choose hermitian or with-i-sigma-y",
    ),
    "livine-normalization-underscore": (
        None,
        ["emit", "livine", "--normalization", "self_dual_normalized", "-o", "{out}"],
        "choose dequantizer or self-dual-normalized",
    ),
    "sic-qubit-normalization-unknown": (
        None,
        ["emit", "sic-qubit", "--normalization", "effect", "-o", "{out}"],
        "unknown sic normalization 'effect'",
    ),
    "mub-qubit-normalization": (
        None,
        ["emit", "mub-qubit", "--normalization", "povm", "-o", "{out}"],
        "mub-qubit takes no parameters; got --normalization",
    ),
}


# Well-formed files that the command refuses together with its other inputs:
# exit 2, with a message that names no file.  id: (payload of the file, argv, message)
_REFUSED_WITH_OTHER_INPUTS = {
    "wh-sic-d1": (
        {"values": [[1, 0]]},
        ["emit", "wh-sic", "--d", "1", "--fiducial", "{bad}", "-o", "{out}"],
        "dimension must be at least 2, got 1",
    ),
    "wh-sic-fiducial-length": (
        {"values": [[1, 0]]},
        ["emit", "wh-sic", "--d", "2", "--fiducial", "{bad}", "-o", "{out}"],
        "fiducial length 1 does not match d=2",
    ),
    "gauge-shape": (
        {"matrix": [[[0, 0]] * 5] * 4},
        _GAUGE_BAD,
        "gauge matrix shape (4, 5) does not match (4, 6)",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED_WITH_OTHER_INPUTS))
def test_file_refused_with_the_other_inputs_exits_2(tmp_path, capsys, case):
    payload, argv, message = _REFUSED_WITH_OTHER_INPUTS[case]
    paths = {name: tmp_path / f"{name}.json" for name in ("scheme", "bad", "out")}
    save_scheme(mub_qubit_scheme(), str(paths["scheme"]))
    paths["bad"].write_text(json.dumps(payload))
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    payload, argv, fragment = _MALFORMED[case]
    paths = {name: tmp_path / f"{name}.json" for name in ("scheme", "bad", "out")}
    save_scheme(mub_qubit_scheme(), str(paths["scheme"]))
    if payload is not None:
        paths["bad"].write_text(json.dumps(payload))
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    if payload is not None:
        assert f"error: {paths['bad']}: " in err
    assert "Traceback" not in err
    assert not paths["out"].exists()


# Every error class in starprod.errors, by the exit code main returns for it.
# The names are listed, not derived, so a new class fails the table test
# until it is placed on one side.
_EXIT_2_ERRORS = {
    "MalformedInputError",
    "SchemeParseError",
    "ScaleOutOfRangeError",
    "UnknownSchemeError",
    "InvalidParameterError",
    "DimensionMismatchError",
}
_EXIT_1_ERRORS = {
    "StarProdError",
    "NotTomographicError",
    "InvalidGaugeError",
    "NotUnitaryError",
    "NotSICError",
}


class TestExitCodes:
    @staticmethod
    def _main_raising(monkeypatch, tmp_path, exc):
        def build_scheme(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "build_scheme", build_scheme)
        out = tmp_path / "out.json"
        code = main(["emit", "pauli", "-o", str(out)])
        assert not out.exists()
        return code

    def test_every_error_class_has_one_exit_code(self):
        classes = {
            name
            for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.StarProdError)
        }
        assert _EXIT_2_ERRORS.isdisjoint(_EXIT_1_ERRORS)
        assert _EXIT_2_ERRORS | _EXIT_1_ERRORS == classes

    @pytest.mark.parametrize(
        "name, code",
        [(name, 2) for name in sorted(_EXIT_2_ERRORS)] + [(name, 1) for name in sorted(_EXIT_1_ERRORS)],
    )
    def test_main_exits_with_the_class_code(self, monkeypatch, tmp_path, capsys, name, code):
        message = f"{name} raised by the scheme builder"
        assert self._main_raising(monkeypatch, tmp_path, getattr(errors, name)(message)) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # Raise sites that share a class with other errors of their kind: each is
    # raised for real, then main must print its message and exit with the code
    # of its kind (2 for a bad shape or parameter, 1 for a gauge the scheme
    # cannot take).
    @pytest.mark.parametrize(
        "raise_it, message, code",
        [
            (lambda: mub_prime_scheme(4), "4 is not prime", 2),
            (
                lambda: reconstruct(matrix_units_scheme(2), np.zeros(3)),
                "symbol length 3 does not match scheme size N=4",
                2,
            ),
            (
                lambda: star_multiply(star_kernel(matrix_units_scheme(2)), np.zeros(3), np.zeros(4)),
                "symbol lengths (3, 4) do not match kernel size N=4",
                2,
            ),
            (lambda: devectorize(np.ones(5)), "vector length 5 is not a perfect square", 2),
            (lambda: devectorize(np.ones(0)), "vector length 0 holds no operator", 2),
            (
                lambda: cubic_unitary_residual(np.ones((2, 3))),
                "expected a square matrix, got shape (2, 3)",
                2,
            ),
            (
                lambda: gauge_quantizers(matrix_units_scheme(2), np.zeros((4, 4))),
                "N = 4 <= d^2 = 4: minimal schemes admit no gauge freedom",
                1,
            ),
        ],
        ids=[
            "not-prime",
            "symbol-length",
            "kernel-symbol-lengths",
            "not-square-length",
            "zero-length",
            "rectangular-matrix",
            "minimal-gauge",
        ],
    )
    def test_library_raise_site_exits_with_its_kind_code(
        self, monkeypatch, tmp_path, capsys, raise_it, message, code
    ):
        with pytest.raises(errors.StarProdError) as info:
            raise_it()
        assert str(info.value) == message
        assert self._main_raising(monkeypatch, tmp_path, info.value) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "exc, err",
        [
            (FileNotFoundError(2, "No such file or directory", "m.json"),
             "error: [Errno 2] No such file or directory: 'm.json'\n"),
            (MemoryError("Unable to allocate 74.5 GiB for an array with shape (100003, 100003)"),
             "error: Unable to allocate 74.5 GiB for an array with shape (100003, 100003)\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["OSError", "MemoryError", "MemoryError-empty"],
    )
    def test_os_and_memory_errors_exit_2(self, monkeypatch, tmp_path, capsys, exc, err):
        assert self._main_raising(monkeypatch, tmp_path, exc) == 2
        assert capsys.readouterr() == ("", err)


class TestKernel:
    def test_matrix_units_kernel(self, tmp_path, capsys):
        scheme_path = tmp_path / "mu.json"
        save_scheme(matrix_units_scheme(2), str(scheme_path))
        out = tmp_path / "kernel.json"
        assert main(["kernel", str(scheme_path), "--assoc-check", "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "associativity residual" in text
        d, values = load_kernel(str(out))
        assert d == 2 and values.shape == (4, 4, 4)
        assert json.loads(out.read_text())["associativity_residual"] <= 1e-12

    @staticmethod
    def _kernel_file(tmp_path, *flags):
        scheme_path = tmp_path / "mub3.json"
        save_scheme(build_scheme("mub-prime", p=3), str(scheme_path))
        out = tmp_path / "kernel.json"
        assert main(["kernel", str(scheme_path), *flags, "-o", str(out)]) == 0
        return load_scheme(str(scheme_path)), out

    def test_loaded_kernel_gives_the_written_associativity_residual(self, tmp_path):
        _, out = self._kernel_file(tmp_path, "--assoc-check")
        written = json.loads(out.read_text())["associativity_residual"]
        assert associativity_residual(load_kernel(str(out))) == written

    def test_loaded_kernel_multiplies_as_the_computed_one(self, tmp_path, rng):
        s, out = self._kernel_file(tmp_path)
        f, g = random_complex(rng, (2, s.n_points))
        got = star_multiply(load_kernel(str(out)), f, g)
        expected = star_multiply(star_kernel(with_canonical_quantizers(s)), f, g)
        assert got.tobytes() == expected.tobytes()

    def test_underfilled_exits_1(self, tmp_path):
        s = Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3])
        path = tmp_path / "under.json"
        save_scheme(s, str(path))
        assert main(["kernel", str(path), "-o", str(tmp_path / "k.json")]) == 1

    @staticmethod
    def _scaled_mub_prime(tmp_path, scale):
        path = tmp_path / "scaled.json"
        save_scheme(Scheme(dequantizers=scale * build_scheme("mub-prime", p=3).dequantizers), str(path))
        return path

    # Unchecked, the quantizer products overflow to inf and NaN: numpy warns,
    # the command exits 0 and writes NaN tokens that load_kernel rejects.
    @pytest.mark.parametrize("assoc", [[], ["--assoc-check"]])
    def test_overflowing_scale_exits_2(self, tmp_path, capsys, assoc):
        path = self._scaled_mub_prime(tmp_path, 1e-160)
        out = tmp_path / "k.json"
        assert main(["kernel", str(path), "-o", str(out), *assoc]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scheme scale out of float64 range: the kernel entries overflow; rescale the scheme\n"
        )
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_kernel_entries_near_overflow_pass_the_associativity_check(self, tmp_path, capsys):
        # Attached quantizers 1e100 x the matrix units give kernel entries of
        # 1e200, whose products would overflow; the check runs on K / max|K|.
        units = matrix_units_scheme(2).dequantizers
        path = tmp_path / "big.json"
        save_scheme(Scheme(dequantizers=units, quantizers=1e100 * units), str(path))
        out = tmp_path / "k.json"
        assert main(["kernel", str(path), "-o", str(out), "--assoc-check"]) == 0
        assert "associativity residual: 0.000e+00" in capsys.readouterr().out
        assert json.loads(out.read_text())["associativity_residual"] == 0.0
        _, values = load_kernel(str(out))
        assert values.tobytes() == star_kernel(with_canonical_quantizers(load_scheme(str(path)))).values.tobytes()

    def test_all_zero_kernel_has_zero_residual(self, tmp_path, capsys):
        units = matrix_units_scheme(2).dequantizers
        path = tmp_path / "zero.json"
        save_scheme(Scheme(dequantizers=units, quantizers=0 * units), str(path))
        out = tmp_path / "k.json"
        assert main(["kernel", str(path), "-o", str(out), "--assoc-check"]) == 0
        assert "associativity residual: 0.000e+00" in capsys.readouterr().out
        assert json.loads(out.read_text())["associativity_residual"] == 0.0

    # x 1e154 is the largest power of ten below the underflow check.  There
    # the products D_x D_y behind K's entries are subnormal and keep fewer
    # digits, so the residual reads about 6e-15.
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e154])
    def test_scale_inside_the_float_range(self, tmp_path, capsys, scale):
        path = self._scaled_mub_prime(tmp_path, scale)
        out = tmp_path / "k.json"
        assert main(["kernel", str(path), "-o", str(out), "--assoc-check"]) == 0
        # The residual is relative to max|K|^2: the same at every scale.
        bound = 1e-13 if scale == 1e154 else 1e-14
        printed = re.search(r"associativity residual: (\S+)", capsys.readouterr().out)
        assert float(printed[1]) <= bound
        assert json.loads(out.read_text())["associativity_residual"] <= bound
        _, values = load_kernel(str(out))
        assert np.array_equal(values, star_kernel(with_canonical_quantizers(load_scheme(str(path)))).values)
        reference = star_kernel(with_canonical_quantizers(build_scheme("mub-prime", p=3))).values
        assert np.abs(scale * values - reference).max() <= 1e-14 * np.abs(reference).max()

    # Quantizers scale as 1 / c, so their products D_x D_y leave the normal
    # range first; unchecked, the command exits 0 with a kernel that has lost
    # its digits (all zero at x 1e200).
    @pytest.mark.parametrize("scale", [1e155, 1e200], ids="x{:g}".format)
    def test_underflowing_scale_exits_2(self, tmp_path, capsys, scale):
        path = self._scaled_mub_prime(tmp_path, scale)
        out = tmp_path / "k.json"
        assert main(["kernel", str(path), "-o", str(out), "--assoc-check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scheme scale out of float64 range: the kernel entries underflow; rescale the scheme\n"
        )
        assert not out.exists()


class TestIntertwine:
    @staticmethod
    def _scaled(tmp_path, name, scale):
        path = tmp_path / f"{name}.json"
        save_scheme(Scheme(dequantizers=scale * build_scheme(name).dequantizers), str(path))
        return str(path)

    # Unchecked, the backward kernel overflows to inf, the round trip leaks a
    # RuntimeWarning, and the command exits 0 with a NaN residual.
    @pytest.mark.parametrize("scale", [1e160, 1e200], ids="x{:g}".format)
    def test_scales_too_far_apart_exit_2(self, tmp_path, capsys, scale):
        a, b = self._scaled(tmp_path, "pauli", scale), self._scaled(tmp_path, "mub-qubit", 1 / scale)
        op_path = tmp_path / "op.json"
        save_operator(np.eye(2, dtype=complex), str(op_path))
        report_path = tmp_path / "inter.json"
        assert main(["intertwine", a, b, str(op_path), "--report", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scheme scale out of float64 range: the intertwining kernel overflows; "
            "rescale the scheme\n"
        )
        assert not report_path.exists()

    def test_roundtrip_residual_overflow_exit_2(self, tmp_path, capsys):
        # Both kernels are finite, but the round trip of the symbol of 1e160 I
        # through Pauli x 1e160 leaves the float64 range.
        a = tmp_path / "source.json"
        save_scheme(build_scheme("pauli"), str(a))
        b = self._scaled(tmp_path, "pauli", 1e160)
        op_path = tmp_path / "op.json"
        save_operator(1e160 * np.eye(2, dtype=complex), str(op_path))
        report_path = tmp_path / "inter.json"
        assert main(["intertwine", str(a), b, str(op_path), "--report", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scheme scale out of float64 range: the round-trip residual overflows; "
            "rescale the scheme\n"
        )
        assert not report_path.exists()

    def test_scales_inside_the_float_range(self, tmp_path, capsys, rng):
        a, b = self._scaled(tmp_path, "pauli", 1e100), self._scaled(tmp_path, "mub-qubit", 1e-100)
        op_path = tmp_path / "op.json"
        save_operator(random_complex(rng, (2, 2)), str(op_path))
        report_path = tmp_path / "inter.json"
        assert main(["intertwine", a, b, str(op_path), "--report", str(report_path)]) == 0
        # The residual is relative to max|f_a|: the same at every scale.
        printed = re.search(r"symbol round-trip residual: (\S+)", capsys.readouterr().out)
        assert float(printed[1]) <= 1e-14
        assert json.loads(report_path.read_text())["roundtrip_residual"] <= 1e-14

    def test_zero_symbol_has_zero_residual(self, emit, tmp_path, capsys):
        p1 = emit("pauli")
        op_path = tmp_path / "op.json"
        save_operator(np.zeros((2, 2), dtype=complex), str(op_path))
        report_path = tmp_path / "inter.json"
        assert main(["intertwine", str(p1), str(p1), str(op_path), "--report", str(report_path)]) == 0
        assert "symbol round-trip residual: 0.000e+00" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["roundtrip_residual"] == 0.0

    def test_pauli_to_pauli_identity(self, emit, tmp_path, rng):
        p1 = emit("pauli")
        op_path = tmp_path / "op.json"
        save_operator(rng.standard_normal((2, 2)).astype(complex), str(op_path))
        report_path = tmp_path / "inter.json"
        code = main(
            ["intertwine", str(p1), str(p1), str(op_path), "--report", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        forward = np.array(
            [[complex(re, im) for re, im in row] for row in report["forward"]]
        )
        assert np.abs(forward - np.eye(4)).max() <= 1e-12
        assert report["roundtrip_residual"] <= 1e-12

    def test_dimension_mismatch_exits_2(self, emit, tmp_path):
        a = emit("pauli")
        b = emit("mub-prime", "--p", "3")
        op_path = tmp_path / "op.json"
        save_operator(np.eye(2, dtype=complex), str(op_path))
        assert main(["intertwine", str(a), str(b), str(op_path)]) == 2


# Unchecked, every call but the kernel one exits 0 after an overflow: numpy
# warns and the written files hold null tokens that the readers reject.  The
# kernel call prints those warnings before its error line.
_OVERFLOWING_CALLS = {
    "symbol": ("pauli", 1e160, ["symbol", "{scheme}", "{big_operator}", "-o", "{out}"]),
    "quantize": ("pauli", 1e-310, ["quantize", "{scheme}", "-o", "{out}"]),
    "reconstruct": ("pauli", 1e-160, ["reconstruct", "{scheme}", "{big_symbol}", "-o", "{out}"]),
    "reconstruct-subnormal": (
        "pauli", 1e-310, ["reconstruct", "{scheme}", "{symbol}", "-o", "{out}"]
    ),
    "quantize-subnormal-mub": ("mub-prime", 1e-310, ["quantize", "{scheme}", "-o", "{out}"]),
    "kernel": ("pauli", 1e-310, ["kernel", "{scheme}", "--assoc-check", "-o", "{out}"]),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_CALLS))
def test_overflowing_scale_exits_2_with_one_error_line(tmp_path, capsys, case):
    name, scale, argv = _OVERFLOWING_CALLS[case]
    params = {"p": 3} if name == "mub-prime" else {}
    keys = ("scheme", "big_operator", "big_symbol", "symbol")
    paths = {key: str(tmp_path / f"{key}.json") for key in keys}
    s = build_scheme(name, **params)
    save_scheme(Scheme(dequantizers=scale * s.dequantizers), paths["scheme"])
    save_operator(1e160 * np.eye(s.d), paths["big_operator"])
    save_vector(np.eye(s.n_points)[0] * 1e200, paths["big_symbol"])
    save_vector(np.eye(s.n_points)[0], paths["symbol"])
    inputs = set(tmp_path.iterdir())
    code = main([arg.format(out=tmp_path / "out.json", **paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: scheme scale out of float64 range: ")
    assert captured.err.count("\n") == 1
    assert "Warning" not in captured.err
    assert set(tmp_path.iterdir()) == inputs


class TestVerify:
    def test_table_suite(self, tmp_path, capsys):
        report_path = tmp_path / "verify.json"
        code = main(["verify", "--suite", "table", "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS table-rows-1-3" in out
        assert "PASS table-rows-4-6" in out
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        assert all(
            isinstance(c["seconds"], float) and c["seconds"] >= 0.0 for c in payload["checks"]
        )
        assert {c["name"] for c in payload["checks"]} == {
            "table-rows-1-3",
            "table-rows-4-6",
        }

    def test_report_records_the_tolerances_the_battery_ran_at(self, tmp_path):
        report_path = tmp_path / "verify.json"
        assert main(["verify", "--suite", "table", "--report", str(report_path)]) == 0
        tolerances = json.loads(report_path.read_text())["tolerances"]
        assert tolerances == {"rank_tol": 1e-10, "residual_tol": 1e-10, "eig_tol": 1e-10}

    def test_failing_check_exits_1(self, tmp_path, capsys, monkeypatch):
        gates = {"max_residual": {"test": "<=", "bound": 1e-12, "margin": 2e-12}}
        failing = verification.CheckResult(
            name="table-rows-1-3", passed=False, details={"max_residual": 0.5, "gates": gates}
        )
        monkeypatch.setattr(verification, "check_table_printed_rows", lambda: failing)
        report_path = tmp_path / "verify.json"
        assert main(["verify", "--suite", "table", "--report", str(report_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL table-rows-1-3 (max_residual=5.000e-01, least_margin=2.000e-12)\n" in out
        assert "PASS table-rows-4-6" in out
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is False
        assert [c["passed"] for c in payload["checks"]] == [False, True]

    def test_each_line_ends_with_the_least_margin_of_its_report(self, tmp_path, capsys):
        report_path = tmp_path / "verify.json"
        argv = ["verify", "--suite", "propositions", "--seeds", "10", "--report", str(report_path)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        checks = json.loads(report_path.read_text())["checks"]
        assert [c["name"] for c in checks] == [line.split()[1] for line in lines[:-1]]
        for check, line in zip(checks, lines):
            gates = check["details"]["gates"]
            assert gates, check["name"]
            # A zero residual's margin is inf, which the report writes as null.
            margins = [g["margin"] for g in gates.values() if g["test"] == "<="]
            margins = [math.inf if m is None else m for m in margins]
            if margins:
                assert line.endswith(f", least_margin={min(margins):.3e})"), line
            else:
                assert "least_margin" not in line, line
        livine = checks[0]["details"]
        assert livine["coefficient_residual"] == 0.0
        assert livine["gates"]["coefficient_residual"]["margin"] is None

    def test_random_povm_suite_small(self, tmp_path):
        report_path = tmp_path / "verify.json"
        code = main(
            ["verify", "--suite", "random-povm", "--seeds", "25", "--report", str(report_path)]
        )
        assert code == 0
        checks = json.loads(report_path.read_text())["checks"]
        assert checks[0]["details"]["seeds"] == 25

    def test_reports_are_deterministic(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--suite", "propositions", "--seeds", "10", "--report", str(r1)]) == 0
        assert main(["verify", "--suite", "propositions", "--seeds", "10", "--report", str(r2)]) == 0
        # Everything but the per-check wall times is identical.
        reports = [json.loads(r.read_text()) for r in (r1, r2)]
        for report in reports:
            for check in report["checks"]:
                assert check.pop("seconds") >= 0.0
        assert reports[0] == reports[1]

    def test_seed_count_for_a_suite_without_samples_exits_2(self, tmp_path, capsys):
        report_path = tmp_path / "verify.json"
        assert main(["verify", "--suite", "table", "--seeds", "5", "--report", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: suite 'table' draws no samples, so it takes no seed count\n"
        )
        assert not report_path.exists()

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_vacuous_seed_count_exits_2(self, tmp_path, capsys, seeds):
        # Refused for every suite, before any check runs.
        report_path = tmp_path / "verify.json"
        for suite in ("random-povm", "table", "all"):
            argv = ["verify", "--suite", suite, "--seeds", seeds, "--report", str(report_path)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "seeds must be at least 1" in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == ""
            assert not report_path.exists()


class TestWrittenFiles:
    def test_every_file_but_a_kernel_is_the_indented_dump(self, emit, tmp_path, rng):
        mub, units = emit("mub-qubit"), emit("matrix-units")
        sic = emit("sic-qubit", "--normalization", "povm")
        emit("random-povm", "--d", "3", "--seed", "4")
        op, gauge = tmp_path / "op.json", tmp_path / "gauge.json"
        save_operator(random_complex(rng, (2, 2)), str(op))
        _, _, vh = np.linalg.svd(dequantization_matrix(load_scheme(str(mub))))
        save_operator(np.outer(np.ones(4), vh[-1]), str(gauge))
        q, f = tmp_path / "q.json", tmp_path / "f.json"
        calls = [
            ["classify", str(mub), "--report", str(tmp_path / "mub.report.json")],
            ["classify", str(units), "--report", str(tmp_path / "units.report.json")],
            ["quantize", str(mub), "-o", str(q), "--report", str(tmp_path / "q.report.json")],
            ["quantize", str(mub), "--gauge", str(gauge), "-o", str(tmp_path / "qg.json"),
             "--report", str(tmp_path / "qg.report.json")],
            ["symbol", str(q), str(op), "-o", str(f)],
            ["reconstruct", str(q), str(f), "-o", str(tmp_path / "a.json")],
            ["intertwine", str(sic), str(mub), str(op), "--report", str(tmp_path / "i.json")],
            ["verify", "--suite", "table", "--report", str(tmp_path / "v.report.json")],
        ]
        for argv in calls:
            assert main(argv) == 0, argv
        written = sorted(tmp_path.glob("*.json"))
        assert len(written) == 16
        for path in written:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=1) + "\n", path.name


# Each output form as the arguments before its path.
_OUTPUT_FORMS = {
    "emit": ["emit", "pauli", "-o"],
    "kernel": ["kernel", "{scheme}", "-o"],
    "classify-report": ["classify", "{scheme}", "--report"],
}


class TestUnwritableOutput:
    """An output path that cannot be opened for writing exits 2 with the
    error line open(path, "w") gives, and the command writes nothing else."""

    @pytest.fixture
    def run(self, tmp_path, capsys):
        scheme = tmp_path / "pauli.json"
        save_scheme(pauli_scheme(), str(scheme))

        def _run(form, out):
            code = main([arg.format(scheme=scheme) for arg in _OUTPUT_FORMS[form]] + [str(out)])
            return code, capsys.readouterr().err

        return _run

    @pytest.mark.parametrize("form", list(_OUTPUT_FORMS))
    def test_missing_directory(self, tmp_path, run, form):
        out = tmp_path / "missing" / "out.json"
        assert run(form, out) == (2, f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert not out.parent.exists()

    @pytest.mark.parametrize("form", list(_OUTPUT_FORMS))
    def test_directory(self, tmp_path, run, form):
        out = tmp_path / "dir"
        out.mkdir()
        assert run(form, out) == (2, f"error: [Errno 21] Is a directory: '{out}'\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("form", list(_OUTPUT_FORMS))
    def test_read_only_file(self, tmp_path, run, form):
        out = tmp_path / "ro.json"
        out.write_text("old\n")
        out.chmod(0o444)
        code, err = run(form, out)
        if os.access(out, os.W_OK):
            # Run as root, which open(path, "w") lets write a read-only file too.
            assert (code, err) == (0, "")
            assert out.read_text() != "old\n"
        else:
            assert (code, err) == (2, f"error: [Errno 13] Permission denied: '{out}'\n")
            assert out.read_text() == "old\n"


class TestDerivedReportPath:
    """A default report path is derived only beside a regular file: beside
    anything else (here a link to /dev/null, or a FIFO) the command exits 2
    before it prints or writes, and asks for --report."""

    @staticmethod
    def _refused(beside):
        return f"error: no report beside {beside}, not a regular file; give --report\n"

    def test_quantize_to_a_device(self, emit, tmp_path, capsys):
        scheme = emit("pauli")
        link = tmp_path / "null.json"
        link.symlink_to(os.devnull)
        capsys.readouterr()
        assert main(["quantize", str(scheme), "-o", str(link)]) == 2
        assert capsys.readouterr() == ("", self._refused(link))
        assert not (tmp_path / "null.json.report.json").exists()
        report = tmp_path / "qr.json"
        assert main(["quantize", str(scheme), "-o", str(link), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["completeness_residual"] <= 1e-12

    def test_classify_from_a_fifo(self, emit, tmp_path, capsys):
        text = emit("pauli").read_text()
        fifo = tmp_path / "scheme.fifo"
        capsys.readouterr()

        def classify(*flags):
            os.mkfifo(fifo)
            writer = threading.Thread(target=lambda: fifo.write_text(text), daemon=True)
            writer.start()
            code = main(["classify", str(fifo), *flags])
            writer.join(timeout=10)
            assert not writer.is_alive()
            fifo.unlink()
            return code

        assert classify() == 2
        assert capsys.readouterr() == ("", self._refused(fifo))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pauli_0.json"]
        assert classify("--report", str(tmp_path / "c.json")) == 0
        assert json.loads((tmp_path / "c.json").read_text())["report"]["cardinality"] == "minimal"


class TestParserReuse:
    def test_calls_in_one_process_share_no_state(self, emit, tmp_path):
        fresh = tmp_path / "fresh.json"
        save_scheme(build_scheme("random-povm"), str(fresh))
        seeded, plain = emit("random-povm", "--seed", "3"), emit("random-povm")
        assert seeded.read_bytes() != fresh.read_bytes()
        assert plain.read_bytes() == fresh.read_bytes()
        # An argparse usage error exits through SystemExit and leaves the parser usable.
        with pytest.raises(SystemExit) as exc:
            main(["emit", "random-povm", "-o", str(tmp_path / "x.json"), "--seed"])
        assert exc.value.code == 2
        assert emit("random-povm").read_bytes() == fresh.read_bytes()
        assert cli._parser() is cli._parser()

    def test_emit_flags_do_not_carry_over(self, emit):
        assert load_scheme(str(emit("mub-prime", "--p", "5"))).d == 5
        assert load_scheme(str(emit("mub-prime"))).d == 3


class TestEntryPoint:
    def test_console_script_version(self):
        result = subprocess.run(
            [sys.executable, "-m", "starprod.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "starprod" in result.stdout
