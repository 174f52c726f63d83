import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from starprod import (
    InvalidParameterError,
    NotSICError,
    UnknownSchemeError,
    canonical_quantizers,
    catalog,
    classify,
    dequantization_matrix,
    singular_values,
    symbol,
)
from starprod.catalog import (
    SCHEMES,
    build_scheme,
    default_fiducial,
    displacement_orbit,
    entries,
    livine_scheme,
    matrix_units_scheme,
    mub_prime_scheme,
    mub_qubit_scheme,
    pauli_scheme,
    quantization_matrix,
    random_minimal_povm_scheme,
    random_minimal_povms,
    sic_qubit_scheme,
    table_regression_set,
    wh_sic_scheme,
)


def pauli_block(s):
    """Dequantization matrix of s in the Pauli basis: column k holds the
    symbols of the k-th dequantizer in the Pauli scheme."""
    return symbol(pauli_scheme(), s.dequantizers).T


class TestMatrixUnits:
    def test_identity_matrices(self):
        assert np.array_equal(dequantization_matrix(matrix_units_scheme(2)), np.eye(4))
        assert np.array_equal(dequantization_matrix(matrix_units_scheme(3)), np.eye(9))

    def test_pauli_basis_matrix(self):
        expected = (
            np.array(
                [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]],
                dtype=complex,
            )
            / np.sqrt(2)
        )
        u = pauli_block(matrix_units_scheme(2))
        assert np.abs(u - expected).max() <= 1e-14


class TestPauliScheme:
    def test_variant_matrices(self):
        assert np.abs(
            pauli_block(pauli_scheme("hermitian")) - np.eye(4)
        ).max() <= 1e-14
        u = pauli_block(pauli_scheme("with-i-sigma-y"))
        assert np.abs(u - np.diag([1, 1, 1j, 1])).max() <= 1e-14

    def test_unknown_variant(self):
        # The library takes the CLI spelling only.
        for variant in ("bogus", "with_i_sigma_y"):
            with pytest.raises(InvalidParameterError, match="choose hermitian or with-i-sigma-y"):
                pauli_scheme(variant)


class TestLivineScheme:
    def test_first_dequantizer(self):
        expected = np.array([[2, 1 - 1j], [1 + 1j, 0]], dtype=complex) / 4
        assert np.abs(livine_scheme().dequantizers[0] - expected).max() <= 1e-15

    def test_quantizers_are_doubled(self):
        s = livine_scheme("dequantizer")
        assert np.array_equal(s.quantizers, 2 * s.dequantizers)

    def test_self_dual_normalized(self):
        s = livine_scheme("self-dual-normalized")
        assert np.array_equal(s.dequantizers, s.quantizers)
        u = pauli_block(s)
        expected = (
            np.array(
                [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
                dtype=complex,
            )
            / 2
        )
        assert np.abs(u - expected).max() <= 1e-14

    def test_quantizer_matrix_row_stacking(self):
        expected = (
            np.array(
                [
                    [2, 0, 0, 2],
                    [1 - 1j, 1 + 1j, -1 - 1j, -1 + 1j],
                    [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j],
                    [0, 2, 2, 0],
                ],
                dtype=complex,
            )
            / 2
        )
        assert np.abs(quantization_matrix(livine_scheme()) - expected).max() <= 1e-15

    def test_unknown_normalization(self):
        for normalization in ("bogus", "self_dual_normalized"):
            with pytest.raises(
                InvalidParameterError, match="choose dequantizer or self-dual-normalized"
            ):
                livine_scheme(normalization)


class TestSicQubit:
    def test_projector_first_column(self):
        u = dequantization_matrix(sic_qubit_scheme("projector"))
        s3 = np.sqrt(3)
        expected = np.array([s3 + 1, 1 - 1j, 1 + 1j, s3 - 1]) / (2 * s3)
        assert np.abs(u[:, 0] - expected).max() <= 1e-14

    def test_projector_gram(self):
        projs = sic_qubit_scheme("projector").dequantizers
        gram = np.einsum("kab,lab->kl", projs.conj(), projs).real
        assert np.abs(gram - (2 * np.eye(4) + 1) / 3).max() <= 1e-14

    def test_effect_gram(self):
        effects = sic_qubit_scheme("povm").dequantizers
        gram = np.einsum("kab,lab->kl", effects.conj(), effects)
        off = gram[~np.eye(4, dtype=bool)]
        assert np.abs(off - 1 / 12).max() <= 1e-14

    def test_povm_positivity_boundary(self):
        diag = classify(sic_qubit_scheme("povm")).povm
        assert diag.is_povm
        assert abs(diag.min_effect_eigenvalue) <= 1e-12


class TestMubQubit:
    def test_first_columns(self):
        u = dequantization_matrix(mub_qubit_scheme())
        assert np.array_equal(u[:, 0], np.array([1, 0, 0, 0], dtype=complex))
        assert np.array_equal(u[:, 1], np.array([0, 0, 0, 1], dtype=complex))
        assert np.abs(u[:, 2] - np.array([1, 1, 1, 1]) / 2).max() <= 1e-15

    def test_unbiasedness(self):
        projs = mub_qubit_scheme().dequantizers
        # Tr[P Q] = |<a|b>|^2 for rank-1 projectors; 12 cross-basis pairs.
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                for i in range(2):
                    for j in range(2):
                        overlap = np.trace(projs[2 * a + i] @ projs[2 * b + j]).real
                        assert abs(overlap - 0.5) <= 1e-14


class TestWeylHeisenberg:
    @staticmethod
    def _shift_and_clock(d):
        """X e_j = e_(j+1 mod d) and Z = diag(1, w, ..., w^(d-1)), w = exp(2 pi i / d)."""
        x = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        z = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
        return x, z

    @classmethod
    def _orbit_by_matrix_powers(cls, psi):
        d = psi.size
        x, z = cls._shift_and_clock(d)
        power = np.linalg.matrix_power
        return np.array([power(x, a) @ power(z, b) @ psi for a in range(d) for b in range(d)])

    # The reference's X and Z are the Weyl-Heisenberg pair: ZX = wXZ.
    def test_clock_shift_commutation(self):
        for d in (2, 3, 5):
            x, z = self._shift_and_clock(d)
            omega = np.exp(2j * np.pi / d)
            assert np.abs(z @ x - omega * x @ z).max() <= 1e-13

    @pytest.mark.parametrize("d", range(2, 9))
    def test_displacement_orbit_matches_matrix_powers(self, d, rng):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        orbit = displacement_orbit(psi)
        assert orbit.shape == (d * d, d)
        assert np.abs(orbit - self._orbit_by_matrix_powers(psi)).max() <= 1e-15

    # The shipped fiducials' orbits, and so the wh-sic schemes, keep their bytes.
    @pytest.mark.parametrize("d", [2, 3])
    def test_displacement_orbit_of_shipped_fiducials_is_bit_identical(self, d):
        psi = default_fiducial(d)
        assert displacement_orbit(psi).tobytes() == self._orbit_by_matrix_powers(psi).tobytes()

    def test_d2_orbit_reproduces_tetrahedron(self):
        orbit = wh_sic_scheme(2, default_fiducial(2)).dequantizers
        reference = sic_qubit_scheme("projector").dequantizers
        # Projectors are phase-free; match as sets.
        matched = set()
        for p in orbit:
            hits = [
                i
                for i, q in enumerate(reference)
                if i not in matched and np.abs(p - q).max() <= 1e-12
            ]
            assert hits, "orbit projector not in the tetrahedron"
            matched.add(hits[0])
        assert matched == {0, 1, 2, 3}

    def test_d2_gram(self):
        projs = wh_sic_scheme(2, default_fiducial(2)).dequantizers
        gram = np.einsum("kab,lab->kl", projs.conj(), projs).real
        assert np.abs(gram - (2 * np.eye(4) + 1) / 3).max() <= 1e-12

    def test_d3_gram_with_shipped_fiducial(self):
        projs = wh_sic_scheme(3, default_fiducial(3)).dequantizers
        gram = np.einsum("kab,lab->kl", projs.conj(), projs).real
        assert np.abs(gram - (3 * np.eye(9) + 1) / 4).max() <= 1e-9

    def test_basis_vector_fiducial_rejected(self):
        with pytest.raises(NotSICError):
            wh_sic_scheme(2, np.array([1, 0], dtype=complex))

    def test_unnormalized_fiducial_rejected(self):
        with pytest.raises(ValueError):
            wh_sic_scheme(2, np.array([1, 1], dtype=complex))

    def test_nan_fiducial_rejected(self):
        # The norm and overlap tests let a NaN through; the scheme refuses it.
        with pytest.raises(InvalidParameterError, match=r"^dequantizers\[0\]: entries must be finite"):
            wh_sic_scheme(2, np.array([np.nan, 1.0]))

    def test_no_shipped_fiducial(self):
        with pytest.raises(ValueError):
            default_fiducial(4)

    @staticmethod
    def _fiducial_script():
        pytest.importorskip("scipy")
        path = Path(__file__).parents[1] / "scripts" / "find_sic_fiducial.py"
        spec = importlib.util.spec_from_file_location("find_sic_fiducial", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script

    def test_fiducial_search_orbit_matches_wh_sic(self):
        script = self._fiducial_script()
        orbit = script.displacement_orbit(default_fiducial(3))
        projectors = np.stack([np.outer(v, v.conj()) for v in orbit])
        assert np.array_equal(projectors, wh_sic_scheme(3, default_fiducial(3)).dequantizers)

    def test_fiducial_script_writes_the_shipped_file(self, tmp_path, monkeypatch):
        # The search itself is left out: another scipy may find another
        # fiducial of the same orbit.  The shipped vector and deviation are
        # written back byte for byte.
        script = self._fiducial_script()
        shipped = Path(__file__).parents[1] / "src" / "starprod" / "data" / "sic_fiducial_d3.json"
        deviation = json.loads(shipped.read_text())["max_gram_deviation"]
        monkeypatch.setattr(script, "search", lambda d, seed: (default_fiducial(3), deviation))
        out = tmp_path / "fiducial.json"
        monkeypatch.setattr(sys, "argv", ["find_sic_fiducial.py", "-d", "3", "--seed", "7", "-o", str(out)])
        script.main()
        assert out.read_bytes() == shipped.read_bytes()


class TestMubPrime:
    def test_p2_matches_qubit_scheme(self):
        a = mub_prime_scheme(2).dequantizers
        b = mub_qubit_scheme().dequantizers
        assert np.array_equal(a, b)

    def test_p3_overlaps(self):
        s = mub_prime_scheme(3)
        assert s.n_points == 12
        report = classify(s)
        assert report.rank == 9
        projs = s.dequantizers
        count = 0
        for a in range(4):
            for b in range(a + 1, 4):
                for i in range(3):
                    for j in range(3):
                        overlap = np.trace(projs[3 * a + i] @ projs[3 * b + j]).real
                        assert abs(overlap - 1 / 3) <= 1e-12
                        count += 1
        assert count == 54

    def test_rejects_non_prime(self):
        with pytest.raises(InvalidParameterError, match=re.escape("4 is not prime")):
            mub_prime_scheme(4)
        with pytest.raises(InvalidParameterError, match=re.escape("1 is not prime")):
            mub_prime_scheme(1)

    def test_non_prime_is_an_invalid_parameter(self):
        # The CLI maps InvalidParameterError to exit 2 (malformed input).
        with pytest.raises(InvalidParameterError, match="0 is not prime"):
            mub_prime_scheme(0)

    def test_frame_singular_values(self):
        sv2 = singular_values(dequantization_matrix(mub_prime_scheme(2)))
        assert np.abs(sv2 - np.array([np.sqrt(3), 1, 1, 1])).max() <= 1e-12
        for p in (3, 5):
            sv = singular_values(dequantization_matrix(mub_prime_scheme(p)))
            assert abs(sv[0] - np.sqrt(p + 1)) <= 1e-9
            assert abs(sv[p * p - 1] - 1.0) <= 1e-9
            assert np.abs(sv[1 : p * p - 1] - 1.0).max() <= 1e-9


class TestRandomPovmSampler:
    def test_construction_guarantees(self):
        for seed in (0, 1, 12345):
            s = random_minimal_povm_scheme(2, seed)
            report = classify(s)
            assert report.povm.sum_residual <= 1e-12
            assert report.povm.min_effect_eigenvalue >= -1e-12
            assert report.cardinality == "minimal"
            assert report.tomographic

    def test_seed_reproducibility(self):
        a = random_minimal_povm_scheme(2, 42)
        b = random_minimal_povm_scheme(2, 42)
        assert np.array_equal(a.dequantizers, b.dequantizers)
        c = random_minimal_povm_scheme(2, 43)
        assert not np.array_equal(a.dequantizers, c.dequantizers)

    def test_d3_works(self):
        s = random_minimal_povm_scheme(3, 0)
        assert (s.d, s.n_points) == (3, 9)
        assert classify(s).povm.sum_residual <= 1e-12

    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_non_positive_dimension(self, d):
        with pytest.raises(InvalidParameterError, match="dimension must be positive"):
            random_minimal_povm_scheme(d, 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_seed_list(self, d):
        dequantizers = random_minimal_povms(d, [])
        assert dequantizers.shape == canonical_quantizers(dequantizers).shape == (0, d * d, d, d)

    @pytest.mark.parametrize("seed", [1.5, np.float64(2.0), "3"], ids=repr)
    def test_rejects_a_seed_that_is_not_an_integer(self, monkeypatch, seed):
        def draw(*args):
            raise AssertionError("drew before checking the seeds")

        monkeypatch.setattr(catalog, "_povm_draw", draw)
        message = rf"seeds must be integers, got {re.escape(repr(seed))}$"
        with pytest.raises(InvalidParameterError, match=message):
            random_minimal_povm_scheme(2, seed)
        with pytest.raises(InvalidParameterError, match=message):
            random_minimal_povms(2, [0, seed, -1])

    @pytest.mark.parametrize("seed, value", [(np.int64(5), 5), (np.uint32(7), 7), (True, 1)])
    def test_integer_like_seed_draws_like_the_equal_int(self, seed, value):
        expected = random_minimal_povms(2, [value])
        assert random_minimal_povms(2, [seed]).tobytes() == expected.tobytes()
        scheme = random_minimal_povm_scheme(2, seed)
        assert scheme.dequantizers.tobytes() == expected[0].tobytes()
        assert scheme.name == f"random-povm-d2-seed{value}"

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidParameterError, match="seeds must be non-negative, got -1"):
            random_minimal_povm_scheme(2, -1)
        with pytest.raises(InvalidParameterError, match="got -3"):
            random_minimal_povms(2, [4, -3, 0])


class TestSchemeRegistry:
    def test_unknown_name(self):
        with pytest.raises(UnknownSchemeError, match="unknown built-in scheme 'nonesuch'"):
            build_scheme("nonesuch")

    def test_override_replaces_default(self):
        assert build_scheme("mub-prime").name == "mub-prime-3"
        assert build_scheme("mub-prime", p=5).name == "mub-prime-5"
        s = build_scheme("random-povm", seed=4)
        assert np.array_equal(s.dequantizers, random_minimal_povm_scheme(2, 4).dequantizers)

    def test_parameter_the_scheme_does_not_take(self):
        with pytest.raises(InvalidParameterError, match="mub-prime takes --p; got --d"):
            build_scheme("mub-prime", d=5)
        with pytest.raises(InvalidParameterError, match="mub-qubit takes no parameters"):
            build_scheme("mub-qubit", normalization="povm")

    def test_entries_follow_the_stock_parameters(self):
        stock = [(name, params) for name, b in SCHEMES.items() for params, _ in b.stock]
        regression = entries()
        assert len(regression) == len(stock)
        for entry, (name, params) in zip(regression, stock):
            assert entry.scheme.name == build_scheme(name, **params).name


class TestEntriesRegression:
    def test_every_entry_matches_expected_fragments(self):
        for entry in entries():
            report = classify(entry.scheme)
            for key, expected in entry.expected.items():
                if key == "is_povm":
                    actual = report.povm.is_povm
                elif key == "min_dequantizer_eigenvalue":
                    assert report.negativity is not None, entry.scheme.name
                    actual = report.negativity.min_dequantizer_eigenvalue
                elif key == "min_quantizer_eigenvalue":
                    assert report.negativity is not None, entry.scheme.name
                    actual = report.negativity.min_quantizer_eigenvalue
                else:
                    actual = getattr(report, key)
                if expected is None or isinstance(expected, (bool, str)):
                    assert actual == expected, f"{entry.scheme.name}.{key}"
                else:
                    assert actual == pytest.approx(expected, abs=1e-9), f"{entry.scheme.name}.{key}"

    def test_livine_fails_positivity(self):
        report = classify(livine_scheme())
        assert report.povm.min_effect_eigenvalue == pytest.approx(
            (1 - np.sqrt(3)) / 4, abs=1e-12
        )


class TestTableRegression:
    def test_printed_rows_frozen_here(self):
        # Anchor rows 1-2 against literals kept in this test file so the
        # catalog data cannot drift silently.
        rows = table_regression_set()
        assert np.array_equal(rows[0].expected_rowstacking, np.eye(4, dtype=complex))
        row2_left = (
            np.array(
                [[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]],
                dtype=complex,
            )
            / np.sqrt(2)
        )
        assert np.abs(rows[1].expected_rowstacking - row2_left).max() == 0
        assert np.array_equal(rows[1].expected_pauli, np.eye(4, dtype=complex))

    def test_generated_matches_expected(self):
        for row in table_regression_set():
            assert (
                np.abs(row.generated_rowstacking - row.expected_rowstacking).max() <= 1e-12
            ), f"row {row.row} rowstacking"
            assert (
                np.abs(row.generated_pauli - row.expected_pauli).max() <= 1e-12
            ), f"row {row.row} pauli"

    def test_errata_cover_rows_4_to_6(self):
        rows = table_regression_set()
        assert all(not row.errata for row in rows[:3])
        flagged = {e.row for row in rows[3:] for e in row.errata}
        assert flagged == {4, 5, 6}

    def test_entries_are_catalog_entries(self):
        for row in table_regression_set():
            assert row.generated_rowstacking.shape[0] == 4

    def test_rows_keep_their_numbers_and_names(self):
        rows = table_regression_set()
        assert [(row.row, row.name) for row in rows] == [
            (1, "matrix-units"),
            (2, "pauli"),
            (3, "pauli-isy"),
            (4, "livine"),
            (5, "sic-qubit"),
            (6, "mub-qubit"),
        ]

    def test_generated_blocks_equal_the_constructor_path(self):
        deq = dequantization_matrix
        # Row 4's left block shows livine's quantizers (2x the dequantizers).
        direct = [
            (deq(matrix_units_scheme(2)), pauli_block(matrix_units_scheme(2))),
            (deq(pauli_scheme("hermitian")), pauli_block(pauli_scheme("hermitian"))),
            (deq(pauli_scheme("with-i-sigma-y")), pauli_block(pauli_scheme("with-i-sigma-y"))),
            (
                quantization_matrix(livine_scheme()),
                pauli_block(livine_scheme("self-dual-normalized")),
            ),
            (deq(sic_qubit_scheme("projector")), pauli_block(sic_qubit_scheme("projector"))),
            (deq(mub_qubit_scheme()), pauli_block(mub_qubit_scheme())),
        ]
        rows = table_regression_set()
        for row, (expected_left, expected_right) in zip(rows, direct, strict=True):
            assert row.generated_rowstacking.tobytes() == expected_left.tobytes(), row.name
            assert row.generated_pauli.tobytes() == expected_right.tobytes(), row.name
