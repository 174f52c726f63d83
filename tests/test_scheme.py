import re

import numpy as np
import pytest

from starprod import (
    DimensionMismatchError,
    InvalidGaugeError,
    InvalidParameterError,
    NotTomographicError,
    Scheme,
    canonical_quantizers,
    classify,
    completeness_residual,
    dequantization_matrix,
    gauge_quantizers,
    intertwiner,
    lowest_eigenvalues,
    quantization_matrix,
    scaled_unitary_check,
    scheme_from_dequantization_matrix,
    self_dual_coefficients,
    with_canonical_quantizers,
)
from starprod.catalog import (
    SCHEMES,
    build_scheme,
    entries,
    livine_scheme,
    matrix_units_scheme,
    mub_qubit_scheme,
    pauli_scheme,
    random_minimal_povm_scheme,
    sic_qubit_scheme,
)
from starprod import matrixcore
from starprod.operator_space import PAULI_X, PAULI_Y, PAULI_Z
from starprod.star_product import reconstruct, star_kernel, symbol
from starprod.verification import haar_unitaries

from _helpers import conditioned_frame, random_complex, self_dual_reference, tight_frame

# (d, N) of the overfilled tight frames: N > d^2 and U U^dag = c I.
TIGHT_FRAME_SIZES = [(2, 7), (3, 14)]

TETRAHEDRON = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]) / np.sqrt(3)


def bloch_projectors():
    return np.stack(
        [
            (np.eye(2) + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z) / 2
            for n in TETRAHEDRON
        ]
    )


class TestSchemeType:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            Scheme(dequantizers=np.zeros((3, 2, 3)))
        with pytest.raises(DimensionMismatchError):
            Scheme(dequantizers=np.zeros((3, 2, 2)), quantizers=np.zeros((2, 2, 2)))

    def test_callers_arrays_stay_writeable(self):
        deq, qs = np.zeros((4, 2, 2), complex), np.zeros((4, 2, 2), complex)
        s = Scheme(deq, qs)
        assert deq.flags.writeable and qs.flags.writeable
        assert not s.dequantizers.flags.writeable and not s.quantizers.flags.writeable

    def test_later_writes_to_the_callers_arrays_do_not_reach_the_scheme(self):
        deq = pauli_scheme().dequantizers.copy()
        s = Scheme(deq, 2 * deq)
        qs_before = s.quantizers.copy()
        deq[2, 0, 0] = np.nan
        assert np.isfinite(s.dequantizers).all()
        assert classify(s).tomographic
        assert np.array_equal(s.quantizers, qs_before)

    def test_with_quantizers_shares_the_checked_dequantizers(self):
        s = with_canonical_quantizers(pauli_scheme())
        t = s.with_quantizers(2 * s.quantizers)
        assert t.dequantizers is s.dequantizers
        assert t.name == s.name and np.array_equal(t.quantizers, 2 * s.quantizers)
        assert not t.quantizers.flags.writeable
        assert s.with_quantizers(None).quantizers is None
        assert np.array_equal(s.quantizers, t.quantizers / 2)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (np.nan, InvalidParameterError, r"^quantizers\[2\]: entries must be finite \(NaN or inf found\)$"),
            (np.inf, InvalidParameterError, r"^quantizers\[2\]: entries must be finite \(NaN or inf found\)$"),
            (None, DimensionMismatchError,
             r"^quantizers shape \(3, 2, 2\) does not match dequantizers \(4, 2, 2\)$"),
        ],
        ids=["nan", "inf", "shape"],
    )
    def test_with_quantizers_refuses_a_bad_family(self, bad, error, message):
        s = pauli_scheme()
        qs = s.dequantizers.copy()
        if bad is None:
            qs = qs[:3]
        else:
            qs[2, 1, 0] = bad
        with pytest.raises(error, match=message):
            s.with_quantizers(qs)
        with pytest.raises(error, match=message):
            Scheme(s.dequantizers, qs)

    def test_later_writes_to_the_attached_quantizers_do_not_reach_the_scheme(self):
        s = pauli_scheme()
        qs = s.dequantizers.copy()
        t = s.with_quantizers(qs)
        qs[2, 0, 0] = np.nan
        assert np.isfinite(t.quantizers).all()
        assert np.array_equal(t.quantizers, s.dequantizers)

    @pytest.mark.parametrize("name", [5, b"pauli", ["pauli"]], ids=repr)
    def test_name_that_is_not_a_string_refused(self, name):
        with pytest.raises(InvalidParameterError, match=r"^name must be a string, got "):
            Scheme(pauli_scheme().dequantizers, name=name)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Scheme(np.empty((0, 2, 2))),
            lambda: Scheme(np.empty((3, 0, 0))),
            lambda: scheme_from_dequantization_matrix(np.zeros((4, 0))),
        ],
        ids=["no-members", "d-zero", "matrix-without-columns"],
    )
    def test_empty_family_refused(self, build):
        with pytest.raises(DimensionMismatchError, match="non-empty"):
            build()

    def test_dimensions(self):
        s = mub_qubit_scheme()
        assert (s.d, s.n_points) == (2, 6)


# Every function that reads quantizers, as a function of the scheme alone.
_QUANTIZER_READERS = {
    "quantization_matrix": quantization_matrix,
    "intertwiner": lambda s: intertwiner(s, s),
    "completeness_residual": completeness_residual,
    "reconstruct": lambda s: reconstruct(s, np.arange(s.n_points) - 1j),
    "star_kernel": lambda s: star_kernel(s).values,
}


@pytest.mark.parametrize("read", list(_QUANTIZER_READERS.values()), ids=list(_QUANTIZER_READERS))
class TestBareSchemeMeansCanonicalDual:
    @pytest.mark.parametrize(
        "build",
        [mub_qubit_scheme, lambda: Scheme(random_complex(np.random.default_rng(25), (7, 2, 2)))],
        ids=["mub-qubit", "ginibre-overfilled"],
    )
    def test_bare_scheme_reads_the_canonical_dual(self, read, build):
        s = build()
        bare, quantized = read(s), read(with_canonical_quantizers(s))
        if bare is None or quantized is None:
            assert bare is quantized
        else:
            assert np.asarray(bare).tobytes() == np.asarray(quantized).tobytes()

    def test_underfilled_bare_scheme_raises(self, read):
        with pytest.raises(NotTomographicError, match="rank 3 < d\\^2 = 4"):
            read(Scheme(mub_qubit_scheme().dequantizers[:3]))


class TestDequantizationMatrix:
    def test_matrix_units_row_stacking(self):
        assert np.array_equal(dequantization_matrix(matrix_units_scheme(2)), np.eye(4))

    def test_pauli_scheme_pauli_basis(self):
        # Coordinates in the Pauli basis are symbols of the Pauli scheme.
        pauli = pauli_scheme("hermitian")
        u = symbol(pauli, pauli.dequantizers).T
        assert np.abs(u - np.eye(4)).max() <= 1e-14

    def test_pauli_scheme_row_stacking(self):
        expected = (
            np.array(
                [[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]],
                dtype=complex,
            )
            / np.sqrt(2)
        )
        u = dequantization_matrix(pauli_scheme("hermitian"))
        assert np.abs(u - expected).max() <= 1e-14

    def test_basis_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            symbol(pauli_scheme(), matrix_units_scheme(3).dequantizers)

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormal_basis_matches_per_operator_loop(self, rng, d):
        # d = 2: the Pauli basis; d = 3: a seeded random orthonormal basis,
        # the columns of a Haar unitary in row stacking.
        if d == 2:
            basis = pauli_scheme()
        else:
            basis = scheme_from_dequantization_matrix(
                haar_unitaries(rng.standard_normal((2, d * d, d * d)))
            )
        s = Scheme(dequantizers=random_complex(rng, (2 * d * d, d, d)))
        loop = np.column_stack([symbol(basis, op) for op in s.dequantizers])
        assert np.abs(symbol(basis, s.dequantizers).T - loop).max() <= 1e-15


class TestCanonicalQuantizers:
    def test_matrix_units_self_dual(self):
        s = matrix_units_scheme(2)
        qs = canonical_quantizers(s.dequantizers)
        assert np.abs(qs - s.dequantizers).max() <= 1e-14

    def test_sic_povm_duals(self):
        # Independent oracle: D_k = 3 Pi_k - I satisfies Tr[U_k D_k'] = delta
        # because Tr[Pi_k Pi_k'] = (2 delta + 1)/3.
        projs = bloch_projectors()
        expected = 3 * projs - np.eye(2)
        bio = np.einsum("kab,lab->kl", (projs / 2).conj(), expected)
        assert np.abs(bio - np.eye(4)).max() <= 1e-14
        qs = canonical_quantizers(sic_qubit_scheme("povm").dequantizers)
        assert np.abs(qs - expected).max() <= 1e-12

    def test_livine_duals_are_doubled(self):
        s = livine_scheme("dequantizer")
        qs = canonical_quantizers(s.dequantizers)
        assert np.abs(qs - 2 * s.dequantizers).max() <= 1e-13

    def test_underfilled_raises(self):
        with pytest.raises(NotTomographicError):
            canonical_quantizers(mub_qubit_scheme().dequantizers[:3])

    def test_overfilled_pseudoinverse_completeness(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        assert completeness_residual(s) <= 1e-10


class TestCanonicalQuantizerStacks:
    @pytest.mark.parametrize("d, n", [(2, 4), (3, 9), (2, 7), (3, 14)])
    def test_stack_matches_per_family(self, rng, d, n):
        # Random Ginibre families: N = d^2 is minimal, larger N overfilled.
        families = random_complex(rng, (2, 3, n, d, d))
        duals = canonical_quantizers(families)
        assert duals.shape == families.shape
        expected = np.array([[canonical_quantizers(f) for f in row] for row in families])
        assert np.abs(duals - expected).max() <= 1e-13

    def test_rank_deficient_member_raises(self, rng):
        families = random_complex(rng, (3, 4, 2, 2))
        families[2, 3] = families[2, 0]
        with pytest.raises(NotTomographicError, match="rank 3 < d\\^2 = 4"):
            canonical_quantizers(families)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            canonical_quantizers(np.zeros((4, 2, 3)))

    def test_empty_stack(self):
        assert canonical_quantizers(np.zeros((0, 4, 2, 2))).shape == (0, 4, 2, 2)


class TestDualAccuracy:
    """The SVD dual loses accuracy in proportion to kappa, not kappa squared
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 20)."""

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("n", [9, 12, 18])
    def test_residuals_scale_with_condition_number(self, n, kappa):
        s = scheme_from_dequantization_matrix(conditioned_frame(n, kappa, seed=7))
        assert abs(classify(s).condition_number / kappa - 1) <= 1e-6
        s = with_canonical_quantizers(s)
        bound = 10 * kappa * np.finfo(float).eps
        assert completeness_residual(s) <= bound
        ops = np.stack(
            [haar_unitaries(np.random.default_rng(k).standard_normal((2, 3, 3))) for k in range(8)]
        )
        assert np.abs(reconstruct(s, symbol(s, ops)) - ops).max() <= bound

    @pytest.mark.parametrize("factor", [0.1, 0.5, 2.0, 10.0])
    def test_rank_rule_shared_at_tolerance(self, factor):
        # sigma_min / sigma_max = RANK_TOL / factor straddles the rank rule.
        u = conditioned_frame(12, factor / matrixcore.RANK_TOL, seed=7)
        s = scheme_from_dequantization_matrix(u)
        try:
            canonical_quantizers(s.dequantizers)
            dual_defined = True
        except NotTomographicError:
            dual_defined = False
        assert classify(s).tomographic == dual_defined == (factor < 1)


class TestGaugeQuantizers:
    def test_zero_gauge_is_identity(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        qs = gauge_quantizers(s, np.zeros((4, 6)))
        assert np.abs(qs - s.quantizers).max() <= 1e-14

    def test_null_vector_gauge_preserves_completeness(self, rng):
        s = mub_qubit_scheme()
        u = dequantization_matrix(s)
        # Brute-force kernel vector of the 4x6 matrix via SVD.
        _, sv, vh = np.linalg.svd(u)
        null = vh[-1].conj()
        assert np.abs(u @ null).max() <= 1e-12
        w = random_complex(rng, 4)
        g = np.outer(w, null.conj())
        shifted = gauge_quantizers(s, g)
        assert completeness_residual(s.with_quantizers(shifted)) <= 1e-10
        assert np.abs(shifted - canonical_quantizers(s.dequantizers)).max() > 1e-3

    def test_invalid_gauge_rejected(self, rng):
        s = mub_qubit_scheme()
        g = random_complex(rng, (4, 6))
        with pytest.raises(InvalidGaugeError):
            gauge_quantizers(s, g)

    def test_minimal_scheme_rejected(self):
        message = "N = 4 <= d^2 = 4: minimal schemes admit no gauge freedom"
        with pytest.raises(InvalidGaugeError, match=re.escape(message)):
            gauge_quantizers(livine_scheme(), np.zeros((4, 4)))

    # The gauge test is relative to max|U| max|G|, so rescaling the scheme
    # changes neither verdict; an absolute test refuses the null gauge at x 1e8.
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_verdicts_do_not_change_when_the_scheme_is_rescaled(self, rng, scale):
        s = mub_qubit_scheme()
        _, _, vh = np.linalg.svd(dequantization_matrix(s))
        null_gauge = np.outer(random_complex(rng, 4), vh[-1])
        scaled = Scheme(dequantizers=scale * s.dequantizers)
        shifted = gauge_quantizers(scaled, null_gauge)
        assert np.abs(shifted - canonical_quantizers(scaled.dequantizers)).max() > 1e-3
        with pytest.raises(InvalidGaugeError):
            gauge_quantizers(scaled, random_complex(rng, (4, 6)))

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("factor, valid", [(10.0, False), (0.1, True)])
    def test_near_miss_at_the_relative_gate(self, rng, c, factor, valid):
        # U = c U0 and G = (G0 + delta e r) / c, with G0 a null gauge and r = vh[0]
        # U0's top right singular vector: U G^dag = delta sigma_0 w_0 e^dag, and
        # delta puts its largest entry at factor * RESIDUAL_TOL * max|U| max|G|.
        u0 = dequantization_matrix(mub_qubit_scheme())
        w, sv, vh = np.linalg.svd(u0)
        g0, e = np.outer(random_complex(rng, 4), vh[-1]), random_complex(rng, 4)
        bound = matrixcore.RESIDUAL_TOL * np.abs(u0).max() * np.abs(g0).max()
        delta = factor * bound / (sv[0] * np.abs(w[:, 0]).max() * np.abs(e).max())
        s = scheme_from_dequantization_matrix(c * u0)
        g = (g0 + delta * np.outer(e, vh[0])) / c
        violation = np.abs(c * u0 @ g.conj().T).max() / (np.abs(c * u0).max() * np.abs(g).max())
        assert violation == pytest.approx(factor * matrixcore.RESIDUAL_TOL, rel=1e-3)
        if valid:
            assert completeness_residual(s.with_quantizers(gauge_quantizers(s, g))) <= 1e-9
        else:
            with pytest.raises(InvalidGaugeError):
                gauge_quantizers(s, g)


class TestDualityMatrix:
    def test_matrix_units(self):
        s = matrix_units_scheme(2)
        assert np.abs(intertwiner(s, s) - np.eye(4)).max() <= 1e-14

    def test_sic_minimal_is_kronecker(self):
        s = with_canonical_quantizers(sic_qubit_scheme("povm"))
        assert np.abs(intertwiner(s, s) - np.eye(4)).max() <= 1e-12

    def test_mub_projector(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        delta = intertwiner(s, s)
        assert np.abs(delta - delta.conj().T).max() <= 1e-10
        assert np.abs(delta @ delta - delta).max() <= 1e-10
        assert abs(np.trace(delta) - 4) <= 1e-10


class TestSelfDualCoefficient:
    def test_matrix_units(self):
        assert classify(matrix_units_scheme(2)).self_dual_coefficient == pytest.approx(1.0)

    def test_livine(self):
        assert classify(livine_scheme()).self_dual_coefficient == pytest.approx(0.5, abs=1e-14)

    def test_mub_not_self_dual(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        assert classify(s).self_dual_coefficient is None

    # Quantizers far from the dequantizers' scale: each family's norm is taken
    # after dividing it by a power of two, so no square overflows or
    # underflows (tier-1 makes numpy's warnings errors) and c keeps its digits.
    @pytest.mark.parametrize("scale", [1e200, 1e300, 1e-300])
    def test_quantizers_far_from_the_dequantizers_scale(self, scale):
        s = with_canonical_quantizers(pauli_scheme())
        c = classify(s.with_quantizers(scale * s.quantizers)).self_dual_coefficient
        assert c == pytest.approx(1 / scale, rel=1e-12)

    def test_one_quantizer_entry_at_the_top_of_the_range(self):
        s = with_canonical_quantizers(pauli_scheme())
        quantizers = s.quantizers.copy()
        quantizers[0, 0, 0] = 1e308
        report = classify(s.with_quantizers(quantizers))
        assert report.self_dual_coefficient is None
        assert report.negativity.min_quantizer_eigenvalue == pytest.approx(-np.sqrt(0.5), rel=1e-12)

    def test_stack_matches_per_family(self, rng):
        # Scaled-unitary families are self-dual; Ginibre families are not.
        coefficients = rng.uniform(0.1, 10.0, size=6)
        u = np.sqrt(coefficients)[:, None, None] * haar_unitaries(rng.standard_normal((6, 2, 4, 4)))
        deq = u.swapaxes(1, 2).reshape(6, 4, 2, 2)
        deq[::3] = random_complex(rng, (2, 4, 2, 2))
        duals = canonical_quantizers(deq)
        stacked = self_dual_coefficients(deq.reshape(2, 3, 4, 2, 2), duals.reshape(2, 3, 4, 2, 2))
        assert stacked.shape == (2, 3)
        for c, family, dual in zip(stacked.reshape(-1), deq, duals):
            reference = self_dual_reference(family, dual)
            assert (reference is None) if np.isnan(c) else (reference == c)
        self_dual = np.arange(6) % 3 != 0
        assert np.isnan(stacked.reshape(-1)[~self_dual]).all()
        assert np.allclose(stacked.reshape(-1)[self_dual], coefficients[self_dual], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("factor, self_dual", [(10.0, False), (0.1, True)])
    def test_near_miss_at_the_relative_gate(self, c, factor, self_dual):
        # The Pauli family scaled by c, with its duals P / c: U = c^2 D.  Turning
        # one largest-|U| entry of D by an angle keeps both norms, so c^2 stays
        # the estimate and that entry's residual is factor * RESIDUAL_TOL * max|U|.
        deq = c * pauli_scheme().dequantizers
        quantizers = deq / c**2
        k, i, j = np.unravel_index(np.abs(deq).argmax(), deq.shape)
        quantizers[k, i, j] *= np.exp(2j * np.arcsin(factor * matrixcore.RESIDUAL_TOL / 2))
        coefficient = self_dual_coefficients(deq, quantizers)
        if self_dual:
            assert coefficient == pytest.approx(c**2, rel=1e-12)
        else:
            assert np.isnan(coefficient)


class TestScaledUnitaryCheck:
    def test_identity(self):
        assert scaled_unitary_check(np.eye(4)) == pytest.approx(1.0)

    def test_livine_matrix(self):
        u = dequantization_matrix(livine_scheme())
        assert scaled_unitary_check(u) == pytest.approx(0.5, abs=1e-14)

    def test_sic_matrix_is_not(self):
        assert scaled_unitary_check(dequantization_matrix(sic_qubit_scheme("povm"))) is None

    def test_zero_matrix_is_not(self):
        # c would be 0, which no scaled unitary has.
        assert scaled_unitary_check(np.zeros((4, 4))) is None

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 4)])
    def test_not_a_matrix_raises(self, shape):
        with pytest.raises(DimensionMismatchError, match=r"expected a d\^2 x N matrix"):
            scaled_unitary_check(np.ones(shape))

    # A NaN or inf entry, or entries whose Gram matrix overflows, leave
    # U U^dag non-finite, which no scaled unitary has: the answer is None,
    # never NaN, and numpy warns of nothing (tier-1 makes warnings errors).
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", [(3, 3), (0, 2)])
    def test_non_finite_entry_is_not(self, entry, value):
        u = np.eye(4, dtype=complex)
        u[entry] = value
        assert scaled_unitary_check(u) is None

    def test_overflowing_gram_matrix_is_not(self):
        assert scaled_unitary_check(1e200 * np.eye(4)) is None

    def test_underfilled_is_not(self, rng):
        # U U^dag has rank 3 < 4, so it is never c I.
        assert scaled_unitary_check(haar_unitaries(rng.standard_normal((2, 4, 4)))[:, :3]) is None

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("factor, scaled_unitary", [(10.0, False), (0.1, True)])
    @pytest.mark.parametrize("n", [4, 7], ids=["square", "overfilled"])
    def test_near_miss_at_the_relative_gate(self, rng, n, c, factor, scaled_unitary):
        # U = sqrt(c) diag(sqrt(1 + t), sqrt(1 - t), 1, 1) W with W W^dag = I:
        # U U^dag has mean diagonal c and is off c I by exactly c t.
        t = factor * matrixcore.RESIDUAL_TOL
        w = tight_frame(rng, 2, n, 1.0)
        got = scaled_unitary_check(np.sqrt(c) * np.sqrt([1 + t, 1 - t, 1, 1])[:, None] * w)
        if scaled_unitary:
            assert got == pytest.approx(c, rel=1e-12)
        else:
            assert got is None


class TestLowestEigenvalues:
    def test_stack_matches_per_family_and_per_matrix_calls(self, rng):
        ops = random_complex(rng, (3, 5, 4, 4))
        lowest = lowest_eigenvalues(ops)
        assert lowest.shape == (3, 5)
        per_family = np.stack([lowest_eigenvalues(family) for family in ops])
        per_matrix = np.array([[lowest_eigenvalues(a) for a in family] for family in ops])
        assert lowest.tobytes() == per_family.tobytes() == per_matrix.tobytes()

    def test_one_matrix_gives_a_0d_result(self):
        # The Hermitian part of [[1, 2], [0, 1]] is [[1, 1], [1, 1]], eigenvalues 0 and 2.
        lowest = lowest_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert lowest.shape == () and abs(lowest) <= 1e-15

    def test_reads_the_hermitian_part(self, rng):
        a = random_complex(rng, (4, 4))
        herm = (a + a.conj().T) / 2
        assert lowest_eigenvalues(a) == pytest.approx(np.linalg.eigvalsh(herm)[0], abs=1e-14)
        assert lowest_eigenvalues(1j * herm) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (5, 2, 3), (3, 0, 0)])
    def test_non_square_input_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match=re.escape(f"got shape {shape}")):
            lowest_eigenvalues(np.ones(shape))

    def test_entry_at_the_top_of_the_range(self):
        # A + A^dag would overflow; the halves are summed instead.
        assert lowest_eigenvalues(np.diag([1e308, 1.0])) == 1.0


class TestPovmCheck:
    def test_sic_povm(self):
        diag = classify(sic_qubit_scheme("povm")).povm
        assert diag.is_povm
        assert diag.sum_residual <= 1e-12
        assert diag.hermiticity_residual <= 1e-12
        assert abs(diag.min_effect_eigenvalue) <= 1e-12

    def test_livine_sums_but_not_positive(self):
        diag = classify(livine_scheme()).povm
        assert not diag.is_povm
        assert diag.sum_residual <= 1e-12
        assert diag.min_effect_eigenvalue == pytest.approx((1 - np.sqrt(3)) / 4, abs=1e-14)

    def test_matrix_units_not_hermitian(self):
        diag = classify(matrix_units_scheme(2)).povm
        assert not diag.is_povm
        assert diag.hermiticity_residual == pytest.approx(1.0)

    @pytest.mark.parametrize("factor, is_povm", [(10.0, False), (0.1, True)])
    def test_near_miss_at_the_eigenvalue_gate(self, factor, is_povm):
        # Two diagonal effects that sum to the identity, each with eigenvalue -m.
        m = factor * matrixcore.EIG_TOL
        diag = classify(Scheme(np.array([np.diag([1 + m, -m]), np.diag([-m, 1 + m])]))).povm
        assert diag.min_effect_eigenvalue == pytest.approx(-m, rel=1e-12)
        assert diag.sum_residual <= 1e-15 and diag.hermiticity_residual == 0.0
        assert diag.is_povm is is_povm


class TestNegativityReport:
    def test_livine(self):
        report = classify(livine_scheme()).negativity
        assert report.min_dequantizer_eigenvalue == pytest.approx(
            (1 - np.sqrt(3)) / 4, abs=1e-14
        )
        assert report.min_quantizer_eigenvalue == pytest.approx(
            (1 - np.sqrt(3)) / 2, abs=1e-14
        )

    def test_sic_povm_with_duals(self):
        s = with_canonical_quantizers(sic_qubit_scheme("povm"))
        report = classify(s).negativity
        assert abs(report.min_dequantizer_eigenvalue) <= 1e-12
        assert report.min_quantizer_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_matrix_units_rejected(self):
        assert classify(matrix_units_scheme(2)).negativity is None

    def test_no_quantizers(self):
        # A bare scheme that is not tomographic has no quantizers to report on.
        report = classify(Scheme(mub_qubit_scheme().dequantizers[:3])).negativity
        assert report.min_quantizer_eigenvalue is None

    def test_reports_the_lowest_member(self):
        # Per-member lowest eigenvalues -1, -3, 0.5 and -2, 4, -7: neither
        # minimum sits first or last.
        deq = np.array([np.diag([-1.0, 5.0]), np.diag([-3.0, 1.0]), np.diag([0.5, 2.0])])
        qs = np.array([np.diag([-2.0, 1.0]), np.diag([-7.0, 0.0]), np.diag([4.0, 5.0])])
        report = classify(Scheme(deq, qs)).negativity
        assert report.min_dequantizer_eigenvalue == -3.0
        assert report.min_quantizer_eigenvalue == -7.0

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("factor, hermitian", [(10.0, False), (0.1, True)])
    def test_near_miss_at_the_relative_gate(self, c, factor, hermitian):
        # The Pauli family scaled by c; adding delta to the zero (0, 1) entry of
        # member 0 makes its hermiticity residual exactly delta, here
        # factor * RESIDUAL_TOL * max|family|.
        deq = c * pauli_scheme().dequantizers
        deq[0, 0, 1] += factor * matrixcore.RESIDUAL_TOL * np.abs(deq).max()
        s = Scheme(dequantizers=deq)
        if hermitian:
            assert classify(s).negativity.min_dequantizer_eigenvalue == pytest.approx(
                -c * np.sqrt(0.5), rel=1e-9
            )
        else:
            assert classify(s).negativity is None

    def test_nan_entry_rejected(self):
        # A NaN in either family, at its last entry, builds no scheme to report on.
        deq = pauli_scheme().dequantizers
        nan = deq.copy()
        nan[-1, -1, -1] = np.nan
        with pytest.raises(InvalidParameterError, match=r"^dequantizers\[3\]"):
            Scheme(nan)
        with pytest.raises(InvalidParameterError, match=r"^quantizers\[3\]"):
            Scheme(deq, nan)

    def test_zero_family_is_hermitian(self):
        # The relative hermiticity test must not divide 0 by 0 here.
        report = classify(Scheme(np.zeros((4, 2, 2)), np.zeros((4, 2, 2)))).negativity
        assert report.min_dequantizer_eigenvalue == report.min_quantizer_eigenvalue == 0.0

    @staticmethod
    def _assert_one_minimum(s):
        # povm and negativity both read the Hermitian parts, so they agree bit
        # for bit even where a member is Hermitian only to rounding.
        report = classify(s)
        if report.negativity is not None:
            assert report.negativity.min_dequantizer_eigenvalue == report.povm.min_effect_eigenvalue, s.name

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_povms_report_one_minimum(self, d):
        for seed in range(100):
            self._assert_one_minimum(random_minimal_povm_scheme(d, seed))

    def test_catalog_schemes_report_one_minimum(self):
        for entry in entries():
            self._assert_one_minimum(entry.scheme)


class TestMatrixUnitLikeDetect:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_units(self, d):
        u = classify(matrix_units_scheme(d)).matrix_unit_like
        assert u is not None
        assert np.abs(u - np.eye(d)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_rotated_matrix_units_recovered(self, rng, d):
        w = haar_unitaries(rng.standard_normal((2, d, d)))
        deq = np.stack(
            [np.outer(w[:, i], w[:, j].conj()) for i in range(d) for j in range(d)]
        )
        u = classify(Scheme(dequantizers=deq)).matrix_unit_like
        assert u is not None
        # Equal up to one global phase.
        for col in range(d):
            overlap = abs(np.vdot(u[:, col], w[:, col]))
            assert abs(overlap - 1.0) <= 1e-10
        rebuilt = np.stack(
            [np.outer(u[:, i], u[:, j].conj()) for i in range(d) for j in range(d)]
        )
        assert np.abs(rebuilt - deq).max() <= 1e-14
        # The phase rule: u's entry of largest modulus is real positive.
        first = np.argmax(np.abs(u))
        assert abs(u.flat[first].imag) <= 1e-15 and u.flat[first].real > 0.0

    def test_calls_no_svd(self, rng, monkeypatch):
        # classify's one SVD is that of the dequantization matrix: the test
        # takes none of its own.
        shapes = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        families = [Scheme(random_complex(rng, (9, 3, 3))), build_scheme("wh-sic", d=3)]
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for s in families:
            shapes.clear()
            assert classify(s).matrix_unit_like is None
            assert shapes == [(9, 9)]

    def test_family_that_u_does_not_rebuild_rejected(self):
        # The reshuffle column the test reads holds members k = 0 and 2 only,
        # so u is still the identity, which does not rebuild member 1.
        deq = matrix_units_scheme(2).dequantizers.copy()
        deq[1, 0, 0] = 0.5
        assert classify(Scheme(deq)).matrix_unit_like is None

    def test_nan_family_rejected(self):
        deq = matrix_units_scheme(2).dequantizers.copy()
        deq[3, 1, 1] = np.nan
        with pytest.raises(InvalidParameterError, match=r"^dequantizers\[3\]"):
            Scheme(deq)

    def test_livine_not_rank_one(self):
        assert classify(livine_scheme()).matrix_unit_like is None
        # det of the first dequantizer is -1/8, so it is genuinely rank 2.
        assert abs(np.linalg.det(livine_scheme().dequantizers[0]) + 0.125) <= 1e-15

    def test_overfilled_returns_none(self):
        assert classify(mub_qubit_scheme()).matrix_unit_like is None


class TestClassify:
    def test_one_factorization_of_the_dequantization_matrix(self, monkeypatch):
        # Rank, condition number and the diagnostic dual share one SVD; the
        # dual needs no inverse.
        shapes = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def no_inverse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        report = classify(mub_qubit_scheme())
        assert shapes == [(4, 6)]
        assert report.tomographic and report.negativity.min_quantizer_eigenvalue is not None
        shapes.clear()
        canonical_quantizers(mub_qubit_scheme().dequantizers)
        assert shapes == [(4, 6)]

    @pytest.mark.parametrize(
        "scheme, spectra",
        [(mub_qubit_scheme(), 2), (sic_qubit_scheme("povm"), 2), (matrix_units_scheme(2), 1)],
        ids=["mub-qubit", "sic-povm", "matrix-units"],
    )
    def test_one_spectrum_per_family(self, monkeypatch, scheme, spectra):
        # povm and negativity share the dequantizers' spectrum, and a family
        # that fails the hermiticity test gets none for the negativity report.
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        report = classify(scheme)
        assert len(calls) == spectra
        assert (report.negativity is None) is (spectra == 1)

    @pytest.mark.parametrize(
        "build",
        [mub_qubit_scheme, lambda: Scheme(random_complex(np.random.default_rng(25), (7, 2, 2)))],
        ids=["mub-qubit", "ginibre-overfilled"],
    )
    def test_bare_scheme_reads_the_canonical_dual(self, build):
        s = build()
        bare, quantized = classify(s), classify(with_canonical_quantizers(s))
        assert bare.self_dual_coefficient == quantized.self_dual_coefficient
        assert bare.negativity == quantized.negativity

    def test_matrix_units(self):
        report = classify(matrix_units_scheme(2))
        assert report.cardinality == "minimal"
        assert report.tomographic
        assert report.condition_number == pytest.approx(1.0)
        assert report.self_dual_coefficient == pytest.approx(1.0)
        assert report.scaled_unitary == pytest.approx(1.0)
        assert report.negativity is None
        assert np.abs(report.matrix_unit_like - np.eye(2)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_unitary_kronecker_family_is_self_dual(self, rng, d):
        # u (x) conj(u) is unitary, so its family is self-dual with c = 1.
        u = haar_unitaries(rng.standard_normal((2, d, d)))
        deq = np.einsum("ai,bj->ijab", u, u.conj()).reshape(d * d, d, d)
        report = classify(Scheme(deq))
        assert report.cardinality == "minimal" and report.tomographic
        assert abs(report.condition_number - 1.0) <= 1e-12
        assert abs(report.self_dual_coefficient - 1.0) <= 1e-12
        assert abs(report.scaled_unitary - 1.0) <= 1e-12
        assert not report.povm.is_povm
        v = report.matrix_unit_like
        assert v is not None
        rebuilt = np.einsum("ai,bj->ijab", v, v.conj()).reshape(d * d, d, d)
        assert np.abs(rebuilt - deq).max() <= 1e-14

    def test_mub(self):
        report = classify(mub_qubit_scheme())
        assert report.cardinality == "overfilled"
        assert report.tomographic
        assert report.rank == 4
        assert report.scaled_unitary is None
        assert report.matrix_unit_like is None

    @pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("d, n", TIGHT_FRAME_SIZES)
    def test_overfilled_tight_frame_is_self_dual_and_scaled_unitary(self, rng, d, n, c):
        report = classify(scheme_from_dequantization_matrix(tight_frame(rng, d, n, c)))
        assert report.cardinality == "overfilled" and report.tomographic
        assert abs(report.condition_number - 1.0) <= 1e-12
        assert report.self_dual_coefficient == pytest.approx(c, rel=1e-12)
        assert report.scaled_unitary == pytest.approx(c, rel=1e-12)

    def test_underfilled(self):
        report = classify(Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3]))
        assert report.cardinality == "underfilled"
        assert not report.tomographic
        assert report.condition_number == np.inf
        assert report.self_dual_coefficient is None
        assert report.negativity is not None
        assert report.negativity.min_quantizer_eigenvalue is None

    def test_non_finite_scheme_is_refused(self):
        deq = pauli_scheme().dequantizers.copy()
        deq[2, 0, 1] = np.nan
        with pytest.raises(InvalidParameterError, match=r"^dequantizers\[2\]: entries must be finite"):
            classify(Scheme(deq))


class TestScaleCovariance:
    """Multiplying every dequantizer by c > 0 changes no verdict of the
    classification: the self-dual and scaled-unitary coefficients scale as
    c^2, dequantizer eigenvalues as c and quantizer eigenvalues as 1/c.
    The POVM and matrix-unit-like tests stay absolute (c times a POVM is not
    a POVM), so they are not compared."""

    @pytest.mark.parametrize("c", [1e-150, 1e-20, 1e-8, 1e8, 1e20, 1e150], ids="x{:g}".format)
    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_rescaled_scheme_classifies_alike(self, name, c):
        deq = build_scheme(name).dequantizers
        ref, report = classify(Scheme(deq)), classify(Scheme(c * deq))
        assert (report.cardinality, report.rank, report.tomographic) == (
            ref.cardinality,
            ref.rank,
            ref.tomographic,
        )
        assert report.condition_number == pytest.approx(ref.condition_number, rel=1e-12)
        for field in ("self_dual_coefficient", "scaled_unitary"):
            value, expected = getattr(report, field), getattr(ref, field)
            assert (value is None) == (expected is None), field
            if expected is not None:
                assert value / c**2 == pytest.approx(expected, rel=1e-12), field
        assert (report.negativity is None) == (ref.negativity is None)
        if ref.negativity is not None:
            assert report.negativity.min_dequantizer_eigenvalue / c == pytest.approx(
                ref.negativity.min_dequantizer_eigenvalue, rel=1e-12
            )
            assert report.negativity.min_quantizer_eigenvalue * c == pytest.approx(
                ref.negativity.min_quantizer_eigenvalue, rel=1e-12
            )


QUBIT_SCHEMES = [name for name in SCHEMES if build_scheme(name).d == 2]


def assert_same_classification(report, ref):
    """Equal verdicts, and numbers equal to rounding, in two scheme reports."""
    assert (report.cardinality, report.rank, report.tomographic, report.povm.is_povm) == (
        ref.cardinality,
        ref.rank,
        ref.tomographic,
        ref.povm.is_povm,
    )
    assert (report.matrix_unit_like is None) == (ref.matrix_unit_like is None)
    assert report.condition_number == pytest.approx(ref.condition_number, rel=1e-12)
    for field in ("self_dual_coefficient", "scaled_unitary"):
        value, expected = getattr(report, field), getattr(ref, field)
        assert (value is None) == (expected is None), field
        if expected is not None:
            assert value == pytest.approx(expected, rel=1e-12), field
    assert (report.negativity is None) == (ref.negativity is None)
    if ref.negativity is not None:
        for field in ("min_dequantizer_eigenvalue", "min_quantizer_eigenvalue"):
            value, expected = getattr(report.negativity, field), getattr(ref.negativity, field)
            assert value == pytest.approx(expected, abs=1e-12), field


class TestClassificationSymmetries:
    """The classification is a property of the operator family: it does not
    change under a unitary change of frame D_k -> V D_k V^dag."""

    @pytest.mark.parametrize("name", QUBIT_SCHEMES)
    def test_unitary_conjugation_classifies_alike(self, rng, name):
        deq = build_scheme(name).dequantizers
        v = haar_unitaries(rng.standard_normal((2, 2, 2)))
        rotated = Scheme(v @ deq @ v.conj().T)
        assert_same_classification(classify(rotated), classify(Scheme(deq)))


class TestSchemeFromMatrix:
    def test_round_trip(self, rng):
        u = random_complex(rng, (4, 6))
        s = scheme_from_dequantization_matrix(u)
        assert np.abs(dequantization_matrix(s) - u).max() == 0

    def test_shape_check(self):
        # The row count must be d^2 for a positive d, and the input a matrix.
        message = "vector length 5 is not a perfect square"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            scheme_from_dequantization_matrix(np.zeros((5, 6)))
        with pytest.raises(DimensionMismatchError, match=re.escape("vector length 0 holds no operator")):
            scheme_from_dequantization_matrix(np.zeros((0, 6)))
        with pytest.raises(DimensionMismatchError, match=r"expected a d\^2 x N matrix"):
            scheme_from_dequantization_matrix(np.zeros(4))


class TestInvariants:
    def test_completeness_all_tomographic_catalog(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            assert completeness_residual(s) <= 1e-10, entry.scheme.name

    def test_minimal_biorthogonality(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            if s.n_points == s.d * s.d:
                delta = intertwiner(s, s)
                assert np.abs(delta - np.eye(s.n_points)).max() <= 1e-10, entry.scheme.name

    def test_overfilled_duality_is_projector(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            if s.n_points <= s.d * s.d:
                continue
            delta = intertwiner(s, s)
            assert np.abs(delta - delta.conj().T).max() <= 1e-10, entry.scheme.name
            assert np.abs(delta @ delta - delta).max() <= 1e-10, entry.scheme.name
            assert abs(np.trace(delta) - s.d * s.d) <= 1e-10, entry.scheme.name

    def test_self_duality_implies_scaled_unitarity(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            c = classify(s).self_dual_coefficient
            if c is None:
                continue
            c_gram = scaled_unitary_check(dequantization_matrix(s))
            assert c_gram is not None, entry.scheme.name
            assert abs(c_gram - c) <= 1e-9 * c, entry.scheme.name

    @pytest.mark.parametrize("d", [2, 3])
    def test_scaled_unitaries_are_self_dual(self, rng, d):
        # sqrt(c) times a unitary (N = d^2), then an overfilled tight frame.
        for n in (d * d, dict(TIGHT_FRAME_SIZES)[d]):
            for _ in range(30):
                c = rng.uniform(0.1, 10.0)
                s = scheme_from_dequantization_matrix(tight_frame(rng, d, n, c))
                s = s.with_quantizers(canonical_quantizers(s.dequantizers))
                recovered = classify(s).self_dual_coefficient
                assert recovered is not None
                assert abs(recovered - c) <= 1e-9 * c

    def test_random_povm_duals_have_negative_eigenvalue(self):
        inconclusive = 0
        for seed in range(1000):
            s = random_minimal_povm_scheme(2, seed)
            qs = canonical_quantizers(s.dequantizers)
            herm = (qs + qs.conj().transpose(0, 2, 1)) / 2
            min_eig = float(np.linalg.eigvalsh(herm)[:, 0].min())
            assert min_eig < 1e-10, f"seed {seed} gave min eigenvalue {min_eig}"
            if min_eig > -1e-10:
                inconclusive += 1
        assert inconclusive < 10

    def test_permutation_invariance(self, rng):
        for base in (mub_qubit_scheme(), sic_qubit_scheme("povm")):
            perm = rng.permutation(base.n_points)
            permuted = Scheme(dequantizers=base.dequantizers[perm])
            qs = canonical_quantizers(base.dequantizers)
            qs_perm = canonical_quantizers(permuted.dequantizers)
            assert np.abs(qs_perm - qs[perm]).max() <= 1e-12
            a, b = classify(base), classify(permuted)
            assert a.cardinality == b.cardinality
            assert a.rank == b.rank
            assert abs(a.condition_number - b.condition_number) <= 1e-12
            assert a.povm.is_povm == b.povm.is_povm
            assert a.povm.min_effect_eigenvalue == pytest.approx(
                b.povm.min_effect_eigenvalue, abs=1e-12
            )
