import numpy as np
import pytest

from starprod import (
    DimensionMismatchError,
    InvalidGaugeError,
    MissingQuantizersError,
    NonHermitianMemberError,
    NotOverfilledError,
    NotSquareError,
    NotTomographicError,
    Scheme,
    ToleranceConfig,
    VectorizationBasis,
    canonical_duals,
    canonical_quantizers,
    classify,
    completeness_residual,
    dequantization_matrix,
    duality_matrix,
    gauge_quantizers,
    matrix_unit_like_detect,
    negativity_report,
    pauli_basis,
    povm_check,
    scaled_unitary_check,
    scheme_from_dequantization_matrix,
    self_dual_coefficient,
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
from starprod.operator_space import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    validate_orthonormal_basis,
    vectorize,
)
from starprod.star_product import reconstruct, symbol
from starprod.verification import haar_unitaries

from _helpers import conditioned_frame, random_complex, self_dual_reference

TOL = ToleranceConfig()

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

    def test_require_quantizers(self):
        s = mub_qubit_scheme()
        with pytest.raises(MissingQuantizersError):
            s.require_quantizers()

    def test_dimensions(self):
        s = mub_qubit_scheme()
        assert (s.d, s.n_points) == (2, 6)


class TestDequantizationMatrix:
    def test_matrix_units_row_stacking(self):
        assert np.array_equal(dequantization_matrix(matrix_units_scheme(2)), np.eye(4))

    def test_pauli_scheme_pauli_basis(self):
        u = dequantization_matrix(pauli_scheme("hermitian"), pauli_basis())
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
            dequantization_matrix(matrix_units_scheme(3), pauli_basis())

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormal_basis_matches_per_operator_loop(self, rng, d):
        # d = 2: the Pauli basis; d = 3: a seeded random orthonormal basis.
        if d == 2:
            basis = pauli_basis()
        else:
            u = haar_unitaries(rng.standard_normal((2, d * d, d * d)))
            basis = VectorizationBasis.orthonormal(u.T.reshape(d * d, d, d))
        s = Scheme(dequantizers=random_complex(rng, (2 * d * d, d, d)))
        loop = np.column_stack([vectorize(op, basis) for op in s.dequantizers])
        assert np.abs(dequantization_matrix(s, basis) - loop).max() <= 1e-15


class TestCanonicalQuantizers:
    def test_matrix_units_self_dual(self):
        s = matrix_units_scheme(2)
        qs = canonical_quantizers(s)
        assert np.abs(qs - s.dequantizers).max() <= 1e-14

    def test_sic_povm_duals(self):
        # Independent oracle: D_k = 3 Pi_k - I satisfies Tr[U_k D_k'] = delta
        # because Tr[Pi_k Pi_k'] = (2 delta + 1)/3.
        projs = bloch_projectors()
        expected = 3 * projs - np.eye(2)
        bio = np.einsum("kab,lab->kl", (projs / 2).conj(), expected)
        assert np.abs(bio - np.eye(4)).max() <= 1e-14
        qs = canonical_quantizers(sic_qubit_scheme("povm"))
        assert np.abs(qs - expected).max() <= 1e-12

    def test_livine_duals_are_doubled(self):
        s = livine_scheme("dequantizer")
        qs = canonical_quantizers(s)
        assert np.abs(qs - 2 * s.dequantizers).max() <= 1e-13

    def test_underfilled_raises(self):
        s = Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3])
        with pytest.raises(NotTomographicError):
            canonical_quantizers(s)

    def test_overfilled_pseudoinverse_completeness(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        assert completeness_residual(s) <= 1e-10


class TestCanonicalDuals:
    @pytest.mark.parametrize("d, n", [(2, 4), (3, 9), (2, 7), (3, 14)])
    def test_stack_matches_per_family(self, rng, d, n):
        # Random Ginibre families: N = d^2 is minimal, larger N overfilled.
        families = random_complex(rng, (2, 3, n, d, d))
        duals = canonical_duals(families)
        assert duals.shape == families.shape
        expected = np.array(
            [[canonical_quantizers(Scheme(dequantizers=f)) for f in row] for row in families]
        )
        assert np.abs(duals - expected).max() <= 1e-13

    def test_rank_deficient_member_raises(self, rng):
        families = random_complex(rng, (3, 4, 2, 2))
        families[2, 3] = families[2, 0]
        with pytest.raises(NotTomographicError, match="rank 3 < d\\^2 = 4"):
            canonical_duals(families)

    def test_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            canonical_duals(np.zeros((4, 2, 3)))


class TestDualAccuracy:
    """The SVD dual loses accuracy in proportion to kappa, not kappa squared
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 20)."""

    ROW3 = VectorizationBasis.row_stacking(3)

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("n", [9, 12, 18])
    def test_residuals_scale_with_condition_number(self, n, kappa):
        s = scheme_from_dequantization_matrix(conditioned_frame(n, kappa, seed=7), self.ROW3)
        assert abs(classify(s).condition_number / kappa - 1) <= 1e-6
        s = with_canonical_quantizers(s)
        bound = 10 * kappa * np.finfo(float).eps
        assert completeness_residual(s) <= bound
        ops = np.stack(
            [haar_unitaries(np.random.default_rng(k).standard_normal((2, 3, 3))) for k in range(8)]
        )
        assert np.abs(reconstruct(s, symbol(s, ops)) - ops).max() <= bound

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_rank_rule_shared_at_tolerance(self, factor):
        # sigma_min / sigma_max = rank_tol / factor straddles the rank rule.
        u = conditioned_frame(12, factor / TOL.rank_tol, seed=7)
        s = scheme_from_dequantization_matrix(u, self.ROW3)
        try:
            canonical_duals(s.dequantizers, TOL)
            dual_defined = True
        except NotTomographicError:
            dual_defined = False
        assert classify(s, TOL).tomographic == dual_defined == (factor < 1)


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
        assert np.abs(shifted - canonical_quantizers(s)).max() > 1e-3

    def test_invalid_gauge_rejected(self, rng):
        s = mub_qubit_scheme()
        g = random_complex(rng, (4, 6))
        with pytest.raises(InvalidGaugeError):
            gauge_quantizers(s, g)

    def test_minimal_scheme_rejected(self):
        with pytest.raises(NotOverfilledError):
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
        assert np.abs(shifted - canonical_quantizers(scaled)).max() > 1e-3
        with pytest.raises(InvalidGaugeError):
            gauge_quantizers(scaled, random_complex(rng, (4, 6)))


class TestDualityMatrix:
    def test_matrix_units(self):
        assert np.abs(duality_matrix(matrix_units_scheme(2)) - np.eye(4)).max() <= 1e-14

    def test_sic_minimal_is_kronecker(self):
        s = with_canonical_quantizers(sic_qubit_scheme("povm"))
        assert np.abs(duality_matrix(s) - np.eye(4)).max() <= 1e-12

    def test_mub_projector(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        delta = duality_matrix(s)
        assert np.abs(delta - delta.conj().T).max() <= 1e-10
        assert np.abs(delta @ delta - delta).max() <= 1e-10
        assert abs(np.trace(delta) - 4) <= 1e-10

    def test_missing_quantizers(self):
        with pytest.raises(MissingQuantizersError):
            duality_matrix(mub_qubit_scheme())


class TestSelfDualCoefficient:
    def test_matrix_units(self):
        assert self_dual_coefficient(matrix_units_scheme(2)) == pytest.approx(1.0)

    def test_livine(self):
        assert self_dual_coefficient(livine_scheme()) == pytest.approx(0.5, abs=1e-14)

    def test_mub_not_self_dual(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        assert self_dual_coefficient(s) is None

    def test_missing_quantizers(self):
        with pytest.raises(MissingQuantizersError):
            self_dual_coefficient(mub_qubit_scheme())

    def test_stack_matches_per_family(self, rng):
        # Scaled-unitary families are self-dual; Ginibre families are not.
        coefficients = rng.uniform(0.1, 10.0, size=6)
        u = np.sqrt(coefficients)[:, None, None] * haar_unitaries(rng.standard_normal((6, 2, 4, 4)))
        deq = u.swapaxes(1, 2).reshape(6, 4, 2, 2)
        deq[::3] = random_complex(rng, (2, 4, 2, 2))
        duals = canonical_duals(deq)
        stacked = self_dual_coefficients(deq.reshape(2, 3, 4, 2, 2), duals.reshape(2, 3, 4, 2, 2))
        assert stacked.shape == (2, 3)
        for c, family, dual in zip(stacked.reshape(-1), deq, duals):
            reference = self_dual_reference(family, dual)
            assert (reference is None) if np.isnan(c) else (reference == c)
            assert self_dual_coefficient(Scheme(family, dual)) == reference
        self_dual = np.arange(6) % 3 != 0
        assert np.isnan(stacked.reshape(-1)[~self_dual]).all()
        assert np.allclose(stacked.reshape(-1)[self_dual], coefficients[self_dual], rtol=1e-9, atol=0)


class TestScaledUnitaryCheck:
    def test_identity(self):
        assert scaled_unitary_check(np.eye(4)) == pytest.approx(1.0)

    def test_livine_matrix(self):
        u = dequantization_matrix(livine_scheme())
        assert scaled_unitary_check(u) == pytest.approx(0.5, abs=1e-14)

    def test_sic_matrix_is_not(self):
        assert scaled_unitary_check(dequantization_matrix(sic_qubit_scheme("povm"))) is None

    def test_rectangular_raises(self):
        with pytest.raises(NotSquareError):
            scaled_unitary_check(np.zeros((4, 6)))


class TestPovmCheck:
    def test_sic_povm(self):
        diag = povm_check(sic_qubit_scheme("povm"))
        assert diag.is_povm
        assert diag.sum_residual <= 1e-12
        assert diag.hermiticity_residual <= 1e-12
        assert abs(diag.min_effect_eigenvalue) <= 1e-12

    def test_livine_sums_but_not_positive(self):
        diag = povm_check(livine_scheme())
        assert not diag.is_povm
        assert diag.sum_residual <= 1e-12
        assert diag.min_effect_eigenvalue == pytest.approx((1 - np.sqrt(3)) / 4, abs=1e-14)

    def test_matrix_units_not_hermitian(self):
        diag = povm_check(matrix_units_scheme(2))
        assert not diag.is_povm
        assert diag.hermiticity_residual == pytest.approx(1.0)


class TestNegativityReport:
    def test_livine(self):
        report = negativity_report(livine_scheme())
        assert report.min_dequantizer_eigenvalue == pytest.approx(
            (1 - np.sqrt(3)) / 4, abs=1e-14
        )
        assert report.min_quantizer_eigenvalue == pytest.approx(
            (1 - np.sqrt(3)) / 2, abs=1e-14
        )

    def test_sic_povm_with_duals(self):
        s = with_canonical_quantizers(sic_qubit_scheme("povm"))
        report = negativity_report(s)
        assert abs(report.min_dequantizer_eigenvalue) <= 1e-12
        assert report.min_quantizer_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_matrix_units_rejected(self):
        with pytest.raises(NonHermitianMemberError):
            negativity_report(matrix_units_scheme(2))

    def test_no_quantizers(self):
        report = negativity_report(mub_qubit_scheme())
        assert report.min_quantizer_eigenvalue is None

    def test_zero_family_is_hermitian(self):
        # The relative hermiticity test must not divide 0 by 0 here.
        report = negativity_report(Scheme(np.zeros((4, 2, 2)), np.zeros((4, 2, 2))))
        assert report.min_dequantizer_eigenvalue == report.min_quantizer_eigenvalue == 0.0


class TestMatrixUnitLikeDetect:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_units(self, d):
        u = matrix_unit_like_detect(matrix_units_scheme(d))
        assert u is not None
        assert np.abs(u - np.eye(d)).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_rotated_matrix_units_recovered(self, rng, d):
        w = haar_unitaries(rng.standard_normal((2, d, d)))
        deq = np.stack(
            [np.outer(w[:, i], w[:, j].conj()) for i in range(d) for j in range(d)]
        )
        u = matrix_unit_like_detect(Scheme(dequantizers=deq))
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
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        families = [Scheme(random_complex(rng, (9, 3, 3))), build_scheme("wh-sic", d=3)]
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for s in families:
            assert matrix_unit_like_detect(s) is None

    def test_nan_family_rejected(self):
        deq = matrix_units_scheme(2).dequantizers.copy()
        deq[3, 1, 1] = np.nan
        assert matrix_unit_like_detect(Scheme(deq)) is None

    def test_livine_not_rank_one(self):
        assert matrix_unit_like_detect(livine_scheme()) is None
        # det of the first dequantizer is -1/8, so it is genuinely rank 2.
        assert abs(np.linalg.det(livine_scheme().dequantizers[0]) + 0.125) <= 1e-15

    def test_overfilled_returns_none(self):
        assert matrix_unit_like_detect(mub_qubit_scheme()) is None


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
        canonical_duals(mub_qubit_scheme().dequantizers)
        assert shapes == [(4, 6)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_diagnostic_dual_independent_of_basis_orthonormality(self, rng, d):
        # A basis file need only be orthonormal within residual_tol.  With
        # U_B = G^dag U for any invertible basis matrix G, the dual taken from
        # the SVD of U_B and devectorized through G is G pinv(U_B)^dag =
        # pinv(U)^dag, so the diagnostics follow the scheme, not the basis.
        loose = ToleranceConfig(residual_tol=1e-4)
        ops = haar_unitaries(rng.standard_normal((2, d * d, d * d))).T.reshape(d * d, d, d)
        noise = random_complex(rng, ops.shape)
        for _ in range(5):
            noise *= 0.9 * loose.residual_tol / validate_orthonormal_basis(ops + noise)
        assert validate_orthonormal_basis(ops + noise) > 0.8 * loose.residual_tol
        basis = VectorizationBasis.orthonormal(ops + noise, tol=loose)
        for entry in entries():
            if entry.scheme.d != d:
                continue
            s = Scheme(entry.scheme.dequantizers)
            a, b = classify(s, loose), classify(s, loose, basis=basis)
            if a.self_dual_coefficient is None:
                assert b.self_dual_coefficient is None, entry.name
            else:
                assert b.self_dual_coefficient == pytest.approx(a.self_dual_coefficient, rel=1e-13)
            if a.negativity is None:
                assert b.negativity is None, entry.name
            else:
                assert b.negativity.min_quantizer_eigenvalue == pytest.approx(
                    a.negativity.min_quantizer_eigenvalue, rel=1e-13
                ), entry.name

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

    def test_underfilled(self):
        report = classify(Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3]))
        assert report.cardinality == "underfilled"
        assert not report.tomographic
        assert report.condition_number == np.inf
        assert report.self_dual_coefficient is None
        assert report.negativity is not None
        assert report.negativity.min_quantizer_eigenvalue is None


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
    change with the orthonormal basis that vectorizes it, nor under a unitary
    change of frame D_k -> V D_k V^dag."""

    @pytest.mark.parametrize("name", QUBIT_SCHEMES)
    def test_pauli_basis_classifies_as_row_stacking(self, name):
        s = build_scheme(name)
        assert_same_classification(classify(s, basis=pauli_basis()), classify(s))

    @pytest.mark.parametrize("name", QUBIT_SCHEMES)
    def test_unitary_conjugation_classifies_alike(self, rng, name):
        deq = build_scheme(name).dequantizers
        v = haar_unitaries(rng.standard_normal((2, 2, 2)))
        rotated = Scheme(v @ deq @ v.conj().T)
        assert_same_classification(classify(rotated), classify(Scheme(deq)))


class TestSchemeFromMatrix:
    def test_round_trip(self, rng):
        u = random_complex(rng, (4, 6))
        s = scheme_from_dequantization_matrix(u, VectorizationBasis.row_stacking(2))
        assert np.abs(dequantization_matrix(s) - u).max() == 0

    def test_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            scheme_from_dequantization_matrix(
                np.zeros((5, 6)), VectorizationBasis.row_stacking(2)
            )


class TestInvariants:
    def test_completeness_all_tomographic_catalog(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            assert completeness_residual(s) <= 1e-10, entry.name

    def test_minimal_biorthogonality(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            if s.n_points == s.d * s.d:
                delta = duality_matrix(s)
                assert np.abs(delta - np.eye(s.n_points)).max() <= 1e-10, entry.name

    def test_overfilled_duality_is_projector(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            if s.n_points <= s.d * s.d:
                continue
            delta = duality_matrix(s)
            assert np.abs(delta - delta.conj().T).max() <= 1e-10, entry.name
            assert np.abs(delta @ delta - delta).max() <= 1e-10, entry.name
            assert abs(np.trace(delta) - s.d * s.d) <= 1e-10, entry.name

    def test_self_duality_implies_scaled_unitarity(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            c = self_dual_coefficient(s)
            if c is None or s.n_points != s.d * s.d:
                continue
            c_gram = scaled_unitary_check(dequantization_matrix(s))
            assert c_gram is not None, entry.name
            assert abs(c_gram - c) <= 1e-9 * c, entry.name

    @pytest.mark.parametrize("d", [2, 3])
    def test_scaled_unitaries_are_self_dual(self, rng, d):
        basis = VectorizationBasis.row_stacking(d)
        for _ in range(30):
            c = rng.uniform(0.1, 10.0)
            u = np.sqrt(c) * haar_unitaries(rng.standard_normal((2, d * d, d * d)))
            s = scheme_from_dequantization_matrix(u, basis)
            s = s.with_quantizers(canonical_quantizers(s))
            recovered = self_dual_coefficient(s)
            assert recovered is not None
            assert abs(recovered - c) <= 1e-9 * c

    def test_random_povm_duals_have_negative_eigenvalue(self):
        inconclusive = 0
        for seed in range(1000):
            s = random_minimal_povm_scheme(2, seed)
            qs = canonical_quantizers(s)
            herm = (qs + qs.conj().transpose(0, 2, 1)) / 2
            min_eig = float(np.linalg.eigvalsh(herm)[:, 0].min())
            assert min_eig < 1e-10, f"seed {seed} gave min eigenvalue {min_eig}"
            if min_eig > -1e-10:
                inconclusive += 1
        assert inconclusive < 10

    def test_classification_basis_invariance(self):
        pb = pauli_basis()
        for entry in entries():
            if entry.scheme.d != 2:
                continue
            a = classify(entry.scheme)
            b = classify(entry.scheme, basis=pb)
            assert a.cardinality == b.cardinality, entry.name
            assert a.tomographic == b.tomographic
            assert a.rank == b.rank
            assert abs(a.condition_number - b.condition_number) <= 1e-10 * a.condition_number
            assert (a.self_dual_coefficient is None) == (b.self_dual_coefficient is None)
            assert a.povm.is_povm == b.povm.is_povm

    def test_permutation_invariance(self, rng):
        for base in (mub_qubit_scheme(), sic_qubit_scheme("povm")):
            perm = rng.permutation(base.n_points)
            permuted = Scheme(dequantizers=base.dequantizers[perm])
            qs = canonical_quantizers(base)
            qs_perm = canonical_quantizers(permuted)
            assert np.abs(qs_perm - qs[perm]).max() <= 1e-12
            a, b = classify(base), classify(permuted)
            assert a.cardinality == b.cardinality
            assert a.rank == b.rank
            assert abs(a.condition_number - b.condition_number) <= 1e-12
            assert a.povm.is_povm == b.povm.is_povm
            assert a.povm.min_effect_eigenvalue == pytest.approx(
                b.povm.min_effect_eigenvalue, abs=1e-12
            )
