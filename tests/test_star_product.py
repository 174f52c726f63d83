import re

import numpy as np
import pytest

from starprod import (
    DimensionMismatchError,
    MalformedInputError,
    NotTomographicError,
    NotUnitaryError,
    ScaleOutOfRangeError,
    Scheme,
    StarKernel,
    associativity_residual,
    canonical_quantizers,
    completeness_residual,
    cubic_unitary_residual,
    dequantization_matrix,
    gauge_quantizers,
    intertwiner,
    reconstruct,
    star_kernel,
    star_multiply,
    symbol,
    symbol_roundtrip_residual,
    with_canonical_quantizers,
)
from starprod.catalog import (
    build_scheme,
    entries,
    livine_scheme,
    matrix_units_scheme,
    mub_qubit_scheme,
    pauli_scheme,
    sic_qubit_scheme,
)
from starprod.verification import _quantized_regression_set, haar_unitaries

from _helpers import random_complex, random_hermitian


class TestSymbol:
    def test_matrix_units_symbol_is_row_stacking(self, rng):
        s = matrix_units_scheme(2)
        assert np.array_equal(
            symbol(s, np.array([[1, 0], [0, 0]])), np.array([1, 0, 0, 0], dtype=complex)
        )
        a = random_complex(rng, (2, 2))
        assert np.abs(symbol(s, a) - a.reshape(-1)).max() <= 1e-14

    def test_sic_maximally_mixed(self):
        f = symbol(sic_qubit_scheme("povm"), np.eye(2) / 2)
        assert np.abs(f - 0.25).max() <= 1e-14

    def test_livine_identity(self):
        f = symbol(livine_scheme(), np.eye(2))
        assert np.abs(f - 0.5).max() <= 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            symbol(matrix_units_scheme(2), np.eye(3))


class TestReconstruct:
    def test_matrix_units(self):
        a = reconstruct(matrix_units_scheme(2), [1, 0, 0, 0])
        assert np.array_equal(a, np.array([[1, 0], [0, 0]], dtype=complex))

    def test_sic_maximally_mixed(self):
        s = with_canonical_quantizers(sic_qubit_scheme("povm"))
        a = reconstruct(s, [0.25, 0.25, 0.25, 0.25])
        assert np.abs(a - np.eye(2) / 2).max() <= 1e-12

    def test_round_trip_random(self, rng):
        s = with_canonical_quantizers(mub_qubit_scheme())
        for _ in range(20):
            a = random_complex(rng, (2, 2))
            assert np.abs(reconstruct(s, symbol(s, a)) - a).max() <= 1e-10

    def test_length_mismatch(self):
        message = "symbol length 5 does not match scheme size N=4"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            reconstruct(matrix_units_scheme(2), np.zeros(5))


class TestStarKernel:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_units_delta_pattern(self, d):
        # Oracle: Tr[E_(i,j)^dag E_(i',j') E_(i'',j'')] =
        # delta_{i i'} delta_{j' i''} delta_{j'' j}.
        kernel = star_kernel(matrix_units_scheme(d))
        pairs = [(i, j) for i in range(d) for j in range(d)]
        for k, (i, j) in enumerate(pairs):
            for x, (i1, j1) in enumerate(pairs):
                for y, (i2, j2) in enumerate(pairs):
                    expected = float(i == i1 and j1 == i2 and j2 == j)
                    assert abs(kernel.values[k, x, y] - expected) <= 1e-14

    def test_pauli_first_entry(self):
        kernel = star_kernel(pauli_scheme("hermitian"))
        assert kernel.values[0, 0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-14)

    def test_shape_and_finiteness(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        kernel = star_kernel(s)
        assert kernel.values.shape == (6, 6, 6)
        assert np.all(np.isfinite(kernel.values))

    @pytest.mark.parametrize("d, extra", [(2, 0), (3, 0), (2, 3), (3, 5)])
    def test_matches_einsum_reference(self, rng, d, extra):
        # Reference: the two-einsum contraction Tr[U_k^dag D_x D_y].
        # extra = 0 is a minimal frame, extra > 0 an overfilled one.
        s = with_canonical_quantizers(
            Scheme(dequantizers=random_complex(rng, (d * d + extra, d, d)))
        )
        qs = s.quantizers
        products = np.einsum("xab,ybc->xyac", qs, qs)
        expected = np.einsum("kab,xyab->kxy", s.dequantizers.conj(), products)
        assert np.abs(star_kernel(s).values - expected).max() <= 1e-13


class TestStarMultiply:
    def test_matrix_units_is_matrix_product(self, rng):
        s = matrix_units_scheme(2)
        kernel = star_kernel(s)
        for _ in range(20):
            a = random_complex(rng, (2, 2))
            b = random_complex(rng, (2, 2))
            via_kernel = star_multiply(kernel, symbol(s, a), symbol(s, b))
            assert np.abs(via_kernel - symbol(s, a @ b)).max() <= 1e-12

    def test_right_identity(self, rng):
        s = with_canonical_quantizers(sic_qubit_scheme("povm"))
        kernel = star_kernel(s)
        f_id = symbol(s, np.eye(2))
        for _ in range(10):
            f_a = symbol(s, random_complex(rng, (2, 2)))
            assert np.abs(star_multiply(kernel, f_a, f_id) - f_a).max() <= 1e-12

    def test_sic_hermitian_products(self, rng):
        s = with_canonical_quantizers(sic_qubit_scheme("povm"))
        kernel = star_kernel(s)
        for _ in range(20):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            via_kernel = star_multiply(kernel, symbol(s, a), symbol(s, b))
            assert np.abs(via_kernel - symbol(s, a @ b)).max() <= 1e-10

    def test_length_mismatch(self):
        kernel = star_kernel(matrix_units_scheme(2))
        message = "symbol lengths (5, 4) do not match kernel size N=4"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            star_multiply(kernel, np.zeros(5), np.zeros(4))


class TestAssociativity:
    def test_matrix_units(self):
        assert associativity_residual(star_kernel(matrix_units_scheme(2))) <= 1e-12

    def test_livine(self):
        assert associativity_residual(star_kernel(livine_scheme())) <= 1e-10

    def test_mub_canonical(self):
        s = with_canonical_quantizers(mub_qubit_scheme())
        assert associativity_residual(star_kernel(s)) <= 1e-10

    def test_every_catalog_kernel(self):
        for entry in entries():
            s = with_canonical_quantizers(entry.scheme)
            assert associativity_residual(star_kernel(s)) <= 1e-10, entry.scheme.name

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_matches_einsum_reference_on_random_tensor(self, rng, n):
        # A random tensor is far from associative, so the residual is large
        # and the relative agreement with the N^4 einsum form is meaningful.
        # The residual is relative to max|K|^2.
        values = random_complex(rng, (n, n, n))
        left = np.einsum("klm,lab->kabm", values, values)
        right = np.einsum("kal,lbm->kabm", values, values)
        absolute = float(np.abs(left - right).max())
        expected = absolute / float(np.abs(values).max()) ** 2
        got = associativity_residual(StarKernel(d=2, values=values))
        assert absolute > 1.0
        assert abs(got - expected) <= 1e-12 * expected

    def test_reads_the_same_at_every_kernel_scale(self):
        # Powers of two scale K without rounding, so K / max|K| is the same array.
        kernel = star_kernel(with_canonical_quantizers(build_scheme("mub-prime", p=3)))
        residuals = {
            associativity_residual(StarKernel(d=3, values=scale * kernel.values))
            for scale in (2.0**-500, 1.0, 2.0**500)
        }
        assert len(residuals) == 1
        assert residuals.pop() <= 1e-14


def _same_d_pairs():
    """Every ordered same-d pair of the quantized regression set, and bare
    mub-prime p = 5 and 7 each with itself."""
    schemes = _quantized_regression_set()
    pairs = [(a, b) for a in schemes for b in schemes if a.d == b.d]
    bare = [build_scheme("mub-prime", p=p) for p in (5, 7)]
    return pairs + [(s, s) for s in bare]


def _kernel_pair_reference(source, target):
    """The (forward, backward) kernels as one einsum each: target
    dequantizers against source quantizers, and the reverse."""
    source, target = with_canonical_quantizers(source), with_canonical_quantizers(target)
    forward = np.einsum("kab,lab->kl", target.dequantizers.conj(), source.quantizers)
    backward = np.einsum("kab,lab->kl", source.dequantizers.conj(), target.quantizers)
    return forward, backward


class TestIntertwiner:
    def test_same_scheme_gives_identity(self):
        s = matrix_units_scheme(2)
        assert np.abs(intertwiner(s, s) - np.eye(4)).max() <= 1e-14

    def test_minimal_pair_composes_to_identity(self):
        mu, pauli = matrix_units_scheme(2), pauli_scheme("hermitian")
        forward, backward = intertwiner(mu, pauli), intertwiner(pauli, mu)
        assert np.abs(backward @ forward - np.eye(4)).max() <= 1e-12
        assert np.abs(forward @ backward - np.eye(4)).max() <= 1e-12

    def test_overfilled_round_trip(self, rng):
        pauli = pauli_scheme("hermitian")
        mub = with_canonical_quantizers(mub_qubit_scheme())
        forward, backward = intertwiner(pauli, mub), intertwiner(mub, pauli)
        for _ in range(100):
            a = random_complex(rng, (2, 2))
            f = symbol(pauli, a)
            assert np.abs(backward @ (forward @ f) - f).max() <= 1e-10

    def test_forward_maps_symbols(self, rng):
        source = pauli_scheme("hermitian")
        target = with_canonical_quantizers(sic_qubit_scheme("povm"))
        forward = intertwiner(source, target)
        a = random_complex(rng, (2, 2))
        assert np.abs(forward @ symbol(source, a) - symbol(target, a)).max() <= 1e-12

    @pytest.mark.parametrize("source, target", _same_d_pairs(), ids=lambda s: s.name)
    def test_each_direction_is_one_einsum(self, source, target):
        forward, backward = _kernel_pair_reference(source, target)
        assert intertwiner(source, target).tobytes() == forward.tobytes()
        assert intertwiner(target, source).tobytes() == backward.tobytes()

    def test_bare_non_tomographic_target_is_accepted(self, rng):
        # Only the source's quantizers are read, so the target needs no dual.
        underfilled = Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3])
        pauli = pauli_scheme("hermitian")
        kernel = intertwiner(pauli, underfilled)
        assert kernel.shape == (3, 4)
        a = random_complex(rng, (2, 2))
        assert np.abs(kernel @ symbol(pauli, a) - symbol(underfilled, a)).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            intertwiner(matrix_units_scheme(2), matrix_units_scheme(3))

    def test_not_tomographic(self):
        # A bare source must have a dual: its quantizers are the ones read.
        underfilled = Scheme(dequantizers=mub_qubit_scheme().dequantizers[:3])
        with pytest.raises(NotTomographicError):
            intertwiner(underfilled, matrix_units_scheme(2))


class TestSymbolRoundtripResidual:
    @staticmethod
    def _overfilled_pair():
        pauli, mub = pauli_scheme("hermitian"), mub_qubit_scheme()
        return pauli, intertwiner(pauli, mub), intertwiner(mub, pauli)

    def test_one_symbol_matches_its_row_of_a_stack(self, rng):
        pauli, forward, backward = self._overfilled_pair()
        f = symbol(pauli, random_complex(rng, (3, 5, 2, 2)))
        stacked = symbol_roundtrip_residual(forward, backward, f)
        assert stacked.shape == (3, 5)
        for index in np.ndindex(3, 5):
            one = symbol_roundtrip_residual(forward, backward, f[index])
            assert type(one) is float
            assert np.float64(one).tobytes() == stacked[index].tobytes()
        assert stacked.max() <= 1e-10

    def test_reads_the_same_at_every_scale(self, rng):
        pauli, forward, backward = self._overfilled_pair()
        f = symbol(pauli, random_complex(rng, (20, 2, 2)))
        residual = symbol_roundtrip_residual(forward, backward, f)
        assert residual.max() > 0
        for k in (-600, -40, 1, 40, 600):
            scaled = symbol_roundtrip_residual(forward, backward, f * 2.0**k)
            assert scaled.tobytes() == residual.tobytes()

    def test_relative_to_the_largest_entry(self):
        # A backward kernel off by 1e-3 moves every entry by 1e-3 of itself.
        identity = np.eye(4)
        f = np.array([8.0, -2.0, 1j, 0.5])
        assert symbol_roundtrip_residual(identity, (1 + 1e-3) * identity, f) == pytest.approx(1e-3)

    def test_zero_symbol_gives_zero(self):
        _, forward, backward = self._overfilled_pair()
        assert symbol_roundtrip_residual(forward, backward, np.zeros(4)) == 0.0
        stacked = symbol_roundtrip_residual(forward, backward, np.zeros((2, 4)))
        assert stacked.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize(
        "forward, backward, f",
        [
            (np.ones((6, 4)), np.ones((4, 6)), np.ones(6)),
            (np.ones((6, 4)), np.ones((6, 4)), np.ones(4)),
            (np.ones((6, 4)), np.ones((4, 5)), np.ones((2, 4))),
            (np.ones(4), np.ones(4), np.ones(4)),
            (np.ones((6, 4)), np.ones((4, 6)), np.array(1.0)),
        ],
        ids=["symbol-length", "backward-shape", "backward-rows", "vector-kernels", "scalar"],
    )
    def test_shape_mismatch(self, forward, backward, f):
        with pytest.raises(DimensionMismatchError):
            symbol_roundtrip_residual(forward, backward, f)


class TestCubicIdentity:
    def test_identity_matrix(self):
        assert cubic_unitary_residual(np.eye(4)) == 0

    def test_livine_normalized_matrix(self):
        u = np.sqrt(2) * dequantization_matrix(livine_scheme())
        assert cubic_unitary_residual(u) <= 1e-12

    @pytest.mark.parametrize("dim", [4, 9])
    def test_random_unitaries(self, rng, dim):
        for _ in range(30):
            u = haar_unitaries(rng.standard_normal((2, dim, dim)))
            assert cubic_unitary_residual(u) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            cubic_unitary_residual(np.diag([2.0, 1.0]))

    def test_empty_stack_gives_empty_residuals(self):
        residuals = cubic_unitary_residual(np.zeros((0, 3, 3)))
        assert residuals.shape == (0,)

    def test_rejects_a_vector(self):
        with pytest.raises(DimensionMismatchError, match="expected a matrix or a stack of matrices, got ndim=1"):
            cubic_unitary_residual(np.ones(4))

    @pytest.mark.parametrize("shape", [(2, 3), (5, 3, 2)])
    def test_rejects_non_square_as_malformed_input(self, shape):
        message = f"expected a square matrix, got shape {shape}"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)) as info:
            cubic_unitary_residual(np.ones(shape))
        assert isinstance(info.value, MalformedInputError)


class TestSelfDualKernelConsistency:
    def test_normalization_unwinds_exactly(self):
        s = livine_scheme("dequantizer")
        rebuilt = Scheme(dequantizers=0.5 * s.quantizers, quantizers=s.quantizers)
        k1 = star_kernel(s).values
        k2 = star_kernel(rebuilt).values
        assert np.array_equal(k1, k2)


class TestStackedForms:
    """Leading stack axes give what a per-item loop gives."""

    @pytest.fixture(params=[(2, 4), (3, 9), (2, 7), (3, 14)], ids=lambda p: f"d{p[0]}-n{p[1]}")
    def scheme(self, request, rng):
        # Random Ginibre families: N = d^2 is minimal, larger N overfilled.
        d, n = request.param
        return with_canonical_quantizers(Scheme(dequantizers=random_complex(rng, (n, d, d))))

    def test_symbol_and_reconstruct(self, scheme, rng):
        ops = random_complex(rng, (2, 5, scheme.d, scheme.d))
        symbols = symbol(scheme, ops)
        assert symbols.shape == (2, 5, scheme.n_points)
        expected = np.array([[symbol(scheme, a) for a in row] for row in ops])
        assert np.abs(symbols - expected).max() <= 1e-13
        rebuilt = reconstruct(scheme, symbols)
        assert rebuilt.shape == ops.shape
        expected = np.array([[reconstruct(scheme, f) for f in row] for row in symbols])
        assert np.abs(rebuilt - expected).max() <= 1e-13

    def test_star_multiply(self, scheme, rng):
        kernel = star_kernel(scheme)
        f_a = random_complex(rng, (6, scheme.n_points))
        f_b = random_complex(rng, (6, scheme.n_points))
        expected = np.array([star_multiply(kernel, a, b) for a, b in zip(f_a, f_b)])
        assert np.abs(star_multiply(kernel, f_a, f_b) - expected).max() <= 1e-13
        # One symbol broadcasts against a stack.
        expected = np.array([star_multiply(kernel, f_a[0], b) for b in f_b])
        assert np.abs(star_multiply(kernel, f_a[0], f_b) - expected).max() <= 1e-13

    def test_stack_length_mismatch(self, scheme):
        with pytest.raises(DimensionMismatchError):
            symbol(scheme, np.zeros((3, scheme.d + 1, scheme.d + 1)))
        message = f"symbol length {scheme.n_points + 1} does not match scheme size N={scheme.n_points}"
        with pytest.raises(DimensionMismatchError, match=re.escape(message)):
            reconstruct(scheme, np.zeros((3, scheme.n_points + 1)))

    @pytest.mark.parametrize("dim", [4, 9])
    def test_cubic_unitary_residual(self, rng, dim):
        unitaries = haar_unitaries(rng.standard_normal((3, 4, 2, dim, dim)))
        residuals = cubic_unitary_residual(unitaries)
        assert residuals.shape == (3, 4)
        expected = np.array([[cubic_unitary_residual(u) for u in row] for row in unitaries])
        assert np.abs(residuals - expected).max() <= 1e-13

    def test_cubic_rejects_stack_with_non_unitary_member(self, rng):
        unitaries = haar_unitaries(rng.standard_normal((3, 2, 4, 4)))
        unitaries[1] *= 2
        with pytest.raises(NotUnitaryError):
            cubic_unitary_residual(unitaries)


def _scaled(name, scale, **params):
    return Scheme(dequantizers=scale * build_scheme(name, **params).dequantizers)


def _shifted_quantizers_overflow():
    # The canonical quantizers of mub-qubit x 1e-307 reach 6.7e306 in row 0;
    # the null vector (1, 1, -1, -1, 0, 0) times 1.79e308 there passes the
    # gauge test but its sum with them does not fit in a float64.
    s = _scaled("mub-qubit", 1e-307)
    g = np.zeros((4, 6))
    g[0] = 1.79e308 * np.array([1, 1, -1, -1, 0, 0])
    return gauge_quantizers(s, g)


def _roundtrip_overflow():
    # Both kernels are finite, but the symbol of 1e160 I carried through
    # Pauli x 1e160 and back leaves the float64 range.
    pauli, big = pauli_scheme("hermitian"), _scaled("pauli", 1e160)
    f = symbol(pauli, 1e160 * np.eye(2))
    return symbol_roundtrip_residual(intertwiner(pauli, big), intertwiner(big, pauli), f)


class TestFloatRange:
    """Every function behind a CLI output returns finite values or raises
    ScaleOutOfRangeError naming the result that left the float64 range."""

    @pytest.mark.parametrize(
        "compute, what",
        [
            (
                lambda: canonical_quantizers(_scaled("pauli", 1e-310).dequantizers),
                "the canonical quantizers overflow",
            ),
            (_shifted_quantizers_overflow, "the shifted quantizers overflow"),
            (
                lambda: completeness_residual(Scheme(
                    dequantizers=1e200 * matrix_units_scheme(2).dequantizers,
                    quantizers=1e200 * matrix_units_scheme(2).dequantizers,
                )),
                "the completeness residual overflows",
            ),
            (lambda: symbol(_scaled("pauli", 1e160), 1e160 * np.eye(2)), "the symbol overflows"),
            (
                lambda: reconstruct(
                    with_canonical_quantizers(_scaled("pauli", 1e-160)), [1e200, 0, 0, 0]
                ),
                "the reconstructed operator overflows",
            ),
            (
                lambda: star_kernel(with_canonical_quantizers(_scaled("mub-prime", 1e-160, p=3))),
                "the kernel entries overflow",
            ),
            (
                lambda: star_kernel(with_canonical_quantizers(_scaled("mub-prime", 1e155, p=3))),
                "the kernel entries underflow",
            ),
            (
                lambda: intertwiner(_scaled("pauli", 1e-160), _scaled("pauli", 1e160)),
                "the intertwining kernel overflows",
            ),
            (
                lambda: intertwiner(_scaled("mub-qubit", 1e-160), _scaled("pauli", 1e160)),
                "the intertwining kernel overflows",
            ),
            (_roundtrip_overflow, "the round-trip residual overflows"),
        ],
        ids=[
            "canonical_quantizers",
            "gauge_quantizers",
            "completeness_residual",
            "symbol",
            "reconstruct",
            "star_kernel-overflow",
            "star_kernel-underflow",
            "intertwiner-forward",
            "intertwiner-backward",
            "symbol_roundtrip_residual",
        ],
    )
    def test_raises_at_its_edge(self, compute, what):
        message = f"scheme scale out of float64 range: {what}; rescale the scheme"
        with pytest.raises(ScaleOutOfRangeError) as caught:
            compute()
        assert str(caught.value) == message
