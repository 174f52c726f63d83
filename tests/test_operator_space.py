import re

import numpy as np
import pytest

from starprod import (
    DimensionMismatchError,
    classify,
    devectorize,
    reconstruct,
    scheme_from_dequantization_matrix,
    symbol,
    vectorize,
)
from starprod.catalog import pauli_scheme
from starprod.verification import haar_unitaries

from _helpers import random_complex

# Coordinates of operators in a trace-orthonormal basis, and back.  Row
# stacking is the library's vectorization; any other basis is a self-dual
# scheme with c = 1, whose coordinates are symbols.
ROW_STACKING = (vectorize, devectorize)


def scheme_basis(b):
    """The coordinate maps of the orthonormal basis held by the scheme b."""
    return (lambda z: symbol(b, z), lambda v: reconstruct(b, v))


def random_orthonormal_basis(rng, d):
    """The matrix units rotated by a Haar unitary on the d^2-dimensional space,
    as a self-dual scheme: the unitary's columns in row stacking."""
    s = scheme_from_dequantization_matrix(haar_unitaries(rng.standard_normal((2, d * d, d * d))))
    return s.with_quantizers(s.dequantizers)


PAULI = scheme_basis(pauli_scheme())


class TestVectorize:
    def test_row_stacking_order(self, rng):
        a, b, c, d = random_complex(rng, 4)
        z = np.array([[a, b], [c, d]])
        assert np.array_equal(vectorize(z), np.array([a, b, c, d]))

    def test_infers_the_dimension(self):
        z = np.arange(9).reshape(3, 3)
        assert np.array_equal(vectorize(z), np.arange(9))

    def test_pauli_components(self, rng):
        a, b, c, d = random_complex(rng, 4)
        z = np.array([[a, b], [c, d]])
        expected = np.array([a + d, b + c, 1j * (b - c), a - d]) / np.sqrt(2)
        assert np.abs(symbol(pauli_scheme(), z) - expected).max() <= 1e-14

    def test_matrix_unit_column(self):
        v = vectorize(np.array([[0, 1], [0, 0]]))
        assert np.array_equal(v, np.array([0, 1, 0, 0]))

    def test_shape_mismatch(self):
        # An operator of another dimension has no coordinates in the basis.
        with pytest.raises(DimensionMismatchError):
            symbol(pauli_scheme(), np.eye(3))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 2)])
    def test_rejects_non_operator_trailing_shape(self, shape):
        with pytest.raises(DimensionMismatchError):
            vectorize(np.zeros(shape))

    def test_empty_stack(self):
        assert vectorize(np.zeros((0, 2, 2))).shape == (0, 4)

    @pytest.mark.parametrize("basis", [ROW_STACKING, PAULI])
    def test_stack_matches_per_operator(self, rng, basis):
        to_vector, to_operator = basis
        ops = random_complex(rng, (3, 5, 2, 2))
        vectors = to_vector(ops)
        assert vectors.shape == (3, 5, 4)
        expected = np.array([[to_vector(op) for op in row] for row in ops])
        assert np.array_equal(vectors, expected)
        assert np.abs(to_operator(vectors) - ops).max() <= 1e-15


class TestDevectorize:
    def test_row_stacking(self):
        m = devectorize([1, 0, 0, 0])
        assert np.array_equal(m, np.array([[1, 0], [0, 0]]))

    def test_pauli_inverse(self, rng):
        a, b, c, d = random_complex(rng, 4)
        v = np.array([a + d, b + c, 1j * (b - c), a - d]) / np.sqrt(2)
        m = reconstruct(pauli_scheme(), v)
        assert np.abs(m - np.array([[a, b], [c, d]])).max() <= 1e-14

    def test_zero(self):
        assert np.array_equal(devectorize(np.zeros(4)), np.zeros((2, 2)))

    @pytest.mark.parametrize("basis", [ROW_STACKING, PAULI])
    def test_stack_matches_per_vector(self, rng, basis):
        _, to_operator = basis
        vectors = random_complex(rng, (3, 5, 4))
        ops = to_operator(vectors)
        assert ops.shape == (3, 5, 2, 2)
        expected = np.array([[to_operator(v) for v in row] for row in vectors])
        assert np.abs(ops - expected).max() <= 1e-15

    def test_rejects_non_square_length(self):
        with pytest.raises(DimensionMismatchError, match=re.escape("vector length 5 is not a perfect square")):
            devectorize(np.zeros(5))

    def test_rejects_zero_length(self):
        with pytest.raises(DimensionMismatchError, match=re.escape("vector length 0 holds no operator")):
            devectorize(np.zeros((3, 0)))


class TestProperties:
    def test_round_trip_both_variants(self, rng):
        bases = [ROW_STACKING, PAULI]
        for _ in range(100):
            z = random_complex(rng, (2, 2))
            for to_vector, to_operator in bases:
                back = to_operator(to_vector(z))
                assert np.abs(back - z).max() <= 1e-13

    def test_round_trip_d3_random_basis(self, rng):
        basis = random_orthonormal_basis(rng, 3)
        for _ in range(100):
            z = random_complex(rng, (3, 3))
            assert np.abs(reconstruct(basis, symbol(basis, z)) - z).max() <= 1e-13

    def test_inner_product_basis_independence(self, rng):
        bases = [ROW_STACKING, PAULI, scheme_basis(random_orthonormal_basis(rng, 2))]
        for _ in range(50):
            x = random_complex(rng, (2, 2))
            y = random_complex(rng, (2, 2))
            reference = np.trace(x.conj().T @ y)
            for to_vector, _ in bases:
                vx, vy = to_vector(x), to_vector(y)
                assert abs(vx.conj() @ vy - reference) <= 1e-12

    def test_linearity_row_stacking_exact(self, rng):
        for _ in range(20):
            x = random_complex(rng, (2, 2))
            y = random_complex(rng, (2, 2))
            alpha, beta = random_complex(rng, 2)
            lhs = vectorize(alpha * x + beta * y)
            rhs = alpha * vectorize(x) + beta * vectorize(y)
            assert np.array_equal(lhs, rhs)

    def test_linearity_orthonormal(self, rng):
        to_vector, _ = PAULI
        for _ in range(20):
            x = random_complex(rng, (2, 2))
            y = random_complex(rng, (2, 2))
            alpha, beta = random_complex(rng, 2)
            lhs = to_vector(alpha * x + beta * y)
            rhs = alpha * to_vector(x) + beta * to_vector(y)
            assert np.abs(lhs - rhs).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    def test_an_orthonormal_basis_is_a_self_dual_unitary_scheme(self, rng, d):
        basis = pauli_scheme() if d == 2 else random_orthonormal_basis(rng, d)
        report = classify(basis)
        assert abs(report.self_dual_coefficient - 1) <= 1e-12
        assert abs(report.scaled_unitary - 1) <= 1e-12
