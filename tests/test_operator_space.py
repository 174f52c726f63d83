import numpy as np
import pytest

from starprod import (
    DimensionMismatchError,
    NotSquareLengthError,
    VectorizationBasis,
    WrongCountError,
    devectorize,
    pauli_basis,
    validate_orthonormal_basis,
    vectorize,
)
from starprod.operator_space import PAULI_X, PAULI_Y, PAULI_Z
from starprod.verification import haar_unitaries

from _helpers import random_complex


class TestVectorize:
    def test_row_stacking_order(self, rng):
        a, b, c, d = random_complex(rng, 4)
        z = np.array([[a, b], [c, d]])
        assert np.array_equal(
            vectorize(z, VectorizationBasis.row_stacking(2)), np.array([a, b, c, d])
        )

    def test_pauli_components(self, rng):
        a, b, c, d = random_complex(rng, 4)
        z = np.array([[a, b], [c, d]])
        expected = np.array([a + d, b + c, 1j * (b - c), a - d]) / np.sqrt(2)
        assert np.abs(vectorize(z, pauli_basis()) - expected).max() <= 1e-14

    def test_matrix_unit_column(self):
        v = vectorize(np.array([[0, 1], [0, 0]]), VectorizationBasis.row_stacking(2))
        assert np.array_equal(v, np.array([0, 1, 0, 0]))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            vectorize(np.eye(3), VectorizationBasis.row_stacking(2))

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 2)])
    def test_rejects_non_operator_trailing_shape(self, shape):
        with pytest.raises(DimensionMismatchError):
            vectorize(np.zeros(shape), VectorizationBasis.row_stacking(2))

    @pytest.mark.parametrize("basis", [VectorizationBasis.row_stacking(2), pauli_basis()])
    def test_stack_matches_per_operator(self, rng, basis):
        ops = random_complex(rng, (3, 5, 2, 2))
        vectors = vectorize(ops, basis)
        assert vectors.shape == (3, 5, 4)
        expected = np.array([[vectorize(op, basis) for op in row] for row in ops])
        assert np.array_equal(vectors, expected)
        assert np.abs(devectorize(vectors, basis) - ops).max() <= 1e-15


class TestDevectorize:
    def test_row_stacking(self):
        m = devectorize([1, 0, 0, 0], VectorizationBasis.row_stacking(2))
        assert np.array_equal(m, np.array([[1, 0], [0, 0]]))

    def test_pauli_inverse(self, rng):
        a, b, c, d = random_complex(rng, 4)
        v = np.array([a + d, b + c, 1j * (b - c), a - d]) / np.sqrt(2)
        m = devectorize(v, pauli_basis())
        assert np.abs(m - np.array([[a, b], [c, d]])).max() <= 1e-14

    def test_zero(self):
        assert np.array_equal(
            devectorize(np.zeros(4), VectorizationBasis.row_stacking(2)), np.zeros((2, 2))
        )

    @pytest.mark.parametrize("basis", [VectorizationBasis.row_stacking(2), pauli_basis()])
    def test_stack_matches_per_vector(self, rng, basis):
        vectors = random_complex(rng, (3, 5, 4))
        ops = devectorize(vectors, basis)
        assert ops.shape == (3, 5, 2, 2)
        expected = np.array([[devectorize(v, basis) for v in row] for row in vectors])
        assert np.abs(ops - expected).max() <= 1e-15

    def test_rejects_non_square_length(self):
        with pytest.raises(NotSquareLengthError):
            devectorize(np.zeros(5), VectorizationBasis.row_stacking(2))

    def test_rejects_wrong_basis_dimension(self):
        with pytest.raises(DimensionMismatchError):
            devectorize(np.zeros(9), VectorizationBasis.row_stacking(2))


class TestValidateOrthonormalBasis:
    def test_matrix_units(self):
        ops = np.eye(4).reshape(4, 2, 2)
        assert validate_orthonormal_basis(ops) == 0

    def test_pauli(self):
        assert validate_orthonormal_basis(pauli_basis().ops) <= 1e-15

    def test_duplicate_operator(self):
        ops = np.stack([np.eye(2), PAULI_X, PAULI_X, PAULI_Z]) / np.sqrt(2)
        # Gram of a duplicated member has an off-diagonal 1.
        assert abs(validate_orthonormal_basis(ops) - 1.0) <= 1e-14

    def test_wrong_count(self):
        with pytest.raises(WrongCountError):
            validate_orthonormal_basis(np.stack([np.eye(2)] * 3))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            validate_orthonormal_basis(np.zeros((4, 2, 3)))

    def test_constructor_validates(self):
        ops = np.stack([np.eye(2), PAULI_X, PAULI_X, PAULI_Z]) / np.sqrt(2)
        with pytest.raises(DimensionMismatchError):
            VectorizationBasis.orthonormal(ops)

    def test_constructor_leaves_callers_array_writeable(self):
        ops = pauli_basis().ops.copy()
        basis = VectorizationBasis.orthonormal(ops)
        assert ops.flags.writeable and not basis.ops.flags.writeable


def random_orthonormal_operator_basis(rng, d):
    """Rotate the matrix units by a Haar unitary on the d^2-dimensional space."""
    w = haar_unitaries(rng.standard_normal((2, d * d, d * d)))
    return np.stack([col.reshape(d, d) for col in w.T])


class TestProperties:
    def test_round_trip_both_variants(self, rng):
        bases = [VectorizationBasis.row_stacking(2), pauli_basis()]
        for _ in range(100):
            z = random_complex(rng, (2, 2))
            for basis in bases:
                back = devectorize(vectorize(z, basis), basis)
                assert np.abs(back - z).max() <= 1e-13

    def test_round_trip_d3_random_basis(self, rng):
        basis = VectorizationBasis.orthonormal(random_orthonormal_operator_basis(rng, 3))
        for _ in range(100):
            z = random_complex(rng, (3, 3))
            assert np.abs(devectorize(vectorize(z, basis), basis) - z).max() <= 1e-13

    def test_inner_product_basis_independence(self, rng):
        rs = VectorizationBasis.row_stacking(2)
        pb = pauli_basis()
        rb = VectorizationBasis.orthonormal(random_orthonormal_operator_basis(rng, 2))
        for _ in range(50):
            x = random_complex(rng, (2, 2))
            y = random_complex(rng, (2, 2))
            reference = np.trace(x.conj().T @ y)
            for basis in (rs, pb, rb):
                vx, vy = vectorize(x, basis), vectorize(y, basis)
                assert abs(vx.conj() @ vy - reference) <= 1e-12

    def test_linearity_row_stacking_exact(self, rng):
        basis = VectorizationBasis.row_stacking(2)
        for _ in range(20):
            x = random_complex(rng, (2, 2))
            y = random_complex(rng, (2, 2))
            alpha, beta = random_complex(rng, 2)
            lhs = vectorize(alpha * x + beta * y, basis)
            rhs = alpha * vectorize(x, basis) + beta * vectorize(y, basis)
            assert np.array_equal(lhs, rhs)

    def test_linearity_orthonormal(self, rng):
        basis = pauli_basis()
        for _ in range(20):
            x = random_complex(rng, (2, 2))
            y = random_complex(rng, (2, 2))
            alpha, beta = random_complex(rng, 2)
            lhs = vectorize(alpha * x + beta * y, basis)
            rhs = alpha * vectorize(x, basis) + beta * vectorize(y, basis)
            assert np.abs(lhs - rhs).max() <= 1e-13

