import numpy as np
import pytest

from starprod import ScaleOutOfRangeError, ToleranceConfig, rank, singular_values
from starprod.matrixcore import finite

from _helpers import random_complex


def mub_qubit_columns():
    """Row-stacked projectors of the six qubit MUB states, built by hand."""
    kets = [
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([1, 1], dtype=complex) / np.sqrt(2),
        np.array([1, -1], dtype=complex) / np.sqrt(2),
        np.array([1, 1j], dtype=complex) / np.sqrt(2),
        np.array([1, -1j], dtype=complex) / np.sqrt(2),
    ]
    return np.column_stack([np.outer(v, v.conj()).reshape(-1) for v in kets])


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.rank_tol == tol.residual_tol == tol.eig_tol == 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_tol=bad)
        with pytest.raises(ValueError):
            ToleranceConfig(residual_tol=bad)
        with pytest.raises(ValueError):
            ToleranceConfig(eig_tol=bad)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(4)), np.ones(4), atol=1e-14)

    def test_zero_rectangular(self):
        sv = singular_values(np.zeros((4, 6)))
        assert sv.shape == (4,)
        assert np.all(sv == 0)

    def test_mub_frame_oracle(self):
        # Independent oracle: eigenvalues of the frame operator
        # sum_k |U_k><U_k| computed by brute force.
        cols = mub_qubit_columns()
        frame = sum(np.outer(c, c.conj()) for c in cols.T)
        oracle = np.sqrt(np.linalg.eigvalsh(frame))[::-1]
        assert np.allclose(oracle, [np.sqrt(3), 1, 1, 1], atol=1e-12)
        assert np.allclose(singular_values(cols), oracle, atol=1e-12)

    def test_descending_and_count(self, rng):
        m = random_complex(rng, (5, 7))
        sv = singular_values(m)
        assert sv.shape == (5,)
        assert np.all(np.diff(sv) <= 1e-14)

    def test_frobenius_consistency(self, rng):
        for _ in range(30):
            m = random_complex(rng, (rng.integers(1, 7), rng.integers(1, 7)))
            lhs = (singular_values(m) ** 2).sum()
            rhs = (np.abs(m) ** 2).sum()
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


class TestRank:
    def test_identity(self):
        assert rank(np.eye(4)) == 4

    def test_mub_matrix(self):
        assert rank(mub_qubit_columns()) == 4

    def test_outer_product(self, rng):
        v = random_complex(rng, 4)
        w = random_complex(rng, 4)
        assert rank(np.outer(v, w.conj())) == 1

    def test_zero(self):
        assert rank(np.zeros((3, 5))) == 0

    def test_adjoint_and_gram_agree(self, rng):
        for _ in range(100):
            rows = rng.integers(1, 6)
            cols = rng.integers(1, 6)
            r = min(rows, cols, rng.integers(1, 6))
            m = random_complex(rng, (rows, r)) @ random_complex(rng, (r, cols))
            assert rank(m) == rank(m.conj().T) == rank(m.conj().T @ m) == r

    def test_stack_gives_per_matrix_ranks(self, rng):
        stack = np.zeros((2, 3, 4, 5), dtype=complex)
        for index in np.ndindex(2, 3):
            r = rng.integers(0, 5)
            stack[index] = random_complex(rng, (4, r)) @ random_complex(rng, (r, 5))
        ranks = rank(stack)
        assert ranks.shape == (2, 3)
        assert ranks.tolist() == [[rank(m) for m in row] for row in stack]



class TestFinite:
    def test_returns_a_finite_result(self):
        value = np.array([1e300, -1e-300, 0.0])
        assert finite("the value overflows", lambda: value) is value

    @pytest.mark.parametrize("compute", [lambda: np.array([1e300]) * 1e300, lambda: np.inf - np.inf])
    def test_names_a_result_that_is_not_finite_without_a_warning(self, compute):
        with pytest.raises(ScaleOutOfRangeError) as caught:
            finite("the value overflows", compute)
        assert str(caught.value) == (
            "scheme scale out of float64 range: the value overflows; rescale the scheme"
        )
