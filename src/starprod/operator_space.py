"""Operators as vectors: row-stacking and orthonormal-basis vectorization.

A d x d operator and a d^2-vector carry the same data; the trace pairing
Tr[X^dag Y] on operators equals the standard inner product of the vectors.
Row stacking concatenates the rows of the matrix (a reshape in C order);
the general variant expands the operator over any trace-orthonormal
operator basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotSquareLengthError,
    WrongCountError,
)
from .matrixcore import DEFAULT_TOL, ToleranceConfig

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _pauli in (PAULI_X, PAULI_Y, PAULI_Z):
    _pauli.setflags(write=False)


def validate_orthonormal_basis(ops) -> float:
    """Max deviation of the pairwise Gram matrix Tr[B_mu^dag B_nu] from the identity.

    The operator count must be d^2 for d x d members.
    """
    ops = np.asarray(ops, dtype=complex)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatchError(
            f"expected a stack of square operators, got shape {ops.shape}"
        )
    d = ops.shape[1]
    if ops.shape[0] != d * d:
        raise WrongCountError(f"expected {d * d} operators for d={d}, got {ops.shape[0]}")
    gram = np.tensordot(ops.conj(), ops, axes=([1, 2], [1, 2]))
    return float(np.abs(gram - np.eye(d * d)).max())


@dataclass(frozen=True)
class VectorizationBasis:
    """Rule mapping d x d operators to d^2-vectors.

    ``ops is None`` selects row stacking, component k = Z_ij with
    k = d(i-1) + j; otherwise components are Tr[B_mu^dag Z] over the stored
    trace-orthonormal operator stack.
    """

    d: int
    ops: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DimensionMismatchError(f"dimension must be positive, got {self.d}")
        if self.ops is not None:
            ops = np.asarray(self.ops, dtype=complex).view()
            ops.setflags(write=False)
            object.__setattr__(self, "ops", ops)

    @classmethod
    def row_stacking(cls, d: int) -> "VectorizationBasis":
        return cls(d=d)

    @classmethod
    def orthonormal(cls, ops, tol: ToleranceConfig = DEFAULT_TOL) -> "VectorizationBasis":
        """Basis over an explicit operator stack, validated for trace orthonormality."""
        ops = np.asarray(ops, dtype=complex)
        residual = validate_orthonormal_basis(ops)
        if residual > tol.residual_tol:
            raise DimensionMismatchError(
                f"operator basis is not trace-orthonormal (residual {residual:.3e})"
            )
        return cls(d=ops.shape[1], ops=ops)

    @property
    def dim(self) -> int:
        """Length of the produced vectors."""
        return self.d * self.d


def pauli_basis() -> VectorizationBasis:
    """The qubit basis (I, sigma_x, sigma_y, sigma_z) / sqrt(2)."""
    ops = np.stack([np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z]) / np.sqrt(2)
    return VectorizationBasis(d=2, ops=ops)


def vectorize(z, basis: VectorizationBasis) -> np.ndarray:
    """d^2-vector of the operator Z under the given basis.

    Accepts a stack of operators (..., d, d) and returns the stack of vectors
    (..., d^2).
    """
    z = np.asarray(z, dtype=complex)
    if z.shape[-2:] != (basis.d, basis.d):
        raise DimensionMismatchError(
            f"operator shape {z.shape} does not match basis dimension d={basis.d}"
        )
    flat = z.reshape(*z.shape[:-2], basis.dim)
    if basis.ops is None:
        return flat.copy()
    return np.matmul(basis.ops.conj().reshape(basis.dim, -1), flat[..., None])[..., 0]


def devectorize(v, basis: VectorizationBasis) -> np.ndarray:
    """Operator whose vectorization under the basis is v.

    Accepts a stack of vectors (..., d^2) and returns the stack of operators
    (..., d, d).
    """
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    length = v.shape[-1]
    side = np.sqrt(length)
    if side != np.floor(side):
        raise NotSquareLengthError(f"vector length {length} is not a perfect square")
    if length != basis.dim:
        raise DimensionMismatchError(
            f"vector length {length} does not match basis dimension {basis.dim}"
        )
    if basis.ops is None:
        return v.reshape(*v.shape[:-1], basis.d, basis.d)
    return np.tensordot(v, basis.ops, axes=(-1, 0))
