"""Operators as vectors: row-stacking vectorization.

A d x d operator and a d^2-vector carry the same data; the trace pairing
Tr[X^dag Y] on operators equals the standard inner product of the vectors.
Row stacking concatenates the rows of the matrix (a reshape in C order), so
component k = Z_ij with k = d(i-1) + j.  Coordinates in any other
trace-orthonormal operator basis B are the symbols of B taken as a
self-dual scheme with c = 1: ``symbol(B, Z)`` and ``reconstruct(B, f)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _pauli in (PAULI_X, PAULI_Y, PAULI_Z):
    _pauli.setflags(write=False)


def vectorize(z) -> np.ndarray:
    """Row-stacked d^2-vector of the d x d operator Z.

    Accepts a stack of operators (..., d, d) and returns the stack of vectors
    (..., d^2).
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim < 2 or z.shape[-1] != z.shape[-2]:
        raise DimensionMismatchError(f"expected a square operator or a stack of them, got shape {z.shape}")
    return z.reshape(*z.shape[:-2], z.shape[-1] ** 2).copy()


def devectorize(v) -> np.ndarray:
    """d x d operator whose row stacking is the d^2-vector v.

    Accepts a stack of vectors (..., d^2) and returns the stack of operators
    (..., d, d).  Raises DimensionMismatchError unless the length is a positive
    perfect square.
    """
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    length = v.shape[-1]
    d = math.isqrt(length)
    if d * d != length:
        raise DimensionMismatchError(f"vector length {length} is not a perfect square")
    if d == 0:
        raise DimensionMismatchError("vector length 0 holds no operator")
    return v.reshape(*v.shape[:-1], d, d)
