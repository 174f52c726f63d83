"""Symbols, reconstruction, star-product kernels, and intertwiners.

The symbol of an operator is its vector of trace pairings with the
dequantizers; reconstruction sums quantizers against the symbol.  The
star-product kernel is the rank-3 tensor that makes symbol multiplication
mirror operator multiplication, and intertwiners translate symbols between
two schemes on the same space.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    LengthMismatchError,
    NotUnitaryError,
)
from .matrixcore import DEFAULT_TOL, ToleranceConfig, finite, scale_error
from .scheme import Scheme, with_canonical_quantizers


def symbol(s: Scheme, a) -> np.ndarray:
    """Symbol vector f_A(k) = Tr[U_k^dag A] of an operator.

    Accepts a stack of operators (..., d, d) and returns the stack of symbols
    (..., N).
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != (s.d, s.d):
        raise DimensionMismatchError(
            f"operator shape {a.shape} does not match scheme dimension d={s.d}"
        )
    deq = s.dequantizers.conj()
    return finite("the symbol overflows", lambda: np.einsum("kab,...ab->...k", deq, a))


def reconstruct(s: Scheme, f) -> np.ndarray:
    """Operator sum_k f(k) D_k rebuilt from a symbol vector.

    Accepts a stack of symbols (..., N) and returns the stack of operators
    (..., d, d).
    """
    qs = s.require_quantizers()
    f = np.atleast_1d(np.asarray(f, dtype=complex))
    if f.shape[-1] != s.n_points:
        raise LengthMismatchError(
            f"symbol length {f.shape[-1]} does not match scheme size N={s.n_points}"
        )
    return finite("the reconstructed operator overflows", lambda: np.tensordot(f, qs, axes=(-1, 0)))


@dataclass(frozen=True)
class StarKernel:
    """Rank-3 tensor K(k, k', k'') = Tr[U_k^dag D_k' D_k'']."""

    d: int
    values: np.ndarray

    @property
    def n_points(self) -> int:
        return self.values.shape[0]


def star_kernel(s: Scheme) -> StarKernel:
    """Kernel tensor of the scheme (quantizers required)."""
    qs = s.require_quantizers()
    n, d = s.n_points, s.d
    # Below the normal range, the products D_x D_y lose their digits silently.
    if np.vdot(qs, qs).real < sys.float_info.min and qs.any():
        raise scale_error("the kernel entries underflow")
    # All N^2 products D_x D_y in one batched matmul, then one GEMM pairs
    # them with the conjugated dequantizers: K[k, (x, y)].
    values = finite(
        "the kernel entries overflow",
        lambda: s.dequantizers.conj().reshape(n, d * d)
        @ np.matmul(qs[:, None], qs[None, :]).reshape(n * n, d * d).T,
    )
    return StarKernel(d=d, values=values.reshape(n, n, n))


def star_multiply(kernel: StarKernel, f_a, f_b) -> np.ndarray:
    """Symbol of the operator product: (f_a * f_b)(k) summed through the kernel.

    Accepts stacks of symbols (..., N) that broadcast against each other and
    returns the stack of product symbols.
    """
    f_a = np.atleast_1d(np.asarray(f_a, dtype=complex))
    f_b = np.atleast_1d(np.asarray(f_b, dtype=complex))
    n = kernel.n_points
    if f_a.shape[-1] != n or f_b.shape[-1] != n:
        raise LengthMismatchError(
            f"symbol lengths ({f_a.shape[-1]}, {f_b.shape[-1]}) do not match kernel size N={n}"
        )
    return np.einsum("kab,...a,...b->...k", kernel.values, f_a, f_b)


def associativity_residual(kernel: StarKernel) -> float:
    """Max-abs difference between the two ways of composing the kernel twice,
    relative to max|K|^2 (0.0 for an all-zero kernel).

    Compares sum_l K[k,l,m] K[l,a,b] with sum_l K[k,a,l] K[l,b,m] over all
    N^4 index tuples (k, a, b, m) of K / max|K|, so it reads the same at every
    scheme scale and no product overflows or goes subnormal.  Exhaustive:
    O(N^5) time, but only O(N^3) memory, because each k-slice is two GEMMs
    whose N^3 results are reduced to their max before the next slice.
    """
    k = kernel.values / (float(np.abs(kernel.values).max()) or 1.0)
    n = k.shape[0]
    flat = k.reshape(n, n * n)
    worst = np.empty(n)
    for i in range(n):
        # left[(a, b), m] and right[a, (b, m)] share the (a, b, m) layout.
        left = flat.T @ k[i]
        right = k[i] @ flat
        worst[i] = np.abs(left.reshape(n, n, n) - right.reshape(n, n, n)).max()
    return float(worst.max())


@dataclass(frozen=True)
class IntertwinerPair:
    """Kernels translating symbols between two schemes on the same space.

    ``forward`` (M x N) maps source-scheme symbols to target-scheme symbols;
    ``backward`` (N x M) maps them back, acting as the identity on the range
    of the source symbol map.
    """

    forward: np.ndarray
    backward: np.ndarray


def intertwiner(
    source: Scheme, target: Scheme, tol: ToleranceConfig = DEFAULT_TOL
) -> IntertwinerPair:
    """Intertwining kernel pair from trace pairings across the two schemes.

    Uses attached quantizers when present and canonical ones otherwise; both
    schemes must be tomographic.
    """
    if source.d != target.d:
        raise DimensionMismatchError(
            f"schemes act on different spaces: d={source.d} vs d={target.d}"
        )
    source = with_canonical_quantizers(source, tol)
    target = with_canonical_quantizers(target, tol)
    forward = finite("the forward kernel overflows", lambda: np.einsum(
        "kab,lab->kl", target.dequantizers.conj(), source.quantizers))
    backward = finite("the backward kernel overflows", lambda: np.einsum(
        "kab,lab->kl", source.dequantizers.conj(), target.quantizers))
    return IntertwinerPair(forward=forward, backward=backward)


def cubic_unitary_residual(u, tol: ToleranceConfig = DEFAULT_TOL) -> float | np.ndarray:
    """Max-abs entry of u - (u u*) u^tr; zero for every unitary u.

    A stack of matrices (..., n, n) gives an array of per-matrix residuals;
    NotUnitaryError is raised if any member is not unitary.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2:
        raise DimensionMismatchError(f"expected a matrix or a stack of matrices, got ndim={u.ndim}")
    if u.shape[-1] != u.shape[-2]:
        raise NotUnitaryError(f"expected a square matrix, got shape {u.shape}")
    u_tr = u.swapaxes(-1, -2)
    unitarity = float(np.abs(u_tr.conj() @ u - np.eye(u.shape[-1])).max())
    if unitarity > tol.residual_tol:
        raise NotUnitaryError(f"matrix is not unitary (residual {unitarity:.3e})")
    residual = np.abs(u - (u @ u.conj()) @ u_tr).max(axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual
