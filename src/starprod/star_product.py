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

from .errors import DimensionMismatchError, NotUnitaryError
from . import matrixcore
from .matrixcore import finite, scale_error
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
    """Operator sum_k f(k) D_k rebuilt from a symbol vector, with the
    canonical quantizers D_k of a bare scheme.

    Accepts a stack of symbols (..., N) and returns the stack of operators
    (..., d, d).
    """
    qs = with_canonical_quantizers(s).quantizers
    f = np.atleast_1d(np.asarray(f, dtype=complex))
    if f.shape[-1] != s.n_points:
        raise DimensionMismatchError(
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
    """Kernel tensor of the scheme."""
    qs = with_canonical_quantizers(s).quantizers
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
        raise DimensionMismatchError(
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


def intertwiner(source: Scheme, target: Scheme) -> np.ndarray:
    """Intertwining kernel T(k, l) = Tr[U_k^dag D_l] (M x N) mapping source
    symbols to target symbols: the target's dequantizers U paired with the
    source's quantizers D, read as ``Scheme`` says; a bare target needs no
    dual.  ``intertwiner(target, source)`` maps them back, acting as the
    identity on the range of the source symbol map.  ``intertwiner(s, s)`` is the duality matrix
    Delta(k, k') = Tr[U_k^dag D_k']: the identity for a minimal tomographic
    scheme, and with canonical quantizers, attached or implied, the Hermitian
    projector onto the range of the symbol map."""
    if source.d != target.d:
        raise DimensionMismatchError(
            f"schemes act on different spaces: d={source.d} vs d={target.d}"
        )
    qs = with_canonical_quantizers(source).quantizers
    return finite("the intertwining kernel overflows", lambda: np.einsum(
        "kab,lab->kl", target.dequantizers.conj(), qs))


def symbol_roundtrip_residual(forward, backward, f) -> float | np.ndarray:
    """max|backward (forward f) - f| / max|f| (over 1.0 for f = 0), the same at
    every scale, for M x N and N x M kernels; symbols (..., N) give one each."""
    f = np.asarray(f, dtype=complex)
    if (forward.ndim, backward.shape, f.shape[-1:]) != (2, forward.shape[::-1], forward.shape[1:]):
        raise DimensionMismatchError(
            f"kernels {forward.shape} and {backward.shape} do not fit symbols of shape {f.shape}"
        )

    def relative():
        scale = np.abs(f).max(axis=-1)
        back = (backward @ (forward @ f[..., None]))[..., 0]
        return np.abs(back - f).max(axis=-1) / np.where(scale, scale, 1.0)
    residual = finite("the round-trip residual overflows", relative)
    return float(residual) if residual.ndim == 0 else residual


def cubic_unitary_residual(u) -> float | np.ndarray:
    """Max-abs entry of u - (u u*) u^tr; zero for every unitary u.

    A stack of matrices (..., n, n) gives an array of per-matrix residuals;
    DimensionMismatchError is raised for rectangular matrices and
    NotUnitaryError if any member is not unitary within ``RESIDUAL_TOL``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2:
        raise DimensionMismatchError(f"expected a matrix or a stack of matrices, got ndim={u.ndim}")
    if u.shape[-1] != u.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {u.shape}")
    u_tr = u.swapaxes(-1, -2)
    unitarity = float(np.abs(u_tr.conj() @ u - np.eye(u.shape[-1])).max(initial=0.0))
    if unitarity > matrixcore.RESIDUAL_TOL:
        raise NotUnitaryError(f"matrix is not unitary (residual {unitarity:.3e})")
    residual = np.abs(u - (u @ u.conj()) @ u_tr).max(axis=(-2, -1))
    return float(residual) if residual.ndim == 0 else residual
