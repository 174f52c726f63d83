"""Star-product schemes: dequantization matrices, dual quantizers, classification.

A scheme is an ordered family of N dequantizer operators on a d-dimensional
space, optionally paired with quantizers.  Stacking the vectorized
dequantizers as columns gives the d^2 x N dequantization matrix; its rank
decides whether symbols determine operators, and its shape/structure decides
the scheme class (underfilled / minimal / overfilled, self-dual, POVM,
matrix-unit-like).
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidGaugeError,
    InvalidParameterError,
    NotTomographicError,
)
from . import matrixcore
from .matrixcore import finite, rank_from_singular_values, scale_error
from .operator_space import devectorize, vectorize

Cardinality = Literal["underfilled", "minimal", "overfilled"]


@dataclass(frozen=True)
class Scheme:
    """Ordered dequantizer family with optional quantizers.

    ``dequantizers`` has shape (N, d, d) with N, d >= 1; ``quantizers`` is
    None or the same shape; ``name`` is None or a string.  Every entry must
    be finite; InvalidParameterError names the first member that is not.
    Each family is held as a read-only complex copy, so later writes to the
    arrays it was built from do not reach it.

    Every function that reads quantizers uses the attached family, or the
    canonical dual ``canonical_quantizers`` when the scheme carries none; on
    a bare scheme that is not tomographic it raises NotTomographicError.
    """

    dequantizers: np.ndarray
    quantizers: np.ndarray | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if self.name is not None and not isinstance(self.name, str):
            raise InvalidParameterError(f"name must be a string, got {self.name!r}")
        deq = np.array(self.dequantizers, dtype=complex)
        if deq.ndim != 3 or deq.shape[1] != deq.shape[2] or 0 in deq.shape:
            raise DimensionMismatchError(
                f"dequantizers must be a non-empty stack of square matrices, got shape {deq.shape}"
            )
        object.__setattr__(self, "dequantizers", _finite_read_only("dequantizers", deq))
        self._attach(self.quantizers)

    @property
    def d(self) -> int:
        return self.dequantizers.shape[1]

    @property
    def n_points(self) -> int:
        return self.dequantizers.shape[0]

    def with_quantizers(self, quantizers: np.ndarray | None) -> "Scheme":
        """A copy carrying ``quantizers`` (None for none).  It shares this
        scheme's dequantizers, copied and checked when it was built, so only
        the new family is copied and checked."""
        s = copy.copy(self)
        s._attach(quantizers)
        return s

    def _attach(self, quantizers: np.ndarray | None) -> None:
        if quantizers is not None:
            quantizers = np.array(quantizers, dtype=complex)
            if quantizers.shape != self.dequantizers.shape:
                raise DimensionMismatchError(
                    f"quantizers shape {quantizers.shape} does not match "
                    f"dequantizers {self.dequantizers.shape}"
                )
            _finite_read_only("quantizers", quantizers)
        object.__setattr__(self, "quantizers", quantizers)


def _finite_read_only(label: str, family: np.ndarray) -> np.ndarray:
    """``family``, made read-only once every entry is seen to be finite."""
    bad = ~np.isfinite(family)
    if bad.any():
        raise InvalidParameterError(
            f"{label}[{np.argwhere(bad)[0, 0]}]: entries must be finite (NaN or inf found)"
        )
    family.setflags(write=False)
    return family


@dataclass(frozen=True)
class PovmDiagnostics:
    """Residuals of the POVM conditions over the dequantizer family."""

    sum_residual: float
    hermiticity_residual: float
    min_effect_eigenvalue: float
    is_povm: bool


@dataclass(frozen=True)
class NegativityReport:
    """Minimum eigenvalue across each Hermitian operator family."""

    min_dequantizer_eigenvalue: float
    min_quantizer_eigenvalue: float | None


@dataclass(frozen=True)
class SchemeReport:
    """Full classification of a scheme.

    ``matrix_unit_like`` only applies to square (N = d^2) dequantization
    matrices and is None otherwise; ``negativity`` is None when a family
    member is not Hermitian.  Every minimum eigenvalue is that of the
    members' Hermitian parts, so ``povm.min_effect_eigenvalue`` equals
    ``negativity.min_dequantizer_eigenvalue`` whenever the latter is reported.
    """

    cardinality: Cardinality
    tomographic: bool
    rank: int
    condition_number: float
    self_dual_coefficient: float | None
    scaled_unitary: float | None
    povm: PovmDiagnostics
    negativity: NegativityReport | None
    matrix_unit_like: np.ndarray | None


def dequantization_matrix(s: Scheme) -> np.ndarray:
    """d^2 x N matrix whose column k is the row-stacked k-th dequantizer."""
    return vectorize(s.dequantizers).T.copy()


def quantization_matrix(s: Scheme) -> np.ndarray:
    """d^2 x N matrix whose column k is the row-stacked k-th quantizer."""
    return vectorize(with_canonical_quantizers(s).quantizers).T.copy()


def scheme_from_dequantization_matrix(mat) -> Scheme:
    """Scheme whose dequantizers are the columns of the d^2 x N matrix ``mat``,
    each read in row stacking.

    Raises DimensionMismatchError unless ``mat`` is two-dimensional and its
    row count is a positive perfect square.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise DimensionMismatchError(f"expected a d^2 x N matrix, got shape {mat.shape}")
    return Scheme(dequantizers=devectorize(mat.T))


def _row_stacking_svd(deq: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Row-stacking dequantization matrices U (..., d^2, N) of a (..., N, d, d)
    stack of families, and their thin SVDs U = W Sigma V^dag."""
    u_mat = vectorize(deq).swapaxes(-1, -2)
    return u_mat, np.linalg.svd(u_mat, full_matrices=False)


def _dual_family(w: np.ndarray, sv: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """Canonical dual family of a rank-d^2 U = W Sigma V^dag: W Sigma^-1 V^dag =
    pinv(U)^dag, devectorized in row stacking."""
    dual = finite("the canonical quantizers overflow", lambda: (w / sv[..., None, :]) @ vh)
    return devectorize(dual.swapaxes(-1, -2))


def canonical_quantizers(dequantizers) -> np.ndarray:
    """Canonical quantizers dual to a dequantizer family or a stack of them.

    ``dequantizers`` has shape (..., N, d, d); the result has the same shape,
    one dual family per input family.  One thin SVD U = W Sigma V^dag of each
    dequantization matrix gives its rank and its dual pinv(U)^dag, for minimal
    and overfilled families alike.  Raises NotTomographicError when a family
    does not span the operator space, ScaleOutOfRangeError when a dual overflows.
    """
    deq = np.asarray(dequantizers, dtype=complex)
    if deq.ndim < 3 or deq.shape[-1] != deq.shape[-2]:
        raise DimensionMismatchError(
            f"expected a stack of square operator families, got shape {deq.shape}"
        )
    d_sq = deq.shape[-1] ** 2
    _, (w, sv, vh) = _row_stacking_svd(deq)
    ranks = rank_from_singular_values(sv).reshape(-1)
    deficient = np.flatnonzero(ranks < d_sq)
    if deficient.size:
        raise NotTomographicError(
            f"rank {ranks[deficient[0]]} < d^2 = {d_sq}; quantizers are undefined"
        )
    return _dual_family(w, sv, vh)


def with_canonical_quantizers(s: Scheme) -> Scheme:
    """The scheme as every quantizer-reading function sees it: a copy with
    canonical quantizers attached, or the scheme itself if it carries some."""
    if s.quantizers is not None:
        return s
    return s.with_quantizers(canonical_quantizers(s.dequantizers))


def completeness_residual(s: Scheme) -> float:
    """Max-abs entry of sum_k |D_k><U_k| - I over the operator space."""
    d_mat = quantization_matrix(s)
    u_mat = dequantization_matrix(s)
    return finite(
        "the completeness residual overflows",
        lambda: float(np.abs(d_mat @ u_mat.conj().T - np.eye(s.d * s.d)).max()),
    )


def gauge_quantizers(s: Scheme, g_mat) -> np.ndarray:
    """Quantizers shifted by a completeness-preserving gauge matrix.

    ``g_mat`` is d^2 x N in row-stacking coordinates and must satisfy
    U G^dag = 0 (its conjugated rows lie in the kernel of the dequantization
    matrix) to within RESIDUAL_TOL max|U| max|G|, a scale-free test; only
    overfilled schemes admit a nonzero kernel.
    """
    if s.n_points <= s.d * s.d:
        raise InvalidGaugeError(
            f"N = {s.n_points} <= d^2 = {s.d * s.d}: minimal schemes admit no gauge freedom"
        )
    u_mat = dequantization_matrix(s)
    g_mat = np.asarray(g_mat, dtype=complex)
    if g_mat.shape != u_mat.shape:
        raise DimensionMismatchError(
            f"gauge matrix shape {g_mat.shape} does not match {u_mat.shape}"
        )
    product = finite("the gauge residual overflows", lambda: u_mat @ g_mat.conj().T)
    violation = float(np.abs(product).max())
    # Relative to max|U| max|G|, multiplied so the zero gauge passes without 0 / 0.
    if violation > matrixcore.RESIDUAL_TOL * float(np.abs(u_mat).max()) * float(np.abs(g_mat).max()):
        raise InvalidGaugeError(
            f"gauge matrix does not annihilate the dequantization matrix "
            f"(residual {violation:.3e})"
        )
    d_mat = quantization_matrix(s)
    return devectorize(finite("the shifted quantizers overflow", lambda: d_mat + g_mat).T)


def self_dual_coefficients(dequantizers, quantizers) -> np.ndarray:
    """Per family of two equal-shaped (..., N, d, d) stacks, the positive c with
    U_k = c D_k for all k, or NaN if the family is not self-dual.

    c is estimated from the Frobenius norms of the two families and then
    verified entrywise: the residual U_k - c D_k must be at most
    ``RESIDUAL_TOL`` times the family's largest |U| entry, so the verdict
    does not change when the dequantizers are rescaled.  Each family is
    divided by the power of two of its largest |entry| before its entries are
    squared, and c takes the two exponents back, so no scale in the float64
    range overflows the norms.
    """
    deq = np.asarray(dequantizers, dtype=complex)
    pair = np.stack([deq, np.asarray(quantizers, dtype=complex)]).reshape(2, *deq.shape[:-3], -1)
    peak = np.abs(pair).max(axis=-1, initial=0.0)
    # ldexp applies 2^-e without forming it, which a subnormal peak would overflow.
    exponent = np.frexp(peak)[1]
    scaled = np.empty_like(pair)
    np.ldexp(pair.real, -exponent[..., None], out=scaled.real)
    np.ldexp(pair.imag, -exponent[..., None], out=scaled.imag)
    # Per family, np.linalg.norm's two dot products, each a 1 x K by K x 1 matmul.
    re, im = scaled.real[..., None, :], scaled.imag[..., None, :]
    u_norm, d_norm = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])
    u, q = pair
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.ldexp(u_norm / d_norm, exponent[0] - exponent[1])
        residual = np.abs(u - c[..., None] * q).max(axis=-1, initial=0.0)
    self_dual = (u_norm != 0.0) & (d_norm != 0.0) & (residual <= matrixcore.RESIDUAL_TOL * peak[0])
    return np.where(self_dual, c, np.nan)


def scaled_unitary_check(u_mat) -> float | None:
    """Positive c with U U^dag = c I for a d^2 x N matrix U, or None: the
    self-dual test at every N, as the canonical dual's matrix is
    (U U^dag)^-1 U.  An underfilled U, and one whose Gram matrix holds a NaN
    or an inf, never passes."""
    u_mat = np.asarray(u_mat, dtype=complex)
    if u_mat.ndim != 2:
        raise DimensionMismatchError(f"expected a d^2 x N matrix, got shape {u_mat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = u_mat @ u_mat.conj().T
        c = float(np.mean(np.diag(gram).real))
        residual = float(np.abs(gram - c * np.eye(u_mat.shape[0])).max())
    # Negated comparisons, so that a NaN fails the test.
    if not (c > 0.0 and residual <= matrixcore.RESIDUAL_TOL * c):
        return None
    return c


def lowest_eigenvalues(operators) -> np.ndarray:
    """Lowest eigenvalue of each matrix's Hermitian part A/2 + A^dag/2 (halved
    before the sum, which cannot overflow): a (..., d, d) stack with d >= 1
    gives shape (...), one per matrix.  Raises DimensionMismatchError for any
    other shape."""
    ops = np.asarray(operators, dtype=complex)
    if ops.ndim < 2 or ops.shape[-1] != ops.shape[-2] or ops.shape[-1] == 0:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {ops.shape}")
    return np.linalg.eigvalsh(ops / 2 + ops.conj().swapaxes(-1, -2) / 2)[..., 0]


def _povm_check(deq: np.ndarray) -> PovmDiagnostics:
    """POVM diagnostics of a dequantizer family.

    The minimum effect eigenvalue is that of the members' Hermitian parts,
    which ``_negativity_report`` reads as its dequantizer minimum; it is
    exact whenever the hermiticity residual passes.
    """
    sum_residual = float(np.abs(deq.sum(axis=0) - np.eye(deq.shape[-1])).max())
    herm_residual = float(np.abs(deq - deq.conj().swapaxes(-1, -2)).max())
    min_eig = float(lowest_eigenvalues(deq).min())
    is_povm = (
        sum_residual <= matrixcore.RESIDUAL_TOL
        and herm_residual <= matrixcore.RESIDUAL_TOL
        and min_eig >= -matrixcore.EIG_TOL
    )
    return PovmDiagnostics(
        sum_residual=sum_residual,
        hermiticity_residual=herm_residual,
        min_effect_eigenvalue=min_eig,
        is_povm=is_povm,
    )


def _negativity_report(
    deq: np.ndarray, q: np.ndarray | None, povm: PovmDiagnostics
) -> NegativityReport | None:
    """Minimum eigenvalue across the dequantizer family and the quantizer
    family ``q`` (if any), taken over the members' Hermitian parts.  The
    dequantizers' hermiticity residual and minimum are read from ``povm``,
    their ``_povm_check``, not recomputed.

    None when a member is not Hermitian within tolerance, relative to the
    largest entry of its family.
    """
    residuals = [(deq, povm.hermiticity_residual)]
    if q is not None:
        residuals.append((q, float(np.abs(q - q.conj().swapaxes(-1, -2)).max())))
    # Negated so that a NaN rejects a family, multiplied so that an all-zero one passes.
    if not all(r <= matrixcore.RESIDUAL_TOL * np.abs(f).max() for f, r in residuals):
        return None
    q_min = None if q is None else float(lowest_eigenvalues(q).min())
    return NegativityReport(povm.min_effect_eigenvalue, q_min)


def _matrix_unit_like(deq: np.ndarray) -> np.ndarray | None:
    """Unitary u with U_{d(i-1)+j} = |psi_i><psi_j| over u's columns, or None.

    In row stacking such a family's dequantization matrix is u (x) conj(u),
    so its reshuffle R[(a, i), (b, j)] = U_(i,j)[a, b] is w w^dag with
    w = vec(u), and any nonzero column of R is a multiple of w.  The column
    through u's first entry of largest modulus (row-major) gives u with that
    entry real positive, which fixes the one global phase the family cannot
    see; u rebuilds the family.
    """
    n, d = deq.shape[:2]
    if n != d * d:
        return None
    r = deq.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    j = int(np.argmax(r.diagonal().real))
    peak = r[j, j].real
    # Negated comparisons, so that a NaN entry rejects the family.
    if not peak > matrixcore.RESIDUAL_TOL:
        return None
    u = (r[:, j] / np.sqrt(peak)).reshape(d, d)
    if not np.abs(u.conj().T @ u - np.eye(d)).max() <= matrixcore.RESIDUAL_TOL:
        return None
    expected = np.einsum("ai,bj->ijab", u, u.conj()).reshape(d * d, d, d)
    if not np.abs(deq - expected).max() <= matrixcore.RESIDUAL_TOL:
        return None
    return u


def classify(s: Scheme) -> SchemeReport:
    """Full scheme report: cardinality, rank, conditioning, and diagnostics.

    Diagnostics that need quantizers read them as ``Scheme`` says, and are
    skipped on a bare scheme that is not tomographic.  Rank, condition
    number and that dual share one thin SVD of U, the row-stacking
    dequantization matrix, taken as ``canonical_quantizers`` takes it.  Every
    orthonormal basis gives G^dag U for a unitary G, with the same sigma and
    G^dag (U U^dag) G, so no verdict depends on the basis.  Raises
    ScaleOutOfRangeError for a nonzero scheme whose scale puts the sum of
    sigma^2 or of sigma^-2 over U's kept singular values outside the normal
    float64 range.
    """
    d_sq = s.d * s.d
    n = s.n_points
    deq = s.dequantizers
    u_mat, (w, sv, vh) = _row_stacking_svd(deq)
    rk = int(rank_from_singular_values(sv))
    # The diagnostics square the entries of U and of its dual (Gram matrix,
    # Frobenius norms), whose sums of squares are those of the kept sigma and
    # 1/sigma.  Outside the normal range they overflow or lose all precision
    # and the classification is wrong.  Python floats do so without a warning.
    kept = sv[:rk].tolist()
    powers = (sum(x * x for x in kept), sum((1 / x) * (1 / x) for x in kept))
    if rk and not all(sys.float_info.min <= p < math.inf for p in powers):
        raise scale_error(
            f"sum sigma^2 = {powers[0]:.3g} and sum sigma^-2 = {powers[1]:.3g} "
            "must be normal numbers"
        )
    tomographic = rk == d_sq
    if n < d_sq:
        cardinality: Cardinality = "underfilled"
    elif n == d_sq:
        cardinality = "minimal"
    else:
        cardinality = "overfilled"
    condition_number = float(sv[0] / sv[d_sq - 1]) if tomographic else float("inf")

    q = s.quantizers
    if q is None and tomographic:
        q = _dual_family(w, sv, vh)
    c = math.nan if q is None else float(self_dual_coefficients(deq, q))
    povm = _povm_check(deq)
    return SchemeReport(
        cardinality=cardinality,
        tomographic=tomographic,
        rank=rk,
        condition_number=condition_number,
        self_dual_coefficient=None if math.isnan(c) else c,
        scaled_unitary=scaled_unitary_check(u_mat),
        povm=povm,
        negativity=_negativity_report(deq, q, povm),
        matrix_unit_like=_matrix_unit_like(deq),
    )
