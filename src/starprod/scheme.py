"""Star-product schemes: dequantization matrices, dual quantizers, classification.

A scheme is an ordered family of N dequantizer operators on a d-dimensional
space, optionally paired with quantizers.  Stacking the vectorized
dequantizers as columns gives the d^2 x N dequantization matrix; its rank
decides whether symbols determine operators, and its shape/structure decides
the scheme class (underfilled / minimal / overfilled, self-dual, POVM,
matrix-unit-like).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidGaugeError,
    MissingQuantizersError,
    NonHermitianMemberError,
    NotOverfilledError,
    NotSquareError,
    NotTomographicError,
)
from .matrixcore import DEFAULT_TOL, ToleranceConfig, finite, rank_from_singular_values, scale_error
from .operator_space import VectorizationBasis, devectorize, vectorize

Cardinality = Literal["underfilled", "minimal", "overfilled"]


@dataclass(frozen=True)
class Scheme:
    """Ordered dequantizer family with optional quantizers.

    ``dequantizers`` has shape (N, d, d); ``quantizers`` is None or the same
    shape.  Values are treated as immutable.
    """

    dequantizers: np.ndarray
    quantizers: np.ndarray | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        deq = np.asarray(self.dequantizers, dtype=complex).view()
        if deq.ndim != 3 or deq.shape[1] != deq.shape[2]:
            raise DimensionMismatchError(
                f"dequantizers must be a stack of square matrices, got shape {deq.shape}"
            )
        deq.setflags(write=False)
        object.__setattr__(self, "dequantizers", deq)
        if self.quantizers is not None:
            qs = np.asarray(self.quantizers, dtype=complex).view()
            if qs.shape != deq.shape:
                raise DimensionMismatchError(
                    f"quantizers shape {qs.shape} does not match dequantizers {deq.shape}"
                )
            qs.setflags(write=False)
            object.__setattr__(self, "quantizers", qs)

    @property
    def d(self) -> int:
        return self.dequantizers.shape[1]

    @property
    def n_points(self) -> int:
        return self.dequantizers.shape[0]

    def require_quantizers(self) -> np.ndarray:
        if self.quantizers is None:
            raise MissingQuantizersError(
                f"scheme {self.name or '<unnamed>'} carries no quantizers"
            )
        return self.quantizers

    def with_quantizers(self, quantizers: np.ndarray) -> "Scheme":
        return dataclasses.replace(self, quantizers=quantizers)


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

    ``scaled_unitary`` and ``matrix_unit_like`` only apply to square (N = d^2)
    dequantization matrices and are None otherwise; ``negativity`` is None
    when a family member is not Hermitian.
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


def _default_basis(s: Scheme, basis: VectorizationBasis | None) -> VectorizationBasis:
    if basis is None:
        return VectorizationBasis.row_stacking(s.d)
    if basis.d != s.d:
        raise DimensionMismatchError(
            f"basis dimension d={basis.d} does not match scheme dimension d={s.d}"
        )
    return basis


def dequantization_matrix(s: Scheme, basis: VectorizationBasis | None = None) -> np.ndarray:
    """d^2 x N matrix whose column k is the vectorized k-th dequantizer."""
    return vectorize(s.dequantizers, _default_basis(s, basis)).T.copy()


def quantization_matrix(s: Scheme, basis: VectorizationBasis | None = None) -> np.ndarray:
    """d^2 x N matrix whose column k is the vectorized k-th quantizer."""
    return vectorize(s.require_quantizers(), _default_basis(s, basis)).T.copy()


def scheme_from_dequantization_matrix(mat, basis: VectorizationBasis) -> Scheme:
    """Scheme whose dequantizers are the devectorized columns of ``mat``."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != basis.dim:
        raise DimensionMismatchError(
            f"expected a {basis.dim} x N matrix, got shape {mat.shape}"
        )
    return Scheme(dequantizers=devectorize(mat.T, basis))


def _dual_matrix(w: np.ndarray, sv: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """Canonical dual W Sigma^-1 V^dag = pinv(U)^dag of a rank-d^2 U = W Sigma V^dag."""
    return finite("the canonical quantizers overflow", lambda: (w / sv[..., None, :]) @ vh)


def canonical_duals(dequantizers, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Canonical quantizer families dual to a stack of dequantizer families.

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
    rows = VectorizationBasis.row_stacking(deq.shape[-1])
    d_sq = rows.dim
    u_mat = vectorize(deq, rows).swapaxes(-1, -2)
    w, sv, vh = np.linalg.svd(u_mat, full_matrices=False)
    ranks = rank_from_singular_values(sv, tol).reshape(-1)
    deficient = np.flatnonzero(ranks < d_sq)
    if deficient.size:
        raise NotTomographicError(
            f"rank {ranks[deficient[0]]} < d^2 = {d_sq}; quantizers are undefined"
        )
    return devectorize(_dual_matrix(w, sv, vh).swapaxes(-1, -2), rows)


def canonical_quantizers(s: Scheme, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Quantizer family dual to the dequantizers: the one-family case of
    ``canonical_duals``.

    Raises NotTomographicError when the dequantizers do not span the
    operator space.
    """
    return canonical_duals(s.dequantizers, tol)


def with_canonical_quantizers(s: Scheme, tol: ToleranceConfig = DEFAULT_TOL) -> Scheme:
    """Copy of the scheme with canonical quantizers attached (kept if present)."""
    if s.quantizers is not None:
        return s
    return s.with_quantizers(canonical_quantizers(s, tol))


def completeness_residual(s: Scheme) -> float:
    """Max-abs entry of sum_k |D_k><U_k| - I over the operator space."""
    d_mat = quantization_matrix(s)
    u_mat = dequantization_matrix(s)
    return finite(
        "the completeness residual overflows",
        lambda: float(np.abs(d_mat @ u_mat.conj().T - np.eye(s.d * s.d)).max()),
    )


def gauge_quantizers(s: Scheme, g_mat, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Quantizers shifted by a completeness-preserving gauge matrix.

    ``g_mat`` is d^2 x N in row-stacking coordinates and must satisfy
    U G^dag = 0 (its conjugated rows lie in the kernel of the dequantization
    matrix) to within residual_tol max|U| max|G|, a scale-free test; only
    overfilled schemes admit a nonzero kernel.
    """
    if s.n_points <= s.d * s.d:
        raise NotOverfilledError(
            f"N = {s.n_points} <= d^2 = {s.d * s.d}: minimal schemes admit no gauge freedom"
        )
    basis = VectorizationBasis.row_stacking(s.d)
    u_mat = dequantization_matrix(s, basis)
    g_mat = np.asarray(g_mat, dtype=complex)
    if g_mat.shape != u_mat.shape:
        raise DimensionMismatchError(
            f"gauge matrix shape {g_mat.shape} does not match {u_mat.shape}"
        )
    product = finite("the gauge residual overflows", lambda: u_mat @ g_mat.conj().T)
    violation = float(np.abs(product).max())
    # Relative to max|U| max|G|, multiplied so the zero gauge passes without 0 / 0.
    if violation > tol.residual_tol * float(np.abs(u_mat).max()) * float(np.abs(g_mat).max()):
        raise InvalidGaugeError(
            f"gauge matrix does not annihilate the dequantization matrix "
            f"(residual {violation:.3e})"
        )
    d_mat = quantization_matrix(with_canonical_quantizers(s, tol), basis)
    return devectorize(finite("the shifted quantizers overflow", lambda: d_mat + g_mat).T, basis)


def duality_matrix(s: Scheme) -> np.ndarray:
    """N x N pairing Delta(k, k') = Tr[U_k^dag D_k'].

    Reduces to the identity for minimal tomographic schemes; with canonical
    quantizers on an overfilled scheme it is the Hermitian projector onto the
    range of the symbol map.
    """
    qs = s.require_quantizers()
    return np.einsum("kab,lab->kl", s.dequantizers.conj(), qs)


def self_dual_coefficients(
    dequantizers, quantizers, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Per family of two equal-shaped (..., N, d, d) stacks, the positive c with
    U_k = c D_k for all k, or NaN if the family is not self-dual.

    c is estimated from the Frobenius norms of the two families and then
    verified entrywise: the residual U_k - c D_k must be at most
    ``residual_tol`` times the family's largest |U| entry, so the verdict
    does not change when the dequantizers are rescaled.
    """
    deq = np.asarray(dequantizers, dtype=complex)
    pair = np.stack([deq, np.asarray(quantizers, dtype=complex)]).reshape(2, *deq.shape[:-3], -1)
    # Per family, np.linalg.norm's two dot products, each a 1 x K by K x 1 matmul.
    re, im = pair.real[..., None, :], pair.imag[..., None, :]
    u_norm, d_norm = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])
    u, q = pair
    with np.errstate(divide="ignore", invalid="ignore"):
        c = u_norm / d_norm
        residual = np.abs(u - c[..., None] * q).max(axis=-1, initial=0.0)
    scale = np.abs(u).max(axis=-1, initial=0.0)
    self_dual = (u_norm != 0.0) & (d_norm != 0.0) & (residual <= tol.residual_tol * scale)
    return np.where(self_dual, c, np.nan)


def self_dual_coefficient(s: Scheme, tol: ToleranceConfig = DEFAULT_TOL) -> float | None:
    """Positive c with U_k = c D_k for all k, or None if the scheme is not self-dual:
    the one-family case of ``self_dual_coefficients``."""
    c = float(self_dual_coefficients(s.dequantizers, s.require_quantizers(), tol))
    return None if np.isnan(c) else c


def scaled_unitary_check(u_mat, tol: ToleranceConfig = DEFAULT_TOL) -> float | None:
    """Positive c with U^dag U = c I for a square matrix, or None."""
    u_mat = np.asarray(u_mat, dtype=complex)
    if u_mat.ndim != 2 or u_mat.shape[0] != u_mat.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {u_mat.shape}")
    gram = u_mat.conj().T @ u_mat
    c = float(np.mean(np.diag(gram).real))
    if c <= 0.0:
        return None
    residual = float(np.abs(gram - c * np.eye(u_mat.shape[0])).max())
    if residual > tol.residual_tol * c:
        return None
    return c


def _member_hermiticity(family: np.ndarray) -> np.ndarray:
    return np.abs(family - family.conj().transpose(0, 2, 1)).reshape(family.shape[0], -1).max(axis=1)


def povm_check(s: Scheme, tol: ToleranceConfig = DEFAULT_TOL) -> PovmDiagnostics:
    """POVM diagnostics of the dequantizer family.

    Minimum effect eigenvalue is taken over the Hermitian parts, which is
    exact whenever the hermiticity residual passes.
    """
    deq = s.dequantizers
    sum_residual = float(np.abs(deq.sum(axis=0) - np.eye(s.d)).max())
    herm_residual = float(_member_hermiticity(deq).max())
    herm_parts = (deq + deq.conj().transpose(0, 2, 1)) / 2
    min_eig = float(np.linalg.eigvalsh(herm_parts)[:, 0].min())
    is_povm = (
        sum_residual <= tol.residual_tol
        and herm_residual <= tol.residual_tol
        and min_eig >= -tol.eig_tol
    )
    return PovmDiagnostics(
        sum_residual=sum_residual,
        hermiticity_residual=herm_residual,
        min_effect_eigenvalue=min_eig,
        is_povm=is_povm,
    )


def negativity_report(s: Scheme, tol: ToleranceConfig = DEFAULT_TOL) -> NegativityReport:
    """Minimum eigenvalue across the dequantizer and (if present) quantizer families.

    Every member must be Hermitian within tolerance, relative to the largest
    entry of its family; a non-Hermitian member raises NonHermitianMemberError
    naming its 0-based position.
    """
    families = [("dequantizer", s.dequantizers)]
    if s.quantizers is not None:
        families.append(("quantizer", s.quantizers))
    minima: dict[str, float] = {}
    for label, family in families:
        residuals = _member_hermiticity(family)
        worst = int(np.argmax(residuals))
        # Multiplied, not divided, so an all-zero family passes without 0 / 0.
        scale = float(np.abs(family).max())
        if residuals[worst] > tol.residual_tol * scale:
            raise NonHermitianMemberError(
                f"{label} {worst} is not Hermitian "
                f"(relative residual {residuals[worst] / scale:.3e})"
            )
        minima[label] = float(np.linalg.eigvalsh(family)[:, 0].min())
    return NegativityReport(
        min_dequantizer_eigenvalue=minima["dequantizer"],
        min_quantizer_eigenvalue=minima.get("quantizer"),
    )


def matrix_unit_like_detect(
    s: Scheme, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray | None:
    """Unitary u with U_{d(i-1)+j} = |psi_i><psi_j| over u's columns, or None.

    In row stacking such a family's dequantization matrix is u (x) conj(u),
    so its reshuffle R[(a, i), (b, j)] = U_(i,j)[a, b] is w w^dag with
    w = vec(u), and any nonzero column of R is a multiple of w.  The column
    through u's first entry of largest modulus (row-major) gives u with that
    entry real positive, which fixes the one global phase the family cannot
    see; u rebuilds the family.
    """
    d = s.d
    if s.n_points != d * d:
        return None
    deq = s.dequantizers
    r = deq.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    j = int(np.argmax(r.diagonal().real))
    peak = r[j, j].real
    # Negated comparisons, so that a NaN entry rejects the family.
    if not peak > tol.residual_tol:
        return None
    u = (r[:, j] / np.sqrt(peak)).reshape(d, d)
    if not np.abs(u.conj().T @ u - np.eye(d)).max() <= tol.residual_tol:
        return None
    expected = np.einsum("ai,bj->ijab", u, u.conj()).reshape(d * d, d, d)
    if not np.abs(deq - expected).max() <= tol.residual_tol:
        return None
    return u


def classify(
    s: Scheme,
    tol: ToleranceConfig = DEFAULT_TOL,
    basis: VectorizationBasis | None = None,
) -> SchemeReport:
    """Full scheme report: cardinality, rank, conditioning, and diagnostics.

    Diagnostics that need quantizers use the attached family when present and
    the canonical one otherwise (tomographic schemes only).  Rank, condition
    number and that dual share one SVD of U_B, the dequantization matrix in
    ``basis``; U_B = G^dag U, so G pinv(U_B)^dag = pinv(U)^dag for invertible G.
    Raises ScaleOutOfRangeError for a nonzero scheme whose scale puts the sum
    of sigma^2 or of sigma^-2 over U_B's kept singular values outside the
    normal float64 range.
    """
    basis = _default_basis(s, basis)
    u_mat = dequantization_matrix(s, basis)
    d_sq = s.d * s.d
    n = s.n_points
    w, sv, vh = np.linalg.svd(u_mat, full_matrices=False)
    rk = int(rank_from_singular_values(sv, tol))
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

    diagnostic = s
    if s.quantizers is None and tomographic:
        diagnostic = s.with_quantizers(devectorize(_dual_matrix(w, sv, vh).T, basis))
    self_dual = (
        self_dual_coefficient(diagnostic, tol) if diagnostic.quantizers is not None else None
    )
    scaled_unitary = scaled_unitary_check(u_mat, tol) if n == d_sq else None
    try:
        negativity = negativity_report(diagnostic, tol)
    except NonHermitianMemberError:
        negativity = None
    return SchemeReport(
        cardinality=cardinality,
        tomographic=tomographic,
        rank=rk,
        condition_number=condition_number,
        self_dual_coefficient=self_dual,
        scaled_unitary=scaled_unitary,
        povm=povm_check(s, tol),
        negativity=negativity,
        matrix_unit_like=matrix_unit_like_detect(s, tol),
    )
