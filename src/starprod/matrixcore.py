"""Dense complex matrix primitives: tolerances, singular values, rank, range.

Matrices are plain ``numpy.ndarray`` values in row-major (C) order, so the
row-stacking map between operators and vectors is a reshape.  All functions
are pure and delegate the numerics to ``numpy.linalg``; what this module adds
are the contracts (ordering, tolerance semantics) and the error types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, ScaleOutOfRangeError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used across the package.

    rank_tol is relative (singular values are compared against
    ``rank_tol * sigma_max``).  residual_tol bounds max-abs entries of
    residuals: relative where a rescaled scheme must keep its verdict (to the
    family's largest entry for self-duality and the hermiticity test of
    ``negativity_report``, to max|U| max|G| for the gauge test), and absolute
    where the target fixes the scale (the identity, a POVM, matrix units, unit vectors).
    eig_tol is the eigenvalue sign threshold.
    """

    rank_tol: float = 1e-10
    residual_tol: float = 1e-10
    eig_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rank_tol", "residual_tol", "eig_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InvalidParameterError(
                    f"{name} must lie strictly between 0 and 1, got {value}"
                )


DEFAULT_TOL = ToleranceConfig()


def singular_values(m) -> np.ndarray:
    """Singular values of a matrix, descending; a stack (..., m, n) gives one row per matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise DimensionMismatchError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    return np.linalg.svd(m, compute_uv=False)


def rank_from_singular_values(sv, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Count of singular values (descending, last axis) above ``rank_tol * sigma_max``."""
    return np.count_nonzero(sv > tol.rank_tol * sv[..., :1], axis=-1)


def rank(m, tol: ToleranceConfig = DEFAULT_TOL) -> int | np.ndarray:
    """Numerical rank of a matrix under ``rank_from_singular_values``.

    A stack (..., m, n) gives an integer array of per-matrix ranks.
    """
    ranks = rank_from_singular_values(singular_values(m), tol)
    return int(ranks) if ranks.ndim == 0 else ranks


def scale_error(what: str) -> ScaleOutOfRangeError:
    """The error for a result, named by ``what``, that leaves the float64 range."""
    return ScaleOutOfRangeError(f"scheme scale out of float64 range: {what}; rescale the scheme")


def finite(what: str, compute: Callable[[], Any]) -> Any:
    """``compute()``'s result, run with numpy's overflow warnings off; raises
    ``scale_error(what)`` if an entry of it is inf or NaN."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        result = compute()
    if not np.isfinite(result).all():
        raise scale_error(what)
    return result
