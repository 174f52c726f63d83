"""Operator bases from d^2 x N matrices: star-product quantization toolkit.

Build dequantizer/quantizer schemes on finite-dimensional operator spaces,
compute symbols, kernels, and intertwiners, classify schemes (minimal,
overfilled, self-dual, POVM, matrix-unit-like), and verify the structural
facts that tie self-duality to scaled unitarity and rule out positive
self-dual POVM schemes.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    InvalidGaugeError,
    InvalidParameterError,
    LengthMismatchError,
    MissingQuantizersError,
    NonHermitianError,
    NonHermitianMemberError,
    NotOverfilledError,
    NotPrimeError,
    NotSICError,
    NotSquareError,
    NotSquareLengthError,
    NotTomographicError,
    NotUnitaryError,
    SamplerFailureError,
    ScaleOutOfRangeError,
    SchemeParseError,
    StarProdError,
    UnknownSchemeError,
    WrongCountError,
)
from .matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    hermitian_eig,
    rank,
    singular_values,
)
from .operator_space import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    VectorizationBasis,
    devectorize,
    hs_inner,
    matrix_unit,
    pauli_basis,
    row_stack,
    unstack,
    validate_orthonormal_basis,
    vectorize,
)
from .scheme import (
    NegativityReport,
    PovmDiagnostics,
    Scheme,
    SchemeReport,
    canonical_duals,
    canonical_quantizers,
    classify,
    completeness_residual,
    dequantization_matrix,
    duality_matrix,
    gauge_quantizers,
    matrix_unit_like_detect,
    negativity_report,
    povm_check,
    quantization_matrix,
    scaled_unitary_check,
    scheme_from_dequantization_matrix,
    self_dual_coefficient,
    self_dual_coefficients,
    with_canonical_quantizers,
)
from .star_product import (
    IntertwinerPair,
    StarKernel,
    associativity_residual,
    cubic_unitary_residual,
    intertwiner,
    reconstruct,
    star_kernel,
    star_multiply,
    symbol,
)
from . import catalog, serialization, verification

# The public names bound above.  ``from .x import ...`` also binds each
# submodule x; of those, only the three imported by name are part of the API.
__all__ = ["__version__", "catalog", "serialization", "verification"] + [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(catalog))
]
