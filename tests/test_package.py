import ast
import importlib
import inspect
from pathlib import Path

import pytest

import starprod
from starprod import errors

PUBLIC_NAMES = [
    "DimensionMismatchError",
    "InvalidGaugeError",
    "InvalidParameterError",
    "MalformedInputError",
    "NegativityReport",
    "NotSICError",
    "NotTomographicError",
    "NotUnitaryError",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PovmDiagnostics",
    "ScaleOutOfRangeError",
    "Scheme",
    "SchemeParseError",
    "SchemeReport",
    "StarKernel",
    "StarProdError",
    "UnknownSchemeError",
    "__version__",
    "associativity_residual",
    "canonical_quantizers",
    "catalog",
    "classify",
    "completeness_residual",
    "cubic_unitary_residual",
    "dequantization_matrix",
    "devectorize",
    "gauge_quantizers",
    "intertwiner",
    "lowest_eigenvalues",
    "quantization_matrix",
    "rank",
    "reconstruct",
    "scaled_unitary_check",
    "scheme_from_dequantization_matrix",
    "self_dual_coefficients",
    "serialization",
    "singular_values",
    "star_kernel",
    "star_multiply",
    "symbol",
    "symbol_roundtrip_residual",
    "vectorize",
    "verification",
    "with_canonical_quantizers",
]

# Wrappers around code the callers now reach directly; the operator-basis
# type: an orthonormal basis is a self-dual scheme, its coordinates symbols;
# the error for a scheme without quantizers, which means its canonical dual;
# the clock and shift matrices, which displacement_orbit folds in; the
# random-POVM sampler's wrapper and private twin, now one public function;
# and its redraws (their budget, their error, the draw's attempt number),
# now that it draws once per seed, and its Python PCG64 seeding, now that
# PCG64 seeds itself from the SeedSequence words; the error subclasses no
# code caught, folded into the kept class of their exit code; the
# non-Hermitian member error, now that the negativity report is None for
# such a family; the second spelling of the canonical dual, whose one name
# now takes a stack of families instead of a scheme, and the duality matrix,
# which is intertwiner(s, s); the intertwiner's pair type, now that it
# returns the one kernel its arguments name, the backward one being
# intertwiner(target, source); the spectrum helper that also returned the
# hermiticity residuals, now that lowest_eigenvalues takes every spectrum;
# and the per-scheme diagnostics that each re-exposed one field of classify's
# report, which is their one public home.
# "function.parameter" names a parameter.
REMOVED = {
    "catalog": [
        "clock_matrix",
        "shift_matrix",
        "random_minimal_povm_dequantizers",
        "_random_minimal_povms",
        "_MAX_ATTEMPTS",
        "_povm_draw.attempt",
        "_seed_states",
        "_PCG64_MULT",
        "_MASK128",
    ],
    "serialization": [
        "matrix_to_json",
        "vector_to_json",
        "serialize_scheme",
        "json_to_matrix",
        "json_to_vector",
        "parse_scheme",
    ],
    "verification": ["haar_unitary"],
    "scheme": [
        "canonical_duals",
        "duality_matrix",
        "canonical_quantizers.s",
        "_hermiticity_and_lowest_eigenvalues",
        "matrix_unit_like_detect",
        "negativity_report",
        "povm_check",
        "self_dual_coefficient",
    ],
    "star_product": ["IntertwinerPair"],
    "operator_space": [
        "row_stack",
        "unstack",
        "hs_inner",
        "matrix_unit",
        "VectorizationBasis",
        "pauli_basis",
        "validate_orthonormal_basis",
    ],
    "matrixcore": ["hermiticity_residual", "hermitian_eig", "_require_square", "as_matrix"],
    "errors": [
        "NonHermitianError",
        "WrongCountError",
        "MissingQuantizersError",
        "SamplerFailureError",
        "LengthMismatchError",
        "NotSquareLengthError",
        "NotSquareError",
        "NotPrimeError",
        "NotOverfilledError",
        "NonHermitianMemberError",
    ],
}


def test_all_names_resolve_without_duplicates():
    assert len(starprod.__all__) == len(set(starprod.__all__))
    for name in starprod.__all__:
        assert hasattr(starprod, name), name


def test_public_names_are_pinned():
    assert sorted(starprod.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", list(REMOVED))
def test_removed_names_are_gone(module):
    namespace = vars(importlib.import_module(f"starprod.{module}"))

    def present(name):
        function, _, parameter = name.partition(".")
        if parameter:
            return parameter in inspect.signature(namespace[function]).parameters
        return name in namespace

    assert [name for name in REMOVED[module] if present(name)] == []


def test_cli_binds_no_range_guard():
    # The CLI computes no number: every float64-range guard runs in the library.
    assert "finite" not in vars(importlib.import_module("starprod.cli"))


# The private names one starprod module imports from another, as (importer,
# module, name): none.
SHARED_PRIVATE = set()


def test_no_other_private_name_crosses_a_module_boundary():
    crossings = set()
    for path in sorted(Path(starprod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.partition(".")[0] != "starprod":
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    crossings.add((path.stem, module.rpartition(".")[2], alias.name))
    assert crossings == SHARED_PRIVATE


def test_every_error_class_is_raised():
    # Names in each raise, and in what a function named there returns, so
    # that raise scale_error(...) counts for ScaleOutOfRangeError.
    raised, returned = set(), {}
    for path in sorted(Path(starprod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.FunctionDef):
                returned[node.name] = {
                    n.id
                    for r in ast.walk(node)
                    if isinstance(r, ast.Return) and r.value is not None
                    for n in ast.walk(r.value)
                    if isinstance(n, ast.Name)
                }
    for name in list(raised):
        raised |= returned.get(name, set())
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes - {"StarProdError", "MalformedInputError"} - raised == set()
