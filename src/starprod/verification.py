"""Structural verification battery.

Each check pins its tolerances, runs one acceptance-grade property
(table regression, symmetric-overlap conditions, the self-duality and
POVM-incompatibility statements, completeness/round-trip, kernel laws,
intertwining, the cubic unitary identity, the MUB frame), and reports its
residuals.  The sampled checks draw all samples of a scheme at once and
evaluate them as one stack through the library's stack-aware functions.
The CLI ``verify`` command and the acceptance test suite both drive these
functions.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .catalog import (
    default_fiducial,
    entries,
    livine_scheme,
    mub_qubit_scheme,
    pauli_scheme,
    random_minimal_povm_dequantizers,
    sic_qubit_scheme,
    TableRow,
    table_regression_set,
    matrix_units_scheme,
    wh_sic_scheme,
)
from .errors import InvalidParameterError
from .matrixcore import DEFAULT_TOL, ToleranceConfig, singular_values
from .operator_space import VectorizationBasis, devectorize
from .scheme import (
    Scheme,
    canonical_duals,
    classify,
    completeness_residual,
    dequantization_matrix,
    duality_matrix,
    negativity_report,
    scaled_unitary_check,
    self_dual_coefficient,
    self_dual_coefficients,
    with_canonical_quantizers,
)
from .star_product import (
    associativity_residual,
    cubic_unitary_residual,
    intertwiner,
    reconstruct,
    star_kernel,
    star_multiply,
    symbol,
)

DEFAULT_BATTERY_SEED = 20100231
# Random draws per dimension, scheme or size in the sampled checks, and the
# operator pairs per scheme in the kernel check.
_SAMPLES = 100
_KERNEL_PAIRS = 50


@dataclass
class CheckResult:
    """Outcome of one verification check with its residuals.

    ``seconds`` is the check's wall time, recorded by ``run_battery``.
    """

    name: str
    passed: bool
    seconds: float | None = None
    details: dict[str, Any] = field(default_factory=dict)


def _ginibre(normals: np.ndarray) -> np.ndarray:
    """Complex matrices (..., n, n) from standard normal draws (..., 2, n, n).

    Real parts come before imaginary parts, so drawing ``(count, 2, n, n)``
    at once consumes the generator exactly as ``count`` per-matrix draws of
    a real and then an imaginary (n, n) block.
    """
    return normals[..., 0, :, :] + 1j * normals[..., 1, :, :]


def haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries via batched QR of complex Ginibre matrices.

    ``normals`` holds standard normal draws of shape (..., 2, n, n) (see
    ``_ginibre``); the result has shape (..., n, n).
    """
    q, r = np.linalg.qr(_ginibre(normals) / np.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


@functools.cache
def _quantized_regression_set(tol: ToleranceConfig) -> tuple[tuple[str, Scheme], ...]:
    """The catalog regression set as (name, scheme with canonical quantizers),
    built once per tolerance and shared by the checks that sweep it."""
    return tuple(
        (entry.name, with_canonical_quantizers(entry.scheme, tol)) for entry in entries(tol)
    )


def _worst_table_residual(rows: list[TableRow]) -> float:
    """Largest entry deviation of the generated blocks from the expected ones."""
    return max(
        float(np.abs(generated - expected).max())
        for row in rows
        for generated, expected in (
            (row.generated_rowstacking, row.expected_rowstacking),
            (row.generated_pauli, row.expected_pauli),
        )
    )


def check_table_printed_rows() -> CheckResult:
    """Rows 1-3: generated matrices match the printed ones in both bases."""
    worst = _worst_table_residual(table_regression_set()[:3])
    return CheckResult(
        name="table-rows-1-3",
        passed=worst <= 1e-12,
        details={"max_residual": worst, "tolerance": 1e-12},
    )


def check_table_derived_rows() -> CheckResult:
    """Rows 4-6: generated matrices match the derived expectations; errata present."""
    rows = table_regression_set()[3:]
    worst = _worst_table_residual(rows)
    errata = [e for row in rows for e in row.errata]
    rows_flagged = {e.row for e in errata}
    return CheckResult(
        name="table-rows-4-6",
        passed=worst <= 1e-12 and rows_flagged == {4, 5, 6},
        details={
            "max_residual": worst,
            "tolerance": 1e-12,
            "errata": [f"row {e.row} [{e.block}]: {e.description}" for e in errata],
            "rows_flagged": sorted(rows_flagged),
        },
    )


def check_sic_conditions(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """Symmetric overlap conditions at d = 2 and d = 3."""
    projs = sic_qubit_scheme("projector").dequantizers
    gram = np.einsum("kab,lab->kl", projs.conj(), projs).real
    target = (2 * np.eye(4) + 1) / 3
    qubit_gram_res = float(np.abs(gram - target).max())

    effects = sic_qubit_scheme("povm").dequantizers
    egram = np.einsum("kab,lab->kl", effects.conj(), effects)
    off = egram[~np.eye(4, dtype=bool)]
    qubit_effect_res = float(np.abs(off - 1 / 12).max())

    qutrit = wh_sic_scheme(3, default_fiducial(3), tol).dequantizers
    qgram = np.einsum("kab,lab->kl", qutrit.conj(), qutrit).real
    qtarget = (3 * np.eye(9) + 1) / 4
    qutrit_gram_res = float(np.abs(qgram - qtarget).max())

    return CheckResult(
        name="sic-overlap-conditions",
        passed=qubit_gram_res <= 1e-12 and qubit_effect_res <= 1e-12 and qutrit_gram_res <= 1e-9,
        details={
            "qubit_projector_gram_residual": qubit_gram_res,
            "qubit_effect_gram_residual": qubit_effect_res,
            "qutrit_gram_residual": qutrit_gram_res,
            "tolerances": {"qubit": 1e-12, "qutrit": 1e-9},
        },
    )


def check_livine_positivity(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """The concrete self-dual scheme: c = 1/2, known spectrum, resolves the
    identity, yet fails positivity (no minimal self-dual scheme is a POVM)."""
    s = livine_scheme("dequantizer")
    c = self_dual_coefficient(s, tol)
    c_res = abs((c if c is not None else np.nan) - 0.5)
    eigs = np.linalg.eigh(s.dequantizers[0])[0]
    expected = np.array([(1 - np.sqrt(3)) / 4, (1 + np.sqrt(3)) / 4])
    eig_res = float(np.abs(eigs - expected).max())
    sum_res = float(np.abs(s.dequantizers.sum(axis=0) - np.eye(2)).max())
    min_eig = negativity_report(s, tol).min_dequantizer_eigenvalue
    passed = (
        c is not None
        and c_res <= 1e-12
        and eig_res <= 1e-12
        and sum_res <= 1e-12
        and min_eig < -tol.eig_tol
    )
    return CheckResult(
        name="livine-self-dual-not-povm",
        passed=bool(passed),
        details={
            "self_dual_coefficient": c,
            "coefficient_residual": c_res,
            "eigenvalue_residual": eig_res,
            "identity_sum_residual": sum_res,
            "min_dequantizer_eigenvalue": min_eig,
            "tolerance": 1e-12,
        },
    )


def check_self_duality_unitarity(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """Self-dual <=> scaled-unitary, both directions, at d = 2 and d = 3."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    worst_forward = 0.0
    for d in (2, 3):
        # Each sample draws its coefficient and then its unitary, so the
        # draws stay interleaved per sample.
        coefficients = np.empty(_SAMPLES)
        normals = np.empty((_SAMPLES, 2, d * d, d * d))
        for i in range(_SAMPLES):
            coefficients[i] = rng.uniform(0.1, 10.0)
            rng.standard_normal(out=normals[i])
        u_mats = np.sqrt(coefficients)[:, None, None] * haar_unitaries(normals)
        deq = devectorize(u_mats.swapaxes(1, 2), VectorizationBasis.row_stacking(d))
        recovered = self_dual_coefficients(deq, canonical_duals(deq, tol), tol)
        errors = np.abs(recovered - coefficients) / coefficients
        # A family that is not self-dual (NaN) counts as an infinite error.
        worst_forward = max(worst_forward, np.where(np.isnan(errors), np.inf, errors).max())

    worst_backward = 0.0
    checked = []
    for name, s in _quantized_regression_set(tol):
        c = self_dual_coefficient(s, tol)
        if c is None:
            continue
        u_mat = dequantization_matrix(s)
        c_gram = scaled_unitary_check(u_mat, tol)
        if c_gram is None:
            worst_backward = np.inf
            break
        worst_backward = max(worst_backward, abs(c_gram - c) / c)
        checked.append(name)

    passed = worst_forward <= 1e-9 and worst_backward <= 1e-9 and len(checked) > 0
    return CheckResult(
        name="self-dual-scaled-unitary",
        passed=bool(passed),
        details={
            "random_coefficient_worst_relative_error": float(worst_forward),
            "catalog_gram_worst_relative_error": worst_backward,
            "self_dual_catalog_schemes": checked,
            "samples_per_dimension": _SAMPLES,
            "tolerance": 1e-9,
        },
    )


def check_povm_dual_negativity(
    seeds: int = 1000, tol: ToleranceConfig = DEFAULT_TOL
) -> CheckResult:
    """Random minimal qubit POVM schemes always have a negative dual eigenvalue.

    Seeds 0 .. seeds-1 are sampled as one stack; ``seeds`` must be at least 1.
    """
    if seeds < 1:
        raise InvalidParameterError(f"seeds must be at least 1, got {seeds}")
    guard = 1e-10
    duals = canonical_duals(random_minimal_povm_dequantizers(2, range(seeds), tol), tol)
    # Eigenvalues of the Hermitian parts: the exact dual of a Hermitian
    # family is Hermitian, but rounding in the dual scales with conditioning
    # and the guard below absorbs it.
    herm = (duals + duals.conj().swapaxes(-1, -2)) / 2
    minima = np.linalg.eigvalsh(herm)[..., 0].min(axis=-1)
    conclusive = int(np.count_nonzero(minima <= -guard))
    counterexamples = int(np.count_nonzero(minima >= guard))
    inconclusive = seeds - conclusive - counterexamples
    passed = counterexamples == 0 and conclusive >= 0.99 * seeds
    return CheckResult(
        name="povm-dual-negativity",
        passed=bool(passed),
        details={
            "seeds": seeds,
            "conclusive": conclusive,
            "inconclusive": inconclusive,
            "counterexamples": counterexamples,
            "largest_min_quantizer_eigenvalue": float(minima.max()),
            "guard": guard,
        },
    )


def check_completeness_roundtrip(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """Completeness of the dual pair and symbol/reconstruct round trip."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    worst_complete = 0.0
    worst_roundtrip = 0.0
    for _, s in _quantized_regression_set(tol):
        worst_complete = max(worst_complete, completeness_residual(s))
        a = _ginibre(rng.standard_normal((_SAMPLES, 2, s.d, s.d)))
        worst_roundtrip = max(
            worst_roundtrip, float(np.abs(reconstruct(s, symbol(s, a)) - a).max())
        )
    passed = worst_complete <= 1e-10 and worst_roundtrip <= 1e-10
    return CheckResult(
        name="completeness-roundtrip",
        passed=bool(passed),
        details={
            "worst_completeness_residual": worst_complete,
            "worst_roundtrip_residual": worst_roundtrip,
            "operators_per_scheme": _SAMPLES,
            "tolerance": 1e-10,
        },
    )


def check_kernel_laws(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """Kernel homomorphism against operator products and exhaustive associativity."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    worst_hom = 0.0
    worst_assoc = 0.0
    for _, s in _quantized_regression_set(tol):
        kernel = star_kernel(s)
        worst_assoc = max(worst_assoc, associativity_residual(kernel))
        # Per pair: operator a, then operator b.
        ab = _ginibre(rng.standard_normal((_KERNEL_PAIRS, 2, 2, s.d, s.d)))
        a, b = ab[:, 0], ab[:, 1]
        via_kernel = star_multiply(kernel, symbol(s, a), symbol(s, b))
        direct = symbol(s, a @ b)
        worst_hom = max(worst_hom, float(np.abs(via_kernel - direct).max()))
    passed = worst_hom <= 1e-9 and worst_assoc <= 1e-10
    return CheckResult(
        name="kernel-homomorphism-associativity",
        passed=bool(passed),
        details={
            "worst_homomorphism_residual": worst_hom,
            "worst_associativity_residual": worst_assoc,
            "pairs_per_scheme": _KERNEL_PAIRS,
            "tolerances": {"homomorphism": 1e-9, "associativity": 1e-10},
        },
    )


def check_intertwining(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """Minimal-to-minimal kernels compose to the identity; overfilled round trip."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    mu = matrix_units_scheme(2)
    pauli = pauli_scheme("hermitian")
    pair = intertwiner(mu, pauli, tol)
    compose_res = max(
        float(np.abs(pair.backward @ pair.forward - np.eye(4)).max()),
        float(np.abs(pair.forward @ pair.backward - np.eye(4)).max()),
    )

    mub = with_canonical_quantizers(mub_qubit_scheme(), tol)
    pair2 = intertwiner(pauli, mub, tol)
    f = symbol(pauli, _ginibre(rng.standard_normal((_SAMPLES, 2, 2, 2))))
    back = (pair2.backward @ (pair2.forward @ f[..., None]))[..., 0]
    worst_roundtrip = float(np.abs(back - f).max())
    passed = compose_res <= 1e-12 and worst_roundtrip <= 1e-10
    return CheckResult(
        name="intertwining",
        passed=bool(passed),
        details={
            "minimal_composition_residual": compose_res,
            "overfilled_roundtrip_residual": worst_roundtrip,
            "operators": _SAMPLES,
            "tolerances": {"composition": 1e-12, "roundtrip": 1e-10},
        },
    )


def check_cubic_identity(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """u = (u u*) u^tr over random unitaries of sizes 4 and 9."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    worst = 0.0
    for dim in (4, 9):
        unitaries = haar_unitaries(rng.standard_normal((_SAMPLES, 2, dim, dim)))
        worst = max(worst, float(cubic_unitary_residual(unitaries, tol).max()))
    passed = worst <= 1e-12
    return CheckResult(
        name="cubic-unitary-identity",
        passed=bool(passed),
        details={"worst_residual": worst, "samples_per_size": _SAMPLES, "tolerance": 1e-12},
    )


def check_mub_frame(tol: ToleranceConfig = DEFAULT_TOL) -> CheckResult:
    """Qubit MUB frame: singular values, duality projector, condition number."""
    mub = mub_qubit_scheme()
    sv = singular_values(dequantization_matrix(mub))
    sv_res = float(np.abs(sv - np.array([np.sqrt(3), 1, 1, 1])).max())
    s = with_canonical_quantizers(mub, tol)
    delta = duality_matrix(s)
    herm_res = float(np.abs(delta - delta.conj().T).max())
    idem_res = float(np.abs(delta @ delta - delta).max())
    trace_res = abs(complex(np.trace(delta)) - 4.0)
    cond = classify(mub, tol).condition_number
    cond_res = float(abs(cond - np.sqrt(3)))
    passed = all(r <= 1e-10 for r in (sv_res, herm_res, idem_res, trace_res, cond_res))
    return CheckResult(
        name="mub-frame",
        passed=bool(passed),
        details={
            "singular_value_residual": sv_res,
            "duality_hermiticity_residual": herm_res,
            "duality_idempotency_residual": idem_res,
            "duality_trace_residual": trace_res,
            "condition_number": cond,
            "condition_number_residual": cond_res,
            "tolerance": 1e-10,
        },
    )


SUITES = {
    "table": ("table-rows-1-3", "table-rows-4-6"),
    "propositions": (
        "livine-self-dual-not-povm",
        "self-dual-scaled-unitary",
        "povm-dual-negativity",
    ),
    "random-povm": ("povm-dual-negativity",),
}


def run_battery(
    suite: str = "all", seeds: int | None = None, tol: ToleranceConfig = DEFAULT_TOL
) -> list[CheckResult]:
    """Run the requested verification suite and return per-check results.
    ``seeds``, povm-dual-negativity's sample count (1000 if None), must be at
    least 1 and is refused for a suite without that check, before any runs."""
    if seeds is not None and seeds < 1:
        raise InvalidParameterError(f"seeds must be at least 1, got {seeds}")
    all_checks = {
        "table-rows-1-3": check_table_printed_rows,
        "table-rows-4-6": check_table_derived_rows,
        "sic-overlap-conditions": lambda: check_sic_conditions(tol),
        "livine-self-dual-not-povm": lambda: check_livine_positivity(tol),
        "self-dual-scaled-unitary": lambda: check_self_duality_unitarity(tol),
        "povm-dual-negativity": lambda: check_povm_dual_negativity(seeds, tol),
        "completeness-roundtrip": lambda: check_completeness_roundtrip(tol),
        "kernel-homomorphism-associativity": lambda: check_kernel_laws(tol),
        "intertwining": lambda: check_intertwining(tol),
        "cubic-unitary-identity": lambda: check_cubic_identity(tol),
        "mub-frame": lambda: check_mub_frame(tol),
    }
    if suite == "all":
        names = tuple(all_checks)
    else:
        try:
            names = SUITES[suite]
        except KeyError:
            raise InvalidParameterError(
                f"unknown suite {suite!r}; choose all, " + ", ".join(SUITES)
            )
    if seeds is None:
        seeds = 1000
    elif "povm-dual-negativity" not in names:
        raise InvalidParameterError(f"suite {suite!r} draws no samples, so it takes no seed count")
    results = []
    for name in names:
        start = time.perf_counter()
        result = all_checks[name]()
        result.seconds = time.perf_counter() - start
        results.append(result)
    return results
