"""Structural verification battery.

Each check calls the library at its fixed tolerances, runs one
acceptance-grade property (table regression, symmetric-overlap conditions,
the self-duality and POVM-incompatibility statements, completeness/round-trip,
kernel laws, intertwining, the cubic unitary identity, the MUB frame), and
reports its residuals and counts in ``details``.  A check writes each gate
once, in the table it hands to ``_gated``: detail key, test and bound.  A
sweep keeps no running worst: it hands ``_gated`` all its residuals, which
``_gated`` reduces to their largest.  A check passes when every gate holds;
``details["gates"]`` reports each gate's test, bound and margin (bound /
value for a ``<=`` gate, None for a condition), and ``verify`` prints
``CheckResult.least_margin``, the least ``<=`` margin.
A new gate is one table entry and one ``tests/test_verification.py::_GATES``
entry (a condition: a near-miss test named in its ``_CONDITIONS``).
The sampled checks draw all samples of a scheme at once and evaluate them
as one stack through the library's stack-aware functions.  The CLI
``verify`` command and the acceptance test suite both drive these functions.
"""

from __future__ import annotations

import functools
import math
import operator
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
    random_minimal_povms,
    sic_qubit_scheme,
    TableRow,
    table_regression_set,
    matrix_units_scheme,
    wh_sic_scheme,
)
from .errors import InvalidParameterError
from . import matrixcore
from .matrixcore import singular_values
from .operator_space import devectorize
from .scheme import (
    Scheme,
    canonical_quantizers,
    classify,
    completeness_residual,
    dequantization_matrix,
    lowest_eigenvalues,
    scaled_unitary_check,
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
    symbol_roundtrip_residual,
)

DEFAULT_BATTERY_SEED = 20100231
# Random draws per dimension, scheme or size in the sampled checks, and the
# operator pairs per scheme in the kernel check.
_SAMPLES = 100
_KERNEL_PAIRS = 50


@dataclass
class CheckResult:
    """Outcome of one verification check with its residuals.

    ``seconds`` is the check's own wall time, recorded by ``run_battery``.
    The battery runs the POVM check on one worker thread beside the other
    checks, so the checks' seconds can sum past the battery's wall time.
    """

    name: str
    passed: bool
    seconds: float | None = None
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def least_margin(self) -> float | None:
        """The least margin of the ``<=`` gates: None without one, NaN if one is NaN."""
        margins = [g["margin"] for g in self.details.get("gates", {}).values() if g["test"] == "<="]
        return float(np.min(margins)) if margins else None


# The comparisons a gate makes, by the name its report gives them.
_TESTS = {
    "<=": operator.le, "<": operator.lt, "==": operator.eq, ">": operator.gt, ">=": operator.ge
}


def _gated(name: str, details: dict[str, Any], gates: dict[str, tuple[str, Any]]) -> CheckResult:
    """The check's result: passed when ``details[key] <test> bound`` holds for
    every ``key: (test, bound)`` of ``gates``, so a NaN fails every gate.

    A ``<=`` gate's value becomes the largest of the residuals the check
    handed over (a number, an array, or a list of numbers or equal-shaped
    arrays), by ``np.max``: a NaN anywhere stays NaN, an empty sweep reads
    0.0.  ``details["gates"]`` records each gate's test, bound and margin:
    bound / value for a ``<=`` gate (inf at a zero value), None otherwise.
    """
    details["gates"] = {}
    for key, (test, bound) in gates.items():
        margin = None
        if test == "<=":
            details[key] = value = float(np.max(details[key], initial=0.0))
            margin = bound / value if value else math.inf
        details["gates"][key] = {"test": test, "bound": bound, "margin": margin}
    passed = all(_TESTS[test](details[key], bound) for key, (test, bound) in gates.items())
    return CheckResult(name=name, passed=passed, details=details)


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
def _quantized_regression_set() -> tuple[Scheme, ...]:
    """The catalog regression set with canonical quantizers, built once and
    shared by the checks that sweep it."""
    return tuple(with_canonical_quantizers(entry.scheme) for entry in entries())


def _table_residuals(rows: list[TableRow]) -> list[np.floating]:
    """Largest entry deviation of each generated block from the expected one."""
    return [
        np.abs(generated - expected).max()
        for row in rows
        for generated, expected in (
            (row.generated_rowstacking, row.expected_rowstacking),
            (row.generated_pauli, row.expected_pauli),
        )
    ]


def check_table_printed_rows() -> CheckResult:
    """Rows 1-3: generated matrices match the printed ones in both bases."""
    residuals = _table_residuals(table_regression_set()[:3])
    return _gated("table-rows-1-3", {"max_residual": residuals}, {"max_residual": ("<=", 1e-12)})


def check_table_derived_rows() -> CheckResult:
    """Rows 4-6: generated matrices match the derived expectations; errata present."""
    rows = table_regression_set()[3:]
    errata = [e for row in rows for e in row.errata]
    details = {
        "max_residual": _table_residuals(rows),
        "errata": [f"row {e.row} [{e.block}]: {e.description}" for e in errata],
        "rows_flagged": sorted({e.row for e in errata}),
    }
    gates = {"max_residual": ("<=", 1e-12), "rows_flagged": ("==", [4, 5, 6])}
    return _gated("table-rows-4-6", details, gates)


def check_sic_conditions() -> CheckResult:
    """Symmetric overlap conditions at d = 2 and d = 3 on the symbols of each
    frame's own members: the transposed Gram matrix, as the targets are symmetric."""
    projs, effects = sic_qubit_scheme("projector"), sic_qubit_scheme("povm")
    qutrit = wh_sic_scheme(3, default_fiducial(3))
    gram = symbol(projs, projs.dequantizers).real
    off = symbol(effects, effects.dequantizers)[~np.eye(4, dtype=bool)]
    qgram = symbol(qutrit, qutrit.dequantizers).real
    details = {
        "qubit_projector_gram_residual": np.abs(gram - (2 * np.eye(4) + 1) / 3),
        "qubit_effect_gram_residual": np.abs(off - 1 / 12),
        "qutrit_gram_residual": np.abs(qgram - (3 * np.eye(9) + 1) / 4),
    }
    gates = {
        "qubit_projector_gram_residual": ("<=", 1e-12),
        "qubit_effect_gram_residual": ("<=", 1e-12),
        "qutrit_gram_residual": ("<=", 1e-9),
    }
    return _gated("sic-overlap-conditions", details, gates)


def check_livine_positivity() -> CheckResult:
    """The concrete self-dual scheme: c = 1/2, known spectrum, resolves the
    identity, yet fails positivity (no minimal self-dual scheme is a POVM)."""
    s = livine_scheme("dequantizer")
    report = classify(s)
    c = report.self_dual_coefficient
    c_res = abs((c if c is not None else np.nan) - 0.5)
    eigs = np.linalg.eigh(s.dequantizers[0])[0]
    expected = np.array([(1 - np.sqrt(3)) / 4, (1 + np.sqrt(3)) / 4])
    povm = report.povm
    details = {
        "self_dual_coefficient": c,
        # NaN when the scheme is not self-dual, which fails the gate.
        "coefficient_residual": c_res,
        "eigenvalue_residual": np.abs(eigs - expected),
        "identity_sum_residual": povm.sum_residual,
        "min_dequantizer_eigenvalue": povm.min_effect_eigenvalue,
    }
    gates = {
        "coefficient_residual": ("<=", 1e-12),
        "eigenvalue_residual": ("<=", 1e-12),
        "identity_sum_residual": ("<=", 1e-12),
        "min_dequantizer_eigenvalue": ("<", -matrixcore.EIG_TOL),
    }
    return _gated("livine-self-dual-not-povm", details, gates)


def check_self_duality_unitarity() -> CheckResult:
    """Self-dual <=> U U^dag = c I, both directions: seeded scaled unitaries
    at d = 2 and d = 3 forward, every self-dual regression entry backward."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    forward = []
    for d in (2, 3):
        # Each sample draws its coefficient and then its unitary, so the
        # draws stay interleaved per sample.
        coefficients = np.empty(_SAMPLES)
        normals = np.empty((_SAMPLES, 2, d * d, d * d))
        for i in range(_SAMPLES):
            coefficients[i] = rng.uniform(0.1, 10.0)
            rng.standard_normal(out=normals[i])
        u_mats = np.sqrt(coefficients)[:, None, None] * haar_unitaries(normals)
        deq = devectorize(u_mats.swapaxes(1, 2))
        recovered = self_dual_coefficients(deq, canonical_quantizers(deq))
        # A family that is not self-dual gives a NaN error, which fails the gate.
        forward.append(np.abs(recovered - coefficients) / coefficients)

    backward = []
    checked = []
    for s in _quantized_regression_set():
        c = float(self_dual_coefficients(s.dequantizers, s.quantizers))
        if math.isnan(c):
            continue
        c_gram = scaled_unitary_check(dequantization_matrix(s))
        # An entry that is not scaled unitary counts as an infinite error.
        backward.append(np.inf if c_gram is None else abs(c_gram - c) / c)
        checked.append(s.name)

    details = {
        "random_coefficient_worst_relative_error": forward,
        "catalog_gram_worst_relative_error": backward,
        "self_dual_catalog_schemes": checked,
        "self_dual_catalog_count": len(checked),
        "samples_per_dimension": _SAMPLES,
    }
    gates = {
        "random_coefficient_worst_relative_error": ("<=", 1e-9),
        "catalog_gram_worst_relative_error": ("<=", 1e-9),
        "self_dual_catalog_count": (">", 0),
    }
    return _gated("self-dual-scaled-unitary", details, gates)


def check_povm_dual_negativity(seeds: int = 1000) -> CheckResult:
    """Random minimal qubit POVM schemes always have a negative dual eigenvalue.

    Seeds 0 .. seeds-1 are sampled as one stack, one draw per seed, and their
    duals are ``canonical_quantizers`` of that stack, one thin SVD per POVM;
    ``seeds`` must be at least 1.
    """
    if seeds < 1:
        raise InvalidParameterError(f"seeds must be at least 1, got {seeds}")
    guard = matrixcore.EIG_TOL
    duals = canonical_quantizers(random_minimal_povms(2, range(seeds)))
    # Eigenvalues of the Hermitian parts: the exact dual of a Hermitian
    # family is Hermitian, but rounding in the dual scales with conditioning
    # and the guard below absorbs it.
    minima = lowest_eigenvalues(duals).min(axis=-1)
    conclusive = int(np.count_nonzero(minima <= -guard))
    counterexamples = int(np.count_nonzero(minima >= guard))
    details = {
        "seeds": seeds,
        "conclusive": conclusive,
        "inconclusive": seeds - conclusive - counterexamples,
        "counterexamples": counterexamples,
        "largest_min_quantizer_eigenvalue": float(minima.max()),
        "guard": guard,
    }
    gates = {"counterexamples": ("==", 0), "conclusive": (">=", 0.99 * seeds)}
    return _gated("povm-dual-negativity", details, gates)


def check_completeness_roundtrip() -> CheckResult:
    """Completeness of the dual pair and symbol/reconstruct round trip."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    complete = []
    roundtrip = []
    for s in _quantized_regression_set():
        complete.append(completeness_residual(s))
        a = _ginibre(rng.standard_normal((_SAMPLES, 2, s.d, s.d)))
        roundtrip.append(np.abs(reconstruct(s, symbol(s, a)) - a).max())
    details = {
        "worst_completeness_residual": complete,
        "worst_roundtrip_residual": roundtrip,
        "operators_per_scheme": _SAMPLES,
    }
    gates = {
        "worst_completeness_residual": ("<=", 1e-10),
        "worst_roundtrip_residual": ("<=", 1e-10),
    }
    return _gated("completeness-roundtrip", details, gates)


def check_kernel_laws() -> CheckResult:
    """Kernel homomorphism against operator products and exhaustive associativity."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    homomorphism = []
    associativity = []
    for s in _quantized_regression_set():
        kernel = star_kernel(s)
        associativity.append(associativity_residual(kernel))
        # Per pair: operator a, then operator b.
        ab = _ginibre(rng.standard_normal((_KERNEL_PAIRS, 2, 2, s.d, s.d)))
        a, b = ab[:, 0], ab[:, 1]
        via_kernel = star_multiply(kernel, symbol(s, a), symbol(s, b))
        direct = symbol(s, a @ b)
        homomorphism.append(np.abs(via_kernel - direct).max())
    details = {
        "worst_homomorphism_residual": homomorphism,
        "worst_associativity_residual": associativity,
        "pairs_per_scheme": _KERNEL_PAIRS,
    }
    gates = {
        "worst_homomorphism_residual": ("<=", 1e-9),
        "worst_associativity_residual": ("<=", 1e-10),
    }
    return _gated("kernel-homomorphism-associativity", details, gates)


def check_intertwining() -> CheckResult:
    """Minimal-to-minimal kernels compose to the identity; overfilled round trip."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    mu = matrix_units_scheme(2)
    pauli = pauli_scheme("hermitian")
    forward, backward = intertwiner(mu, pauli), intertwiner(pauli, mu)
    compose = np.array([backward @ forward, forward @ backward])

    mub = mub_qubit_scheme()
    forward, backward = intertwiner(pauli, mub), intertwiner(mub, pauli)
    f = symbol(pauli, _ginibre(rng.standard_normal((_SAMPLES, 2, 2, 2))))
    details = {
        "minimal_composition_residual": np.abs(compose - np.eye(4)),
        "overfilled_roundtrip_residual": symbol_roundtrip_residual(forward, backward, f),
        "operators": _SAMPLES,
    }
    gates = {
        "minimal_composition_residual": ("<=", 1e-12),
        "overfilled_roundtrip_residual": ("<=", 1e-10),
    }
    return _gated("intertwining", details, gates)


def check_cubic_identity() -> CheckResult:
    """u = (u u*) u^tr over random unitaries of sizes 4 and 9."""
    rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
    draws = [rng.standard_normal((_SAMPLES, 2, dim, dim)) for dim in (4, 9)]
    residuals = [cubic_unitary_residual(haar_unitaries(normals)) for normals in draws]
    details = {"worst_residual": residuals, "samples_per_size": _SAMPLES}
    return _gated("cubic-unitary-identity", details, {"worst_residual": ("<=", 1e-12)})


def check_mub_frame() -> CheckResult:
    """Qubit MUB frame: singular values, duality projector, condition number."""
    mub = mub_qubit_scheme()
    sv = singular_values(dequantization_matrix(mub))
    delta = intertwiner(mub, mub)
    cond = classify(mub).condition_number
    details = {
        "singular_value_residual": np.abs(sv - np.array([np.sqrt(3), 1, 1, 1])),
        "duality_hermiticity_residual": np.abs(delta - delta.conj().T),
        "duality_idempotency_residual": np.abs(delta @ delta - delta),
        "duality_trace_residual": abs(complex(np.trace(delta)) - 4.0),
        "condition_number": cond,
        "condition_number_residual": abs(cond - np.sqrt(3)),
    }
    gates = {key: ("<=", 1e-10) for key in details if key.endswith("_residual")}
    return _gated("mub-frame", details, gates)


SUITES = {
    "table": ("table-rows-1-3", "table-rows-4-6"),
    "propositions": (
        "livine-self-dual-not-povm",
        "self-dual-scaled-unitary",
        "povm-dual-negativity",
    ),
    "random-povm": ("povm-dual-negativity",),
}


def run_battery(suite: str = "all", seeds: int | None = None) -> list[CheckResult]:
    """Run the requested verification suite and return per-check results,
    in the suite's order; povm-dual-negativity runs on one worker thread
    beside the others, and a check's exception is raised here once the
    worker has finished.  ``seeds``, povm-dual-negativity's sample count
    (1000 if None), must be at least 1 and is refused for a suite without
    that check, before any runs."""
    if seeds is not None and seeds < 1:
        raise InvalidParameterError(f"seeds must be at least 1, got {seeds}")
    all_checks = {
        "table-rows-1-3": check_table_printed_rows,
        "table-rows-4-6": check_table_derived_rows,
        "sic-overlap-conditions": check_sic_conditions,
        "livine-self-dual-not-povm": check_livine_positivity,
        "self-dual-scaled-unitary": check_self_duality_unitarity,
        "povm-dual-negativity": lambda: check_povm_dual_negativity(seeds),
        "completeness-roundtrip": check_completeness_roundtrip,
        "kernel-homomorphism-associativity": check_kernel_laws,
        "intertwining": check_intertwining,
        "cubic-unitary-identity": check_cubic_identity,
        "mub-frame": check_mub_frame,
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
    povm = "povm-dual-negativity"
    if seeds is None:
        seeds = 1000
    elif povm not in names:
        raise InvalidParameterError(f"suite {suite!r} draws no samples, so it takes no seed count")

    def timed(name: str) -> CheckResult:
        start = time.perf_counter()
        result = all_checks[name]()
        result.seconds = time.perf_counter() - start
        return result

    # The POVM check spends its time in batched LAPACK calls, which release
    # the GIL, so it runs on one worker thread while the Python-bound checks
    # run here.  Imported here: at module level it would slow every import.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as worker:
        future = worker.submit(timed, povm) if povm in names else None
        results = {name: timed(name) for name in names if name != povm}
        if future is not None:
            results[povm] = future.result()
    return [results[name] for name in names]
