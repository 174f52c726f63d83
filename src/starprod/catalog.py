"""Built-in scheme constructors and regression data.

Covers the standard qubit families (matrix units, scaled Paulis, the Livine
phase-space quartet, the tetrahedral SIC, the full MUB set), generators for
Weyl-Heisenberg SIC orbits and prime-dimension MUBs, a seeded random-POVM
sampler, the ``SCHEMES`` registry behind ``emit`` and the regression set,
and the printed-table regression set with its errata.
"""

from __future__ import annotations

import importlib.resources
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    InvalidParameterError,
    NotPrimeError,
    NotSICError,
    SamplerFailureError,
    UnknownSchemeError,
)
from .matrixcore import DEFAULT_TOL, ToleranceConfig, rank
from .operator_space import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    VectorizationBasis,
    pauli_basis,
)
from .scheme import Scheme, dequantization_matrix, quantization_matrix
from .serialization import load_vector

SQRT2 = np.sqrt(2.0)
SQRT3 = float(np.sqrt(3.0))


def matrix_units_scheme(d: int) -> Scheme:
    """All d^2 matrix units, ordered k = d(i-1)+j; self-dual with c = 1."""
    if d < 1:
        raise InvalidParameterError(f"matrix units need d >= 1, got d={d}")
    deq = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return Scheme(dequantizers=deq, quantizers=deq, name=f"matrix-units-d{d}")


def pauli_scheme(variant: str = "hermitian") -> Scheme:
    """Qubit scheme over (I, sx, sy, sz)/sqrt(2); the alternate variant swaps
    sy for i*sy, keeping the family trace-orthonormal but not Hermitian."""
    if variant not in ("hermitian", "with_i_sigma_y"):
        raise InvalidParameterError(f"unknown pauli scheme variant {variant!r}")
    sy = 1j * PAULI_Y if variant == "with_i_sigma_y" else PAULI_Y
    deq = np.stack([np.eye(2, dtype=complex), PAULI_X, sy, PAULI_Z]) / SQRT2
    name = "pauli" if variant == "hermitian" else "pauli-isy"
    return Scheme(dequantizers=deq, quantizers=deq, name=name)


_LIVINE_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _bloch_operators(n) -> np.ndarray:
    """(I + n.sigma)/2 for each row of an (N, 3) array of Bloch vectors."""
    a, b, c = np.asarray(n, dtype=float).T[:, :, None, None]
    return (np.eye(2, dtype=complex) + a * PAULI_X + b * PAULI_Y + c * PAULI_Z) / 2


def livine_scheme(normalization: str = "dequantizer") -> Scheme:
    """Qubit phase-space quartet (I +/- sx +/- sy +/- sz)/4, self-dual with c = 1/2.

    ``normalization="dequantizer"`` keeps quantizers at twice the
    dequantizers; ``"self_dual_normalized"`` rescales both families to
    coincide (sqrt(2) times the dequantizers).
    """
    if normalization not in ("dequantizer", "self_dual_normalized"):
        raise InvalidParameterError(f"unknown livine normalization {normalization!r}")
    deq = _bloch_operators(_LIVINE_SIGNS) / 2
    if normalization == "dequantizer":
        return Scheme(dequantizers=deq, quantizers=2 * deq, name="livine")
    scaled = SQRT2 * deq
    return Scheme(dequantizers=scaled, quantizers=scaled, name="livine-normalized")


_TETRAHEDRON = np.array(_LIVINE_SIGNS, dtype=float) / SQRT3


def sic_qubit_scheme(normalization: str = "projector") -> Scheme:
    """Tetrahedral qubit SIC: four rank-1 projectors with pairwise trace 1/3.

    ``normalization="povm"`` halves the projectors so the family sums to the
    identity.
    """
    if normalization not in ("projector", "povm"):
        raise InvalidParameterError(f"unknown sic normalization {normalization!r}")
    projs = _bloch_operators(_TETRAHEDRON)
    if normalization == "povm":
        return Scheme(dequantizers=projs / 2, name="sic-qubit-povm")
    return Scheme(dequantizers=projs, name="sic-qubit")


def _projectors(vectors: np.ndarray) -> np.ndarray:
    """Rank-1 projectors |v><v| for a stack of vectors (N, d) -> (N, d, d)."""
    return vectors[:, :, None] * vectors[:, None, :].conj()


def mub_qubit_scheme() -> Scheme:
    """Six projectors onto the sz, sx, sy eigenbases, plus vector before minus."""
    vectors = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]], dtype=complex)
    vectors[2:] /= SQRT2
    return Scheme(dequantizers=_projectors(vectors), name="mub-qubit")


def clock_matrix(d: int) -> np.ndarray:
    """diag(1, w, ..., w^(d-1)) with w = exp(2 pi i / d)."""
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic shift X e_j = e_(j+1 mod d)."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def default_fiducial(d: int) -> np.ndarray:
    """Shipped SIC fiducial for d = 2 (tetrahedron axis) or d = 3 (package data)."""
    if d == 2:
        theta = np.arccos(1 / SQRT3)
        return np.array([np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)])
    if d == 3:
        data = importlib.resources.files("starprod").joinpath("data/sic_fiducial_d3.json")
        with importlib.resources.as_file(data) as path:
            return load_vector(str(path))
    raise InvalidParameterError(f"no fiducial shipped for d={d}")


def wh_sic_scheme(d: int, fiducial, tol: ToleranceConfig = DEFAULT_TOL) -> Scheme:
    """Projector scheme over the clock/shift orbit of a fiducial vector.

    The d^2 states X^a Z^b |fiducial> are indexed k = d*a + b + 1.  The
    pairwise projector overlaps must equal (d delta + 1)/(d + 1); otherwise
    the fiducial is not SIC and NotSICError is raised.
    """
    if d < 2:
        raise InvalidParameterError(f"dimension must be at least 2, got {d}")
    psi = np.asarray(fiducial, dtype=complex).reshape(-1)
    if psi.size != d:
        raise InvalidParameterError(f"fiducial length {psi.size} does not match d={d}")
    if abs(np.linalg.norm(psi) - 1.0) > tol.residual_tol:
        raise InvalidParameterError("fiducial vector is not normalized")
    z = clock_matrix(d)
    x = shift_matrix(d)
    states = np.array(
        [
            np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) @ psi
            for a in range(d)
            for b in range(d)
        ]
    )
    projs = _projectors(states)
    gram = np.abs(states.conj() @ states.T) ** 2
    target = (d * np.eye(d * d) + 1) / (d + 1)
    deviation = float(np.abs(gram - target).max())
    if deviation > tol.residual_tol:
        raise NotSICError(
            f"orbit overlaps deviate from (d*delta+1)/(d+1) by {deviation:.3e}"
        )
    return Scheme(dequantizers=projs, name=f"wh-sic-d{d}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % q for q in range(2, int(p**0.5) + 1))


def mub_prime_scheme(p: int) -> Scheme:
    """p(p+1) rank-1 projectors from a full set of mutually unbiased bases.

    Computational basis first, then the p quadratic-phase bases
    <e_m|a,alpha> = w^(a m^2 + alpha m)/sqrt(p) for odd p; for p = 2 the
    sx and sy eigenbases, matching the qubit MUB scheme exactly.
    """
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p == 2:
        return Scheme(dequantizers=mub_qubit_scheme().dequantizers, name="mub-prime-2")
    omega = np.exp(2j * np.pi / p)
    a, alpha, m = np.ogrid[1 : p + 1, :p, :p]
    phases = omega ** ((a * m * m + alpha * m) % p) / np.sqrt(p)
    vectors = np.concatenate([np.eye(p, dtype=complex), phases.reshape(p * p, p)])
    return Scheme(dequantizers=_projectors(vectors), name=f"mub-prime-{p}")


def random_minimal_povm_dequantizers(
    d: int, seeds: Iterable[int], tol: ToleranceConfig = DEFAULT_TOL, max_attempts: int = 100
) -> np.ndarray:
    """Seeded random minimal tomographic POVMs, one per seed, as an
    (S, d^2, d, d) stack: d^2 Wishart effects per seed, symmetrically
    normalized so they sum to the identity exactly.

    Each seed owns a ``default_rng(seed)`` stream, so a seed's POVM does not
    depend on the other seeds.  A seed whose dequantization matrix lacks
    full rank draws again from its own stream; SamplerFailureError names the
    first seed still rank-deficient after ``max_attempts`` draws.
    """
    if d < 1:
        raise InvalidParameterError(f"dimension must be positive, got {d}")
    seeds = list(seeds)
    if min(seeds, default=0) < 0:
        raise InvalidParameterError(f"seeds must be non-negative, got {min(seeds)}")
    n = d * d
    rngs = [np.random.default_rng(seed) for seed in seeds]
    deq = np.empty((len(seeds), n, d, d), dtype=complex)
    pending = np.arange(len(seeds))
    for _ in range(max_attempts):
        normals = np.empty((pending.size, 2, n, d, d))
        for row, index in enumerate(pending):
            rngs[index].standard_normal(out=normals[row])
        g = (normals[:, 0] + 1j * normals[:, 1]) / SQRT2
        effects = np.einsum("skab,skcb->skac", g, g.conj())
        eigenvalues, vectors = np.linalg.eigh(effects.sum(axis=1))
        scaled = vectors * (1 / np.sqrt(eigenvalues))[:, None, :]
        inv_sqrt = scaled @ vectors.conj().swapaxes(1, 2)
        candidates = np.einsum("sab,skbc,scd->skad", inv_sqrt, effects, inv_sqrt)
        full = rank(candidates.reshape(pending.size, n, n).swapaxes(1, 2), tol) == n
        deq[pending[full]] = candidates[full]
        pending = pending[~full]
        if not pending.size:
            return deq
    raise SamplerFailureError(
        f"no full-rank POVM found in {max_attempts} attempts (d={d}, seed={seeds[pending[0]]})"
    )


def random_minimal_povm_scheme(
    d: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL, max_attempts: int = 100
) -> Scheme:
    """Seeded random minimal tomographic POVM: the one-seed case of
    ``random_minimal_povm_dequantizers``.

    Raises SamplerFailureError after ``max_attempts`` rank-deficient draws.
    """
    deq = random_minimal_povm_dequantizers(d, [seed], tol, max_attempts)[0]
    return Scheme(dequantizers=deq, name=f"random-povm-d{d}-seed{seed}")


@dataclass(frozen=True)
class CatalogEntry:
    """Named scheme with the report fragments its classification must reproduce."""

    name: str
    scheme: Scheme
    expected: dict[str, Any]


@dataclass(frozen=True)
class BuiltinScheme:
    """One ``emit`` scheme: ``build(tol=..., **params)``, the parameters it
    takes with their defaults, and its regression set as (parameters,
    expected report fragments) pairs."""

    build: Callable[..., Scheme]
    params: dict[str, Any]
    stock: tuple[tuple[dict[str, Any], dict[str, Any]], ...] = ()


# Keyed by the ``emit`` name.  Parameter values use the CLI spelling; the
# builders map it onto the constructors' keywords.
SCHEMES: dict[str, BuiltinScheme] = {
    "matrix-units": BuiltinScheme(
        lambda tol, d: matrix_units_scheme(d),
        {"d": 2},
        stock=(
            ({"d": 2}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 4,
                "condition_number": 1.0,
                "self_dual_coefficient": 1.0,
                "scaled_unitary": 1.0,
                "is_povm": False,
            }),
            ({"d": 3}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 9,
                "condition_number": 1.0,
                "self_dual_coefficient": 1.0,
                "scaled_unitary": 1.0,
                "is_povm": False,
            }),
        ),
    ),
    "pauli": BuiltinScheme(
        lambda tol, variant: pauli_scheme(variant.replace("-", "_")),
        {"variant": "hermitian"},
        stock=(
            ({"variant": "hermitian"}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 4,
                "condition_number": 1.0,
                "self_dual_coefficient": 1.0,
                "scaled_unitary": 1.0,
                "is_povm": False,
            }),
            ({"variant": "with-i-sigma-y"}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 4,
                "condition_number": 1.0,
                "self_dual_coefficient": 1.0,
                "scaled_unitary": 1.0,
                "is_povm": False,
            }),
        ),
    ),
    "livine": BuiltinScheme(
        lambda tol, normalization: livine_scheme(normalization.replace("-", "_")),
        {"normalization": "dequantizer"},
        stock=(
            ({"normalization": "dequantizer"}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 4,
                "condition_number": 1.0,
                "self_dual_coefficient": 0.5,
                "scaled_unitary": 0.5,
                "is_povm": False,
                "min_dequantizer_eigenvalue": (1 - SQRT3) / 4,
            }),
            ({"normalization": "self-dual-normalized"}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 4,
                "condition_number": 1.0,
                "self_dual_coefficient": 1.0,
                "scaled_unitary": 1.0,
                "is_povm": False,
            }),
        ),
    ),
    "sic-qubit": BuiltinScheme(
        lambda tol, normalization: sic_qubit_scheme(normalization),
        {"normalization": "projector"},
        stock=(
            ({"normalization": "projector"}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 4,
                "condition_number": SQRT3,
                "self_dual_coefficient": None,
                "scaled_unitary": None,
                "is_povm": False,
                "min_dequantizer_eigenvalue": 0.0,
                "min_quantizer_eigenvalue": -0.5,
            }),
            ({"normalization": "povm"}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 4,
                "condition_number": SQRT3,
                "self_dual_coefficient": None,
                "scaled_unitary": None,
                "is_povm": True,
                "min_dequantizer_eigenvalue": 0.0,
                "min_quantizer_eigenvalue": -1.0,
            }),
        ),
    ),
    "mub-qubit": BuiltinScheme(
        lambda tol: mub_qubit_scheme(),
        {},
        stock=(
            ({}, {
                "cardinality": "overfilled",
                "tomographic": True,
                "rank": 4,
                "condition_number": SQRT3,
                "is_povm": False,
                "min_dequantizer_eigenvalue": 0.0,
            }),
        ),
    ),
    "wh-sic": BuiltinScheme(
        lambda tol, d, fiducial: wh_sic_scheme(
            d, load_vector(fiducial) if fiducial else default_fiducial(d), tol
        ),
        {"d": 2, "fiducial": None},
        stock=(
            ({"d": 2}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 4,
                "condition_number": SQRT3,
                "is_povm": False,
            }),
            ({"d": 3}, {
                "cardinality": "minimal",
                "tomographic": True,
                "rank": 9,
                "condition_number": 2.0,
                "is_povm": False,
            }),
        ),
    ),
    "mub-prime": BuiltinScheme(
        lambda tol, p: mub_prime_scheme(p),
        {"p": 3},
        stock=(
            ({"p": 3}, {
                "cardinality": "overfilled",
                "tomographic": True,
                "rank": 9,
                "condition_number": 2.0,
                "is_povm": False,
            }),
        ),
    ),
    "random-povm": BuiltinScheme(
        lambda tol, d, seed: random_minimal_povm_scheme(d, seed, tol),
        {"d": 2, "seed": 0},
    ),
}


def build_scheme(name: str, tol: ToleranceConfig = DEFAULT_TOL, **params: Any) -> Scheme:
    """Build the registered scheme ``name``, its defaults overridden by ``params``.

    Raises UnknownSchemeError for a name not in SCHEMES and
    InvalidParameterError for a parameter the scheme does not take.
    """
    if name not in SCHEMES:
        raise UnknownSchemeError(f"unknown built-in scheme {name!r}")
    builtin = SCHEMES[name]
    foreign = [key for key in params if key not in builtin.params]
    if foreign:
        takes = ", ".join(f"--{key}" for key in builtin.params) or "no parameters"
        got = ", ".join(f"--{key}" for key in foreign)
        raise InvalidParameterError(f"{name} takes {takes}; got {got}")
    return builtin.build(tol=tol, **{**builtin.params, **params})


def entries(tol: ToleranceConfig = DEFAULT_TOL) -> list[CatalogEntry]:
    """The standard regression set: every built-in scheme at its stock parameters."""
    regression = []
    for name, builtin in SCHEMES.items():
        for params, expected in builtin.stock:
            scheme = build_scheme(name, tol, **params)
            regression.append(CatalogEntry(scheme.name, scheme, dict(expected)))
    return regression


@dataclass(frozen=True)
class TableErratum:
    """One normalization/order deviation of the printed reference table."""

    row: int
    block: str
    description: str


@dataclass(frozen=True)
class TableRow:
    """Regression row: generated matrices against frozen expectations.

    Rows whose printed form deviates from the consistent vectorization carry
    errata; their expectations are the derived matrices.
    """

    row: int
    name: str
    generated_rowstacking: np.ndarray
    generated_pauli: np.ndarray
    expected_rowstacking: np.ndarray
    expected_pauli: np.ndarray
    errata: tuple[TableErratum, ...]


def table_regression_set() -> list[TableRow]:
    """The six-row qubit table: generated dequantization matrices in both bases.

    Each printed block is generated from a registered scheme: the left block
    is its quantization or dequantization matrix in row stacking, the right
    block its dequantization matrix in the Pauli basis.  Rows 1-3
    expectations are the printed matrices verbatim.  Rows 4-6 expectations
    are the derived vectorizations, with the printed deviations recorded as
    errata; row 4 pairs the quantizer matrix (row stacking) with the
    self-dual-normalized family (orthonormal basis), which is what the
    printed blocks actually show.
    """
    s2 = SQRT2
    s3 = SQRT3
    # (row, name, left-block matrix, left scheme, right scheme,
    #  expected left, expected right, errata as (block, description))
    table = (
        (
            1, "matrix-units", dequantization_matrix, ("matrix-units", {}), ("matrix-units", {}),
            np.eye(4, dtype=complex),
            np.array(
                [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]], dtype=complex
            )
            / s2,
            (),
        ),
        (
            2, "pauli", dequantization_matrix, ("pauli", {}), ("pauli", {}),
            np.array(
                [[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]], dtype=complex
            )
            / s2,
            np.eye(4, dtype=complex),
            (),
        ),
        (
            3, "pauli-isy", dequantization_matrix,
            ("pauli", {"variant": "with-i-sigma-y"}), ("pauli", {"variant": "with-i-sigma-y"}),
            np.array(
                [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=complex
            )
            / s2,
            np.diag([1, 1, 1j, 1]).astype(complex),
            (),
        ),
        (
            4, "livine", quantization_matrix,
            ("livine", {}), ("livine", {"normalization": "self-dual-normalized"}),
            np.array(
                [
                    [2, 0, 0, 2],
                    [1 - 1j, 1 + 1j, -1 - 1j, -1 + 1j],
                    [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j],
                    [0, 2, 2, 0],
                ],
                dtype=complex,
            )
            / 2,
            np.array(
                [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
                dtype=complex,
            )
            / 2,
            (
                (
                    "both",
                    "printed blocks mix normalizations of one scheme: the left block "
                    "is the vectorized quantizer family (2x the dequantizers), the "
                    "right block the self-dual-normalized family (sqrt(2)x)",
                ),
            ),
        ),
        (
            5, "sic-qubit", dequantization_matrix, ("sic-qubit", {}), ("sic-qubit", {}),
            np.array(
                [
                    [s3 + 1, s3 - 1, s3 - 1, s3 + 1],
                    [1 - 1j, 1 + 1j, -1 - 1j, -1 + 1j],
                    [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j],
                    [s3 - 1, s3 + 1, s3 + 1, s3 - 1],
                ],
                dtype=complex,
            )
            / (2 * s3),
            np.array(
                [[s3, s3, s3, s3], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
                dtype=complex,
            )
            / np.sqrt(6),
            (
                (
                    "pauli",
                    "printed right block is 1/sqrt(2) times the orthonormal-basis "
                    "vectorization of the projectors",
                ),
            ),
        ),
        (
            6, "mub-qubit", dequantization_matrix, ("mub-qubit", {}), ("mub-qubit", {}),
            np.array(
                [
                    [2, 0, 1, 1, 1, 1],
                    [0, 0, 1, -1, -1j, 1j],
                    [0, 0, 1, -1, 1j, -1j],
                    [0, 2, 1, 1, 1, 1],
                ],
                dtype=complex,
            )
            / 2,
            np.array(
                [
                    [1, 1, 1, 1, 1, 1],
                    [0, 0, 1, -1, 0, 0],
                    [0, 0, 0, 0, 1, -1],
                    [1, -1, 0, 0, 0, 0],
                ],
                dtype=complex,
            )
            / s2,
            (
                (
                    "rowstacking",
                    "printed columns 3-6 carry an extra sqrt(2) relative to the "
                    "projector vectorization",
                ),
                (
                    "both",
                    "printed sigma_y columns appear in (minus, plus) order; "
                    "normalized here to (plus, minus)",
                ),
                (
                    "pauli",
                    "printed right block scales columns 1-2 by 1/sqrt(2) and "
                    "columns 3-6 by 1/2 relative to the projector vectorization",
                ),
            ),
        ),
    )
    rs = VectorizationBasis.row_stacking(2)
    pb = pauli_basis()
    return [
        TableRow(
            row=row,
            name=name,
            generated_rowstacking=left_matrix(build_scheme(left, **left_params), rs),
            generated_pauli=dequantization_matrix(build_scheme(right, **right_params), pb),
            expected_rowstacking=expected_rowstacking,
            expected_pauli=expected_pauli,
            errata=tuple(TableErratum(row, block, text) for block, text in errata),
        )
        for (
            row, name, left_matrix, (left, left_params), (right, right_params),
            expected_rowstacking, expected_pauli, errata,
        ) in table
    ]
