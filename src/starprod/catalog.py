"""Built-in scheme constructors and regression data.

Covers the standard qubit families (matrix units, scaled Paulis, the Livine
phase-space quartet, the tetrahedral SIC, the full MUB set), generators for
Weyl-Heisenberg SIC orbits and prime-dimension MUBs, a seeded random-POVM
sampler, the ``SCHEMES`` registry behind ``emit`` and the regression set,
and the printed-table regression set with its errata.
"""

from __future__ import annotations

import importlib.resources
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (
    InvalidParameterError,
    NotSICError,
    StarProdError,
    UnknownSchemeError,
)
from . import matrixcore
from .operator_space import PAULI_X, PAULI_Y, PAULI_Z
from .scheme import Scheme, dequantization_matrix, quantization_matrix
from .serialization import load_vector
from .star_product import symbol

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
    if variant not in ("hermitian", "with-i-sigma-y"):
        raise InvalidParameterError(f"pauli variant {variant!r}: choose hermitian or with-i-sigma-y")
    sy = 1j * PAULI_Y if variant == "with-i-sigma-y" else PAULI_Y
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
    dequantizers; ``"self-dual-normalized"`` rescales both families to
    coincide (sqrt(2) times the dequantizers).
    """
    if normalization not in ("dequantizer", "self-dual-normalized"):
        choices = "dequantizer or self-dual-normalized"
        raise InvalidParameterError(f"livine normalization {normalization!r}: choose {choices}")
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


def displacement_orbit(psi: np.ndarray) -> np.ndarray:
    """The d^2 states X^a Z^b |psi>, indexed d*a + b, as a (d^2, d) stack, for the
    shift X e_j = e_(j+1 mod d) and the clock Z = diag(w^j), w = exp(2 pi i / d).

    Entry j of X^a Z^b |psi> is w^(b(j-a)) psi_(j-a), indices mod d: one
    gather and one broadcast product.
    """
    d = psi.size
    j = np.arange(d)
    shifted = (j[None, :] - j[:, None]) % d  # [a, j] -> j - a
    powers = (np.exp(2j * np.pi / d) ** j)[None, :] ** j[:, None]  # [b, m] -> w^(b m)
    return (powers[j[:, None], shifted[:, None, :]] * psi[shifted][:, None, :]).reshape(d * d, d)


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


def wh_sic_scheme(d: int, fiducial) -> Scheme:
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
    if abs(np.linalg.norm(psi) - 1.0) > matrixcore.RESIDUAL_TOL:
        raise InvalidParameterError("fiducial vector is not normalized")
    states = displacement_orbit(psi)
    projs = _projectors(states)
    gram = np.abs(states.conj() @ states.T) ** 2
    target = (d * np.eye(d * d) + 1) / (d + 1)
    deviation = float(np.abs(gram - target).max())
    if deviation > matrixcore.RESIDUAL_TOL:
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
    sx and sy eigenbases, matching the qubit MUB scheme exactly.  A p too big
    for numpy is refused before the prime test's sqrt(p) trial division.
    """
    if p > 1 and 16 * p**3 * (p + 1) > np.iinfo(np.intp).max:
        raise InvalidParameterError(f"mub-prime: array is too big for p={p}")
    if not _is_prime(p):
        raise InvalidParameterError(f"{p} is not prime")
    if p == 2:
        return Scheme(dequantizers=mub_qubit_scheme().dequantizers, name="mub-prime-2")
    omega = np.exp(2j * np.pi / p)
    a, alpha, m = np.ogrid[1 : p + 1, :p, :p]
    phases = omega ** ((a * m * m + alpha * m) % p) / np.sqrt(p)
    vectors = np.concatenate([np.eye(p, dtype=complex), phases.reshape(p * p, p)])
    return Scheme(dequantizers=_projectors(vectors), name=f"mub-prime-{p}")


def random_minimal_povms(d: int, seeds: Iterable[int]) -> np.ndarray:
    """Seeded random minimal tomographic POVMs, one per seed, as one
    (S, d^2, d, d) stack: d^2 Wishart effects per seed, symmetrically
    normalized so they sum to the identity exactly.

    Each seed's POVM is one draw from ``default_rng(seed)``'s stream, bit for
    bit, so it does not depend on the other seeds: SeedSequence's hash runs
    once over all seeds, and PCG64 seeds each stream from those words in C.
    A seed that is not a non-negative integer raises InvalidParameterError
    before any draw.
    """
    if d < 1:
        raise InvalidParameterError(f"dimension must be positive, got {d}")
    indexed = []
    for seed in seeds:
        try:
            indexed.append(operator.index(seed))
        except TypeError:
            raise InvalidParameterError(f"seeds must be integers, got {seed!r}") from None
    if min(indexed, default=0) < 0:
        raise InvalidParameterError(f"seeds must be non-negative, got {min(indexed)}")
    return _povm_draw(_seed_words(indexed), d * d, d)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), which
# default_rng(seed) runs for each seed.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


def _seed_words(seeds: list[int]) -> np.ndarray:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` for every
    seed (non-negative ints), as one C-contiguous native (S, 4) uint64 array,
    with no SeedSequence built.

    SeedSequence's hash (``mix_entropy`` of each seed's little-endian 32-bit
    words into a four-word pool, then ``generate_state``) runs once as
    wrapping uint32 arithmetic over all seeds; words beyond the pool are
    masked per seed.
    """
    lengths = np.array([(seed.bit_length() + 31) // 32 for seed in seeds], dtype=int)
    n_words = max(4, int(lengths.max(initial=0)))
    words = np.frombuffer(b"".join(seed.to_bytes(4 * n_words, "little") for seed in seeds), "<u4")
    words = words.reshape(len(seeds), n_words)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> 16

    with np.errstate(over="ignore"):
        pool = [hashmix(words[:, i]) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(4, n_words):
            for dst in range(4):
                pool[dst] = np.where(lengths > src, mix(pool[dst], hashmix(words[:, src])), pool[dst])
        hash_const = _INIT_B  # generate_state: eight words cycling over the pool
        out = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """One seed's ``_seed_words`` row as PCG64's seed sequence.  PCG64 reads
    the words by raw pointer, checking neither dtype nor length, so any
    other request is refused."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {np.dtype(dtype)}")
        return self.words


def _povm_draw(words: np.ndarray, n: int, d: int) -> np.ndarray:
    """One random POVM of n effects per seed, as an (S, n, d, d) stack;
    ``words`` are the seeds' ``_seed_words``, from which PCG64 seeds each
    stream in C as ``default_rng(seed)`` does.  The normals are freed as
    soon as they are combined, which lowers the sampler's peak.
    """
    normals = np.empty((len(words), 2, n, d, d))
    for row, seed_words in enumerate(words):
        np.random.Generator(np.random.PCG64(_SeedWords(seed_words))).standard_normal(out=normals[row])
    g = (normals[:, 0] + 1j * normals[:, 1]) / SQRT2
    del normals
    effects = np.einsum("skab,skcb->skac", g, g.conj())
    eigenvalues, vectors = np.linalg.eigh(effects.sum(axis=1))
    scaled = vectors * (1 / np.sqrt(eigenvalues))[:, None, :]
    inv_sqrt = scaled @ vectors.conj().swapaxes(1, 2)
    return np.einsum("sab,skbc,scd->skad", inv_sqrt, effects, inv_sqrt)


def random_minimal_povm_scheme(d: int, seed: int) -> Scheme:
    """Seeded random minimal tomographic POVM: the one-seed case of
    ``random_minimal_povms``, named by the seed's integer value.
    """
    deq = random_minimal_povms(d, [seed])[0]
    return Scheme(dequantizers=deq, name=f"random-povm-d{d}-seed{operator.index(seed)}")


@dataclass(frozen=True)
class CatalogEntry:
    """Scheme with the report fragments its classification must reproduce."""

    scheme: Scheme
    expected: dict[str, Any]


@dataclass(frozen=True)
class BuiltinScheme:
    """One ``emit`` scheme: ``build(**params)``, the parameters it
    takes with their defaults, and its regression set as (parameters,
    expected report fragments) pairs."""

    build: Callable[..., Scheme]
    params: dict[str, Any]
    stock: tuple[tuple[dict[str, Any], dict[str, Any]], ...] = ()


# Keyed by the ``emit`` name.
SCHEMES: dict[str, BuiltinScheme] = {
    "matrix-units": BuiltinScheme(
        matrix_units_scheme,
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
        pauli_scheme,
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
        livine_scheme,
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
        sic_qubit_scheme,
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
        mub_qubit_scheme,
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
        lambda d, fiducial: wh_sic_scheme(
            d, load_vector(fiducial) if fiducial else default_fiducial(d)
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
        mub_prime_scheme,
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
        random_minimal_povm_scheme,
        {"d": 2, "seed": 0},
    ),
}


def build_scheme(name: str, **params: Any) -> Scheme:
    """Build the registered scheme ``name``, its defaults overridden by ``params``.

    Raises UnknownSchemeError for a name not in SCHEMES and
    InvalidParameterError for a parameter the scheme does not take or a
    builder's ValueError that is not a StarProdError, such as numpy's "array
    is too big" for an oversized dimension.
    """
    if name not in SCHEMES:
        raise UnknownSchemeError(f"unknown built-in scheme {name!r}")
    builtin = SCHEMES[name]
    foreign = [key for key in params if key not in builtin.params]
    if foreign:
        takes = ", ".join(f"--{key}" for key in builtin.params) or "no parameters"
        got = ", ".join(f"--{key}" for key in foreign)
        raise InvalidParameterError(f"{name} takes {takes}; got {got}")
    try:
        return builtin.build(**{**builtin.params, **params})
    except StarProdError:
        raise
    except ValueError as exc:
        raise InvalidParameterError(f"{name}: {exc}") from exc


def entries() -> list[CatalogEntry]:
    """The standard regression set: every built-in scheme at its stock parameters."""
    regression = []
    for name, builtin in SCHEMES.items():
        for params, expected in builtin.stock:
            scheme = build_scheme(name, **params)
            regression.append(CatalogEntry(scheme, dict(expected)))
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
    block its dequantization matrix in the Pauli basis: column k holds the
    symbols of the k-th dequantizer in the Pauli scheme.  Rows 1-3
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
    pauli = pauli_scheme()
    return [
        TableRow(
            row=row,
            name=name,
            generated_rowstacking=left_matrix(build_scheme(left, **left_params)),
            generated_pauli=symbol(pauli, build_scheme(right, **right_params).dequantizers).T,
            expected_rowstacking=expected_rowstacking,
            expected_pauli=expected_pauli,
            errata=tuple(TableErratum(row, block, text) for block, text in errata),
        )
        for (
            row, name, left_matrix, (left, left_params), (right, right_params),
            expected_rowstacking, expected_pauli, errata,
        ) in table
    ]
