"""Stacked battery paths against per-seed and per-sample reference loops,
the shared regression set, and the names the benchmark tracer wraps."""

import dataclasses
import functools
import importlib.util
import inspect
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

from starprod import InvalidParameterError, NotTomographicError, catalog, matrixcore, verification
from starprod.cli import main
from starprod.catalog import (
    pauli_scheme,
    random_minimal_povm_scheme,
    random_minimal_povms,
)
from starprod.scheme import (
    Scheme,
    canonical_quantizers,
    classify,
    with_canonical_quantizers,
)
from starprod.verification import (
    DEFAULT_BATTERY_SEED,
    check_povm_dual_negativity,
    check_self_duality_unitarity,
    haar_unitaries,
    run_battery,
)
from starprod.operator_space import devectorize, vectorize

from _helpers import self_dual_reference


def _reference_minima(seeds: int) -> np.ndarray:
    """Smallest dual eigenvalue per seed, one scheme at a time."""
    minima = []
    for seed in range(seeds):
        qs = canonical_quantizers(random_minimal_povm_scheme(2, seed).dequantizers)
        herm = (qs + qs.conj().transpose(0, 2, 1)) / 2
        minima.append(float(np.linalg.eigvalsh(herm)[:, 0].min()))
    return np.array(minima)


class TestPovmDualNegativity:
    def test_per_seed_minima_match_reference_loop(self):
        reference = _reference_minima(200)
        duals = canonical_quantizers(random_minimal_povms(2, range(200)))
        herm = (duals + duals.conj().swapaxes(-1, -2)) / 2
        assert np.array_equal(np.linalg.eigvalsh(herm)[..., 0].min(axis=-1), reference)
        details = check_povm_dual_negativity(seeds=200).details
        guard = details["guard"]
        assert details["largest_min_quantizer_eigenvalue"] == reference.max()
        assert details["conclusive"] == np.count_nonzero(reference <= -guard)
        assert details["counterexamples"] == np.count_nonzero(reference >= guard)
        assert details["inconclusive"] == 200 - details["conclusive"] - details["counterexamples"]

    def test_povm_check_duals_are_the_canonical_quantizers(self, monkeypatch):
        calls = []

        def recorded(dequantizers):
            calls.append((dequantizers, canonical_quantizers(dequantizers)))
            return calls[-1][1]

        monkeypatch.setattr(verification, "canonical_quantizers", recorded)
        details = check_povm_dual_negativity(seeds=40).details
        [(dequantizers, duals)] = calls
        assert dequantizers.tobytes() == random_minimal_povms(2, range(40)).tobytes()
        herm = (duals + duals.conj().swapaxes(-1, -2)) / 2
        minima = np.linalg.eigvalsh(herm)[..., 0].min(axis=-1)
        assert details["largest_min_quantizer_eigenvalue"] == minima.max()

    def test_guard_is_the_eigenvalue_sign_threshold(self, monkeypatch):
        assert check_povm_dual_negativity(seeds=20).details["guard"] == 1e-10
        monkeypatch.setattr(matrixcore, "EIG_TOL", 0.5)
        assert check_povm_dual_negativity(seeds=20).details["guard"] == 0.5

    def test_1000_seed_counts_pinned(self):
        details = check_povm_dual_negativity(seeds=1000).details
        assert (details["conclusive"], details["inconclusive"], details["counterexamples"]) == (
            1000,
            0,
            0,
        )
        assert details["largest_min_quantizer_eigenvalue"] == pytest.approx(
            -1.907311090534669, abs=1e-12
        )

    @pytest.mark.parametrize("seeds", [0, -3])
    def test_vacuous_seed_count_rejected(self, seeds):
        with pytest.raises(InvalidParameterError, match="seeds must be at least 1"):
            run_battery("random-povm", seeds=seeds)
        with pytest.raises(InvalidParameterError, match=f"seeds must be at least 1, got {seeds}"):
            check_povm_dual_negativity(seeds)

    def test_default_seed_count_is_1000(self):
        (result,) = run_battery("random-povm")
        assert result.details["seeds"] == 1000

    def test_seed_count_for_a_suite_without_the_check_rejected(self):
        with pytest.raises(InvalidParameterError, match="suite 'table' draws no samples"):
            run_battery("table", seeds=5)
        # Without a count the suite runs.
        assert [r.name for r in run_battery("table")] == ["table-rows-1-3", "table-rows-4-6"]


def test_unknown_suite_is_an_invalid_parameter():
    with pytest.raises(InvalidParameterError, match="unknown suite 'nope'"):
        run_battery("nope")


class TestSelfDualityUnitarity:
    def test_stacked_coefficients_match_per_sample_loop(self):
        # The check's draws, replayed one sample at a time.
        rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
        worst = 0.0
        for d in (2, 3):
            for _ in range(100):
                c = rng.uniform(0.1, 10.0)
                u = np.sqrt(c) * haar_unitaries(rng.standard_normal((2, d * d, d * d)))
                family = devectorize(u.T)
                recovered = self_dual_reference(family, canonical_quantizers(family))
                worst = max(worst, np.inf if recovered is None else abs(recovered - c) / c)
        details = check_self_duality_unitarity().details
        assert details["random_coefficient_worst_relative_error"] == worst

    def test_backward_direction_checks_a_self_dual_overfilled_frame(self, monkeypatch):
        # The Pauli family twice over, divided by sqrt(2): a tight frame
        # (N = 8) that is self-dual with c = 1, with U U^dag = I.
        pauli = pauli_scheme().dequantizers
        frame = with_canonical_quantizers(
            Scheme(np.concatenate([pauli, pauli]) / np.sqrt(2), name="frame")
        )
        report = classify(frame)
        assert report.cardinality == "overfilled"
        assert report.self_dual_coefficient == pytest.approx(1.0, rel=1e-12)
        before = check_self_duality_unitarity().details
        regression = verification._quantized_regression_set()
        monkeypatch.setattr(
            verification, "_quantized_regression_set", lambda: (*regression, frame)
        )
        result = check_self_duality_unitarity()
        assert result.passed
        assert result.details["self_dual_catalog_schemes"] == [*before["self_dual_catalog_schemes"], "frame"]
        assert result.details["catalog_gram_worst_relative_error"] <= 1e-12
        assert result.details["self_dual_catalog_count"] == before["self_dual_catalog_count"] + 1
        unchanged = ("random_coefficient_worst_relative_error", "samples_per_dimension")
        assert {k: result.details[k] for k in unchanged} == {k: before[k] for k in unchanged}
        def tests(details):
            return {k: (g["test"], g["bound"]) for k, g in details["gates"].items()}

        assert tests(result.details) == tests(before)


def _default_rng_sampler(d: int, seeds) -> np.ndarray:
    """The sampler fed numpy's own SeedSequence words, one seed per draw: an
    oracle for the streams that does not go through catalog._seed_words."""
    n = d * d
    words = [np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds]
    return np.stack([catalog._povm_draw(row[None], n, d)[0] for row in words])


class TestStackedSampler:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_one_default_rng_per_seed(self, monkeypatch, d):
        expected = _default_rng_sampler(d, range(40))
        stacks = []  # the sampler only draws: it takes no SVD
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            stacks.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert np.array_equal(random_minimal_povms(d, range(40)), expected)
        assert stacks == []

    # The sampler draws once per seed, so it rests on every first draw
    # spanning the operator space with a wide margin over RANK_TOL: the least
    # sigma_min / sigma_max is about 6e-5, above the 1e-6 pinned here.
    @pytest.mark.parametrize("d, seeds", [(2, 1000), (3, 200), (4, 200)])
    def test_first_draws_are_well_conditioned(self, d, seeds):
        deq = random_minimal_povms(d, range(seeds))
        sv = matrixcore.singular_values(vectorize(deq).swapaxes(-1, -2))
        assert (sv[:, -1] / sv[:, 0]).min() >= 1e4 * matrixcore.RANK_TOL

    @pytest.mark.parametrize(
        "seeds",
        [range(1000), [2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**128 + 5, 2**200 + 11]],
        ids=["0-999", "word-boundaries"],
    )
    def test_seed_words_and_streams_match_numpy(self, seeds):
        words = catalog._seed_words(list(seeds))
        expected = [np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds]
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        assert np.array_equal(words, expected)
        for seed, row in zip(seeds, words):
            stream = np.random.Generator(np.random.PCG64(catalog._SeedWords(row)))
            rng = np.random.default_rng(seed)
            assert stream.bit_generator.state == rng.bit_generator.state
            assert np.array_equal(stream.standard_normal(8), rng.standard_normal(8))

    # PCG64 reads the words by raw pointer, so any other request is refused.
    @pytest.mark.parametrize("n_words, dtype", [(8, np.uint32), (2, np.uint64)])
    def test_seed_words_refuse_other_requests(self, n_words, dtype):
        seed_words = catalog._SeedWords(catalog._seed_words([0])[0])
        with pytest.raises(ValueError, match="holds 4 uint64 words"):
            seed_words.generate_state(n_words, dtype)

    # Each stream is seeded from its words: no default_rng and no
    # SeedSequence per seed, neither here nor inside PCG64.
    def test_no_default_rng_or_seed_sequence_per_seed(self, monkeypatch):
        calls, bit_generators = [], []
        default_rng, seed_sequence, pcg64 = np.random.default_rng, np.random.SeedSequence, np.random.PCG64

        def counted(build):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return build(*args, **kwargs)

            return wrapper

        def recorded(*args):
            bit_generators.append(pcg64(*args))
            return bit_generators[-1]

        monkeypatch.setattr(np.random, "default_rng", counted(default_rng))
        monkeypatch.setattr(np.random, "SeedSequence", counted(seed_sequence))
        monkeypatch.setattr(np.random, "PCG64", recorded)
        assert check_povm_dual_negativity(seeds=100).passed
        assert calls == []
        assert len(bit_generators) == 100
        assert all(isinstance(b._seed_seq, catalog._SeedWords) for b in bit_generators)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_single_seed_sampler(self, d):
        stacked = random_minimal_povms(d, range(40))
        assert stacked.shape == (40, d * d, d, d)
        for seed, family in enumerate(stacked):
            assert np.array_equal(family, random_minimal_povm_scheme(d, seed).dequantizers)

    def test_one_svd_per_draw(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert check_povm_dual_negativity(seeds=100).passed
        assert calls == [(100, 4, 4)]

    # A rank tolerance that rejects a share of draws: the sampler only draws,
    # so the refusal comes where the duals are taken.  canonical_quantizers
    # refuses the stack and so does the POVM check; emit writes a failing
    # seed's draw, and quantize exits 1 on it with one error line.
    def test_rank_deficient_draw_is_not_tomographic(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(matrixcore, "RANK_TOL", 0.05)
        with pytest.raises(NotTomographicError):
            canonical_quantizers(random_minimal_povms(2, range(20)))
        with pytest.raises(NotTomographicError):
            check_povm_dual_negativity(seeds=20)
        failing = []
        for seed in range(20):
            try:
                canonical_quantizers(random_minimal_povm_scheme(2, seed).dequantizers)
            except NotTomographicError:
                failing.append(seed)
        assert failing
        scheme, out = tmp_path / "r.json", tmp_path / "q.json"
        assert main(["emit", "random-povm", "--d", "2", "--seed", str(failing[0]), "-o", str(scheme)]) == 0
        capsys.readouterr()
        assert main(["quantize", str(scheme), "-o", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestHaarUnitaries:
    @pytest.mark.parametrize("dim", [4, 9])
    def test_stack_consumes_the_stream_like_single_draws(self, dim):
        rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
        expected = np.stack([haar_unitaries(rng.standard_normal((2, dim, dim))) for _ in range(20)])
        rng = np.random.default_rng(DEFAULT_BATTERY_SEED)
        stacked = haar_unitaries(rng.standard_normal((20, 2, dim, dim)))
        assert np.array_equal(stacked, expected)
        gram = stacked.conj().swapaxes(-1, -2) @ stacked
        assert np.abs(gram - np.eye(dim)).max() <= 1e-13


def test_battery_records_check_seconds():
    results = run_battery("table")
    assert [r.name for r in results] == ["table-rows-1-3", "table-rows-4-6"]
    assert all(isinstance(r.seconds, float) and r.seconds >= 0.0 for r in results)


def test_battery_builds_the_regression_set_once(monkeypatch):
    entries = verification.entries
    calls = []

    def counting_entries(*args, **kwargs):
        calls.append(args)
        return entries(*args, **kwargs)

    monkeypatch.setattr(verification, "entries", counting_entries)
    verification._quantized_regression_set.cache_clear()
    results = run_battery("all", seeds=20)
    assert len(calls) == 1
    assert all(r.passed for r in results)


@functools.cache
def _unpatched(check) -> verification.CheckResult:
    """One run of ``check`` before any patch, read for its name and its gates."""
    return check()


def _bound(check, detail):
    """The bound of ``check``'s ``<=`` gate on ``detail``, as its report gives it."""
    gate = _unpatched(check).details["gates"][detail]
    assert gate["test"] == "<="
    return gate["bound"]


def _table_block_off_by(monkeypatch, index, offset, block="generated_rowstacking"):
    """The table regression set with entry [0, 0] of row ``index``'s generated
    ``block`` moved by ``offset``."""
    rows = catalog.table_regression_set()
    generated = getattr(rows[index], block).copy()
    generated[0, 0] += offset
    rows[index] = dataclasses.replace(rows[index], **{block: generated})
    monkeypatch.setattr(verification, "table_regression_set", lambda: rows)


class TestTableChecks:
    """Both table checks fail on a generated block off by ten times their
    max_residual gate and pass at a tenth of it, and table-rows-4-6 fails
    when a row loses its errata."""

    @pytest.mark.parametrize("factor, passed", [(10.0, False), (0.1, True)])
    @pytest.mark.parametrize("block", ["generated_rowstacking", "generated_pauli"])
    @pytest.mark.parametrize(
        "check, index",
        [(verification.check_table_printed_rows, 0), (verification.check_table_derived_rows, 3)],
    )
    def test_a_block_off_by_factor_times_its_gate(
        self, monkeypatch, check, index, block, factor, passed
    ):
        bound = _bound(check, "max_residual")
        _table_block_off_by(monkeypatch, index, factor * bound, block)
        result = check()
        assert result.passed is passed
        assert (result.details["max_residual"] > bound) is not passed

    @pytest.mark.parametrize("index", [3, 4, 5])
    def test_a_row_without_errata_fails(self, monkeypatch, index):
        bound = _bound(verification.check_table_derived_rows, "max_residual")
        rows = catalog.table_regression_set()
        rows[index] = dataclasses.replace(rows[index], errata=())
        monkeypatch.setattr(verification, "table_regression_set", lambda: rows)
        result = verification.check_table_derived_rows()
        assert not result.passed
        assert result.details["rows_flagged"] == sorted({4, 5, 6} - {index + 1})
        assert result.details["max_residual"] <= bound


# The library functions the checks call, as the checks see them unpatched.
_REAL = {
    name: getattr(verification, name)
    for name in (
        "associativity_residual",
        "classify",
        "intertwiner",
        "livine_scheme",
        "reconstruct",
        "scaled_unitary_check",
        "self_dual_coefficients",
        "sic_qubit_scheme",
        "singular_values",
        "star_multiply",
        "wh_sic_scheme",
    )
}


def _wrap(monkeypatch, name, change):
    """Patch ``verification.<name>`` to return ``change`` of the real result."""
    real = _REAL[name]
    monkeypatch.setattr(verification, name, lambda *args: change(real(*args)))


def _constant(monkeypatch, name, value):
    monkeypatch.setattr(verification, name, lambda *args: value)


def _overfilled(s):
    return s.n_points > s.d**2


def _backward_changed(change, where=lambda source: True):
    """An intertwiner that applies ``change`` to each backward kernel, the
    second direction asked for of a pair of schemes, whose source (the
    pair's target) meets ``where``."""
    forward = set()

    def intertwiner(source, target):
        kernel = _REAL["intertwiner"](source, target)
        if (target.name, source.name) not in forward:
            forward.add((source.name, target.name))
            return kernel
        return change(kernel) if where(source) else kernel

    return intertwiner


def _overfilled_roundtrip_off_by(monkeypatch, offset):
    """All-ones symbols, and the overfilled pair's backward kernel scaled by
    1 + ``offset``, so that pair's round trip is off by exactly ``offset``."""
    scaled = _backward_changed(lambda kernel: (1 + offset) * kernel, _overfilled)
    monkeypatch.setattr(verification, "intertwiner", scaled)
    monkeypatch.setattr(verification, "symbol", lambda s, a: np.ones((*a.shape[:-2], s.n_points)))


def _scaled_scheme(name, which, scale):
    """``verification.<name>`` whose family ``which`` (a normalization, or a
    dimension for ``wh_sic_scheme``) has its dequantizers multiplied by ``scale``."""

    def build(key, *args):
        s = _REAL[name](key, *args)
        return Scheme(dequantizers=scale * s.dequantizers) if key == which else s

    return build


def _livine_shifted(first, second):
    """Livine's scheme with ``first`` and ``second`` times the identity added to
    its first two dequantizers, and quantizers kept at twice them (c = 1/2)."""
    s = _REAL["livine_scheme"]("dequantizer")
    deq = s.dequantizers.copy()
    deq[0] += first * np.eye(2)
    deq[1] += second * np.eye(2)
    return Scheme(dequantizers=deq, quantizers=2 * deq, name=s.name)


def _mub_duality_idempotency_off_by(delta, offset):
    """The duality matrix ``delta`` of a frame with a null space plus a
    traceless Hermitian a (v v* - w w*) from it, scaled so that its
    idempotency residual reads ``offset``."""
    v, w = np.linalg.eigh(delta)[1][:, :2].T
    shift = np.outer(v, v.conj()) - np.outer(w, w.conj())
    return delta + offset / np.abs(shift).max() * shift


# Per ``<=`` gate: the check, the detail that its gate reads, and a patch
# that puts that residual at ``offset``.  The bound comes from the check.
_GATES = {
    "table-rows-1-3": (
        verification.check_table_printed_rows,
        "max_residual",
        lambda mp, offset: _table_block_off_by(mp, 0, offset),
    ),
    "table-rows-4-6": (
        verification.check_table_derived_rows,
        "max_residual",
        lambda mp, offset: _table_block_off_by(mp, 3, offset),
    ),
    "kernel-associativity": (
        verification.check_kernel_laws,
        "worst_associativity_residual",
        lambda mp, offset: _constant(mp, "associativity_residual", offset),
    ),
    "kernel-homomorphism": (
        verification.check_kernel_laws,
        "worst_homomorphism_residual",
        lambda mp, offset: _wrap(mp, "star_multiply", lambda f: f + offset),
    ),
    "completeness": (
        verification.check_completeness_roundtrip,
        "worst_completeness_residual",
        lambda mp, offset: _constant(mp, "completeness_residual", offset),
    ),
    "roundtrip": (
        verification.check_completeness_roundtrip,
        "worst_roundtrip_residual",
        lambda mp, offset: _wrap(mp, "reconstruct", lambda a: a + offset),
    ),
    "cubic-unitary-identity": (
        verification.check_cubic_identity,
        "worst_residual",
        lambda mp, offset: mp.setattr(
            verification, "cubic_unitary_residual", lambda u: np.full(u.shape[:-2], offset)
        ),
    ),
    "intertwining-composition": (
        verification.check_intertwining,
        "minimal_composition_residual",
        # backward @ forward = (1 + offset) I for the minimal pair.
        lambda mp, offset: mp.setattr(
            verification, "intertwiner", _backward_changed(lambda kernel: (1 + offset) * kernel)
        ),
    ),
    "intertwining-roundtrip": (
        verification.check_intertwining,
        "overfilled_roundtrip_residual",
        lambda mp, offset: _overfilled_roundtrip_off_by(mp, offset),
    ),
    "mub-singular-values": (
        verification.check_mub_frame,
        "singular_value_residual",
        lambda mp, offset: _wrap(mp, "singular_values", lambda sv: sv + [offset, 0, 0, 0]),
    ),
    # check_mub_frame's one intertwiner call is its duality matrix.
    "mub-duality-hermiticity": (
        verification.check_mub_frame,
        "duality_hermiticity_residual",
        lambda mp, offset: _wrap(mp, "intertwiner", lambda m: m + offset * np.eye(6, k=1)),
    ),
    "mub-duality-idempotency": (
        verification.check_mub_frame,
        "duality_idempotency_residual",
        lambda mp, offset: _wrap(mp, "intertwiner", lambda m: _mub_duality_idempotency_off_by(m, offset)),
    ),
    "mub-duality-trace": (
        verification.check_mub_frame,
        "duality_trace_residual",
        lambda mp, offset: _wrap(mp, "intertwiner", lambda m: m + offset / 6 * np.eye(6)),
    ),
    "mub-condition-number": (
        verification.check_mub_frame,
        "condition_number_residual",
        lambda mp, offset: _wrap(
            mp, "classify", lambda r: dataclasses.replace(r, condition_number=np.sqrt(3) + offset)
        ),
    ),
    "self-dual-forward": (
        verification.check_self_duality_unitarity,
        "random_coefficient_worst_relative_error",
        lambda mp, offset: _wrap(mp, "self_dual_coefficients", lambda c: c * (1 + offset)),
    ),
    "self-dual-backward": (
        verification.check_self_duality_unitarity,
        "catalog_gram_worst_relative_error",
        lambda mp, offset: _wrap(mp, "scaled_unitary_check", lambda c: c * (1 + offset)),
    ),
    # A family scaled by sqrt(1 + t) has its Gram matrix scaled by 1 + t:
    # diagonal 1 and effect off-diagonal 1/12 move by t and t / 12.
    "sic-qubit-projectors": (
        verification.check_sic_conditions,
        "qubit_projector_gram_residual",
        lambda mp, offset: mp.setattr(
            verification,
            "sic_qubit_scheme",
            _scaled_scheme("sic_qubit_scheme", "projector", np.sqrt(1 + offset)),
        ),
    ),
    "sic-qubit-effects": (
        verification.check_sic_conditions,
        "qubit_effect_gram_residual",
        lambda mp, offset: mp.setattr(
            verification,
            "sic_qubit_scheme",
            _scaled_scheme("sic_qubit_scheme", "povm", np.sqrt(1 + 12 * offset)),
        ),
    ),
    "sic-qutrit": (
        verification.check_sic_conditions,
        "qutrit_gram_residual",
        lambda mp, offset: mp.setattr(
            verification, "wh_sic_scheme", _scaled_scheme("wh_sic_scheme", 3, np.sqrt(1 + offset))
        ),
    ),
    "livine-coefficient": (
        verification.check_livine_positivity,
        "coefficient_residual",
        lambda mp, offset: _wrap(
            mp, "classify", lambda r: dataclasses.replace(r, self_dual_coefficient=0.5 + offset)
        ),
    ),
    "livine-eigenvalues": (
        verification.check_livine_positivity,
        "eigenvalue_residual",
        lambda mp, offset: _constant(mp, "livine_scheme", _livine_shifted(offset, -offset)),
    ),
    "livine-identity-sum": (
        verification.check_livine_positivity,
        "identity_sum_residual",
        lambda mp, offset: _constant(mp, "livine_scheme", _livine_shifted(0.0, offset)),
    ),
}


class TestCheckGates:
    """Each battery check fails with one gated residual at twice its gate and
    passes with it at half; each patch moves only the library call the check
    makes, so no gate or tolerance changes."""

    @pytest.mark.parametrize("factor, passed", [(2.0, False), (0.5, True)])
    @pytest.mark.parametrize("gate", list(_GATES))
    def test_a_residual_at_factor_times_its_gate(self, monkeypatch, gate, factor, passed):
        check, detail, patch = _GATES[gate]
        bound = _bound(check, detail)
        patch(monkeypatch, factor * bound)
        result = check()
        assert result.passed is passed
        assert result.details[detail] == pytest.approx(factor * bound, rel=1e-3)

    @pytest.mark.parametrize("factor, passed", [(0.5, False), (2.0, True)])
    def test_livine_negativity_at_factor_times_its_gate(self, monkeypatch, factor, passed):
        # The check needs a dequantizer eigenvalue below -EIG_TOL.
        minimum = -factor * matrixcore.EIG_TOL
        _wrap(
            monkeypatch,
            "classify",
            lambda r: dataclasses.replace(
                r, povm=dataclasses.replace(r.povm, min_effect_eigenvalue=minimum)
            ),
        )
        assert verification.check_livine_positivity().passed is passed

    def test_backward_direction_fails_on_a_self_dual_entry_that_is_not_scaled_unitary(
        self, monkeypatch
    ):
        passing = check_self_duality_unitarity().details["self_dual_catalog_schemes"]
        _constant(monkeypatch, "scaled_unitary_check", None)
        result = check_self_duality_unitarity()
        assert not result.passed
        assert result.details["catalog_gram_worst_relative_error"] == np.inf
        # Every self-dual entry is swept and named, the first failing one too.
        assert result.details["self_dual_catalog_schemes"] == passing

    @pytest.mark.parametrize("self_dual_entries, passed", [(0, False), (1, True)])
    def test_backward_direction_needs_a_self_dual_entry(
        self, monkeypatch, self_dual_entries, passed
    ):
        # The regression set without its self-dual entries, then with the first one back.
        regression = verification._quantized_regression_set()
        self_dual = [s for s in regression if classify(s).self_dual_coefficient is not None]
        kept = self_dual[:self_dual_entries]
        others = [s for s in regression if classify(s).self_dual_coefficient is None]
        monkeypatch.setattr(verification, "_quantized_regression_set", lambda: (*others, *kept))
        result = check_self_duality_unitarity()
        assert result.passed is passed
        assert result.details["self_dual_catalog_count"] == self_dual_entries
        assert result.details["self_dual_catalog_schemes"] == [s.name for s in kept]

    def test_livine_fails_when_it_is_not_self_dual(self, monkeypatch):
        _wrap(monkeypatch, "classify", lambda r: dataclasses.replace(r, self_dual_coefficient=None))
        assert not verification.check_livine_positivity().passed

    @pytest.mark.parametrize("eigenvalue, passed", [(2e-10, False), (5e-11, True)])
    def test_povm_counterexample_at_factor_times_the_guard(self, monkeypatch, eigenvalue, passed):
        # Seed 0's quantizers all become eigenvalue * I: at or past the guard a
        # counterexample, inside it one inconclusive seed of 100.
        def duals(dequantizers):
            qs = canonical_quantizers(dequantizers)
            qs[0] = eigenvalue * np.eye(2)
            return qs

        monkeypatch.setattr(verification, "canonical_quantizers", duals)
        result = check_povm_dual_negativity(seeds=100)
        assert result.passed is passed
        assert result.details["counterexamples"] == (0 if passed else 1)
        assert result.details["largest_min_quantizer_eigenvalue"] == pytest.approx(eigenvalue)

    @pytest.mark.parametrize("inconclusive, passed", [(10, True), (11, False)])
    def test_povm_conclusive_floor(self, monkeypatch, inconclusive, passed):
        # Zero quantizers are inconclusive; 990 of 1000 seeds must be conclusive.
        def duals(dequantizers):
            qs = canonical_quantizers(dequantizers)
            qs[:inconclusive] = 0
            return qs

        monkeypatch.setattr(verification, "canonical_quantizers", duals)
        result = check_povm_dual_negativity()
        assert result.passed is passed
        assert result.details["conclusive"] == 1000 - inconclusive
        assert result.details["counterexamples"] == 0


# The gates that are conditions rather than residual bounds, each with the
# test that moves its value just across its comparison.
_CONDITIONS = {
    ("table-rows-4-6", "rows_flagged"): TestTableChecks.test_a_row_without_errata_fails,
    ("livine-self-dual-not-povm", "min_dequantizer_eigenvalue"): (
        TestCheckGates.test_livine_negativity_at_factor_times_its_gate
    ),
    ("self-dual-scaled-unitary", "self_dual_catalog_count"): (
        TestCheckGates.test_backward_direction_needs_a_self_dual_entry
    ),
    ("povm-dual-negativity", "counterexamples"): (
        TestCheckGates.test_povm_counterexample_at_factor_times_the_guard
    ),
    ("povm-dual-negativity", "conclusive"): TestCheckGates.test_povm_conclusive_floor,
}


def test_each_verdict_is_its_gates_and_each_gate_has_its_tests():
    # A gate added to a check without a _GATES entry or a near-miss test fails here.
    tests = {
        "<=": operator.le, "<": operator.lt, "==": operator.eq, ">": operator.gt, ">=": operator.ge
    }
    residual_gates = {(_unpatched(check).name, detail) for check, detail, _ in _GATES.values()}
    seen = set()
    for result in run_battery("all"):
        gates = result.details["gates"]
        assert gates, result.name
        holds = [tests[g["test"]](result.details[key], g["bound"]) for key, g in gates.items()]
        assert result.passed is all(holds)
        for key, gate in gates.items():
            tested = residual_gates if gate["test"] == "<=" else _CONDITIONS
            assert (result.name, key) in tested, (result.name, key)
            seen.add((result.name, key))
    assert seen == residual_gates | set(_CONDITIONS)


def _nan_at_last_call(monkeypatch, name, calls):
    """Patch ``verification.<name>`` so that its ``calls``-th call, the last
    one a check makes, returns the real result with its last entry NaN."""
    real, made = getattr(verification, name), 0

    def patched(*args):
        nonlocal made
        made += 1
        result = real(*args)
        if made == calls:
            result = np.array(result)
            result.flat[-1] = np.nan
        return result

    monkeypatch.setattr(verification, name, patched)


def _minimal_backward_nan_last():
    """The intertwiner, with the last entry of the minimal pair's backward
    kernel NaN: both composed products then hold a NaN, the last one last."""

    def nan_last(kernel):
        kernel = kernel.copy()
        kernel[-1, -1] = np.nan
        return kernel

    return _backward_changed(nan_last, lambda source: not _overfilled(source))


def _regression_size():
    return len(verification._quantized_regression_set())


# Per swept ``<=`` gate: the check, the detail its gate reads, and a patch of
# the library call the check makes that puts a NaN at the last entry or
# sample of the sweep, after finite ones.
_NAN_SWEEPS = {
    "table-rows-1-3": (
        verification.check_table_printed_rows,
        "max_residual",
        lambda mp: _table_block_off_by(mp, 2, np.nan, "generated_pauli"),
    ),
    "table-rows-4-6": (
        verification.check_table_derived_rows,
        "max_residual",
        lambda mp: _table_block_off_by(mp, 5, np.nan, "generated_pauli"),
    ),
    "self-dual-forward": (
        verification.check_self_duality_unitarity,
        "random_coefficient_worst_relative_error",
        lambda mp: _nan_at_last_call(mp, "self_dual_coefficients", 2),
    ),
    "self-dual-backward": (
        verification.check_self_duality_unitarity,
        "catalog_gram_worst_relative_error",
        lambda mp: _nan_at_last_call(
            mp,
            "scaled_unitary_check",
            _unpatched(verification.check_self_duality_unitarity).details["self_dual_catalog_count"],
        ),
    ),
    "completeness": (
        verification.check_completeness_roundtrip,
        "worst_completeness_residual",
        lambda mp: _nan_at_last_call(mp, "completeness_residual", _regression_size()),
    ),
    "roundtrip": (
        verification.check_completeness_roundtrip,
        "worst_roundtrip_residual",
        lambda mp: _nan_at_last_call(mp, "reconstruct", _regression_size()),
    ),
    "kernel-homomorphism": (
        verification.check_kernel_laws,
        "worst_homomorphism_residual",
        lambda mp: _nan_at_last_call(mp, "star_multiply", _regression_size()),
    ),
    "kernel-associativity": (
        verification.check_kernel_laws,
        "worst_associativity_residual",
        lambda mp: _nan_at_last_call(mp, "associativity_residual", _regression_size()),
    ),
    "intertwining-composition": (
        verification.check_intertwining,
        "minimal_composition_residual",
        lambda mp: mp.setattr(verification, "intertwiner", _minimal_backward_nan_last()),
    ),
    "cubic-unitary-identity": (
        verification.check_cubic_identity,
        "worst_residual",
        lambda mp: _nan_at_last_call(mp, "cubic_unitary_residual", 2),
    ),
}


class TestNanResiduals:
    """A NaN residual fails its gate wherever it sits in a sweep, and the
    check reports it as the gate's value."""

    @pytest.mark.parametrize("gate", list(_NAN_SWEEPS))
    def test_a_nan_last_in_a_sweep_fails(self, monkeypatch, gate):
        check, detail, patch = _NAN_SWEEPS[gate]
        patch(monkeypatch)
        result = check()
        assert not result.passed
        assert np.isnan(result.details[detail])

    @pytest.mark.parametrize(
        "residuals, passed, value, margin",
        [([0.1, np.nan], False, np.nan, np.nan), ([], True, 0.0, np.inf)],
        ids=["nan-last", "empty"],
    )
    def test_gated_reads_the_largest_residual(self, residuals, passed, value, margin):
        result = verification._gated("probe", {"r": residuals}, {"r": ("<=", 1.0)})
        assert result.passed is passed
        assert result.details["r"] == pytest.approx(value, nan_ok=True)
        assert result.details["gates"]["r"]["margin"] == pytest.approx(margin, nan_ok=True)


class TestLeastMargin:
    """``CheckResult.least_margin``: the least margin of the ``<=`` gates."""

    def test_the_least_of_the_residual_gates(self):
        gates = {"a": ("<=", 1.0), "b": ("<=", 1.0), "c": (">", 0)}
        result = verification._gated("probe", {"a": 0.25, "b": 0.5, "c": 1}, gates)
        assert result.least_margin == 2.0
        assert type(result.least_margin) is float

    def test_none_without_a_residual_gate(self):
        assert verification._gated("probe", {"c": 1}, {"c": (">", 0)}).least_margin is None
        assert verification.CheckResult(name="probe", passed=True).least_margin is None

    def test_a_nan_margin_is_kept(self):
        gates = {"a": ("<=", 1.0), "b": ("<=", 1.0)}
        result = verification._gated("probe", {"a": 0.5, "b": [0.1, np.nan]}, gates)
        assert np.isnan(result.least_margin)

    def test_a_zero_residual_gives_inf(self):
        assert verification._gated("probe", {"a": 0.0}, {"a": ("<=", 1.0)}).least_margin == np.inf


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, imported from its file for this test only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_starprod_tracing", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """The benchmark tracer wraps module-level functions by name and patches
    them on the modules that hold them; these names must keep existing."""

    def test_traced_names_are_module_level_functions(self, tracing):
        names = [f"verification.{fn}" for fn in tracing.CHECK_FUNCTIONS.values()]
        names += [*tracing.CALL_COUNTS, *tracing.FUNCTION_SHARES, *tracing.BYTE_COUNTS]
        for name in names:
            layer, attr = name.split(".")
            module = importlib.import_module(f"starprod.{layer}")
            fn = getattr(module, attr, None)
            assert inspect.isfunction(fn), name
            assert fn.__module__ == module.__name__, name

    def test_no_public_function_takes_a_tolerance(self, tracing):
        functions = [verification._quantized_regression_set]
        for layer in tracing.LAYERS:
            module = importlib.import_module(f"starprod.{layer}")
            functions += [
                fn
                for name, fn in vars(module).items()
                if not name.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == module.__name__
            ]
        assert run_battery in functions and len(functions) > 50
        for fn in functions:
            for name in inspect.signature(fn).parameters:
                assert name != "tol" and not name.endswith("_tol"), fn.__qualname__

    def test_battery_looks_checks_up_when_it_runs(self, monkeypatch):
        patched = verification.CheckResult(name="table-rows-1-3", passed=True)
        monkeypatch.setattr(verification, "check_table_printed_rows", lambda: patched)
        results = run_battery("table")
        assert results[0] is patched
