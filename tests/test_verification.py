"""Stacked battery paths against per-seed and per-sample reference loops,
the shared regression set, and the names the benchmark tracer wraps."""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from starprod import InvalidParameterError, SamplerFailureError, ToleranceConfig, catalog, verification
from starprod.catalog import random_minimal_povm_dequantizers, random_minimal_povm_scheme
from starprod.scheme import canonical_duals, canonical_quantizers
from starprod.verification import (
    DEFAULT_BATTERY_SEED,
    check_povm_dual_negativity,
    check_self_duality_unitarity,
    haar_unitaries,
    run_battery,
)
from starprod.operator_space import VectorizationBasis, devectorize

from _helpers import self_dual_reference


def _reference_minima(seeds: int) -> np.ndarray:
    """Smallest dual eigenvalue per seed, one scheme at a time."""
    minima = []
    for seed in range(seeds):
        qs = canonical_quantizers(random_minimal_povm_scheme(2, seed))
        herm = (qs + qs.conj().transpose(0, 2, 1)) / 2
        minima.append(float(np.linalg.eigvalsh(herm)[:, 0].min()))
    return np.array(minima)


class TestPovmDualNegativity:
    def test_per_seed_minima_match_reference_loop(self):
        reference = _reference_minima(200)
        duals = canonical_duals(random_minimal_povm_dequantizers(2, range(200)))
        herm = (duals + duals.conj().swapaxes(-1, -2)) / 2
        assert np.array_equal(np.linalg.eigvalsh(herm)[..., 0].min(axis=-1), reference)
        details = check_povm_dual_negativity(seeds=200).details
        guard = details["guard"]
        assert details["largest_min_quantizer_eigenvalue"] == reference.max()
        assert details["conclusive"] == np.count_nonzero(reference <= -guard)
        assert details["counterexamples"] == np.count_nonzero(reference >= guard)
        assert details["inconclusive"] == 200 - details["conclusive"] - details["counterexamples"]

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
                family = devectorize(u.T, VectorizationBasis.row_stacking(d))
                recovered = self_dual_reference(family, canonical_duals(family))
                worst = max(worst, np.inf if recovered is None else abs(recovered - c) / c)
        details = check_self_duality_unitarity().details
        assert details["random_coefficient_worst_relative_error"] == worst


class TestStackedSampler:
    # Rank tolerances that reject a share of first draws, so some seeds
    # draw again from their own streams.
    @pytest.mark.parametrize("d, rank_tol", [(2, 0.05), (3, 0.01)])
    def test_matches_single_seed_sampler(self, monkeypatch, d, rank_tol):
        tol = ToleranceConfig(rank_tol=rank_tol)
        with monkeypatch.context() as patch:
            patch.setattr(catalog, "_MAX_ATTEMPTS", 1)
            with pytest.raises(SamplerFailureError):
                random_minimal_povm_dequantizers(d, range(40), tol)
        stacked = random_minimal_povm_dequantizers(d, range(40), tol)
        assert stacked.shape == (40, d * d, d, d)
        for seed, family in enumerate(stacked):
            assert np.array_equal(family, random_minimal_povm_scheme(d, seed, tol).dequantizers)

    def test_failure_names_first_rank_deficient_seed(self, monkeypatch):
        monkeypatch.setattr(catalog, "_MAX_ATTEMPTS", 1)
        tol = ToleranceConfig(rank_tol=0.05)
        failing = []
        for seed in range(20):
            try:
                random_minimal_povm_scheme(2, seed, tol)
            except SamplerFailureError:
                failing.append(seed)
        assert failing
        with pytest.raises(SamplerFailureError, match=rf"seed={failing[0]}\)"):
            random_minimal_povm_dequantizers(2, range(20), tol)


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

    def test_battery_looks_checks_up_when_it_runs(self, monkeypatch):
        patched = verification.CheckResult(name="table-rows-1-3", passed=True)
        monkeypatch.setattr(verification, "check_table_printed_rows", lambda: patched)
        results = run_battery("table")
        assert results[0] is patched
