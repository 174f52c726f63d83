"""Spans around starprod's public functions, recorded from outside ``src/``.

Each public function of a layer module is wrapped once, and the wrapper
replaces the function's name in every starprod module that holds it: the
defining module (so calls inside the layer are seen, e.g. ``rank`` ->
``singular_values``) and each importing module (``starprod.cli.classify``,
``starprod.verification.canonical_quantizers``, ...).  ``install`` and
``uninstall`` swap the wrappers in and out, so untraced passes run the
original functions.

A span is (name, start_ns, end_ns, parent); spans of one pass share its pass
id.  A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Iterator

LAYERS = (
    "matrixcore",
    "operator_space",
    "scheme",
    "catalog",
    "star_product",
    "serialization",
    "verification",
    "cli",
)

# The per-entry JSON helper runs once per matrix entry (~175k times for one
# p = 7 kernel file); a span there would measure the tracer, not the layer.
# Its time stays in the caller's span.
UNTRACED = frozenset({"serialization.complex_to_pair"})

# Battery check name -> the function that runs it (starprod.verification).
CHECK_FUNCTIONS = {
    "table-rows-1-3": "check_table_printed_rows",
    "table-rows-4-6": "check_table_derived_rows",
    "sic-overlap-conditions": "check_sic_conditions",
    "livine-self-dual-not-povm": "check_livine_positivity",
    "self-dual-scaled-unitary": "check_self_duality_unitarity",
    "povm-dual-negativity": "check_povm_dual_negativity",
    "completeness-roundtrip": "check_completeness_roundtrip",
    "kernel-homomorphism-associativity": "check_kernel_laws",
    "intertwining": "check_intertwining",
    "cubic-unitary-identity": "check_cubic_identity",
    "mub-frame": "check_mub_frame",
}
CALL_COUNTS = (
    "catalog.random_minimal_povm_scheme",
    "catalog.entries",
    "scheme.canonical_quantizers",
    "scheme.classify",
    "matrixcore.singular_values",
    "matrixcore.rank",
    "operator_space.devectorize",
    "cli.main",
)
FUNCTION_SHARES = (
    "catalog.random_minimal_povm_scheme",
    "scheme.canonical_quantizers",
    "scheme.classify",
    "star_product.star_kernel",
    "star_product.associativity_residual",
    "serialization.save_kernel",
    "serialization.load_kernel",
    "serialization.load_scheme",
    "serialization.save_scheme",
)
LAYER_SHARES = ("scheme", "matrixcore", "operator_space", "cli")


def _file_bytes(arguments: dict[str, Any]) -> str:
    # Resolved after the pass (see Tracer.end_pass), outside every span.
    return arguments["path"]


def _assoc_bytes(arguments: dict[str, Any]) -> int:
    # Two N^4 complex128 intermediates (left and right composition).
    n = arguments["kernel"].values.shape[0]
    return 2 * n**4 * 16


# Computed, not measured: byte counts derived from file sizes and array shapes.
BYTE_COUNTS: dict[str, tuple[str, Callable[[dict[str, Any]], Any]]] = {
    "serialization.save_scheme": ("serialization.scheme_bytes", _file_bytes),
    "serialization.load_scheme": ("serialization.scheme_bytes", _file_bytes),
    "serialization.save_kernel": ("serialization.kernel_bytes", _file_bytes),
    "serialization.load_kernel": ("serialization.kernel_bytes", _file_bytes),
    "star_product.associativity_residual": ("star_product.assoc_bytes", _assoc_bytes),
}
BYTE_METRICS = tuple(sorted({metric for metric, _ in BYTE_COUNTS.values()}))

# A certify pass makes ~30k spans (~0.45 MB gzipped); the span file keeps the
# first few traced passes, the metrics use all of them.
SPAN_FILE_PASSES = 3


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"verification.{check}.self_share": "share" for check in CHECK_FUNCTIONS}
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update({f"{name}.self_share": "share" for name in FUNCTION_SHARES})
    units.update({f"{layer}.self_share": "share" for layer in LAYER_SHARES})
    units.update({name: "bytes_computed" for name in BYTE_METRICS})
    units["trace_overhead"] = "ratio"
    return units


@dataclass
class PassTrace:
    """Per-pass totals: exact call counts, self time and computed bytes."""

    calls: Counter
    self_ns: dict[str, int]
    byte_counts: dict[str, int]


class Tracer:
    """Wraps starprod's public functions and records spans while installed."""

    def __init__(self, spans_path: str) -> None:
        self._spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self._sizes: list[tuple[str, Any]] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._next_id = 0
        self._written_passes = 0
        self._out = gzip.open(spans_path, "wt")
        package = [m for name, m in list(sys.modules.items()) if name == "starprod" or name.startswith("starprod.")]
        wrapped = set()
        for layer in LAYERS:
            module = sys.modules[f"starprod.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED:
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(name, fn)
                wrapped.add(name)
                for target in package:
                    for target_attr, value in list(vars(target).items()):
                        if value is fn:
                            self._patches.append((target, target_attr, fn, wrapper))
        wanted = {f"verification.{fn}" for fn in CHECK_FUNCTIONS.values()}
        wanted.update(CALL_COUNTS, FUNCTION_SHARES, BYTE_COUNTS)
        missing = sorted(wanted - wrapped)
        if missing:
            raise RuntimeError(f"traced functions not found in starprod: {missing}")

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, sizes = self._spans, self._stack, self._sizes
        byte_count = BYTE_COUNTS.get(name)
        signature = inspect.signature(fn) if byte_count else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if byte_count is not None:
                    metric, compute = byte_count
                    sizes.append((metric, compute(signature.bind(*args, **kwargs).arguments)))

        return wrapper

    def install(self) -> None:
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)

    @contextlib.contextmanager
    def op_span(self, label: str) -> Iterator[None]:
        """Root span around one op; its self time is the benchmark's own share."""
        index = len(self._spans)
        self._spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._spans[index] = (f"op:{label}", start, end, -1)

    def end_pass(self, pass_id: int) -> PassTrace:
        """Fold the pass's spans into totals, write them to the span file
        (first SPAN_FILE_PASSES traced passes), and reset."""
        spans = self._spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: dict[str, int] = defaultdict(int)
        base = self._next_id
        write = self._written_passes < SPAN_FILE_PASSES
        self._written_passes += write
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            if write:
                self._out.write(
                    json.dumps(
                        {
                            "pass": pass_id,
                            "id": base + index,
                            "parent": None if parent < 0 else base + parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
        byte_counts: dict[str, int] = dict.fromkeys(BYTE_METRICS, 0)
        for metric, value in self._sizes:
            byte_counts[metric] += os.path.getsize(value) if isinstance(value, str) else value
        self._next_id += len(spans)
        spans.clear()
        self._sizes.clear()
        return PassTrace(calls=calls, self_ns=dict(self_ns), byte_counts=byte_counts)

    def close(self) -> None:
        self.uninstall()
        self._out.close()


def per_layer_metrics(traces: list[PassTrace], op_ns: int, trace_overhead: float) -> dict[str, float]:
    """Per-layer values over the traced passes; op_ns is their total op time."""
    self_ns: dict[str, int] = defaultdict(int)
    for trace in traces:
        for name, value in trace.self_ns.items():
            self_ns[name] += value
    first = traces[0]
    values: dict[str, float] = {}
    for check, fn in CHECK_FUNCTIONS.items():
        values[f"verification.{check}.self_share"] = self_ns[f"verification.{fn}"] / op_ns
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = first.calls[name]
    for name in FUNCTION_SHARES:
        values[f"{name}.self_share"] = self_ns[name] / op_ns
    for layer in LAYER_SHARES:
        values[f"{layer}.self_share"] = sum(
            value for name, value in self_ns.items() if name.split(".", 1)[0] == layer
        ) / op_ns
    values.update(first.byte_counts)
    values["trace_overhead"] = trace_overhead
    return values
