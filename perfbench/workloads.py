"""Workload inputs, ops and output checks for the starprod benchmark.

A workload turns a seed into input files (``build_inputs``; a fresh-process
set-up sample runs exactly this) and then into a list of ops (``make_ops``).
An op is one call into the public starprod API.  Its check validates the
op's return value and the files it wrote with plain ``json`` and numpy, so a
check never runs starprod code while a pass is traced.

Ops look their entry points up on the starprod module at call time
(``cli.main``, ``serialization.load_kernel``, ``verification.run_battery``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from starprod import catalog, cli, scheme, serialization, star_product, verification

WORKLOADS = ("certify", "analyze", "kernel")
SIZES = ("full", "tiny")

# The battery's completeness / round-trip tolerance and the kernel-law
# associativity tolerance (starprod.verification).
ROUNDTRIP_TOL = 1e-10
ASSOC_TOL = 1e-10
BATTERY_CHECKS = 11


@dataclass
class Op:
    """One timed call and the check of what it returned or wrote."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Inputs:
    """Generated inputs: files on disk plus the objects they were made from."""

    io_dir: str
    items: list[dict[str, Any]] = field(default_factory=list)
    operators: dict[int, tuple[str, np.ndarray]] = field(default_factory=dict)


def _ginibre(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    shape = (n, d, d)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, 1, d)[0])
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _add_scheme(inputs: Inputs, s: scheme.Scheme) -> None:
    path = os.path.join(inputs.io_dir, f"{s.name}.json")
    serialization.save_scheme(s, path)
    inputs.items.append({"name": s.name, "path": path, "scheme": s})


def _analyze_inputs(inputs: Inputs, rng: np.random.Generator, size: str) -> None:
    full = size == "full"
    dims = range(2, 7) if full else range(2, 4)
    for d in dims:
        # underfilled, minimal and two overfilled cardinalities
        for n in (d * d - 1, d * d, d * d + d, 2 * d * d):
            _add_scheme(inputs, scheme.Scheme(_ginibre(rng, n, d), name=f"ginibre-d{d}-n{n}"))
    for p in (3, 5, 7) if full else (3,):
        _add_scheme(inputs, catalog.mub_prime_scheme(p))
    _add_scheme(inputs, catalog.wh_sic_scheme(3, catalog.default_fiducial(3)))
    for d in (2, 3, 4) if full else (2,):
        _add_scheme(inputs, catalog.random_minimal_povm_scheme(d, int(rng.integers(2**31))))
    for d in sorted({item["scheme"].d for item in inputs.items}):
        a = _ginibre(rng, 1, d)[0]
        path = os.path.join(inputs.io_dir, f"operator-d{d}.json")
        serialization.save_operator(a, path)
        inputs.operators[d] = (path, a)


def _kernel_inputs(inputs: Inputs, rng: np.random.Generator, size: str) -> None:
    # mub-prime frames in a seeded orthonormal basis: the file bytes change
    # with the seed, the kernel (a trace invariant) does not.
    for p in (5, 7) if size == "full" else (3, 5):
        base = catalog.mub_prime_scheme(p)
        v = _haar_unitary(rng, p)
        deq = np.einsum("ab,kbc,dc->kad", v, base.dequantizers, v.conj())
        _add_scheme(inputs, scheme.Scheme(deq, name=f"{base.name}-rotated"))


def build_inputs(workload: str, seed: int, size: str, io_dir: str) -> Inputs:
    """Generate and write the workload's inputs (certify has none)."""
    os.makedirs(io_dir, exist_ok=True)
    inputs = Inputs(io_dir=io_dir)
    rng = np.random.default_rng(seed)
    if workload == "analyze":
        _analyze_inputs(inputs, rng, size)
    elif workload == "kernel":
        _kernel_inputs(inputs, rng, size)
    elif workload != "certify":
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(label: str, argv: list[str], check: Callable[[Any], bool]) -> Op:
    return Op(label, lambda: _cli(argv), check)


def _read_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def _complex(data: Any) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _certify_ops(size: str) -> list[Op]:
    def run() -> Any:
        if size == "full":
            return verification.run_battery("all")
        return verification.run_battery("all", seeds=50)

    def check(results: Any) -> bool:
        return len(results) == BATTERY_CHECKS and all(r.passed for r in results)

    return [Op("battery", run, check)]


def _analyze_ops(inputs: Inputs) -> list[Op]:
    ops = []
    for item in inputs.items:
        s, src = item["scheme"], item["path"]
        base = os.path.join(inputs.io_dir, item["name"])
        d_sq = s.d * s.d
        cardinality = (
            "underfilled" if s.n_points < d_sq else "minimal" if s.n_points == d_sq else "overfilled"
        )
        rank = min(s.n_points, d_sq)
        report = f"{base}.report.json"

        def check_classify(res, report=report, cardinality=cardinality, rank=rank) -> bool:
            data = _read_json(report)["report"]
            return res[0] == 0 and data["cardinality"] == cardinality and data["rank"] == rank

        ops.append(_cli_op(f"classify:{item['name']}", ["classify", src, "--report", report], check_classify))
        if s.n_points < d_sq:
            continue
        quantized, q_report = f"{base}.quantized.json", f"{base}.quantized.report.json"
        sym, rec = f"{base}.symbol.json", f"{base}.reconstructed.json"
        op_path, a = inputs.operators[s.d]
        expected_symbol = star_product.symbol(s, a)

        def check_quantize(res, q_report=q_report) -> bool:
            return res[0] == 0 and _read_json(q_report)["completeness_residual"] <= ROUNDTRIP_TOL

        def check_symbol(res, sym=sym, expected=expected_symbol) -> bool:
            got = _complex(_read_json(sym)["values"])
            return res[0] == 0 and got.shape == expected.shape and np.abs(got - expected).max() <= ROUNDTRIP_TOL

        def check_reconstruct(res, rec=rec, a=a) -> bool:
            got = _complex(_read_json(rec)["matrix"])
            return res[0] == 0 and got.shape == a.shape and np.abs(got - a).max() <= ROUNDTRIP_TOL

        ops += [
            _cli_op(f"quantize:{item['name']}", ["quantize", src, "-o", quantized, "--report", q_report], check_quantize),
            _cli_op(f"symbol:{item['name']}", ["symbol", quantized, op_path, "-o", sym], check_symbol),
            _cli_op(f"reconstruct:{item['name']}", ["reconstruct", quantized, sym, "-o", rec], check_reconstruct),
        ]
    return ops


_ASSOC_LINE = re.compile(r"associativity residual: (\S+)")


def _kernel_ops(inputs: Inputs) -> list[Op]:
    ops = []
    for i, item in enumerate(inputs.items):
        s, src = item["scheme"], item["path"]
        out = os.path.join(inputs.io_dir, f"{item['name']}.kernel.json")
        # Reference computed in memory the way the CLI does it: from the
        # parsed file, with canonical quantizers.
        reference = star_product.star_kernel(
            scheme.with_canonical_quantizers(serialization.load_scheme(src))
        ).values
        argv = ["kernel", src, "-o", out]
        if i == 0:
            # Exhaustive associativity only on the smaller frame: its two
            # N^4 complex intermediates take ~26 MB at p = 5 but ~315 MB at p = 7.
            argv.append("--assoc-check")

        def check_write(res, assoc=i == 0) -> bool:
            if res[0] != 0:
                return False
            if not assoc:
                return True
            found = _ASSOC_LINE.search(res[1])
            return found is not None and float(found.group(1)) <= ASSOC_TOL

        def check_read(res, d=s.d, reference=reference) -> bool:
            return res[0] == d and np.array_equal(res[1], reference)

        ops += [
            _cli_op(f"kernel:{item['name']}", argv, check_write),
            Op(f"load_kernel:{item['name']}", lambda p=out: serialization.load_kernel(p), check_read),
        ]
    return ops


def make_ops(workload: str, inputs: Inputs, size: str) -> list[Op]:
    """The ops of one pass, with expectations computed before any timing."""
    if workload == "certify":
        return _certify_ops(size)
    if workload == "analyze":
        return _analyze_ops(inputs)
    return _kernel_ops(inputs)
