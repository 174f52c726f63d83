"""Command-line interface.

Subcommands: emit, classify, quantize, symbol, reconstruct, kernel,
intertwine, verify.  Exit codes: 0 success; 1 a failed check or precondition
(any other ``StarProdError``); 2 malformed input (a ``MalformedInputError``,
a file that cannot be read or written, or an input too large to build).
Every human-readable analysis is mirrored by a machine-readable JSON report.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any

import numpy as np

from . import __version__, matrixcore
from .catalog import SCHEMES, build_scheme
from .errors import InvalidParameterError, MalformedInputError, StarProdError
from .scheme import (
    Scheme,
    SchemeReport,
    classify,
    completeness_residual,
    gauge_quantizers,
    with_canonical_quantizers,
)
from .serialization import (
    load_operator,
    load_scheme,
    load_vector,
    save_kernel,
    save_operator,
    save_scheme,
    save_vector,
    write_json,
)
from .star_product import (
    associativity_residual,
    intertwiner,
    reconstruct,
    star_kernel,
    symbol,
    symbol_roundtrip_residual,
)
from .verification import SUITES, run_battery

# Every emit flag: the union of the registered schemes' parameters.  Each
# defaults to None, so a scheme sees only the flags that were given.
_EMIT_PARAMS = tuple(dict.fromkeys(name for b in SCHEMES.values() for name in b.params))


def _flag(name: str, default: Any) -> str:
    return f"--{name}" if default is None else f"--{name} {default}"


def _write_report(path: str, **fields: Any) -> None:
    """Write the report: the tool, version and tolerances, then ``fields`` in order."""
    tolerances = {
        "rank_tol": matrixcore.RANK_TOL,
        "residual_tol": matrixcore.RESIDUAL_TOL,
        "eig_tol": matrixcore.EIG_TOL,
    }
    write_json({"tool": "starprod", "version": __version__, "tolerances": tolerances, **fields}, path)
    print(f"report written to {path}")


def _report_path(report: str | None, beside: str) -> str:
    """``report``, else ``<beside>.report.json``; refused beside a non-regular file."""
    if not report and os.path.exists(beside) and not os.path.isfile(beside):
        raise InvalidParameterError(f"no report beside {beside}, not a regular file; give --report")
    return report or f"{beside}.report.json"


def cmd_emit(args: argparse.Namespace) -> int:
    params = {n: getattr(args, n) for n in _EMIT_PARAMS if getattr(args, n) is not None}
    s = build_scheme(args.scheme_name, **params)
    save_scheme(s, args.output)
    print(f"wrote {s.name} (d={s.d}, N={s.n_points}) to {args.output}")
    return 0


def _format_human(report: SchemeReport, s: Scheme, scheme_name: str) -> str:
    lines = [f"scheme: {scheme_name} (d={s.d}, N={s.n_points})"]
    tomo = "tomographic" if report.tomographic else "not tomographic"
    lines.append(f"{report.cardinality}, {tomo} (rank {report.rank})")
    lines.append(f"condition number: {report.condition_number:.10g}")
    c = report.self_dual_coefficient
    if c is not None:
        lines.append(f"self-dual, c = {c:.10g}")
    else:
        lines.append("not self-dual")
    if report.scaled_unitary is not None:
        lines.append(f"scaled unitary: U U^dag = c I with c = {report.scaled_unitary:.10g}")
    povm = report.povm
    if povm.is_povm:
        lines.append("POVM: yes")
    else:
        lines.append(
            f"NOT a POVM (sum residual {povm.sum_residual:.3g}; hermiticity residual "
            f"{povm.hermiticity_residual:.3g}; min effect eigenvalue {povm.min_effect_eigenvalue:.6g})"
        )
    neg = report.negativity
    if neg is not None:
        lines.append(f"min dequantizer eigenvalue: {neg.min_dequantizer_eigenvalue:.10g}")
        if neg.min_quantizer_eigenvalue is not None:
            lines.append(f"min quantizer eigenvalue: {neg.min_quantizer_eigenvalue:.10g}")
    # Read from the scheme: a non-Hermitian family leaves neg None either way.
    if s.quantizers is None and not report.tomographic:
        lines.append("quantizers undefined")
    if report.matrix_unit_like is not None:
        lines.append("matrix-unit-like: yes (rotated matrix units)")
    return "\n".join(lines)


def cmd_classify(args: argparse.Namespace) -> int:
    s = load_scheme(args.scheme)
    path = _report_path(args.report, args.scheme)
    report = classify(s)
    print(_format_human(report, s, s.name or args.scheme))
    _write_report(
        path,
        scheme={"path": args.scheme, "name": s.name, "d": s.d, "n": s.n_points},
        report=report,
    )
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    path = _report_path(args.report, args.output)
    s = load_scheme(args.scheme)
    if args.gauge:
        augmented = s.with_quantizers(gauge_quantizers(s, load_operator(args.gauge)))
    else:
        augmented = with_canonical_quantizers(s)
    residual = completeness_residual(augmented)
    save_scheme(augmented, args.output)
    print(f"wrote quantized scheme to {args.output}")
    print(f"completeness residual: {residual:.3e}")
    _write_report(
        path,
        completeness_residual=residual,
        gauge=args.gauge,
    )
    return 0


def cmd_symbol(args: argparse.Namespace) -> int:
    s = load_scheme(args.scheme)
    a = load_operator(args.operator)
    f = symbol(s, a)
    save_vector(f, args.output, scheme=s.name)
    print(f"wrote symbol vector (N={f.size}) to {args.output}")
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    s = load_scheme(args.scheme)
    f = load_vector(args.symbol)
    a = reconstruct(s, f)
    save_operator(a, args.output)
    print(f"wrote reconstructed operator ({s.d}x{s.d}) to {args.output}")
    return 0


def cmd_kernel(args: argparse.Namespace) -> int:
    kernel = star_kernel(load_scheme(args.scheme))
    residual = associativity_residual(kernel) if args.assoc_check else None
    save_kernel(kernel, args.output, assoc_residual=residual)
    print(f"wrote kernel tensor ({kernel.n_points}^3 entries) to {args.output}")
    if residual is not None:
        print(f"associativity residual: {residual:.3e}")
    return 0


def cmd_intertwine(args: argparse.Namespace) -> int:
    s_a = load_scheme(args.scheme_a)
    s_b = load_scheme(args.scheme_b)
    a = load_operator(args.operator)
    forward, backward = intertwiner(s_a, s_b), intertwiner(s_b, s_a)
    f_a = symbol(s_a, a)
    residual = symbol_roundtrip_residual(forward, backward, f_a)
    with np.printoptions(precision=6, suppress=True):
        print("forward kernel (source -> target):")
        print(forward)
        print("backward kernel (target -> source):")
        print(backward)
    print(f"symbol round-trip residual: {residual:.3e}")
    _write_report(
        args.report or "intertwine.report.json",
        forward=forward,
        backward=backward,
        roundtrip_residual=residual,
        symbol=f_a,
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_battery(suite=args.suite, seeds=args.seeds)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        summary = ", ".join(
            f"{key}={value:.3e}" if isinstance(value, float) else f"{key}={value}"
            for key, value in {**result.details, "least_margin": result.least_margin}.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        )
        print(f"{status} {result.name} ({summary})")
    all_passed = all(r.passed for r in results)
    _write_report(
        args.report or "verify.report.json",
        suite=args.suite,
        checks=results,
        passed=all_passed,
    )
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starprod",
        description="Operator bases as columns of dequantization matrices: "
        "build, classify, and verify star-product quantization schemes.",
    )
    parser.add_argument("--version", action="version", version=f"starprod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    schemes = "\n".join(
        f"  {name:<13} {' '.join(_flag(key, value) for key, value in b.params.items())}".rstrip()
        for name, b in SCHEMES.items()
    )
    p = sub.add_parser(
        "emit",
        help="write a built-in scheme to a JSON file",
        epilog=f"schemes and the flags each takes (with defaults):\n{schemes}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("scheme_name", help="one of the schemes listed below")
    for name in _EMIT_PARAMS:
        default = next(b.params[name] for b in SCHEMES.values() if name in b.params)
        p.add_argument(f"--{name}", type=str if default is None else type(default))
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("classify", help="classify a scheme and write a report")
    p.add_argument("scheme")
    p.add_argument("--report")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("quantize", help="attach canonical or gauge-shifted quantizers")
    p.add_argument("scheme")
    p.add_argument("--gauge", help="JSON file with a d^2 x N gauge matrix under 'matrix'")
    p.add_argument("--report")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("symbol", help="compute the symbol vector of an operator")
    p.add_argument("scheme")
    p.add_argument("operator")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("reconstruct", help="rebuild an operator from a symbol vector")
    p.add_argument("scheme")
    p.add_argument("symbol")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("kernel", help="compute the star-product kernel tensor")
    p.add_argument("scheme")
    p.add_argument("--assoc-check", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("intertwine", help="intertwining kernels between two schemes")
    p.add_argument("scheme_a")
    p.add_argument("scheme_b")
    p.add_argument("operator")
    p.add_argument("--report")
    p.set_defaults(func=cmd_intertwine)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--suite", choices=("all", *SUITES), default="all")
    p.add_argument(
        "--seeds", type=int, help="sample count for povm-dual-negativity (at least 1; default 1000)"
    )
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on the first call.

    Parsing never changes an ArgumentParser, so in-process callers share one
    instead of paying for a new argparse tree on every call.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (MalformedInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's names the allocation that failed; a bare one says nothing.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except StarProdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
