"""One measured run of one workload; ``run.py`` is the command line.

Noise controls, each justified by a measurement in README.md: one BLAS
thread (set by ``bootstrap.prepare`` before numpy loads), one process and
one workload at a time, the CLI called in-process, every op bracketed by the
reference block (``timing``), ``gc.collect()`` between passes, and medians
over many passes.  Set-up time is the median of fresh-process samples spread
through the run, bracketed by the reference like an op.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import bootstrap
import starprod
import timing
import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
SETUP_SAMPLES = 7
MIN_TRACED_PASSES = 2
SETUP_TIMEOUT_S = 120
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_p50_ref": "ref",
    "pass_p90_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument(
        "--workload",
        choices=(*workloads.WORKLOADS, "all"),
        required=True,
        help="all: each workload in turn, one fresh process each",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=workloads.SIZES, default="full", help="tiny: the self-test's inputs"
    )
    return parser.parse_args(argv)


class Passes:
    """Runs passes over the ops: bracketed timing, checks, op tallies."""

    def __init__(self, ops: list[workloads.Op]) -> None:
        self.ops = ops
        self.reference = timing.Reference()
        self.attempted = 0
        self.failed = 0

    def run(self, tracer: tracing.Tracer | None = None) -> tuple[float, float]:
        """One pass; returns its cost in ref units and its raw op seconds."""
        ref_times = [self.reference.time()]
        op_times, results = [], []
        for op in self.ops:
            span = tracer.op_span(op.label) if tracer else nullcontext()
            start = perf_counter()
            try:
                with span:
                    result = op.run()
            except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
                traceback.print_exc()
                result = exc
            op_times.append(perf_counter() - start)
            results.append(result)
            ref_times.append(self.reference.time())
        for op, result in zip(self.ops, results):
            self.attempted += 1
            if not _passes(op, result):
                self.failed += 1
                print(f"failed op: {op.label}", file=sys.stderr)
        return timing.bracketed_cost(op_times, ref_times), sum(op_times)


def _passes(op: workloads.Op, result: object) -> bool:
    if isinstance(result, BaseException):
        return False
    try:
        return bool(op.check(result))
    except Exception:  # a check that cannot read the op's output fails the op
        traceback.print_exc()
        return False


def setup_sample(args: argparse.Namespace, out_dir: Path) -> float | None:
    """Seconds from spawning a fresh interpreter to its inputs being written."""
    shutil.rmtree(out_dir, ignore_errors=True)
    command = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), args.size, str(out_dir)]
    start = perf_counter()
    proc = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return elapsed


def measure_end_to_end(passes: Passes, args: argparse.Namespace, work: Path) -> tuple[dict, dict, bool]:
    costs, raw, setup, setup_raw = [], [], [], []
    probes = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if probes < SETUP_SAMPLES and (
            elapsed >= args.seconds or elapsed >= (probes + 0.5) * args.seconds / SETUP_SAMPLES
        ):
            before = passes.reference.time()
            sample = setup_sample(args, work / "setup-probe")
            after = passes.reference.time()
            probes += 1
            if sample is not None:
                setup_raw.append(sample)
                setup.append(sample / ((before + after) / 2) * timing.NOMINAL_REFERENCE_S)
            continue
        if elapsed >= args.seconds:
            break
        cost, seconds = passes.run()
        costs.append(cost)
        raw.append(seconds)
        gc.collect()
    q = timing.tail_quantile(len(costs))
    values = {
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "pass_p50_ref": statistics.median(costs),
        "pass_p90_ref": timing.quantile(costs, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (passes.attempted - passes.failed) / passes.attempted,
    }
    context = {
        "pass_samples": len(costs),
        "pass_tail_quantile": q,
        "pass_raw_s_p50": statistics.median(raw),
        "pass_raw_s": raw,
        "pass_cost_ref": costs,
        "setup_samples": len(setup),
        "setup_s_samples": setup,
        "setup_raw_s_p50": statistics.median(setup_raw) if setup_raw else None,
        "setup_raw_s": setup_raw,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, context, len(setup) == SETUP_SAMPLES


def measure_traced(passes: Passes, args: argparse.Namespace, work: Path) -> tuple[dict, dict, bool]:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    tracer = tracing.Tracer(str(work / "spans.jsonl.gz"))
    untraced, traced, traces = [], [], []
    op_seconds = 0.0
    pass_id = 0
    start = perf_counter()
    try:
        while perf_counter() - start < args.seconds or len(traces) < MIN_TRACED_PASSES:
            if pass_id % 2:
                tracer.install()
                try:
                    cost, seconds = passes.run(tracer)
                finally:
                    tracer.uninstall()
                traces.append(tracer.end_pass(pass_id))
                traced.append(cost)
                op_seconds += seconds
            else:
                untraced.append(passes.run()[0])
            gc.collect()
            pass_id += 1
    finally:
        tracer.close()
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    values = tracing.per_layer_metrics(traces, int(op_seconds * 1e9), overhead)
    repeats = all(t.calls == traces[0].calls and t.byte_counts == traces[0].byte_counts for t in traces)
    if not repeats:
        print("call counts or byte counts differ between traced passes", file=sys.stderr)
    context = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "spans_file": str((work / "spans.jsonl.gz").relative_to(bootstrap.ROOT)),
        "calls_per_pass": dict(sorted(traces[0].calls.items())),
    }
    units = tracing.per_layer_metric_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, context, repeats


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<58} {metric['value']:>16.6g} {metric['unit']}")


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not Path(starprod.__file__).resolve().is_relative_to(bootstrap.SRC):
        print(f"error: starprod imported from {starprod.__file__}, not {bootstrap.SRC}", file=sys.stderr)
        return 1
    work = WORK / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workloads.build_inputs(args.workload, args.seed, args.size, str(work / "io"))
    passes = Passes(workloads.make_ops(args.workload, inputs, args.size))
    passes.run()  # warm-up: caches and lazy imports; checked, not timed
    gc.collect()
    measure = measure_traced if args.trace else measure_end_to_end
    metrics, details, consistent = measure(passes, args, work)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "ops_per_pass": len(passes.ops),
        "ref_s": statistics.median(passes.reference.times),
        **details,
    }
    result = {
        "correct": passes.failed == 0 and consistent,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps({"context": context, **result}, indent=1) + "\n")
    shutil.rmtree(work / "io", ignore_errors=True)
    shutil.rmtree(work / "setup-probe", ignore_errors=True)
    if args.trace:
        samples = f"{details['traced_passes']} traced + {details['untraced_passes']} untraced passes"
    else:
        samples = (
            f"{details['pass_samples']} passes, tail at quantile {details['pass_tail_quantile']:.3f}, "
            f"{details['setup_samples']} set-up samples"
        )
    print_table(f"{args.workload} seed {args.seed}: {samples}; ok {passes.attempted - passes.failed}/{passes.attempted} ops", metrics)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0
