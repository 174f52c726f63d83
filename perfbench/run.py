"""starprod benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload certify|analyze|kernel --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root; the benchmark imports starprod from the
checkout's ``src/``.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones (both listed in BENCHMARK.json).  The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics; the line before it is the run's context (machine, library versions,
sample counts, raw seconds).  Spans and the full result are written under
``perfbench/_work/``.
"""

import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import bench  # after prepare: one BLAS thread, the checkout's src

    sys.exit(bench.main(sys.argv[1:]))
