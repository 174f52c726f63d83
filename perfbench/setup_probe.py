"""One fresh-process set-up sample: import starprod, build and write inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE OUT_DIR

``run.py`` times this process from spawn to exit; no pass runs here.
"""

import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import workloads  # after prepare: one BLAS thread, the checkout's src

    workload, seed, size, out_dir = sys.argv[1:]
    workloads.build_inputs(workload, int(seed), size, out_dir)
