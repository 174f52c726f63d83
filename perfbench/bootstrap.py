"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: it pins BLAS to one thread
(with two, an analyze-like pass read 0.014-0.196 s; with one, 0.019-0.022 s)
and puts the checkout's own ``src/`` first on ``sys.path``.  Without a
``src/starprod`` beside the benchmark directory it exits with status 1.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "starprod" / "__init__.py").is_file():
        sys.exit(f"error: no starprod source tree at {SRC}")
    sys.path.insert(0, str(SRC))
