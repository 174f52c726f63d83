"""Reference-bracketed timing.

The host runs at two speeds (contention from outside the process moves a
fixed unit of work between ~255 and ~360 us for 1-5 s at a time), so raw
seconds do not repeat from run to run.  Every timed op is bracketed by a
fixed reference block -- pure Python plus numpy, no starprod code -- and its
cost is its time divided by the mean of the two reference times around it.
Costs are in "ref" units: multiples of the reference block.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

TAIL_SAMPLES = 10
# The reference block's time on a quiet 2-core host.  Set-up samples are
# reported as (sample / bracketing reference time) * this, i.e. in seconds
# of a host that runs the reference block in exactly this time.
NOMINAL_REFERENCE_S = 0.004


class Reference:
    """The fixed reference block: small dense linear algebra plus many
    tiny-matrix numpy calls whose cost is mostly Python call overhead, the
    mix that dominates starprod's passes.

    Among candidate blocks timed around certify, analyze and kernel ops for
    4 minutes, this mix kept the 20-30 s window medians of every op's
    bracketed cost within ~2-4% (IQR); a block with JSON work in place of the
    tiny-matrix calls left certify at 5-8%.  ~3.8 ms on a quiet 2-core host.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        self._family = rng.standard_normal((40, 6, 6)) + 1j * rng.standard_normal((40, 6, 6))
        self._eye = np.eye(10)
        t2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self._h2 = t2 + t2.conj().T
        self._t4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._s4 = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        self.times: list[float] = []

    def _block(self) -> float:
        m, family, t4, s4 = self._m, self._family, self._t4, self._s4
        acc = 0.0
        for _ in range(10):
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
            acc += float(np.linalg.inv(m @ m.conj().T + self._eye).real.trace())
            acc += float(np.einsum("kab,lab->kl", family.conj(), family).real.max())
        draws = np.random.default_rng(1)
        for _ in range(60):
            acc += float(draws.standard_normal((4, 2, 2)).sum())
            acc += float(np.linalg.eigvalsh(self._h2)[0])
            acc += float(np.linalg.svd(t4, compute_uv=False)[0])
            acc += float(np.linalg.inv(t4).real.sum())
            acc += float(np.einsum("kab,kcb->kac", s4, s4.conj()).real.sum())
            acc += float(np.abs(t4 - t4.T).max())
        return acc

    def time(self) -> float:
        start = perf_counter()
        acc = self._block()
        elapsed = perf_counter() - start
        if not math.isfinite(acc):
            raise RuntimeError("reference block produced a non-finite value")
        self.times.append(elapsed)
        return elapsed


def bracketed_cost(op_times: list[float], ref_times: list[float]) -> float:
    """Sum of op_i / mean(ref_i, ref_i+1): ref_times has one more entry than op_times."""
    return sum(t / ((a + b) / 2) for t, a, b in zip(op_times, ref_times, ref_times[1:]))


def tail_quantile(n: int) -> float:
    """Highest quantile up to 0.9 with TAIL_SAMPLES samples beyond it, never below the median."""
    return max(0.5, min(0.9, 1 - TAIL_SAMPLES / n))


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))
