"""A fixed reference computation that gauges the machine's current speed.

On a shared machine the same sweep can take twice as long from one
minute to the next, and process CPU time stretches with it, so the
slowdown cannot be averaged away inside a run. The benchmark therefore
times this kernel next to every measurement and reports times in
*reference seconds*: wall seconds scaled by ``NOMINAL_S / kernel time``.
The kernel imports nothing from pcia, so no change to the program can
move it; it mixes interpreter work with tiny complex LAPACK calls, the
same mix the sweeps spend their time on.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal kernel time defining one reference second; on a 2-core Xeon
# with single-threaded OpenBLAS it measured 1.4-2.5 ms.
NOMINAL_S = 0.002


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                      for _ in range(64)]
        self._eye = np.eye(4)

    def _kernel(self) -> float:
        acc = 0.0
        for a in self._mats:
            q = a @ a.conj().T
            vals, vecs = np.linalg.eigh(q)
            acc += float(np.linalg.slogdet(self._eye + q)[1]) + float(vals[0])
            for j in range(4):
                acc += abs(vecs[0, j])
        return acc

    def seconds(self) -> float:
        """Wall time of one kernel run."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def median_seconds(self) -> float:
        """Median of five kernel runs."""
        return statistics.median(self.seconds() for _ in range(5))
