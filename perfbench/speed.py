"""Machine-speed normalization for the benchmark's timings.

On a shared host the same work can take 60% longer for minutes at a time,
and such slow spells last longer than a run.  Raw wall times then spread
more between runs than any useful regression bound (on a shared Intel Xeon
VM with 2 vCPUs: inter-quartile range up to 0.48 of the median over ten
runs).  So the benchmark also times a fixed pure-Python reference
kernel, interleaved with the workload, and reports each timing scaled by
``REF_S / reference time measured next to it``: seconds on a machine where
the kernel takes ``REF_S``.  The kernel mixes the operations that dominate
``letfvol`` (dict updates on tuple keys, float arithmetic, ``math.erf`` and
``math.exp``), and it is benchmark code, so no change to the package moves
it.  The factor is printed with the results.
"""

from __future__ import annotations

import math
import statistics
import time

# Reference kernel time on an Intel Xeon VM with 2 vCPUs and Python 3.11,
# in a quiet spell.  Only a scale: normalized times read as seconds on that
# machine.
REF_S = 0.0012
KERNEL_REPEATS = 3


def reference_kernel() -> float:
    poly = {(i, j): 1.0 / (1 + i + j) for i in range(8) for j in range(8)}
    product: dict = {}
    for (i1, j1), c1 in poly.items():
        for (i2, j2), c2 in poly.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0.0) + c1 * c2
    total = 0.0
    for i in range(1000):
        total += math.erf(i * 1e-3) * math.exp(-i * 1e-3)
    return total + len(product)


class Speed:
    """Reference-kernel samples of one run."""

    def __init__(self):
        self.samples: list = []

    def tick(self) -> float:
        """Time the kernel now (median of a few runs) and return the factor
        that normalizes a raw time measured since the previous tick: the
        kernel times of both ticks bracket it."""
        runs = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - t0)
        sample = statistics.median(runs)
        before = self.samples[-1] if self.samples else sample
        self.samples.append(sample)
        return 2.0 * REF_S / (before + sample)

    def mark(self) -> int:
        return len(self.samples)

    def factor_since(self, mark: int) -> float:
        """Normalization factor over the samples taken since ``mark``."""
        return REF_S / statistics.median(self.samples[mark:])

    def kernel_s(self) -> float:
        return statistics.median(self.samples)
