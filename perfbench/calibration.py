"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of the same code drifts by up to +-20% over
seconds to minutes, so the job times of two runs differ even when the
code does not.  A fixed piece of reference work, timed just before and
just after every timed job and set-up child, tracks that drift: each
time is scaled by

    REFERENCE_S / mean(the two calibration times around it)

which reports it at the host speed under which the reference work
takes REFERENCE_S.  Raw times are reported beside the scaled ones.  The
reference work calls no nlds code, so no program change moves the
factor.

The reference work mixes interpreted Python, many small numpy calls, a
512 x 512 matrix product and matrix-vector products streaming an 8 MB
matrix: the per-node loops, expression evaluation, small dense solves
and the memory traffic of the dense Perron engine at order 1024.  Over
eight certify runs on a 2-vCPU VM whose raw median job time drifted
from 1.9 s to 2.6 s, it tracked the drift better than a 1024 x 1024
matrix product alone: the scaled medians spread by 3.7% against 7.9%
(first to third quartile over the median), the raw ones by 15%.
Scaling each job by the samples around it, rather than a whole run by
their median, follows drift within a run: over 60 consecutive certify
jobs the median of 16 scaled jobs ranged over 3.4% of its value from
window to window, against 8.9% with one factor per window and 21% raw.
"""

from __future__ import annotations

import time

import numpy as np

# Median calibration time on a 2-vCPU x86_64 VM with one OpenBLAS
# 0.3.31 thread; it only fixes the scale of the reported seconds.
REFERENCE_S = 0.016


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random((2, 2))
        self._medium = rng.random((512, 512))
        self._large = rng.random((1024, 1024))
        self.samples: list = []

    def _work(self) -> None:
        acc = 0
        for i in range(40_000):
            acc += i * i
        for _ in range(200):
            np.linalg.eigvals(self._small)
        self._medium @ self._medium
        v = np.ones(1024)
        for _ in range(8):
            v = self._large @ v
            v /= v.max()

    def sample(self) -> float:
        """Time the reference work once; return the seconds."""
        t0 = time.perf_counter()
        self._work()
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def bracket(self, measure) -> tuple:
        """Call measure(), which returns (seconds, *rest), between two
        timings of the reference work; return (seconds at the reference
        host speed, seconds, *rest)."""
        before = self.sample()
        seconds, *rest = measure()
        after = self.sample()
        return (seconds * 2 * REFERENCE_S / (before + after), seconds, *rest)
