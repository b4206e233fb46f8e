"""Machine-speed calibration: a fixed numpy kernel, timed between estimates.

The benchmark's host is shared, and its speed drifts by a third and more over
tens of seconds: the same estimates, repeated for five minutes, ran at 0.85 to
1.16 times their median speed from one 30 s window to the next. Everything in
the process slows together, so the spread between runs of the same code is
set by the host, not by the program. This kernel has the profile of
camsync's solvers and scoring (small LAPACK eigenproblems, small matrix
products, row-wise numpy on a few hundred rows, a Python loop around them)
but none of its code. Over 25 s windows, estimates scaled by the kernel
times around them varied a third as much as unscaled ones (README,
Machine-speed calibration).

A run times the kernel before each set-up, before each estimate and after
the last, and reports timings in seconds at the host speed at which the
kernel takes ``REFERENCE_S`` (``run.local_scales``).
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on the reference machine (README, Reference figures)
REFERENCE_S = 0.0110

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((9, 9))
_B = _rng.standard_normal((400, 3))


def kernel_s() -> float:
    """Wall time of one pass of the kernel."""
    t0 = time.perf_counter()
    for i in range(150):
        np.abs(np.linalg.eigvals(_A + i * 1e-3)).sum()
        c = _B @ _A[:3, :3]
        np.median(np.hypot(c[:, 0], c[:, 1]))
    return time.perf_counter() - t0


kernel_s()  # first-call costs stay out of the samples
