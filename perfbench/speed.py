"""Machine-speed control: a fixed NumPy kernel timed next to every measurement.

The sandbox this benchmark was defined on shares its host cores with other
tenants.  Its speed drifts by up to 1.6x within minutes, and ``process_time``
tracks wall time throughout, so the process is not descheduled: it runs
slower.  Medians over passes cannot remove a drift that lasts longer than a
run.  So every pass (and every set-up probe) is bracketed by this kernel,
and each time is rescaled to *reference seconds*::

    reference time = measured time * REFERENCE_S / mean(kernel before, kernel after)

The kernel does the kind of work a filter step does -- small arrays, a
Cholesky factorisation, Python-level loops and calls -- but it imports
nothing from ``nanofilter``.  A change to the package cannot move it, so
its ratio to a pass tracks the package alone.  On a 6-minute trace, the
spread of 30 s window medians fell from 0.27-0.30 of the median (raw) to
0.02-0.04 (rescaled).
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time at the reference speed: about its median on the 2-vCPU
# sandbox (Intel Xeon, OpenBLAS 0.3.31) where the benchmark was defined.
REFERENCE_S = 0.040
_ROUNDS = 1000


def _step(v: np.ndarray, shift: float) -> np.ndarray:
    return np.array([np.sin(v[0]) + shift, np.cos(v[1]), v[2] * v[0]])


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    a = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
    x = np.ones(3)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        root = np.linalg.cholesky(a)
        x = a @ _step(x, 0.1) / np.linalg.norm(x)
        points = np.vstack([x + root.T, x - root.T])
        values = np.stack([_step(p, 0.2) for p in points])
        acc += float(values.mean()) + sum(v * 0.5 for v in (1.0, 2.0, 3.0))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("speed kernel produced a non-finite value")
    return elapsed


def factor(before_s: float, after_s: float) -> float:
    """Multiplier taking seconds measured between two kernel runs to reference seconds."""
    return REFERENCE_S / (0.5 * (before_s + after_s))
