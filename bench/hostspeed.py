"""Host speed measured by a fixed reference task, to rescale timings.

On a shared host the speed of a core drifts with its neighbours' load: the
same pass can take 50% longer for tens of seconds at a time, in CPU time as
much as in wall time.  The benchmark therefore times this reference task
between its timed steps and rescales each step by the reference's time
around it, to the time it would take on a host where the reference takes
``NOMINAL_S``.  The reference does not use thermoflow, so a change to the
program moves the rescaled times exactly as it moves the raw ones.

Its mix follows the workloads' own: Python bytecode, numpy Generator
construction, small symmetric eigensolves and vector sorts.
"""

from __future__ import annotations

import time

import numpy as np

# Reference time the rescaled times are expressed at: a fixed scale, about
# the reference's time on the 2-core host the baseline was taken on, where
# it ranged from 0.04 to 0.07 s with the host's load.
NOMINAL_S = 0.05


def reference_s() -> float:
    """Wall time of one run of the fixed reference task, in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    for i in range(1500):
        np.random.default_rng(i).random(8)
    rng = np.random.default_rng(1)
    for _ in range(150):
        a = rng.random((16, 16))
        np.linalg.eigh(a + a.T)
    x = rng.random(300_000)
    np.sort(x)
    np.cumsum(x)
    return time.perf_counter() - start


class Rescaler:
    """Rescales consecutive timed steps by the reference timed between them.

    Call ``rescale`` right after each step: the step's time is divided by the
    mean of the reference times just before and just after it.
    """

    def __init__(self):
        self.references = [reference_s()]

    def rescale(self, step_s: float) -> float:
        self.references.append(reference_s())
        return step_s * NOMINAL_S / (0.5 * (self.references[-2] + self.references[-1]))
