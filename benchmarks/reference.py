"""Host-speed reference for timing on a shared machine.

A small host whose cores are shared with other machines runs the same code
up to 1.8x slower at one time than at another, over seconds to minutes.
``Reference`` measures that speed during an operation: an interval timer
interrupts the operation every ``PERIOD_S`` seconds and times a fixed kernel
that never calls mflq.  The samples fall inside the operation's own window,
so they see the same host speed, and their time is taken out of the
operation's wall time.  Operation time divided by the mean sample time is a
duration in units of the kernel, which a slow or fast host moves far less
than it moves seconds.

The kernel is a Python loop of small-array numpy updates and normal draws,
the shape of mflq's stepper.  It uses its own generator and arrays, so the
operation's outputs do not change; the benchmark checks their digests.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.25      # one sample every quarter second of an operation
STEPS = 5_000        # about 25 ms per sample on a 2-vCPU Xeon
# a typical sample time on the 2-vCPU Xeon the benchmark was tuned on; it
# only fixes the scale of seconds at the reference speed
NOMINAL_UNIT_S = 0.02


def kernel() -> float:
    """Wall time of one run of the fixed kernel."""
    rng = np.random.default_rng(0)
    x = np.zeros(64)
    t0 = time.perf_counter()
    for _ in range(STEPS):
        x = 0.99 * x + 0.01 * rng.standard_normal(64)
    return time.perf_counter() - t0


class Reference:
    """Samples the kernel at the start, during and at the end of a block.

    ``with ref:`` takes a sample, arms the timer and, on the way out,
    disarms it and takes the last sample; ``ref.spent_s`` is the time all
    the samples cost, handler included, to be taken out of the block's.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    @property
    def unit_s(self) -> float:
        """Mean sample time: the length of one reference unit now."""
        return float(np.mean(self.samples))
