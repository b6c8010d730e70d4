"""Host-speed probe: a fixed reference kernel timed while a workload runs.

The benchmark's host, a 2-vCPU guest on a shared machine, runs the same work
at speeds that drift by 10-30 % over seconds to minutes, and its process CPU
time drifts with its wall time, so neither clock alone separates the
program's cost from the host's load.  ``SpeedProbe`` samples the host's
speed throughout a timed region: every ``PERIOD_S`` of wall time a
``SIGALRM`` handler, running in the workload's own thread between two of its
bytecodes, times one call of ``ReferenceKernel``.  The kernel mixes what the
workloads do (small 1D transforms called from a Python loop, a larger FFT,
a 3-tensor ``einsum`` and plain bytecode), so load on the host slows it and
them alike.

``speed`` is ``REFERENCE_S`` over the mean kernel time of the region, and a
wall time times ``speed`` is the time the region would have taken on a host
that runs the kernel in ``REFERENCE_S``.  The mean, not the median, because
the host switches between fast and slow states within a few samples and the
workload's time is the integral over both.  The handler's own time is
counted apart (``spent_s``), to be subtracted from the region's wall time.

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        run()
        wall = time.perf_counter() - t0 - probe.spent_s
    print(wall * probe.speed)
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: wall time between two samples; the handler takes about 6 % of it
PERIOD_S = 0.06
#: mean kernel time on the reference host (README, "Reference figures")
REFERENCE_S = 0.0035
#: samples taken at exit when the region was too short for the timer
MIN_SAMPLES = 10


class ReferenceKernel:
    """A fixed mix of Python-level calls, FFTs, an einsum and bytecode."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        self.large = rng.standard_normal(1 << 14) + 0j
        self.tensor = rng.standard_normal((9, 9, 9))
        self.field = rng.standard_normal((9, 1024))

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(64):
            values = np.fft.irfft(self.small, 64)
            acc += float(np.abs(np.fft.rfft(values * values)).sum())
        acc += float(np.abs(np.fft.ifft(np.fft.fft(self.large))).sum())
        acc += float(np.einsum("abc,bx,cx->ax", self.tensor, self.field,
                               self.field).sum())
        acc += float(sum(i * i % 7 for i in range(6000)))
        return acc


class SpeedProbe:
    """Times ``ReferenceKernel`` every ``period_s`` inside a ``with`` block."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.kernel = ReferenceKernel()
        self.samples: list = []
        self.spent_s = 0.0
        self._previous = None

    def _time_kernel(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._time_kernel()
        # re-armed from here, so that a slow sample never overlaps the next
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self.kernel()                      # warm-up, outside the samples
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self._time_kernel()
        return False

    @property
    def speed(self) -> float:
        """``REFERENCE_S`` over the mean kernel time; 1 at reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)
