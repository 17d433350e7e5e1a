"""CPU time rescaled to the speed of an idle host.

On a shared host, CPU time is not a fixed measure of work: when another
tenant loads the sibling hardware thread or the memory system, the same
instructions take more CPU time.  On the 2-vCPU container this
benchmark was built on, a fixed pure-Python loop took between 0.070 and
0.114 s of CPU from one second to the next, with nothing else running
in the container; the same seed of the E9 campaign took 19 s of CPU in
one quarter of an hour and 31 s in the next.

:class:`HostClock` measures that drift while a workload runs and takes
it out.  Every :data:`INTERVAL_S` of CPU time a profiling timer
interrupts the workload, which then runs :data:`LOOP` iterations of a
fixed loop and times it.  The CPU time of each interval is scaled by
``REFERENCE_LOOP_S / loop time`` of the sample taken at its start, so
the clock reads the CPU seconds an idle host would have needed.  The
loop's own time is left out of every reading.

With the profiling timer armed, the kernel reports process CPU time in
scheduler ticks, so the clock reads the calling thread's CPU time
(``time.thread_time``), which stays exact.  The benchmark runs the
program in that one thread.
"""

from __future__ import annotations

import signal
import time

#: CPU time between calibration samples.
INTERVAL_S = 0.05

#: Iterations of the calibration loop (about 0.7 ms on an idle host).
LOOP = 10_000

#: CPU seconds of one calibration loop on the idle 2-vCPU container the
#: benchmark was built on.  A constant: readings from two commits on
#: one machine compare whatever its value.
REFERENCE_LOOP_S = 0.0007


def _loop_seconds() -> float:
    start = time.thread_time()
    total = 0
    for value in range(LOOP):
        total += value * value % 7
    return time.thread_time() - start


class HostClock:
    """Thread CPU time, raw and rescaled to an idle host's speed.

    Use as a context manager: the timer runs, and the clock moves,
    only inside the ``with`` block.  Outside it the last factor holds.
    """

    def __init__(self) -> None:
        #: Calibration loop times, one per sample.
        self.samples: list[float] = []
        self._calibration = 0.0
        self._factor = 1.0
        self._cpu_at_tick = 0.0
        self._scaled_at_tick = 0.0
        self._previous = None

    def cpu(self) -> float:
        """CPU seconds of this thread, calibration excluded."""
        return time.thread_time() - self._calibration

    def scaled(self) -> float:
        """CPU seconds of this thread at the idle host's speed."""
        return self._scaled_at_tick + (self.cpu() - self._cpu_at_tick) * self._factor

    def slowdown(self) -> float:
        """Mean calibration loop time over the reference time."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / REFERENCE_LOOP_S

    def _sample(self) -> None:
        """Close the current interval and measure the next one's speed."""
        started = time.thread_time()
        now = started - self._calibration
        self._scaled_at_tick += (now - self._cpu_at_tick) * self._factor
        self._cpu_at_tick = now
        took = _loop_seconds()
        self.samples.append(took)
        self._factor = REFERENCE_LOOP_S / took
        self._calibration += time.thread_time() - started

    def _tick(self, _signum, _frame) -> None:
        self._sample()

    def __enter__(self) -> "HostClock":
        first = not self.samples
        self._sample()
        if first:
            # CPU spent before the clock started counts at the first
            # sample's speed.
            self._scaled_at_tick = self._cpu_at_tick * self._factor
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample()
