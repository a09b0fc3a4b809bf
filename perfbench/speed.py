"""Host-speed calibration: CPU time scaled to a fixed reference speed.

On a shared virtual machine the CPU this process runs on changes speed
from second to second: another tenant on the same core can halve the work
done in one second of CPU time, for a fraction of a second or for many
minutes.  CPU time alone then spreads by a third between runs of the same
code.  A `Speedometer` samples the speed while the benchmark runs: every
`PERIOD_S` of CPU time a profiling-timer signal runs a small fixed kernel
of pure-Python integer and set work, like the search loop's, and records
how long it took.  A call's scaled time is its CPU time, without the
samples, times the mean of ``REFERENCE_SAMPLE_S / sample`` over the samples
taken while it ran: what the call would have taken at the reference speed.
The samples cost about 4 % of the CPU time at full speed.

Times are read from the main thread's CPU clock: while a process-wide CPU
timer is armed, Linux updates the process clock only once per tick.  The
benchmark's calls run on the main thread alone (``workers=1``).
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.005
# one sample's CPU time at the reference speed, about that of an unshared
# 2-vCPU Intel Xeon host under Python 3.11
REFERENCE_SAMPLE_S = 175e-6
# a call shorter than this many periods is scaled by the latest samples
WINDOW = 8

_MASKS = tuple((i * 2654435761) & 0x3FFF for i in range(64))
_HEAD = _MASKS[:8]
_MEMBERS = frozenset(_MASKS[::3])


def _kernel() -> int:
    """Fixed work that allocates no container, so it never triggers the GC."""
    acc = 0
    for _ in range(12):
        for m in _MASKS:
            ok = True
            for o in _HEAD:
                if (m | o).bit_count() > 9:
                    ok = False
                    break
            if ok and m in _MEMBERS:
                acc += 1
    return acc


class Speedometer:
    """Samples the host's speed from a SIGPROF handler while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0              # CPU time taken by the samples

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        _kernel()
        took = time.thread_time() - start
        self.spent += took
        self.samples.append(took)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def clock(self) -> float:
        """CPU time of the main thread, without the samples' time."""
        return time.thread_time() - self.spent

    def mark(self) -> tuple[float, int]:
        return self.clock(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """CPU time since `mark`, raw and scaled to the reference speed."""
        raw = self.clock() - mark[0]
        end = len(self.samples)
        window = self.samples[min(mark[1], max(end - WINDOW, 0)):end]
        if not window:
            return raw, raw
        return raw, raw * statistics.fmean(REFERENCE_SAMPLE_S / s for s in window)
