"""Host-speed calibration: timings scaled to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to about 1.7x over tens of seconds as other tenants come and go. A
whole run can sit in a slow or a fast phase, so medians within a run do
not remove that drift. The gated timings are therefore scaled: a fixed
calibration kernel is timed alongside the program, and a program interval
of ``t`` seconds during which the kernel took ``k`` seconds is reported as
``t * ref / k``: the time the interval would take on a host where the
kernel takes ``ref`` (the kernel's time on the host where the benchmark
was defined). The kernel is the benchmark's own code, so a change to
sketchsim moves the program's time and not the kernel's; the raw wall
times are reported next to the scaled ones.

The kernel is a Python dict loop and string splitting and parsing: the
interpreter-bound work that dominates all three workloads. Kernels with
numpy array work or large random-access working sets added tracked the
workloads no better on the defining host.

Inside a long call (a paper-grid ``cli.main`` step lasts seconds) the
kernel runs from a SIGALRM handler every ``PERIOD_S``; Python runs the
handler between bytecodes of the main thread, so the worker stays one
thread. The handler's own time is taken out of every interval it falls
in.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# About the kernel's median time on the host where the benchmark was
# defined (2 vCPUs of a shared Intel Xeon, Python 3.11), so scaled
# timings read close to wall time there.
KERNEL_REF_S = 1.0e-3
PERIOD_S = 0.1


def kernel() -> float:
    """Run the calibration kernel once and return its wall time."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    total = 0
    for i in range(400):
        user, song, plays = f"user{i}\tsong{i * 7}\t{i % 9}".split("\t")
        total += int(plays) + len(user) + len(song)
    return time.perf_counter() - started


def calibrate(repeats: int) -> float:
    """Host speed relative to the reference: KERNEL_REF_S over the median
    time of ``repeats`` back-to-back kernels."""
    return KERNEL_REF_S / statistics.median(kernel() for _ in range(repeats))


class Sampler:
    """Times the kernel every PERIOD_S while active; scales program intervals.

    Samples are (start, end) perf_counter pairs; one is taken explicitly at
    start and stop, so every interval has a sample nearby."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:  # a slow kernel outlasted the period
            return
        self._busy = True
        try:
            started = time.perf_counter()
            kernel()
            self.starts.append(started)
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the sampler's own time inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(min(e, end) - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (end - start) - inside

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over samples in [start, end], widened by one
        period each side so a short interval still has samples."""
        lo = bisect.bisect_left(self.starts, start - PERIOD_S)
        hi = bisect.bisect_right(self.starts, end + PERIOD_S)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return statistics.median(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def scaled(self, start: float, end: float) -> float:
        """[start, end] in seconds at the reference host speed."""
        return self.net(start, end) * KERNEL_REF_S / self.kernel_s(start, end)

    def speed(self) -> float:
        """Host speed over the whole run, relative to the reference (1 = as fast)."""
        return KERNEL_REF_S / statistics.median(e - s for s, e in zip(self.starts, self.ends))
