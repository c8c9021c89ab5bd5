"""Process-level measurements: host speed and peak RSS.

On a shared host the interpreter's speed drifts by 30% or more within
seconds to minutes, and every request slows with it.  The benchmark
times a fixed pure-Python kernel, which never touches lcprof, inside
the process that serves the requests: a SIGALRM timer runs it every
SAMPLE_INTERVAL_S.  Request times exclude the time spent in the kernel,
and are then scaled by NOMINAL_S / (median kernel time over the run).
A timing then reads as it would at the host speed where the kernel
takes NOMINAL_S, and the drift mostly cancels.  A faster or slower
lcprof cannot move the kernel.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

# median kernel time on the 2-vCPU Intel Xeon VM where the bounds in
# BENCHMARK.json were set; any fixed value works, it only sets the scale
NOMINAL_S = 0.005
SAMPLE_INTERVAL_S = 0.25


def kernel_s() -> float:
    """Wall time of one run of the reference kernel (about 5 ms)."""
    t0 = time.perf_counter()
    acc, xs, parts = 0, list(range(64)), []
    for i in range(40000):
        acc = (acc + xs[i & 63] * i) % 1000003
        if not i & 1023:
            parts.append(str(acc << 64))
    "".join(parts)
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that takes timings made alongside `samples` to nominal speed."""
    return NOMINAL_S / statistics.median(samples)


class Sampler:
    """Runs the kernel on a timer in this process while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame) -> None:
        t = kernel_s()
        self.samples.append(t)
        self.spent += t

    def clock(self) -> float:
        """perf_counter without the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:            # a block shorter than one interval
            self._tick(None, None)


def peak_rss_mib() -> float:
    """This process's own peak RSS so far (VmHWM).

    Not ru_maxrss: Linux carries a parent's peak into its child across
    fork and exec, so that would report run.py's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
