"""Machine-speed references for the benchmark's timings.

The machine this benchmark runs on is shared, and its speed drifts by tens
of percent over seconds to minutes while other tenants load it.  Two fixed
references, which no change to the program touches, measure that drift:

- a pure-Python kernel, run on a timer while the commands run; command
  latencies, less the kernel's own time, are scaled by the kernel's
  nominal time over its median time in the run;
- a fresh interpreter running ``import numpy``, launched alternately with
  the set-up launches; the set-up time is scaled by its nominal time over
  its median time.

A change to the program shows in full, while the machine's drift cancels.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

#: Median kernel time on the machine that defined the benchmark (baseline.json).
KERNEL_NOMINAL_S = 0.0075
#: Reference launch for the set-up time, and its median time on that machine.
LAUNCH_REFERENCE = "import numpy"
LAUNCH_NOMINAL_S = 0.12
#: Time between two kernel samples.
EVERY_S = 0.5


def kernel() -> int:
    """Fixed work shaped like the program's: small-integer bit operations,
    dict lookups, tuple keys, string formatting and a sort."""
    x, acc = 12345, 0
    counts = {}
    rows = []
    for i in range(8000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        low = x & -x
        acc ^= low.bit_length() + (x & 0xFFFF).bit_count()
        key = (x >> 20, i & 7)
        counts[key] = counts.get(key, 0) + 1
        rows.append(f"{x & 0xFFF}-{i}")
    rows.sort()
    return acc + len(counts) + len(rows[0])


class Speed:
    """Kernel samples taken on a timer while commands run, and the scale
    they imply.

    A ``SIGALRM`` handler runs the kernel every ``EVERY_S`` seconds, also in
    the middle of a long command, and records when it ran so that the
    command's latency can leave that time out.
    """

    def __init__(self):
        self.ran = []  # (start, end) of each kernel run

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.ran.append((t0, time.perf_counter()))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def paused(self, since: int, t0: float, t1: float) -> float:
        """Kernel time inside [t0, t1] among the runs from index ``since``.

        The handler runs on the main thread between bytecodes, so a kernel
        run lies wholly inside or wholly outside a timed interval."""
        return sum(k1 - k0 for k0, k1 in self.ran[since:] if t0 <= k0 and k1 <= t1)

    def scale(self) -> float:
        """Nominal over median kernel time: the factor that brings this
        run's timings to the reference machine speed."""
        return KERNEL_NOMINAL_S / statistics.median(k1 - k0 for k0, k1 in self.ran)
