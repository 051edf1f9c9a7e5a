"""Speed probe: how fast the CPU ran during each timed call.

On a shared machine the speed of the CPU drifts with the load of other
tenants: on the 2-core VM where the benchmark was built, a fixed 3 ms loop
ran up to 1.5 times slower from one run to the next, and whole runs of the
benchmark took up to half again as long as others.  No statistic over the
calls alone takes that out.  So a thread of the benchmark's process times a
fixed pure-Python loop every ``INTERVAL_S`` seconds, on the same core as the
calls, and a call's time is reported at the reference speed:

    wall time * REFERENCE_S * mean loop speed (1 / loop time) during the call

The mean of the speeds, not of the loop times, is the share of work the CPU
did per second of the call, and a loop stalled for a moment by the
scheduler cannot outweigh the other samples.

A change of boolfn changes the wall time and not the loop, so it moves the
scaled time by the same factor.  The loop holds the interpreter lock for
about 2% of the time, which slows the calls by about as much.

The fresh interpreters timed for ``setup_s`` import this module before
boolfn, so it imports only modules that start-up has loaded already.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

INTERVAL_S = 0.01
LOOP_LENGTH = 1000
# Median loop time on the 2-core Xeon VM where the benchmark was built, so
# that scaled times there read about as wall times.
REFERENCE_S = 1.66e-4


def _loop() -> int:
    s = 0
    for i in range(LOOP_LENGTH):
        s ^= (i * 2654435761) >> 7
    return s


class SpeedProbe:
    """Samples the loop time while open; ``scaled`` converts a call's time."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        start = time.perf_counter()
        _loop()
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self):
        # the sampler inherits this thread's core, so it sees the calls' core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._sample()  # every call has a sample before it ...
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()  # ... and one after it

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed of a call from ``start`` to ``end``.

        Uses the samples taken during the call and the nearest one on each
        side.  Valid once the probe is closed.
        """
        lo = max(0, bisect.bisect_left(self.starts, start) - 1)
        hi = bisect.bisect_right(self.starts, end) + 1
        speed = sum(1 / t for t in self.times[lo:hi]) / (hi - lo)
        return (end - start) * REFERENCE_S * speed
