"""Host speed, sampled so that times can be reported at a reference speed.

The shared host this benchmark was built on changes speed by up to a
quarter within seconds, because of other tenants. Wall and CPU time move
together, so neither is steady on its own. A fixed pure-Python loop, timed
while the work runs, moves with them. A time t measured while the loop took
L seconds on average is reported as t * REFERENCE_LOOP_S / L: the time the
work would have taken had the loop run at its reference duration. The loop
touches only a small private table of integers, with the garbage collector
paused, so the package's own heap does not change its cost.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_LOOP_S = 0.0015  # the loop's typical duration on the baseline host
SAMPLE_PERIOD_S = 0.1


def loop_s() -> float:
    """Seconds taken by 4000 fixed dict and integer steps."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = dict.fromkeys(range(1024), 0)
        acc = 0
        t0 = time.perf_counter()
        for i in range(4000):
            key = (i * 2654435761) & 1023
            acc += table[key] ^ (i >> 3)
            table[key] = acc & 0xFFFF
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_now(samples: int = 9) -> float:
    """Factor from measured to reference time, from loops run right now."""
    return REFERENCE_LOOP_S / statistics.median(loop_s() for _ in range(samples))


class Sampler:
    """Times `loop_s` every SAMPLE_PERIOD_S seconds, from SIGALRM, while open."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(loop_s())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from measured to reference time over the sampled span."""
        if not self.samples:  # the span was shorter than one period
            return scale_now()
        return REFERENCE_LOOP_S / statistics.fmean(self.samples)
