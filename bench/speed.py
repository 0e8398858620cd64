"""Correction of measured times for the drifting speed of a shared host.

On a small shared virtual machine the interpreter's speed drifts by 15-20%
over tens of seconds, for the program and for any other Python code alike.
While a measured block runs, a timer signal interrupts it every INTERVAL_S
and times a fixed probe that belongs to the benchmark, not to npcode. The
block's time net of the probes, scaled by REFERENCE_S / (mean probe time),
is its time on a machine that runs the probe in exactly REFERENCE_S.

The probe mixes the two kinds of work npcode does: a pure-Python dict loop,
and small numpy products over GF(2). In trials of about three minutes, the
median corrected time of simulate over 25 s windows ranged 2-3 times less
with the mixed probe than with the dict loop alone (about equal on verify);
the numpy part alone tracked the drift worst.
"""

from __future__ import annotations

import functools
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_S = 0.0015


@functools.cache
def _gf2_operands():
    # numpy is imported on first use, so that importing this module does not
    # take numpy's import out of the set-up that the worker times. Its random
    # module is not used: importing it would add to the worker's peak RSS.
    import numpy as np

    bits = np.array([(i * 2654435761) >> 17 & 1 for i in range(21 * 31 + 40 * 21)], dtype=np.uint8)
    return np, bits[: 21 * 31].reshape(21, 31), bits[21 * 31 :].reshape(40, 21)


def _probe() -> None:
    table: dict[int, int] = {}
    for i in range(3000):
        table[i & 1023] = (i * 2654435761) & 0xFFFF ^ table.get((i >> 3) & 1023, 0)
    np, matrix, vectors = _gf2_operands()
    for i, v in enumerate(vectors):
        product = (v @ matrix) & 1
        if product.any():
            int(np.flatnonzero(product)[:3].sum())
        frozenset(range(i % 7, 31, 5))


def _timed_probe() -> float:
    t0 = perf_counter()
    _probe()
    return perf_counter() - t0


class SpeedSampler:
    """Context manager timing its block and, if active, sampling the host's
    speed inside it. ``net`` is the block's wall time without the probes."""

    def __init__(self, active: bool = True):
        self.active = active
        self.probes: list[float] = []
        self.net = 0.0

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(_timed_probe())

    def __enter__(self) -> "SpeedSampler":
        if self.active:
            _gf2_operands()
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.active:  # disarm first, so every probe falls inside the block
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.net = perf_counter() - self._start - sum(self.probes)
        if self.active and not self.probes:  # the block ended before the first tick
            self.probes.append(_timed_probe())

    def reference_seconds(self) -> float:
        """The block's time, net of the probes, at the reference speed."""
        return self.net * REFERENCE_S / statistics.mean(self.probes)
