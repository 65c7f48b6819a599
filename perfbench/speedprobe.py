"""How fast the machine runs while a repetition runs.

On a shared virtual machine the speed of a vCPU swings by 20-30 % over
minutes, as other tenants come and go, so two runs of the same code minutes
apart can differ by more than any change worth measuring. To factor that
out, a fixed pure-Python loop is timed every INTERVAL_S of wall time, in the
worker's main thread, from a timer signal: the same CPU, interleaved with the
workload. `speed()` is REFERENCE_S divided by the loop's mean time over the
repetition, so it is 1 on a machine where the loop takes REFERENCE_S and
below 1 while the machine is slower. A time multiplied by it is the time the
workload would take at the reference speed.

Python runs the handler between bytecodes, so a long numpy call delays a
sample but never splits it. The time spent in the handler is kept in
`spent_s()`, so that callers can leave it out of what they time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
LOOPS = 7000
# the loop's mean time at the reference speed: about its mean on the machine
# of BASELINE.md; fixed, so that normalised times compare across commits
REFERENCE_S = 6.0e-4

_samples: list[float] = []
_spent = [0.0]


def _loop() -> int:
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return s


def _tick(signum, frame) -> None:
    t0 = time.perf_counter()
    _loop()
    dt = time.perf_counter() - t0
    _samples.append(dt)
    _spent[0] += dt


def start() -> None:
    _samples.clear()
    _spent[0] = 0.0
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def spent_s() -> float:
    """Seconds spent timing the loop since start()."""
    return _spent[0]


def speed() -> float:
    """REFERENCE_S over the mean loop time; 1.0 if no sample was taken."""
    return REFERENCE_S / statistics.fmean(_samples) if _samples else 1.0
