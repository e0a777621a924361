"""Host speed, sampled while the workload runs.

The benchmark runs on a shared host whose speed drifts: the same pass in the
same process can take 1.5x as long a minute later (NOTES.md, Noise).  To
tell a slower program from a slower host, a SIGPROF handler times a fixed
piece of pure-Python integer work every SAMPLE_CPU_S of process CPU time.
The mean of the samples taken just before and during an item, divided by
REFERENCE_S, is the host's slowdown while it ran.

The reference work allocates only integers, which the garbage collector does
not track, so a sample never triggers a collection of the program's objects.
Time spent taking samples is kept in `spent`, and timings subtract it.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_CPU_S = 0.02      # one sample per 20 ms of process CPU time
# Mean time of one sample on an unloaded 2-vCPU x86-64 VM under CPython 3.11.
# It only sets the scale of the rescaled times; both sides of a comparison
# use the same value.
REFERENCE_S = 1.5e-4

_state = {"samples": [], "spent": 0.0}
_BIG_A = (1 << 1024) // 3 + 12345
_BIG_B = (1 << 768) // 7 + 999


def reference_work():
    """About 0.15 ms: interpreted small-integer steps, then multi-word
    integer products, the two kinds of work cadec's arithmetic does."""
    x = 1
    for _ in range(200):
        x = (x * 1103515245 + 12345) % 2305843009213693951
        x ^= x >> 17
    y = _BIG_A
    for _ in range(25):
        y = (y * _BIG_B) % _BIG_A + x
    return y


def _sample(signum, frame):
    t0 = time.perf_counter()
    reference_work()
    dt = time.perf_counter() - t0
    _state["samples"].append(dt)
    _state["spent"] += dt


def spent():
    """Seconds spent taking samples so far."""
    return _state["spent"]


def mark():
    """A position in the samples, for slowdown_since()."""
    return len(_state["samples"])


def slowdown_since(position):
    """Mean time of the samples taken since `position`, over REFERENCE_S;
    None if none were taken."""
    samples = _state["samples"][position:]
    return statistics.mean(samples) / REFERENCE_S if samples else None


class Timer:
    """Context manager: times a block, leaving out the samples taken while
    it ran.  `seconds` is that time; `slowdown` is the mean of one sample
    taken just before the block and those taken during it, over
    REFERENCE_S."""

    def __enter__(self):
        self._position = mark()
        _sample(None, None)
        self._spent = spent()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0 - (spent() - self._spent)
        self.slowdown = slowdown_since(self._position)
        return False


class Sampling:
    """Context manager: samples the host while the block runs.  `slowdown`
    is then the block's mean sample time over REFERENCE_S."""

    def __enter__(self):
        self._first = mark()
        _sample(None, None)  # at least one sample, however short the block
        self._previous = signal.signal(signal.SIGPROF, _sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.slowdown = slowdown_since(self._first)
        return False
