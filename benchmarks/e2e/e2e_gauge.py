"""Host speed gauge: scales measured times to one reference host speed.

The benchmark runs on a share of a host whose speed drifts: neighbours
contend for the core's sibling thread and for the shared cache, and the
same warm Fig. 12 pass took anywhere from 5.2 s to 8.4 s over ten
minutes.  Fixed-work runs of 15-30 s cannot average that out, so ten runs
of the same code spread by 15-35% however long each run is.

The gauge divides the host out.  It is a fixed probe owned by the
benchmark: a small event loop over a heap (the interpreter-bound work of
the simulation kernel) and sums over an array larger than a core's L2
cache (the cache-bound work).  A :class:`Sampler` runs it every
``PERIOD_S`` on a timer signal, so samples also land inside the ops.  An
op's time is its wall time minus the gauge time inside it, scaled by
``REFERENCE_S`` over the trimmed mean of the gauge samples taken while it
ran (at least ``MIN_SAMPLES`` of them, widened around short ops).  The
probe's code never changes with the program, so a faster or slower
program moves scaled times exactly as it moves raw ones; only the host's
speed at the moment of the op cancels.  ``REFERENCE_S`` is the gauge's
time on the reference host (see README.md) and only fixes the unit:
scaled times read as times on that host.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
from time import perf_counter

import numpy as np

#: Gauge time on the reference host, seconds.
REFERENCE_S = 1.2e-3
#: Seconds between samples while a sampler runs (about 2.5% of the time).
PERIOD_S = 0.05
#: Fewest samples an op's factor is taken over.
MIN_SAMPLES = 5
#: Share of the samples cut from each end before averaging: a sample hit
#: by an interrupt says nothing about the host's speed.
TRIM = 0.1


class _Segment:
    __slots__ = ("left", "rate")

    def __init__(self, left: float, rate: float) -> None:
        self.left = left
        self.rate = rate


class Gauge:
    """The probe.  ``sample()`` returns the geometric mean of its two
    parts' times, in seconds."""

    #: Events of the heap loop and passes over the array per sample.
    EVENTS = 1500
    PASSES = 4

    def __init__(self) -> None:
        self._segments = [
            _Segment(1.0 + (i * 7919 % 97) / 13.0, 1.0 + (i % 5) * 0.25) for i in range(64)
        ]
        # 4 MiB: twice a core's L2 cache on the reference host.
        self._array = np.arange(1 << 19, dtype=np.float64)
        self.sample()

    def _events(self) -> float:
        segments = self._segments
        heap = [(s.left / s.rate, i) for i, s in enumerate(segments)]
        heapq.heapify(heap)
        acc = 0.0
        for k in range(self.EVENTS):
            t, i = heapq.heappop(heap)
            s = segments[i]
            s.left = 1.0 + ((k * 2654435761) % 1000) / 250.0
            s.rate = 0.5 + ((k + i) % 7) * 0.125
            acc += s.left * s.rate
            heapq.heappush(heap, (t + s.left / s.rate, i))
        return acc

    def _sweeps(self) -> float:
        return sum(float(self._array.sum()) for _ in range(self.PASSES))

    def sample(self) -> float:
        t0 = perf_counter()
        self._events()
        t1 = perf_counter()
        self._sweeps()
        t2 = perf_counter()
        return ((t1 - t0) * (t2 - t1)) ** 0.5


def trimmed_mean(values: list[float]) -> float:
    xs = sorted(values)
    cut = int(len(xs) * TRIM)
    return statistics.fmean(xs[cut : len(xs) - cut])


def scale(seconds: float, gauge_s: list[float]) -> float:
    """One time scaled by the gauge samples taken around it."""
    return seconds * REFERENCE_S / trimmed_mean(gauge_s)


class Sampler:
    """Runs the gauge on ``SIGALRM`` every ``PERIOD_S`` in this process's
    main thread, inside whatever code is running there.

    ``samples`` holds ``(start, end, gauge seconds)`` in time order.
    """

    def __init__(self) -> None:
        self.gauge = Gauge()
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _take(self, *_args) -> None:
        t0 = perf_counter()
        g = self.gauge.sample()
        self.samples.append((t0, perf_counter(), g))

    def start(self) -> "Sampler":
        for _ in range(MIN_SAMPLES):
            self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def around(self, t0: float, t1: float) -> tuple[float, float]:
        """For code that ran from ``t0`` to ``t1``: the gauge time inside
        that interval, and the factor that scales its net time."""
        starts = [s[0] for s in self.samples]
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        inside = sum(end - start for start, end, _ in self.samples[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.samples)):
            lo = max(0, lo - 1)
            hi = min(len(self.samples), hi + 1)
        return inside, REFERENCE_S / trimmed_mean([g for _, _, g in self.samples[lo:hi]])

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """``(net, scaled)`` seconds of code that ran from ``t0`` to ``t1``:
        its wall time minus the gauge time inside it, and that net time
        scaled to the reference host."""
        inside, factor = self.around(t0, t1)
        net = t1 - t0 - inside
        return net, net * factor
