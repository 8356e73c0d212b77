"""Process-wide metrics registry: counters, gauges, histograms.

This unifies the previously ad-hoc stats surfaces — the FF emulator's
``nodes_visited``, the DRAM model's ``cache_info()``, the kernel's ``preemptions`` — behind one API with a
``snapshot()``/``reset()``/``merge()`` contract:

- **snapshot()** returns a plain, JSON-serialisable, deterministically
  ordered dict (sorted keys everywhere), safe to pickle across process
  boundaries.
- **reset()** zeroes the registry; the worker-side convention is *reset at
  chunk start, snapshot at chunk end*, so a snapshot is exactly the delta
  produced by that chunk even when pool workers are reused.
- **merge(snapshot)** folds a snapshot into the registry: counters add,
  histograms combine (count/sum add, min/max extremise), gauges take the
  incoming value.  Counter and histogram merging is commutative, so the
  parent merging worker snapshots in *submission* order yields the same
  totals regardless of completion order — the batch engine's determinism
  guarantee extends to metrics.

Increments sit at section/task granularity in the instrumented code (never
in per-event inner loops), so the registry can stay always-on: a counter
bump is two dict operations.
"""

from __future__ import annotations

import math
from typing import Any, Optional


class Histogram:
    """Streaming summary of observed values: count, sum, min, max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one sample: bump the count and sum, widen min/max."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        """``{count, sum, min, max}`` as a plain dict (min/max 0 when
        empty)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def merge(self, snap: dict[str, float]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one."""
        incoming = int(snap["count"])
        if incoming == 0:
            return
        self.count += incoming
        self.total += snap["sum"]
        if snap["min"] < self.min:
            self.min = snap["min"]
        if snap["max"] > self.max:
            self.max = snap["max"]


class MetricsRegistry:
    """Named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------ recording

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------- reading

    def counter_value(self, name: str) -> float:
        """Counter ``name``'s value; 0.0 if it was never incremented."""
        return self._counters.get(name, 0.0)

    def counters(self, prefix: Optional[str] = None) -> dict[str, float]:
        """A sorted copy of the counters, optionally filtered by prefix.

        The serve daemon's ``GET /stats`` uses this to report exactly the
        registry's ``serve.*`` family, so the endpoint and ``--metrics``
        can never disagree about a counter's value."""
        return {
            name: self._counters[name]
            for name in sorted(self._counters)
            if prefix is None or name.startswith(prefix)
        }

    def gauge_value(self, name: str) -> Optional[float]:
        """Gauge ``name``'s last set value, or None if never set."""
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        """Histogram ``name`` (live, not a copy), or None if never observed."""
        return self._histograms.get(name)

    # ----------------------------------------------------- snapshot contract

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict, deterministically ordered copy of the registry."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].snapshot()
                for k in sorted(self._histograms)
            },
        }

    def reset(self) -> None:
        """Zero every metric (drops the names too)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict into this registry."""
        for name in sorted(snapshot.get("counters", {})):
            self.inc(name, snapshot["counters"][name])
        for name in sorted(snapshot.get("gauges", {})):
            self.gauge(name, snapshot["gauges"][name])
        for name in sorted(snapshot.get("histograms", {})):
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.merge(snapshot["histograms"][name])

    # ------------------------------------------------------------- rendering

    def hit_rates(self) -> dict[str, float]:
        """Derived ``<prefix>.hit_rate`` ratios for every counter pair
        ``<prefix>.hits`` / ``<prefix>.misses`` present in the registry.

        Computed from the merged counters, so after a pooled sweep these
        are the *aggregate* cache hit rates across all workers (DRAM-solve
        LRU, section memo, ...), not just the parent process's view.
        Display-only: :meth:`snapshot` stays raw counters."""
        rates: dict[str, float] = {}
        for name in self._counters:
            if not name.endswith(".hits"):
                continue
            prefix = name[: -len(".hits")]
            hits = self._counters[name]
            misses = self._counters.get(prefix + ".misses")
            if misses is None:
                continue
            total = hits + misses
            if total > 0:
                rates[prefix + ".hit_rate"] = hits / total
        return rates

    def render(self) -> str:
        """Plain-text dump (the ``--metrics`` CLI output)."""
        lines: list[str] = []
        if self._counters:
            lines.append("counters:")
            rates = self.hit_rates()
            for name in sorted(self._counters):
                value = self._counters[name]
                text = f"{value:.0f}" if value == int(value) else f"{value:.3f}"
                lines.append(f"  {name:<32} {text:>14}")
            for name in sorted(rates):
                lines.append(f"  {name:<32} {rates[name]:>13.1%}")
        if self._gauges:
            lines.append("gauges:")
            for name in sorted(self._gauges):
                lines.append(f"  {name:<32} {self._gauges[name]:>14.3f}")
        if self._histograms:
            lines.append("histograms:")
            for name in sorted(self._histograms):
                h = self._histograms[name]
                lines.append(
                    f"  {name:<32} n={h.count} mean={h.mean:.1f} "
                    f"min={h.min if h.count else 0:.1f} "
                    f"max={h.max if h.count else 0:.1f}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


#: Process-global registry, created lazily by :func:`get_metrics`.
_GLOBAL: Optional[MetricsRegistry] = None


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry (always on)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = MetricsRegistry()
    return _GLOBAL


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global registry; returns the previous one."""
    global _GLOBAL
    old = get_metrics()
    _GLOBAL = registry
    return old
