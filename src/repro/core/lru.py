"""A named, size-bounded, thread-safe LRU cache.

Every cache shared across ``repro serve --workers N`` threads is one of
these: the process-wide section-replay memo, each
:class:`~repro.core.batch.BatchPredictor`'s columnar-engine cache, each
columnar engine's exact DRAM-solve cache and the serve layer's
``predictor``/``profile``/``response`` classes.  A lookup
and its recency refresh happen under one lock, so a concurrent eviction
can never interleave between them.

The cache counts hits, misses and evictions on itself (:meth:`info`) and
nowhere else.  Owners that publish counters to the metrics registry do it
themselves: the executor writes ``replay.section_memo.*`` and the serve
layer ``serve.cache.<class>.*``.

The per-kernel DRAM memo and the team walk's memo are deliberately *not*
this class: each is private to one single-threaded kernel or walk and
sits in the hottest loop, where a lock would cost time and buy nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Optional


class LRUCache:
    """A named, size-bounded, thread-safe LRU cache.

    ``on_evict`` (if given) runs for every value leaving the cache —
    capacity eviction and :meth:`clear` alike — so caches holding
    stateful values (e.g. predictors with engine caches) can release
    them deterministically.
    """

    def __init__(
        self,
        name: str,
        maxsize: int,
        on_evict: Optional[Callable[[Any], None]] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"cache {name!r}: maxsize must be >= 1, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: get_or_create races lost: a build that was discarded because a
        #: concurrent creator inserted first.
        self.races = 0
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()

    def _record(self, event: str, n: int = 1) -> None:
        """Hook run outside the lock for each ``hits``/``misses``/
        ``evictions``/``races`` event; a no-op here.  Subclasses mirror
        the counts elsewhere (the serve layer's metrics registry)."""

    # ------------------------------------------------------------------ ops

    def get(self, key: Any) -> Optional[Any]:
        """Look up ``key``, refreshing recency; None on miss.

        None doubles as the miss signal, which is why :meth:`put` refuses
        to store it — a cached None would be indistinguishable from a miss
        and re-built forever.  Falsy values that are not None (``0``,
        ``""``, ``{}``) are cached and returned normally.
        """
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        self._record("misses" if value is None else "hits")
        return value

    def _insert(self, key: Any, value: Any) -> list:
        """Insert under the caller-held lock; returns evicted values."""
        evicted = []
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            _, old = self._data.popitem(last=False)
            self.evictions += 1
            evicted.append(old)
        return evicted

    def _dispose(self, evicted: list) -> None:
        """Run eviction accounting/hooks outside the lock."""
        if not evicted:
            return
        self._record("evictions", len(evicted))
        if self.on_evict is not None:
            for old in evicted:
                self.on_evict(old)

    def put(self, key: Any, value: Any) -> None:
        """Insert ``value``, evicting least-recently-used entries over bound."""
        if value is None:
            raise ValueError(
                f"cache {self.name!r}: None cannot be cached "
                "(it is the miss signal)"
            )
        with self._lock:
            evicted = self._insert(key, value)
        self._dispose(evicted)

    def get_or_create(self, key: Any, factory: Callable[[], Any]) -> Any:
        """``get`` falling back to ``factory()`` on miss — first put wins.

        The factory runs outside the cache lock (it may be expensive), so
        two racing creators may both build; the insert is then
        insert-if-absent under the lock.  The first value in stays (and is
        what *every* racer returns); the loser's build is discarded through
        ``on_evict`` so stateful values are released instead of leaking.
        """
        value = self.get(key)
        if value is not None:
            return value
        created = factory()
        if created is None:
            raise ValueError(
                f"cache {self.name!r}: factory for {key!r} returned None "
                "(None is the miss signal and cannot be cached)"
            )
        with self._lock:
            existing = self._data.get(key)
            if existing is not None:
                self._data.move_to_end(key)
                self.races += 1
                evicted = []
            else:
                evicted = self._insert(key, created)
        self._dispose(evicted)
        if existing is None:
            return created
        self._record("races")
        if self.on_evict is not None:
            self.on_evict(created)
        return existing

    def clear(self) -> int:
        """Drop every entry (running ``on_evict``) and zero the counters;
        returns the number of entries dropped."""
        with self._lock:
            dropped = list(self._data.values())
            self._data.clear()
            self.hits = self.misses = self.evictions = self.races = 0
        if self.on_evict is not None:
            for value in dropped:
                self.on_evict(value)
        return len(dropped)

    def items(self) -> list:
        """A snapshot of the cached ``(key, value)`` pairs, least recent
        first."""
        with self._lock:
            return list(self._data.items())

    def info(self) -> dict[str, int]:
        """Hit/miss/eviction/size counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
                "maxsize": self.maxsize,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
