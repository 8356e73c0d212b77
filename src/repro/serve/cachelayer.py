"""The daemon's process-lifetime cache layer.

Before this module, the pipeline's caches were scattered and implicit:
the Ψ/Φ calibration lived on whichever ``ParallelProphet`` happened to be
constructed, interval profiles were rebuilt per CLI invocation, the
section-replay memo and DRAM-solve LRU warmed up and died with the
process, and columnar lowerings were rebuilt per sweep chunk.  A one-shot
CLI never noticed; a daemon serving repeat traffic lives or dies by them.

:class:`CacheLayer` promotes them to explicit, named, eviction-governed
cache classes:

- ``predictor`` — one (:class:`~repro.core.prophet.ParallelProphet`,
  :class:`~repro.core.batch.BatchPredictor`) pair per machine shape.  The
  prophet carries the calibration cache (the single most expensive warmup)
  and the predictor carries the persistent columnar-engine cache
  (:meth:`BatchPredictor.cache_info`).  Evicting a predictor resets it.
- ``profile`` — interval profiles keyed by (workload, machine), with
  their attached burden tables riding along.
- ``response`` — whole JSON responses keyed by the canonical request, so
  a byte-identical repeat request never reaches the compute queue.

plus adapters over the process-wide caches that already exist: the
section-replay memo (:func:`repro.core.executor.section_memo_info`) is
resized to the layer's configured bound and reported/cleared through the
same surface.

Every get is instrumented through the :mod:`repro.obs` metrics registry
as ``serve.cache.<class>.hits`` / ``.misses`` / ``.evictions``, so
``GET /stats`` and the ``--metrics`` CLI flag show one consistent story
(and :meth:`MetricsRegistry.hit_rates` derives ``.hit_rate`` for free).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.obs import get_metrics


class LRUCache:
    """A named, size-bounded, thread-safe LRU cache class.

    ``on_evict`` (if given) runs for every value leaving the cache —
    capacity eviction and :meth:`clear` alike — so cache classes holding
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

    # ------------------------------------------------------------------ ops

    def get(self, key: Any) -> Optional[Any]:
        """Look up ``key``, refreshing recency; None on miss (instrumented).

        None doubles as the miss signal, which is why :meth:`put` refuses
        to store it — a cached None would be indistinguishable from a miss
        and re-built forever.  Falsy values that are not None (``0``,
        ``""``, ``{}``) are cached and returned normally.
        """
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                get_metrics().inc(f"serve.cache.{self.name}.misses")
                return None
            self._data.move_to_end(key)
            self.hits += 1
        get_metrics().inc(f"serve.cache.{self.name}.hits")
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
        get_metrics().inc(
            f"serve.cache.{self.name}.evictions", float(len(evicted))
        )
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
        ``on_evict`` so stateful values (predictors with engine caches,
        registered metrics) are released instead of leaking.
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
                self.hits += 1
                self.races += 1
                evicted = []
            else:
                evicted = self._insert(key, created)
        if existing is not None:
            get_metrics().inc(f"serve.cache.{self.name}.races")
            if self.on_evict is not None:
                self.on_evict(created)
            self._dispose(evicted)
            return existing
        self._dispose(evicted)
        return created

    def clear(self) -> int:
        """Drop every entry (running ``on_evict``); returns the count."""
        with self._lock:
            dropped = list(self._data.values())
            self._data.clear()
        if self.on_evict is not None:
            for value in dropped:
                self.on_evict(value)
        return len(dropped)

    def info(self) -> dict[str, int]:
        """Hit/miss/eviction/size counters (same shape as the DRAM memo's)."""
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


class CacheLayer:
    """All process-lifetime caches of one daemon, behind one surface.

    ``jobs`` is the sweep-execution knob baked into every predictor this
    layer creates; requests select only the machine shape (``cores``),
    keeping the predictor key small and the engine caches hot across
    differently-phrased requests.
    """

    def __init__(
        self,
        predictor_size: int = 8,
        profile_size: int = 64,
        response_size: int = 256,
        section_memo_size: Optional[int] = None,
        jobs: int = 1,
    ) -> None:
        self.jobs = jobs
        self.predictors = LRUCache(
            "predictor",
            predictor_size,
            on_evict=lambda pair: pair[1].reset(),
        )
        self.profiles = LRUCache("profile", profile_size)
        self.responses = LRUCache("response", response_size)
        if section_memo_size is not None:
            from repro.core.executor import set_section_memo_size

            set_section_memo_size(section_memo_size)

    # ------------------------------------------------------------ factories

    def predictor_for(self, cores: int):
        """The (prophet, predictor) pair for a machine shape, cached.

        The prophet owns the calibration cache; the predictor owns the
        persistent columnar-engine cache.  Together they are
        the warm state a repeat request hits.
        """

        def build():
            from repro.core.batch import BatchPredictor
            from repro.core.prophet import ParallelProphet
            from repro.simhw.machine import MachineConfig

            prophet = ParallelProphet(machine=MachineConfig(n_cores=cores))
            return prophet, BatchPredictor(prophet, jobs=self.jobs)

        return self.predictors.get_or_create(int(cores), build)

    def profile_for(self, workload: str, cores: int, prophet):
        """The interval profile of a registered workload, cached per machine.

        Burden tables attach to the cached object as predictions request
        them, so the calibrated per-thread-count burdens are part of the
        warm state too.
        """

        def build():
            from repro.workloads import get_workload

            return prophet.profile(get_workload(workload).program)

        return self.profiles.get_or_create((workload, int(cores)), build)

    # -------------------------------------------------------------- surface

    def stats(self) -> dict[str, Any]:
        """Per-cache-class counters, including the adapted pipeline caches."""
        from repro.core.executor import section_memo_info

        layer = {
            cache.name: cache.info()
            for cache in (self.predictors, self.profiles, self.responses)
        }
        layer["section_memo"] = section_memo_info()
        predictors = {}
        with self.predictors._lock:
            pairs = list(self.predictors._data.items())
        for cores, (_prophet, predictor) in pairs:
            predictors[str(cores)] = predictor.cache_info()
        return {"classes": layer, "predictors": predictors}

    def clear(self) -> dict[str, int]:
        """Drop every cache class; returns per-class dropped-entry counts.

        Predictor eviction hooks reset their engine caches, and
        the process-wide section memo is cleared alongside so ``POST
        /cache/clear`` really does return the daemon to a cold state.
        """
        from repro.core.executor import clear_section_memo, section_memo_info

        memo_size = section_memo_info()["size"]
        cleared = {
            "predictor": self.predictors.clear(),
            "profile": self.profiles.clear(),
            "response": self.responses.clear(),
            "section_memo": memo_size,
        }
        clear_section_memo()
        get_metrics().inc("serve.cache.clears")
        return cleared
