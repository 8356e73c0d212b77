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

plus the process-wide section-replay memo
(:func:`repro.core.executor.section_memo_info`), reported and cleared
through the same surface.

Each class is a :class:`~repro.core.lru.LRUCache` whose lookups are also
counted in the :mod:`repro.obs` metrics registry as
``serve.cache.<class>.hits`` / ``.misses`` / ``.evictions``, so ``GET
/stats`` and the ``--metrics`` CLI flag show one consistent story (and
:meth:`MetricsRegistry.hit_rates` derives ``.hit_rate`` for free).
"""

from __future__ import annotations

from typing import Any

from repro.core.lru import LRUCache
from repro.obs import get_metrics


class _ServeCache(LRUCache):
    """A serve cache class: an :class:`LRUCache` whose events are also
    counted in the metrics registry as ``serve.cache.<name>.<event>``."""

    def _record(self, event: str, n: int = 1) -> None:
        get_metrics().inc(f"serve.cache.{self.name}.{event}", float(n))


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
        jobs: int = 1,
    ) -> None:
        self.jobs = jobs
        self.predictors = _ServeCache(
            "predictor",
            predictor_size,
            on_evict=lambda pair: pair[1].reset(),
        )
        self.profiles = _ServeCache("profile", profile_size)
        self.responses = _ServeCache("response", response_size)

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
        predictors = {
            str(cores): predictor.cache_info()
            for cores, (_prophet, predictor) in self.predictors.items()
        }
        return {"classes": layer, "predictors": predictors}

    def clear(self) -> dict[str, int]:
        """Drop every cache class; returns per-class dropped-entry counts.

        Predictor eviction hooks reset their engine caches, and
        the process-wide section memo is cleared alongside so ``POST
        /cache/clear`` really does return the daemon to a cold state.
        """
        from repro.core.executor import clear_section_memo

        cleared = {
            "predictor": self.predictors.clear(),
            "profile": self.profiles.clear(),
            "response": self.responses.clear(),
            "section_memo": clear_section_memo(),
        }
        get_metrics().inc("serve.cache.clears")
        return cleared
