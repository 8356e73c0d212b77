"""Observability: structured event tracing, metrics, and timeline export.

The paper's whole pitch is *explaining* where predicted speedup goes —
burden factors, scheduler overhead, DRAM saturation (§V–§VII) — yet final
speedup numbers alone cannot show *why* the FF and the synthesizer disagree
on a workload or why one sweep point looks wrong.  This package makes every
emulation inspectable:

- :mod:`repro.obs.tracer` — a ring-buffered structured event tracer.
  Spans and instants are stamped with monotonic *simulated* time (cycles),
  emitted by hooks threaded through the DES kernel, the scheduler, the DRAM
  model, the FF emulator, the synthesizer replays, and the batch engine.
  Disabled by default; a disabled tracer costs one attribute check per
  potential event (measured <2 % on the Fig. 11 bench path, see
  ``benchmarks/bench_tracer_overhead.py``).
- :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges,
  and histograms with a ``snapshot()``/``reset()``/``merge()`` contract
  that works across ``ProcessPoolExecutor`` workers (each worker returns
  its snapshot with its result chunk; the parent merges deterministically).
  It unifies the previously ad-hoc stats: FF node visits, DRAM-solve
  cache hits/misses, preemption counts.
- :mod:`repro.obs.export` — Chrome-trace / Perfetto JSON timeline export
  (one track per simulated core plus per-thread state tracks) and a
  plain-text metrics dump.

Enable tracing for a whole process with the environment variable
``REPRO_TRACE=1`` (read once, when the default tracer is first created),
programmatically via ``get_tracer().enabled = True``, or per run with
``python -m repro trace <workload> --threads N --out trace.json``.
"""

from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.tracer import TraceEvent, Tracer, get_tracer, set_tracer

__all__ = [
    "TraceEvent",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "to_chrome_trace",
    "write_chrome_trace",
]
