"""Wall-clock spans around the pipeline's public entry points.

A traced benchmark run installs :class:`Tracer` wrappers on the layer
boundaries listed in :data:`LAYERS` (and, inside the serve daemon, on the
HTTP handler and work queue).  Nothing under ``src/`` is edited: the
wrappers replace class attributes at run time, and only in the process
that installs them.

Accounting
----------
Every wrapped call pushes a frame on a per-thread stack.  When it returns,
its duration is added to its parent frame's child time and its *self time*
(duration minus child time) to its layer.  So within one op the self times
of all frames telescope to the op's root duration exactly, and the layer
self times of a run sum to the traced wall time.

A call outside any op (no frame on the stack) runs unwrapped.  That is how
a run alternates traced and untraced ops, and how the serve daemon skips
its warm-up traffic.

Spans (name, start, end, parent id, op id) are kept in memory and written
as Chrome-trace JSON by :meth:`Tracer.dump`.  The hot leaves (``kernel``,
``dram``) keep frames, so their time still leaves their parents' self
time, but record no span objects.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Optional

#: (layer, module, class or None for a module function, attribute, leaf).
LAYERS = [
    ("profiler", "repro.core.profiler", "IntervalProfiler", "profile", False),
    # Patched where the prophet imports it, so its calls resolve to the
    # wrapper without touching the microbench module's own name.
    ("microbench", "repro.core.prophet", None, "calibrate_memory_model", False),
    ("memmodel", "repro.core.memmodel", "MemoryModel", "attach", False),
    ("columnar", "repro.core.columnar", "ColumnarEngine", "ff_point", False),
    ("columnar", "repro.core.columnar", "ColumnarEngine", "syn_point", False),
    ("columnar", "repro.core.columnar", "ColumnarEngine", "real_point", False),
    ("ffemu", "repro.core.ffemu", "FastForwardEmulator", "emulate_profile", False),
    ("synthesizer", "repro.core.synthesizer", "Synthesizer", "predict", False),
    ("executor", "repro.core.executor", "ParallelExecutor", "execute_profile", False),
    ("kernel", "repro.simos.kernel", "SimKernel", "run", True),
    ("dram", "repro.simhw.dram", "DramModel", "stall_multiplier", True),
    ("dram", "repro.simhw.dram", "DramModel", "solve_batch", True),
    ("batch", "repro.core.batch", "BatchPredictor", "run", False),
    ("surrogate", "repro.surrogate.model", "Surrogate", "answer", False),
    ("explore", "repro.explore.explorer", "Explorer", "explore", False),
    ("serve.report", "repro.serve.handlers", None, "report_to_dict", False),
]

#: Layers reported with ``.calls`` / ``.self_s`` (``http`` is filled in by
#: the serve client; ``other`` is the op roots' own time).
SPAN_LAYERS = [
    "profiler",
    "microbench",
    "memmodel",
    "columnar",
    "ffemu",
    "synthesizer",
    "executor",
    "kernel",
    "dram",
    "batch",
    "surrogate",
    "explore",
    "serve.handlers",
    "serve.report",
    "serve.queue",
    "http",
]

#: Registry counters whose run-window deltas feed the per-layer ratios.
COUNTER_PREFIXES = (
    "replay.section_memo.",
    "dram.solve.",
    "batch.task.errors",
    "surrogate.",
    "serve.cache.",
    "serve.queue.rejected",
)


class _Frame:
    __slots__ = ("layer", "start", "child", "parent", "op", "span_id")

    def __init__(self, layer, parent, op, span_id):
        self.layer = layer
        self.parent = parent
        self.op = op
        self.span_id = span_id
        self.child = 0.0
        self.start = perf_counter()


class _Op:
    """One traced op: its id, its workload key and its root frame's time."""

    __slots__ = ("id", "key", "dur_s", "leaf_self_s")

    def __init__(self, op_id, key):
        self.id = op_id
        self.key = key
        self.dur_s = 0.0
        #: Self time of span-less leaf frames, so per-op sums can be checked.
        self.leaf_self_s = 0.0


class Tracer:
    """Span and per-layer accounting for one benchmark process."""

    def __init__(self) -> None:
        self.t0 = perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[dict] = []
        self._ids = itertools.count(1)
        #: (span id, parent span id, op id, layer, start, end, self s, thread).
        self.spans: list[tuple] = []
        self.ops: list[_Op] = []
        self.queue_waits: list[float] = []
        self._counters0: Optional[dict] = None

    # ------------------------------------------------------------ accounting

    def _tally(self) -> dict:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = {}
            with self._lock:
                self._tallies.append(tally)
        return tally

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a per-layer counter (``columnar.answered``, ...)."""
        tally = self._tally()
        entry = tally.get(name)
        if entry is None:
            tally[name] = [amount, 0.0]
        else:
            entry[0] += amount

    def _push(self, layer: str, leaf: bool) -> Optional[_Frame]:
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        parent = stack[-1]
        frame = _Frame(layer, parent, parent.op, None if leaf else next(self._ids))
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame) -> None:
        end = perf_counter()
        self._local.stack.pop()
        self._close(frame, end)

    def _close(self, frame: _Frame, end: float) -> None:
        dur = end - frame.start
        self_s = dur - frame.child
        if frame.parent is not None:
            frame.parent.child += dur
        tally = self._tally()
        entry = tally.get(frame.layer)
        if entry is None:
            tally[frame.layer] = [1, self_s]
        else:
            entry[0] += 1
            entry[1] += self_s
        if frame.span_id is None:
            frame.op.leaf_self_s += self_s
        else:
            self.spans.append(
                (
                    frame.span_id,
                    frame.parent.span_id if frame.parent is not None else None,
                    frame.op.id,
                    frame.layer,
                    frame.start,
                    end,
                    self_s,
                    threading.get_ident(),
                )
            )

    @contextmanager
    def op(self, key: str, root_layer: str = "other", op_id: Optional[int] = None):
        """Trace one op on this thread; its root frame's self time goes to
        ``root_layer``."""
        if self._counters0 is None:
            self.start_window()
        record = _Op(op_id if op_id is not None else next(self._ids), key)
        root = _Frame(root_layer, None, record, next(self._ids))
        self._local.stack = [root]
        try:
            yield record
        finally:
            end = perf_counter()
            self._local.stack = None
            self._close(root, end)
            record.dur_s = end - root.start
            self.ops.append(record)

    # ------------------------------------------------------------- wrapping

    def wrap(
        self,
        fn: Callable,
        layer: str,
        leaf: bool = False,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` accounted to ``layer`` whenever an op is active."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push(layer, leaf)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` in this process."""
        for layer, module, cls, attr, leaf in LAYERS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            after = None
            if layer == "columnar":
                after = self._columnar_after
            elif layer == "kernel":
                after = self._kernel_after
            setattr(owner, attr, self.wrap(getattr(owner, attr), layer, leaf, after))

    def _columnar_after(self, _args, result) -> None:
        if result is not None:
            self.count("columnar.answered")

    def _kernel_after(self, args, _result) -> None:
        self.count("kernel.events", args[0].events_pushed)

    def install_serve(self) -> None:
        """Serve-daemon boundaries: request roots and the work queue.

        An HTTP request carrying ``X-E2E-Op`` becomes a traced op whose
        root is ``ServeState.handle``.  A queued closure is re-parented onto
        the handler's frame from the worker thread, with its queue wait
        recorded as a closed ``serve.queue`` span.
        """
        self.install()
        from repro.serve import handlers, server, workqueue

        tracer = self
        for verb in ("do_GET", "do_POST"):
            orig_verb = getattr(server._Handler, verb)

            def tagged(handler, _orig=orig_verb):
                op = handler.headers.get("X-E2E-Op")
                tracer._local.pending_op = int(op) if op else None
                try:
                    return _orig(handler)
                finally:
                    tracer._local.pending_op = None

            setattr(server._Handler, verb, tagged)

        orig_handle = handlers.ServeState.handle

        def handle(state, method, path, payload):
            op_id = getattr(tracer._local, "pending_op", None)
            if op_id is None or getattr(tracer._local, "stack", None):
                return orig_handle(state, method, path, payload)
            with tracer.op(f"{method} {path}", "serve.handlers", op_id):
                return orig_handle(state, method, path, payload)

        handlers.ServeState.handle = handle

        orig_submit = workqueue.WorkQueue.submit

        def submit(queue, fn, deadline, label):
            stack = getattr(tracer._local, "stack", None)
            if not stack:
                return orig_submit(queue, fn, deadline, label)
            parent = stack[-1]
            submitted = perf_counter()
            span_id = next(tracer._ids)

            def queued():
                start = perf_counter()
                wait = _Frame("serve.queue", parent, parent.op, span_id)
                wait.start = submitted
                tracer._close(wait, start)
                tracer.queue_waits.append(start - submitted)
                tracer._local.stack = [parent]
                frame = tracer._push("serve.handlers", False)
                try:
                    return fn()
                finally:
                    tracer._pop(frame)
                    tracer._local.stack = None

            return orig_submit(queue, queued, deadline, label)

        workqueue.WorkQueue.submit = submit

    # ----------------------------------------------------- counter windows

    @staticmethod
    def _registry_counters() -> dict[str, float]:
        from repro.obs import get_metrics

        counters = get_metrics().counters()
        return {
            k: v for k, v in counters.items() if k.startswith(COUNTER_PREFIXES)
        }

    def start_window(self) -> None:
        """Snapshot the metrics registry; the first traced op does this."""
        self._counters0 = self._registry_counters()

    def counter_deltas(self) -> dict[str, float]:
        """Registry counter growth since :meth:`start_window`."""
        base = self._counters0 or {}
        return {
            k: v - base.get(k, 0.0) for k, v in self._registry_counters().items()
        }

    # --------------------------------------------------------------- output

    def layer_totals(self) -> dict[str, list]:
        """``name -> [count, self seconds]`` merged over every thread."""
        merged: dict[str, list] = {}
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for name, (n, s) in list(tally.items()):
                entry = merged.setdefault(name, [0, 0.0])
                entry[0] += n
                entry[1] += s
        return merged

    def summary(self) -> dict:
        """Layer totals, registry deltas, queue waits and per-op records."""
        return {
            "t0": self.t0,
            "layers": self.layer_totals(),
            "counters": self.counter_deltas(),
            "queue_waits": list(self.queue_waits),
            "ops": [
                {"op": o.id, "key": o.key, "dur_s": o.dur_s, "leaf_self_s": o.leaf_self_s}
                for o in self.ops
            ],
        }

    def chrome_events(self, pid: int) -> list[dict]:
        """Spans as Chrome-trace complete events (microseconds from t0)."""
        return [
            {
                "name": layer,
                "ph": "X",
                "ts": (start - self.t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": sid, "parent": parent, "op": op, "self_s": self_s},
            }
            for sid, parent, op, layer, start, end, self_s, tid in self.spans
        ]

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write spans plus :meth:`summary` as one Chrome-trace JSON file."""
        doc = {
            "traceEvents": self.chrome_events(os.getpid()),
            "displayTimeUnit": "ms",
            "otherData": {**self.summary(), **(extra or {})},
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
