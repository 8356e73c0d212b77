"""Annotation API and serial tracer (paper Sections IV-A, IV-B, VI-A).

Programmers describe the parallel structure of a *serial* program with six
annotations (Table II of the paper)::

    PAR_SEC_BEGIN(name)   ->  tracer.par_sec_begin(name)
    PAR_SEC_END(barrier)  ->  tracer.par_sec_end(barrier=True)
    PAR_TASK_BEGIN(name)  ->  tracer.par_task_begin(name)
    PAR_TASK_END()        ->  tracer.par_task_end()
    LOCK_BEGIN(lock_id)   ->  tracer.lock_begin(lock_id)
    LOCK_END(lock_id)     ->  tracer.lock_end(lock_id)

plus the Pythonic context managers :meth:`Tracer.section`, :meth:`Tracer.task`
and :meth:`Tracer.lock`.

Because this reproduction runs on a simulated machine, the program's *work*
is expressed declaratively: :meth:`Tracer.compute` performs ``cpu_cycles`` of
execution with a given memory behaviour (:class:`~repro.simhw.memtrace.MemSpec`).
The tracer plays the role of the paper's Pin-probe tracer: it advances the
virtual ``rdtsc`` clock (including DRAM stall time from the machine's memory
model), charges itself a per-annotation overhead, keeps the running overhead
total so the profiler can exclude it from interval lengths (the paper's
Section VI-A problem), collects per-top-level-section hardware counters, and
builds the program tree on the fly.  Given an ``rle_tolerance`` it also
run-length encodes the tree while tracing (Section VI-B), so the full tree
is never built; the batch passes of :mod:`repro.core.compress` remain for
loaded and hand-built trees and for lossy mode.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import AnnotationError
from repro.core.compress import check_tolerance, flush_run, fold_child
from repro.core.tree import Node, NodeKind
from repro.simhw.counters import CounterSet
from repro.simhw.dram import DramModel, SegmentDemand
from repro.simhw.machine import MachineConfig
from repro.simhw.memtrace import MemSpec, analytic_llc_misses

#: A serial annotated program: a callable that drives a tracer.
AnnotationProgram = Callable[["Tracer"], None]

_INF = float("inf")

#: Bound of each tracer's serial-slowdown memo (entries).
SLOWDOWN_MEMO = 1024


class _OpenLeaf:
    """Accumulates consecutive compute calls into one U/L leaf."""

    __slots__ = ("kind", "lock_id", "measured", "cpu_cycles", "instructions", "misses")

    def __init__(self, kind: NodeKind, lock_id: Optional[int]) -> None:
        self.kind = kind
        self.lock_id = lock_id
        self.measured = 0.0
        self.cpu_cycles = 0.0
        self.instructions = 0.0
        self.misses = 0.0


class _Frame:
    """An open node: where it opened, its raw children's subtree lengths and
    (when folding) its pending run of similar children."""

    __slots__ = ("node", "clock", "overhead", "lengths", "run")

    def __init__(self, node: Node, clock: float, overhead: float) -> None:
        self.node = node
        self.clock = clock
        self.overhead = overhead
        self.lengths: list[float] = []
        self.run: list[Node] = []


class _SectionRecord:
    """Per-invocation counter snapshot for a top-level section."""

    __slots__ = ("name", "counters_at_begin", "clock_at_begin", "overhead_at_begin")

    def __init__(
        self, name: str, counters: CounterSet, clock: float, overhead: float
    ) -> None:
        self.name = name
        self.counters_at_begin = counters
        self.clock_at_begin = clock
        self.overhead_at_begin = overhead


class Tracer:
    """Builds a program tree while 'executing' an annotated serial program.

    Parameters
    ----------
    machine:
        The machine being profiled on (clock rate, LLC, DRAM curve, and the
        per-annotation tracer overhead).
    overhead_subtraction_accuracy:
        1.0 (default) subtracts the tracer's own overhead from interval
        lengths perfectly; lower values leave a fraction behind, modelling
        the imperfect net-length calculation the paper describes ("we tried
        our best to calculate the net length of each node").
    trace_driven:
        When True, LLC misses come from the reference set-associative cache
        simulator fed with synthetic address streams instead of the
        first-order analytic models.  The simulated cache persists across
        compute calls, so cross-segment reuse is captured — at the cost the
        paper attributes to cache simulation ("the cache model also incurs
        huge overhead").  ``trace_seed`` makes the streams reproducible and
        ``trace_max_accesses`` caps per-segment stream length (misses are
        scaled back up proportionally).
    rle_tolerance:
        ``None`` (default) records the raw tree.  A number folds §VI-B's
        run-length encoding in while tracing: each closing node is offered
        to its parent's pending run and joins it when mergeable with the
        run's first member at this relative tolerance, exactly as the batch
        pass of :mod:`repro.core.compress` would fold the raw tree.
        :attr:`nodes_traced` counts the raw tree's nodes either way.
    """

    def __init__(
        self,
        machine: MachineConfig,
        overhead_subtraction_accuracy: float = 1.0,
        trace_driven: bool = False,
        trace_seed: int = 0,
        trace_max_accesses: int = 200_000,
        rle_tolerance: Optional[float] = None,
    ) -> None:
        if not 0.0 <= overhead_subtraction_accuracy <= 1.0:
            raise AnnotationError(
                "overhead_subtraction_accuracy must be in [0, 1]"
            )
        if rle_tolerance is not None:
            check_tolerance(rle_tolerance, "rle_tolerance")
        self._tolerance = rle_tolerance
        self.machine = machine
        self.accuracy = overhead_subtraction_accuracy
        self.dram = DramModel(machine)
        self.trace_driven = trace_driven
        self._trace_max_accesses = trace_max_accesses
        if trace_driven:
            import numpy as np

            from repro.simhw.cache import CacheConfig, SetAssociativeCache

            self._llc = SetAssociativeCache(
                CacheConfig(
                    capacity_bytes=machine.llc_bytes,
                    line_size=machine.line_size,
                    associativity=machine.llc_assoc,
                )
            )
            self._trace_rng = np.random.default_rng(trace_seed)
            #: Distinct base address per working-set size, so independent
            #: data structures do not alias in the simulated cache.
            self._region_bases: dict[tuple, int] = {}
            self._next_base = 1 << 32
        else:
            self._llc = None
        self.clock = 0.0
        #: Cumulative tracer overhead charged so far (cycles).
        self.overhead_total = 0.0
        self.counters = CounterSet()
        self.root = Node(NodeKind.ROOT, name="root")
        self._stack: list[_Frame] = [_Frame(self.root, 0.0, 0.0)]
        #: Nodes created so far, the root included (each with repeat 1):
        #: the raw tree's size, which folding never builds.
        self.nodes_traced = 1
        self._open_leaf: Optional[_OpenLeaf] = None
        self._current_lock: Optional[int] = None
        self._section_records: dict[str, list[CounterSet]] = {}
        self._open_top_section: Optional[_SectionRecord] = None
        self.annotation_events = 0
        self._finished = False
        #: Serial slowdown by exact ``(base cycles, misses)``.
        self._slowdowns: dict[tuple[float, float], float] = {}

    # ------------------------------------------------------------- inspection

    @property
    def _top(self) -> Node:
        return self._stack[-1].node

    @property
    def depth(self) -> int:
        return len(self._stack) - 1

    # ------------------------------------------------------------- computation

    def compute(
        self,
        cpu_cycles: float,
        instructions: Optional[float] = None,
        mem: Optional[MemSpec] = None,
    ) -> float:
        """Execute ``cpu_cycles`` of pure computation plus the memory work
        described by ``mem``; returns the measured wall cycles.

        This is the reproduction's stand-in for running real code under the
        tracer: the clock advances by compute time plus DRAM stall time
        (single-threaded contention level), and the simulated hardware
        counters accumulate instructions and LLC misses.  ``cpu_cycles``
        and ``instructions`` must be finite and non-negative.
        """
        self._check_open()
        if not 0.0 <= cpu_cycles < _INF:
            raise AnnotationError(
                f"cpu_cycles must be finite and >= 0, got {cpu_cycles!r}"
            )
        if instructions is None:
            instructions = cpu_cycles
        elif not 0.0 <= instructions < _INF:
            raise AnnotationError(
                f"instructions must be finite and >= 0, got {instructions!r}"
            )
        if cpu_cycles == 0 and mem is None:
            return 0.0
        top = self._top
        if top.kind is NodeKind.SEC:
            raise AnnotationError(
                "computation directly inside a parallel section is not "
                "annotatable; wrap it in a PAR_TASK"
            )
        if mem is None:
            misses = 0.0
        elif self.trace_driven:
            misses = self._simulate_misses(mem)
        else:
            misses = analytic_llc_misses(
                mem, self.machine.llc_bytes, self.machine.line_size
            )
        base = cpu_cycles + misses * self.machine.base_miss_stall
        measured = base * self._serial_slowdown(base, misses)

        kind = NodeKind.L if self._current_lock is not None else NodeKind.U
        leaf = self._open_leaf
        if leaf is None or leaf.kind is not kind or leaf.lock_id != self._current_lock:
            self._flush_leaf()
            leaf = _OpenLeaf(kind, self._current_lock)
            self._open_leaf = leaf
        leaf.measured += measured
        leaf.cpu_cycles += cpu_cycles
        leaf.instructions += instructions
        leaf.misses += misses

        self.clock += measured
        self.counters.instructions += instructions
        self.counters.cycles += measured
        self.counters.llc_misses += misses
        return measured

    def _simulate_misses(self, mem: MemSpec) -> float:
        """Trace-driven miss count via the reference cache simulator."""
        from repro.simhw.memtrace import generate_trace

        key = (mem.pattern, mem.working_set)
        base = self._region_bases.get(key)
        if base is None:
            base = self._next_base
            self._region_bases[key] = base
            self._next_base += max(mem.working_set, self.machine.line_size) * 2
        trace = generate_trace(
            mem,
            self.machine.line_size,
            self._trace_rng,
            base_address=base,
            max_accesses=self._trace_max_accesses,
        )
        if trace.size == 0:
            return 0.0
        misses = self._llc.access_block(trace)
        full_accesses = mem.bytes_touched / self.machine.line_size
        return misses * (full_accesses / trace.size)

    def _serial_slowdown(self, base_cycles: float, misses: float) -> float:
        """The one-segment DRAM slowdown of a compute call, memoized per
        tracer on the exact ``(base_cycles, misses)`` pair (uniform loops
        repeat them; :data:`SLOWDOWN_MEMO` entries, then no more are
        kept).

        The DRAM model's own LRU, keyed by the quantized pair, already
        returns the first answer for a pair.  The memo differs from it
        only if that LRU evicts the pair during one trace and another
        exact pair that quantizes alike is solved before it recurs."""
        if misses <= 0 or base_cycles <= 0:
            return 1.0
        key = (base_cycles, misses)
        s = self._slowdowns.get(key)
        if s is not None:
            return s
        mem_fraction = min(1.0, misses * self.machine.base_miss_stall / base_cycles)
        seconds = self.machine.cycles_to_seconds(base_cycles)
        demand = misses * self.machine.line_size / seconds
        s = self.dram.slowdowns([SegmentDemand(mem_fraction, demand)])[0]
        if len(self._slowdowns) < SLOWDOWN_MEMO:
            self._slowdowns[key] = s
        return s

    # ------------------------------------------------------------- annotations

    def par_sec_begin(self, name: str, pipeline: bool = False) -> None:
        """Open a parallel section.  ``pipeline=True`` marks it as a
        coarse-grained pipeline (extension, Section VII-E / [23]): its tasks
        must consist solely of :meth:`stage` regions."""
        self._check_open()
        top = self._top
        if self._current_lock is not None:
            raise AnnotationError("PAR_SEC_BEGIN inside a critical section")
        if top.kind not in (NodeKind.ROOT, NodeKind.TASK):
            raise AnnotationError(
                f"PAR_SEC_BEGIN not allowed inside a {top.kind.value} node"
            )
        self._flush_leaf()
        node = Node(NodeKind.SEC, name=name)
        node.pipeline = pipeline
        self._stack.append(_Frame(node, self.clock, self.overhead_total))
        if top.kind is NodeKind.ROOT:
            # Top-level section: start hardware counter collection.
            self._open_top_section = _SectionRecord(
                name, self.counters.copy(), self.clock, self.overhead_total
            )
        self._charge_annotation()

    def par_sec_end(self, barrier: bool = True) -> None:
        """Close the current parallel section (PAR_SEC_END; ``barrier``
        mirrors the paper's implicit-barrier flag — False records nowait)."""
        self._check_open()
        self._close("PAR_SEC_END", NodeKind.SEC, nowait=not barrier)
        if self._top.kind is NodeKind.ROOT:
            record = self._open_top_section
            if record is None:  # pragma: no cover - defensive
                raise AnnotationError("top-level section bookkeeping lost")
            delta = self.counters - record.counters_at_begin
            gross = self.clock - record.clock_at_begin
            inside_overhead = self.overhead_total - record.overhead_at_begin
            delta.cycles = gross - self.accuracy * inside_overhead
            self._section_records.setdefault(record.name, []).append(delta)
            self._open_top_section = None
        self._charge_annotation()

    def par_task_begin(self, name: str = "") -> None:
        """Open a parallel task (PAR_TASK_BEGIN)."""
        self._check_open()
        if self._top.kind is not NodeKind.SEC:
            raise AnnotationError(
                f"PAR_TASK_BEGIN outside a parallel section "
                f"(current: {self._top.kind.value})"
            )
        self._flush_leaf()
        node = Node(NodeKind.TASK, name=name)
        self._stack.append(_Frame(node, self.clock, self.overhead_total))
        self._charge_annotation()

    def par_task_end(self) -> None:
        """Close the current parallel task (PAR_TASK_END)."""
        self._check_open()
        if self._current_lock is not None:
            raise AnnotationError("PAR_TASK_END while a lock is held")
        self._close("PAR_TASK_END", NodeKind.TASK)
        self._charge_annotation()

    def stage_begin(self, name: str = "") -> None:
        """Open a pipeline stage (extension annotation PIPE_STAGE_BEGIN)."""
        self._check_open()
        top = self._top
        if top.kind is not NodeKind.TASK:
            raise AnnotationError("STAGE_BEGIN outside a parallel task")
        parent_sec = self._stack[-2].node if len(self._stack) >= 2 else None
        if parent_sec is None or not (
            parent_sec.kind is NodeKind.SEC and parent_sec.pipeline
        ):
            raise AnnotationError(
                "STAGE_BEGIN inside a task of a non-pipeline section"
            )
        if self._current_lock is not None:
            raise AnnotationError("STAGE_BEGIN inside a critical section")
        self._flush_leaf()
        node = Node(NodeKind.STAGE, name=name)
        self._stack.append(_Frame(node, self.clock, self.overhead_total))
        self._charge_annotation()

    def stage_end(self) -> None:
        """Close the current pipeline stage."""
        self._check_open()
        if self._current_lock is not None:
            raise AnnotationError("STAGE_END while a lock is held")
        self._close("STAGE_END", NodeKind.STAGE)
        self._charge_annotation()

    def lock_begin(self, lock_id: int) -> None:
        """Enter the critical section guarded by ``lock_id`` (LOCK_BEGIN)."""
        self._check_open()
        if self._top.kind not in (NodeKind.TASK, NodeKind.STAGE):
            raise AnnotationError("LOCK_BEGIN outside a parallel task")
        if self._current_lock is not None:
            raise AnnotationError(
                f"LOCK_BEGIN({lock_id}) while lock {self._current_lock} is held "
                "(nested locks are not supported)"
            )
        self._flush_leaf()
        self._current_lock = lock_id
        self._charge_annotation()

    def lock_end(self, lock_id: int) -> None:
        """Leave the critical section guarded by ``lock_id`` (LOCK_END)."""
        self._check_open()
        if self._current_lock != lock_id:
            raise AnnotationError(
                f"LOCK_END({lock_id}) does not match held lock "
                f"{self._current_lock}"
            )
        self._flush_leaf()
        self._current_lock = None
        self._charge_annotation()

    # ------------------------------------------------------------- sugar

    def section(
        self, name: str, barrier: bool = True, pipeline: bool = False
    ) -> _Section:
        """``with tracer.section(name):`` sugar for PAR_SEC_BEGIN/END."""
        return _Section(self, name, barrier, pipeline)

    def stage(self, name: str = "") -> _Stage:
        """``with tracer.stage():`` sugar for STAGE_BEGIN/END."""
        return _Stage(self, name)

    def task(self, name: str = "") -> _Task:
        """``with tracer.task():`` sugar for PAR_TASK_BEGIN/END."""
        return _Task(self, name)

    def lock(self, lock_id: int) -> _Lock:
        """``with tracer.lock(id):`` sugar for LOCK_BEGIN/END."""
        return _Lock(self, lock_id)

    # ------------------------------------------------------------- finish

    def finish(self) -> Node:
        """Close the trace; returns the root node, whose ``length`` is the
        net program time (the raw tree's total, also when folded).

        Raises :class:`AnnotationError` if any annotation pair is still open
        (the paper's stack-matching error check).
        """
        self._check_open()
        if len(self._stack) != 1:
            open_names = [
                f.node.name or f.node.kind.value for f in self._stack[1:]
            ]
            raise AnnotationError(f"unclosed annotation pairs at end: {open_names}")
        if self._current_lock is not None:
            raise AnnotationError(f"lock {self._current_lock} still held at end")
        self._flush_leaf()
        frame = self._stack[0]
        flush_run(self.root.children, frame.run)
        self.root.length = sum(frame.lengths)
        self._finished = True
        return self.root

    def section_counters(self) -> dict[str, list[CounterSet]]:
        """Per top-level-section-name counter deltas, one per invocation."""
        return self._section_records

    # ------------------------------------------------------------- internals

    def _check_open(self) -> None:
        if self._finished:
            raise AnnotationError("tracer already finished")

    def _charge_annotation(self) -> None:
        oh = self.machine.tracer_overhead_cycles
        self.clock += oh
        self.overhead_total += oh
        self.annotation_events += 1

    def _flush_leaf(self) -> None:
        leaf = self._open_leaf
        if leaf is None:
            return
        self._open_leaf = None
        node = Node(
            leaf.kind,
            length=leaf.measured,
            lock_id=leaf.lock_id,
            cpu_cycles=leaf.cpu_cycles,
            instructions=leaf.instructions,
            llc_misses=leaf.misses,
        )
        self._adopt(node, leaf.measured)

    def _adopt(self, child: Node, subtree_length: float) -> None:
        """Hand a closed ``child`` of raw ``subtree_length`` to the open
        node: append it, or offer it to that node's pending run."""
        frame = self._stack[-1]
        frame.lengths.append(subtree_length)
        self.nodes_traced += 1
        if self._tolerance is None:
            frame.node.children.append(child)
        else:
            fold_child(frame.node.children, frame.run, child, self._tolerance)

    def _close(self, what: str, expected: NodeKind, nowait: bool = False) -> None:
        frame = self._stack[-1]
        node = frame.node
        if node.kind is not expected:
            raise AnnotationError(
                f"{what} does not match open {node.kind.value} node "
                f"{node.name!r}"
            )
        self._flush_leaf()
        self._stack.pop()
        flush_run(node.children, frame.run)
        gross = self.clock - frame.clock
        inside_overhead = self.overhead_total - frame.overhead
        node.length = max(0.0, gross - self.accuracy * inside_overhead)
        node.nowait = nowait
        # Every traced node has repeat 1, so its raw subtree length is
        # Node.subtree_length's ``1 * sum(...)`` over the same children.
        self._adopt(node, sum(frame.lengths))


class _Annotation:
    """``with`` sugar for one annotation pair: entering begins it and a
    clean exit ends it.  An exception in the body propagates and leaves
    the pair open (:meth:`Tracer.finish` then reports it)."""

    __slots__ = ("tracer", "arg")

    def __init__(self, tracer: Tracer, arg) -> None:
        self.tracer = tracer
        self.arg = arg

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._end()
        return False


class _Section(_Annotation):
    __slots__ = ("barrier", "pipeline")

    def __init__(self, tracer: Tracer, name: str, barrier: bool,
                 pipeline: bool) -> None:
        super().__init__(tracer, name)
        self.barrier = barrier
        self.pipeline = pipeline

    def __enter__(self) -> None:
        self.tracer.par_sec_begin(self.arg, pipeline=self.pipeline)

    def _end(self) -> None:
        self.tracer.par_sec_end(barrier=self.barrier)


class _Stage(_Annotation):
    __slots__ = ()

    def __enter__(self) -> None:
        self.tracer.stage_begin(self.arg)

    def _end(self) -> None:
        self.tracer.stage_end()


class _Task(_Annotation):
    __slots__ = ()

    def __enter__(self) -> None:
        self.tracer.par_task_begin(self.arg)

    def _end(self) -> None:
        self.tracer.par_task_end()


class _Lock(_Annotation):
    __slots__ = ()

    def __enter__(self) -> None:
        self.tracer.lock_begin(self.arg)

    def _end(self) -> None:
        self.tracer.lock_end(self.arg)
