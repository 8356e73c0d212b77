"""Program-tree replay on the simulated machine.

One replay engine serves two roles:

- ``ReplayMode.REAL`` — **ground truth**: each leaf re-runs its actual work
  (pure-CPU cycles + LLC misses), so DRAM contention, lock contention, OS
  preemption, and runtime overheads all interact exactly as they would in
  the actually-parallelized program.  This stands in for the paper's
  hand-parallelized OpenMP/Cilk code measured on real hardware ("Real" in
  Figs. 2, 11, 12).
- ``ReplayMode.FAKE`` — the **synthesizer's generated program**: each leaf
  becomes a burden-scaled pure delay (the paper's ``FakeDelay``), locks are
  real simulated mutexes, nested sections become recursive parallel
  constructs, and the per-node tree-traversal overhead is charged and
  tracked per worker so it can be subtracted afterwards (Section IV-E).

Crucially the FAKE path consumes only what the profiler can observe —
measured net lengths and per-section burden factors — never the leaves'
ground-truth work composition, so predictions are honest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Mapping, Optional

from repro.core.lower import Section, lower
from repro.core.lru import LRUCache
from repro.core.tree import Node, NodeKind, ProgramTree, group_nowait_chains
from repro.errors import EmulationError
from repro.obs import get_metrics, get_tracer
from repro.runtime.taskpool import CilkPool, OmpTaskPool
from repro.runtime.openmp import OmpRuntime
from repro.runtime.overhead import DEFAULT_OVERHEADS, RuntimeOverheads
from repro.runtime.tasks import Schedule
from repro.simhw.machine import MachineConfig
from repro.simos import (
    Acquire,
    Compute,
    GetCurrentThread,
    Release,
    SimKernel,
    SimMutex,
    normalize_handoff,
)
from repro.validate.invariants import get_checker


class ReplayMode(enum.Enum):
    """REAL = ground-truth work replay; FAKE = synthesizer fake delays."""

    REAL = "real"
    FAKE = "fake"


#: Bound of the process-wide section memo (entries).
SECTION_MEMO_SIZE = 256

#: Process-wide section memo, shared across executors and serve worker
#: threads.  Keys include every input a replay depends on (machine,
#: overheads, paradigm, schedule, mode, thread count, quantized burden,
#: handoff policy and the section's structural fingerprint), so a hit
#: returns the :class:`SectionRun` an identical replay would produce.
_SECTION_MEMO = LRUCache("section_memo", SECTION_MEMO_SIZE)


def section_memo_info() -> dict[str, int]:
    """Hit/miss/eviction/size counters of the process-wide section memo."""
    return _SECTION_MEMO.info()


def clear_section_memo() -> int:
    """Drop all memoised section replays and zero the memo's counters;
    returns the number of entries dropped."""
    return _SECTION_MEMO.clear()


class _OverheadManager:
    """Per-worker traversal overhead, as in the paper's Fig. 8 pseudo-code."""

    def __init__(self) -> None:
        self.per_thread: dict[int, float] = {}

    def add(self, tid: int, amount: float) -> None:
        self.per_thread[tid] = self.per_thread.get(tid, 0.0) + amount

    def longest(self) -> float:
        return max(self.per_thread.values(), default=0.0)


@dataclass
class SectionRun:
    """Result of emulating/executing one top-level parallel section."""

    name: str
    gross_cycles: float
    traversal_overhead: float
    preemptions: int
    steals: int
    #: Per-run lock stats from this section's (fresh) kernel: total and
    #: contended acquisitions.  Deterministic given the replay inputs, so
    #: the memo-parity invariant covers them too.
    lock_acquires: int = 0
    lock_contended: int = 0

    @property
    def net_cycles(self) -> float:
        """Gross time minus the longest per-worker traversal overhead
        (Fig. 8 line 26); equals gross for REAL replays."""
        return max(0.0, self.gross_cycles - self.traversal_overhead)


@dataclass
class ReplayResult:
    """Whole-program replay outcome."""

    total_cycles: float
    serial_cycles: float
    sections: list[SectionRun] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        if self.total_cycles <= 0:
            return 1.0
        return self.serial_cycles / self.total_cycles

    @property
    def lock_acquires(self) -> int:
        """Total lock acquisitions across all replayed sections."""
        return sum(run.lock_acquires for run in self.sections)

    @property
    def lock_contended(self) -> int:
        """Total contended lock acquisitions across all replayed sections."""
        return sum(run.lock_contended for run in self.sections)


class ParallelExecutor:
    """Replays program trees through the simulated runtimes.

    Parameters
    ----------
    machine:
        Target machine (``n_cores`` bounds real concurrency; thread counts
        above it oversubscribe, as on real hardware).
    paradigm:
        ``"omp"`` (fork/join teams; nested sections spawn nested *physical*
        teams — OpenMP 2.0's weakness on recursion), ``"cilk"`` (one
        work-stealing pool; nested sections become nested ``cilk_for``
        ranges), or ``"omp_task"`` (OpenMP 3.0 tasking: one team draining a
        shared task queue; nested sections become task groups).
    schedule:
        OpenMP worksharing-loop schedule; ignored by both task-pool
        paradigms (``"cilk"``, ``"omp_task"``) and by pipeline sections.
    overheads:
        Runtime overhead constants, shared with the FF emulator.
    handoff, handoff_seed:
        Lock handoff policy forwarded to every kernel (``fifo`` — the
        byte-identical default — ``lifo``, ``random``/``seeded-random``,
        ``adversarial``; see :mod:`repro.simos.sync`).  ``handoff_seed``
        seeds the ``random`` policy's draw stream; the pair is part of the
        section-memo key, so explored replays never cross-contaminate.
    """

    def __init__(
        self,
        machine: MachineConfig,
        paradigm: str = "omp",
        schedule: Schedule = Schedule.static(),
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
        tracer=None,
        handoff: str = "fifo",
        handoff_seed: int = 0,
    ) -> None:
        if paradigm not in ("omp", "cilk", "omp_task"):
            raise EmulationError(f"unknown paradigm {paradigm!r}")
        self.machine = machine
        self.paradigm = paradigm
        self.schedule = schedule
        self.overheads = overheads
        self.handoff = normalize_handoff(handoff)
        # Only the random policy consumes the seed; normalising it to 0 for
        # the others keeps their memo keys shared across callers.
        self.handoff_seed = handoff_seed if self.handoff == "random" else 0
        #: Tracer handed to every kernel this executor constructs; the
        #: executor advances ``obs.offset`` between top-level sections so
        #: all per-section kernel runs land on one program-wide timeline.
        self.obs = tracer if tracer is not None else get_tracer()
        #: Runtime invariant checker (``repro.validate``): while enabled, a
        #: deterministic sample of section-memo hits is re-verified against
        #: an exact uncached replay.
        self.inv = get_checker()
        #: The sections this executor has lowered (:mod:`repro.core.lower`),
        #: so every replay and repeat of a section reads one lowering; the
        #: columnar engine hands its delegated replays its own cache.
        self.lowered: dict = {}

    def _make_kernel(self) -> SimKernel:
        return SimKernel(
            self.machine,
            tracer=self.obs,
            handoff=self.handoff,
            handoff_seed=self.handoff_seed,
        )

    def _bridge_kernel_metrics(self, kernel: SimKernel) -> None:
        """Fold one finished kernel run's counters into the process-wide
        metrics registry.  The DRAM memo hit/miss counters are read here
        (once per section) instead of incrementing the registry inside the
        per-timeslice solve path, keeping the hot loop free of dict lookups.
        """
        m = get_metrics()
        m.inc("replay.sections")
        if kernel.preemptions:
            m.inc("sim.preemptions", kernel.preemptions)
        if kernel.lock_contended:
            m.inc("sim.lock.contended", kernel.lock_contended)
        stats = kernel.dram_cache_stats()
        if stats["hits"]:
            m.inc("dram.solve.hits", stats["hits"])
        if stats["misses"]:
            m.inc("dram.solve.misses", stats["misses"])

    # ----------------------------------------------------------------- API

    def execute_profile(
        self,
        tree: ProgramTree,
        n_threads: int,
        mode: ReplayMode = ReplayMode.REAL,
        burdens: Optional[Mapping[str, float]] = None,
    ) -> ReplayResult:
        """Replay a whole program: top-level sections are executed through
        the parallel runtime, top-level serial nodes pass through unchanged.

        ``burdens`` maps top-level section names to β factors; only FAKE
        replays consume them (REAL replays develop contention naturally).
        """
        burdens = burdens or {}
        total = 0.0
        sections: list[SectionRun] = []
        traced = self.obs.enabled
        # Sim-time origin of this program on the shared trace timeline.
        # Each per-section kernel starts its local clock at zero; advancing
        # ``obs.offset`` to the program-relative start of the section before
        # constructing its kernel stitches the runs end to end.
        origin = self.obs.offset
        try:
            for item in self._group_chains(tree.root.children):
                self.obs.offset = origin + total
                t0 = total
                if isinstance(item, Node):
                    if item.kind is NodeKind.U:
                        total += item.length * item.repeat
                        continue
                    beta = (
                        burdens.get(item.name, 1.0)
                        if mode is ReplayMode.FAKE
                        else 1.0
                    )
                    if traced:
                        # The exported timeline must show every repeat, so
                        # re-run the section per repeat with one span each
                        # (execute_section bypasses the memo while tracing).
                        # The runs are identical; ``total`` still adds
                        # ``net * repeat``, as untraced, so the answer
                        # does not depend on tracing.
                        pos = total
                        for _ in range(item.repeat):
                            self.obs.offset = origin + pos
                            run = self.execute_section(
                                item, n_threads, mode, burden=beta
                            )
                            sections.append(run)
                            self.obs.span(
                                run.name,
                                ts=origin + pos,
                                dur=run.net_cycles,
                                track="sections",
                                cat="replay",
                                args={
                                    "mode": mode.value,
                                    "preemptions": run.preemptions,
                                },
                            )
                            pos += run.net_cycles
                    else:
                        run = self.execute_section(
                            item, n_threads, mode, burden=beta
                        )
                        sections.extend([run] * item.repeat)
                    total += run.net_cycles * item.repeat
                else:
                    # A nowait chain: one team runs the loops back to back.
                    run = self.execute_chain(item, n_threads, mode, burdens)
                    sections.append(run)
                    total += run.net_cycles
                    if traced:
                        self.obs.span(
                            run.name,
                            ts=origin + t0,
                            dur=total - t0,
                            track="sections",
                            cat="replay",
                            args={
                                "mode": mode.value,
                                "preemptions": run.preemptions,
                            },
                        )
        finally:
            self.obs.offset = origin
        return ReplayResult(
            total_cycles=total,
            serial_cycles=tree.serial_cycles(),
            sections=sections,
        )

    def _group_chains(self, children: list[Node]) -> list:
        """Group ``nowait`` chains for the OpenMP paradigm; the task-pool
        paradigms keep per-section execution with implicit barriers."""
        if self.paradigm != "omp":
            return list(children)
        return group_nowait_chains(children)

    def execute_chain(
        self,
        secs: list[Node],
        n_threads: int,
        mode: ReplayMode = ReplayMode.REAL,
        burdens: Optional[Mapping[str, float]] = None,
    ) -> SectionRun:
        """Execute a nowait chain of sections as one OpenMP parallel region
        with several worksharing loops (PAR_SEC_END(nowait) semantics)."""
        burdens = burdens or {}
        kernel = self._make_kernel()
        locks: dict[int, SimMutex] = {}
        ohmgr = _OverheadManager()
        omp = OmpRuntime(kernel, self.overheads)

        loops = []
        for sec in secs:
            beta = burdens.get(sec.name, 1.0) if mode is ReplayMode.FAKE else 1.0
            bodies = self._bodies(sec, mode, beta, omp, n_threads, locks, ohmgr)
            loops.append((bodies, self.schedule, sec.nowait))

        def master() -> Generator[Any, Any, None]:
            yield from omp.parallel_loops(loops, n_threads=n_threads)

        kernel.spawn(master(), name="replay-master")
        gross = kernel.run()
        self._bridge_kernel_metrics(kernel)
        return SectionRun(
            name="+".join(sec.name for sec in secs),
            gross_cycles=gross,
            traversal_overhead=ohmgr.longest() if mode is ReplayMode.FAKE else 0.0,
            preemptions=kernel.preemptions,
            steals=0,
            lock_acquires=kernel.lock_acquires,
            lock_contended=kernel.lock_contended,
        )

    def execute_section(
        self,
        sec: Node,
        n_threads: int,
        mode: ReplayMode = ReplayMode.REAL,
        burden: float = 1.0,
    ) -> SectionRun:
        """Execute one top-level parallel section on a fresh kernel.

        Matches the paper's ``EmulTopLevelParSec``: sets the worker count,
        measures gross elapsed cycles, and (FAKE mode) subtracts the longest
        per-worker traversal overhead.  Identical (section, config) pairs
        are served from the process-wide section memo unless tracing is
        enabled (a memo hit would silence the kernel's timeline events).
        """
        if sec.kind is not NodeKind.SEC:
            raise EmulationError(f"execute_section needs a SEC node, got {sec.kind}")
        memo_key = None
        if not self.obs.enabled:
            memo_key = (
                self.machine,
                self.overheads,
                self.paradigm,
                self.schedule,
                mode.value,
                n_threads,
                float(f"{burden:.12g}"),
                # Policy + seed keep explored replays sound: a lifo or
                # seeded-random run must never answer for the fifo point.
                self.handoff,
                self.handoff_seed,
                sec.fingerprint(),
            )
            run = _SECTION_MEMO.get(memo_key)
            m = get_metrics()
            if run is not None:
                m.inc("replay.section_memo.hits")
                m.inc("replay.sections")
                if self.inv.enabled and self.inv.sample_memo_hit():
                    fresh = self._execute_section_uncached(
                        sec, n_threads, mode, burden
                    )
                    self.inv.check_memo_parity(
                        run,
                        fresh,
                        where=f"{self.paradigm}/{self.schedule.label}"
                        f"/t={n_threads}/{sec.name}",
                    )
                return run
            m.inc("replay.section_memo.misses")
        run = self._execute_section_uncached(sec, n_threads, mode, burden)
        if memo_key is not None:
            _SECTION_MEMO.put(memo_key, run)
        return run

    def _execute_section_uncached(
        self,
        sec: Node,
        n_threads: int,
        mode: ReplayMode,
        burden: float,
    ) -> SectionRun:
        kernel = self._make_kernel()
        locks: dict[int, SimMutex] = {}
        ohmgr = _OverheadManager()
        pool = None

        if sec.pipeline:
            from repro.core.pipeline import replay_pipeline_section

            def master() -> Generator[Any, Any, None]:
                yield from replay_pipeline_section(
                    kernel,
                    sec,
                    n_threads,
                    self.machine,
                    real=mode is ReplayMode.REAL,
                    burden=burden,
                    overheads=self.overheads,
                    locks=locks,
                )

        elif self.paradigm == "omp":
            omp = OmpRuntime(kernel, self.overheads)
            bodies = self._bodies(sec, mode, burden, omp, n_threads, locks, ohmgr)

            def master() -> Generator[Any, Any, None]:
                yield from omp.parallel_for(
                    bodies, n_threads=n_threads, schedule=self.schedule
                )

        else:
            pool_cls = CilkPool if self.paradigm == "cilk" else OmpTaskPool
            pool = pool_cls(kernel, n_threads, self.overheads)
            bodies = self._bodies(sec, mode, burden, pool, n_threads, locks, ohmgr)

            def master() -> Generator[Any, Any, None]:
                yield from pool.run(lambda ctx: pool.loop(ctx, bodies))

        kernel.spawn(master(), name="replay-master")
        gross = kernel.run()
        self._bridge_kernel_metrics(kernel)
        return SectionRun(
            name=sec.name,
            gross_cycles=gross,
            traversal_overhead=ohmgr.longest() if mode is ReplayMode.FAKE else 0.0,
            preemptions=kernel.preemptions,
            steals=pool.steals if pool is not None else 0,
            lock_acquires=kernel.lock_acquires,
            lock_contended=kernel.lock_contended,
        )

    # --------------------------------------------------------------- bodies

    def _bodies(
        self,
        sec: Node,
        mode: ReplayMode,
        burden: float,
        runtime: Any,
        n_threads: int,
        locks: dict[int, SimMutex],
        ohmgr: _OverheadManager,
    ) -> list[Callable[..., Generator[Any, Any, None]]]:
        """Loop bodies of ``sec``, one per iteration (a task repeated ``r``
        times gives ``r`` references to one body), over its lowering for
        ``mode`` under ``runtime``: an :class:`OmpRuntime` team of
        ``n_threads`` or a task pool.

        A body takes the executing task-pool context, or nothing under an
        OpenMP team.  Each op of the lowering maps here, once per replay,
        to the request a body run yields: a lock op to an ``Acquire`` or
        ``Release`` of this replay's mutex of the lock id (``locks``,
        shared across a nowait chain), a traversal visit to its segment,
        which first charges the running thread's overhead, and a fork to
        the nested section's bodies, run from that context: a nested
        OpenMP team of ``n_threads``, a nested ``cilk_for`` or an OpenMP
        task group.
        """
        team = isinstance(runtime, OmpRuntime)
        if team:

            def nested(ctx, sub: list) -> Generator[Any, Any, None]:
                return runtime.parallel_for(
                    sub, n_threads=n_threads, schedule=self.schedule
                )

        else:
            nested = runtime.loop
        low = lower(
            self.lowered, sec, self.machine, self.overheads,
            burden if mode is ReplayMode.FAKE else None, team,
        )
        acquire: list[Acquire] = []
        release: list[Release] = []
        for lock_id in low.lock_ids:
            mutex = locks.get(lock_id)
            if mutex is None:
                mutex = locks[lock_id] = SimMutex(f"lock{lock_id}")
            acquire.append(Acquire(mutex))
            release.append(Release(mutex))
        current = GetCurrentThread()
        built: dict[int, list] = {}

        def bodies(sub: Section) -> list:
            got = built.get(id(sub))
            if got is None:
                got = built[id(sub)] = []
                for i, task in enumerate(sub.node.children):
                    got += [body(sub.requests(i))] * task.repeat
            return got

        def body(ops: list) -> Callable[..., Generator[Any, Any, None]]:
            reqs = []
            for op in ops:
                cls = op.__class__
                if cls is int:
                    op = acquire[op] if op >= 0 else release[~op]
                elif cls is float:
                    op = (op, Compute(cycles=op))
                elif cls is Section:
                    op = bodies(op)
                reqs.append(op)

            def run(ctx=None) -> Generator[Any, Any, None]:
                for req in reqs:
                    cls = req.__class__
                    if cls is tuple:  # a traversal visit
                        me = yield current
                        ohmgr.add(me.tid, req[0])
                        yield req[1]
                    elif cls is list:
                        # Nested parallelism from the context running this
                        # body: OpenMP forks a nested physical team; the
                        # task pools schedule the group on their workers
                        # (why they shine on Fig. 1(b) patterns).
                        yield from nested(ctx, req)
                    else:
                        yield req

            return run

        return bodies(low)
