"""The fast-forwarding emulator (paper Section IV-C, Figs. 5-7).

The FF predicts parallel execution time *analytically*: it traverses the
program tree, tracking per-CPU availability and fast-forwarding a pseudo
clock with a priority heap that "serializes and prioritizes competing tasks".
It models:

- OpenMP loop schedules (``static``, ``static,c``, ``dynamic,c``) with the
  same chunk-assignment semantics as the simulated runtime;
- parallel overheads (region fork/join, chunk dispatch, lock entry/exit)
  using the same :class:`~repro.runtime.overhead.RuntimeOverheads` constants
  the simulated runtime pays;
- critical sections via per-lock availability times (greedy heap-order
  serialization);
- nested sections via a *separate scheduling context*: nested task *j* is
  mapped round-robin to CPU ``(parent_cpu + j) mod t`` **non-preemptively**
  and a whole U/L node is assigned to a logical processor at once.

That last rule is deliberately naive: it reproduces the paper's Section IV-D
finding that the FF (like Suitability) cannot model OS preemption and
oversubscription, mispredicting the Fig. 7 two-level nested loop as 1.5×
where the real (and synthesizer-predicted) speedup is 2.0×.

Burden factors multiply every terminal node length in the section (Fig. 4).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Mapping, Optional

from repro.core.tree import Node, NodeKind, ProgramTree
from repro.errors import EmulationError
from repro.obs import get_metrics, get_tracer
from repro.runtime.overhead import DEFAULT_OVERHEADS, RuntimeOverheads
from repro.runtime.tasks import Schedule
from repro.validate.invariants import get_checker


@dataclass
class FFSectionResult:
    """Predicted timing of one top-level section (all activations)."""

    name: str
    parallel_cycles: float
    serial_cycles: float

    @property
    def speedup(self) -> float:
        if self.parallel_cycles <= 0:
            return 1.0
        return self.serial_cycles / self.parallel_cycles


class _SectionInstance:
    """One dynamic activation of a SEC node during emulation."""

    __slots__ = ("sec", "pending", "end_time", "parent", "reps_left", "burden", "on_complete")

    def __init__(
        self,
        sec: Node,
        pending: int,
        parent: Optional["_Walker"],
        reps_left: int,
        burden: float = 1.0,
    ) -> None:
        self.sec = sec
        self.pending = pending
        self.end_time = 0.0
        self.parent = parent
        #: Further sequential activations of this (compressed) SEC node.
        self.reps_left = reps_left
        #: Burden factor applied to terminal nodes of this activation.
        self.burden = burden
        #: Callback fired when the activation completes (nowait chains).
        self.on_complete = None


class _Walker:
    """Executes a run of logical tasks sequentially on one CPU."""

    __slots__ = ("instance", "cpu", "time", "tasks", "task_idx", "node_idx")

    def __init__(
        self, instance: _SectionInstance, cpu: int, time: float, tasks: list[Node]
    ) -> None:
        self.instance = instance
        self.cpu = cpu
        self.time = time
        self.tasks = tasks
        self.task_idx = 0
        self.node_idx = 0


class FastForwardEmulator:
    """Analytical speedup prediction over an abstract t-CPU machine."""

    def __init__(
        self,
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
        max_steps: int = 50_000_000,
        tracer=None,
    ) -> None:
        self.overheads = overheads
        self.max_steps = max_steps
        #: Structured event tracer (defaults to the process-global one).
        self.obs = tracer if tracer is not None else get_tracer()
        #: Runtime invariant checker: per-section FF speedups are bounded
        #: by the abstract machine's CPU count while enabled.
        self.inv = get_checker()
        #: Tree-node visits performed by the last emulate_profile call — the
        #: FF's dominant cost (the paper reports 30×+ slowdowns on FFT from
        #: exactly this traversal plus heap pressure).  Instances are shared
        #: across grid points, so this is a *per-emulation* scratch counter
        #: that :meth:`emulate_profile` resets on entry; the cumulative total
        #: lives on the metrics registry (``ff.nodes_visited``).
        self.nodes_visited = 0

    # ----------------------------------------------------------------- API

    def reset_counters(self) -> None:
        """Zero the per-emulation ``nodes_visited`` counter.  Called
        automatically by :meth:`emulate_profile`; callers driving
        :meth:`emulate_section` directly should call it between logical
        runs so counts never leak across workloads."""
        self.nodes_visited = 0

    def emulate_profile(
        self,
        tree: ProgramTree,
        n_threads: int,
        schedule: Schedule,
        burdens: Optional[Mapping[str, float]] = None,
    ) -> tuple[float, list[FFSectionResult]]:
        """Predicted whole-program parallel time plus per-section results."""
        burdens = burdens or {}
        self.reset_counters()
        total = 0.0
        results: list[FFSectionResult] = []
        # Emulation is deterministic: dictionary-shared section nodes give
        # identical results, so memoise per (node object, burden).
        cache: dict[tuple[int, float], float] = {}
        from repro.core.tree import group_nowait_chains

        traced = self.obs.enabled
        for item in group_nowait_chains(tree.root.children):
            t0 = total
            if isinstance(item, list):
                cycles = self.emulate_chain(
                    item, n_threads, schedule, burdens, cache=cache
                )
                total += cycles
                results.append(
                    FFSectionResult(
                        name="+".join(s.name for s in item),
                        parallel_cycles=cycles,
                        serial_cycles=sum(s.subtree_length() for s in item),
                    )
                )
            elif item.kind is NodeKind.U:
                total += item.length * item.repeat
                continue
            elif item.kind is NodeKind.SEC:
                beta = burdens.get(item.name, 1.0)
                cycles = cache.get((id(item), beta))
                if cycles is None:
                    cycles = self.emulate_section(item, n_threads, schedule, beta)
                    cache[(id(item), beta)] = cycles
                total += cycles * item.repeat
                results.append(
                    FFSectionResult(
                        name=item.name,
                        parallel_cycles=cycles * item.repeat,
                        serial_cycles=item.subtree_length(),
                    )
                )
            else:  # pragma: no cover - validated trees
                raise EmulationError(f"unexpected top-level node {item!r}")
            if self.inv.enabled:
                # The abstract machine has exactly n_threads CPUs, so no
                # section may beat them (float noise aside).
                self.inv.check_speedup(
                    "ff",
                    results[-1].speedup,
                    n_threads,
                    n_threads,
                    nested=False,
                    where=f"ff:{results[-1].name}",
                )
            if traced:
                # One span per top-level section on the predicted timeline.
                self.obs.span(
                    results[-1].name,
                    ts=t0,
                    dur=total - t0,
                    track="ff",
                    cat="ff",
                    args={
                        "threads": n_threads,
                        "schedule": schedule.label,
                    },
                )
        get_metrics().inc("ff.emulations")
        get_metrics().inc("ff.nodes_visited", self.nodes_visited)
        return total, results

    def emulate_section(
        self,
        sec: Node,
        n_threads: int,
        schedule: Schedule,
        burden: float = 1.0,
    ) -> float:
        """Predicted parallel cycles for one activation of ``sec``."""
        if sec.kind is not NodeKind.SEC:
            raise EmulationError(f"emulate_section needs a SEC node, got {sec.kind}")
        if n_threads < 1:
            raise EmulationError(f"n_threads must be >= 1, got {n_threads}")
        if sec.pipeline:
            from repro.core.pipeline import ff_pipeline_cycles

            return ff_pipeline_cycles(
                sec, n_threads, burden=burden, overheads=self.overheads
            )
        engine = _Engine(self, n_threads, schedule, burden)
        end = engine.run(sec)
        self.nodes_visited += engine.nodes_visited
        return end

    def emulate_chain(
        self,
        secs: list[Node],
        n_threads: int,
        schedule: Schedule,
        burdens: Optional[Mapping[str, float]] = None,
        cache: Optional[dict[tuple[int, float], float]] = None,
    ) -> float:
        """Predicted cycles for a ``nowait`` chain of top-level sections
        executed by one team (PAR_SEC_END(nowait) semantics, Table II).

        Supported analytically for the static schedule family, where each
        thread's chunk sequence across loops is known up front.  For
        dynamic/guided the FF falls back to barrier semantics — one of its
        documented approximations (the synthesizer handles those exactly).
        On that fallback path, ``cache`` (keyed ``(id(sec), burden)``) lets
        dictionary-shared section nodes inside the chain reuse earlier
        emulations instead of re-running them.
        """
        burdens = burdens or {}
        betas = [burdens.get(s.name, 1.0) for s in secs]
        if schedule.is_dynamic_family:
            total = 0.0
            for s, b in zip(secs, betas):
                key = (id(s), b)
                cycles = cache.get(key) if cache is not None else None
                if cycles is None:
                    cycles = self.emulate_section(s, n_threads, schedule, b)
                    if cache is not None:
                        cache[key] = cycles
                total += cycles
            return total
        engine = _Engine(self, n_threads, schedule, 1.0)
        end = engine.run_chain(secs, betas)
        self.nodes_visited += engine.nodes_visited
        return end


class _Engine:
    """One emulation run: t CPUs, per-lock availability, walker heap."""

    def __init__(
        self,
        emu: FastForwardEmulator,
        n_threads: int,
        schedule: Schedule,
        burden: float,
    ) -> None:
        self.oh = emu.overheads
        self.max_steps = emu.max_steps
        self.t = n_threads
        self.schedule = schedule
        #: Cycles of one chunk dispatch under ``schedule``.
        self.dispatch = self.oh.dispatch_cost(schedule)
        self.burden = burden
        self.cpu_free = [0.0] * n_threads
        self.cpu_busy = [False] * n_threads
        #: FIFO of work entries per CPU: ("chunk", ready, tasks, instance)
        #: for fresh task chunks, ("walker", ready, walker) for suspended
        #: parent continuations resuming after a nested section.
        self.queues: list[Deque[tuple]] = [deque() for _ in range(n_threads)]
        self.heap: list[tuple[float, int, _Walker]] = []
        self._seq = 0
        self.nodes_visited = 0
        self.lock_free: dict[int, float] = {}
        #: Dynamic-schedule chunk cursor for the top-level section.
        self.top_chunks: Deque[list[Node]] = deque()
        self.top_instance: Optional[_SectionInstance] = None

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _expand_tasks(sec: Node) -> list[Node]:
        tasks: list[Node] = []
        for task in sec.children:
            tasks.extend([task] * task.repeat)
        return tasks

    def _push(self, walker: _Walker) -> None:
        self._seq += 1
        self.cpu_busy[walker.cpu] = True
        heapq.heappush(self.heap, (walker.time, self._seq, walker))

    # -- main loop --------------------------------------------------------------

    def run(self, sec: Node) -> float:
        start = self.oh.fork_cost(self.t)
        tasks = self._expand_tasks(sec)
        instance = _SectionInstance(
            sec, pending=len(tasks), parent=None, reps_left=0, burden=self.burden
        )
        instance.end_time = start
        self.top_instance = instance
        if not tasks:
            return start + self.oh.omp_join_barrier
        for cpu in range(self.t):
            self.cpu_free[cpu] = start

        if self.schedule.is_dynamic_family:
            self.top_chunks = deque(
                [tasks[i] for i in chunk]
                for chunk in self.schedule.chunks(len(tasks), self.t)
            )
        else:
            chunks = self.schedule.static_chunks(len(tasks), self.t)
            for cpu in range(self.t):
                # One queue entry per dispatch chunk so dispatch overheads
                # are charged at the same granularity as the runtime.
                for r in chunks[cpu]:
                    self.queues[cpu].append(
                        ("chunk", start, tasks[r.start : r.stop], instance)
                    )
        for cpu in range(self.t):
            self._cpu_pull(cpu, start)

        self._drain()

        if instance.pending > 0:  # pragma: no cover - defensive
            raise EmulationError("emulation ended with unfinished tasks")
        return instance.end_time + self.oh.omp_join_barrier

    def run_chain(self, secs: list[Node], burdens: list[float]) -> float:
        """Emulate a nowait chain: one team, several static worksharing
        loops.  A thread's chunks for loop *i+1* queue behind its loop-*i*
        chunks when loop *i* ends in ``nowait``; a non-nowait boundary
        releases the next loop only when the previous one fully completes."""
        start = self.oh.fork_cost(self.t)
        for cpu in range(self.t):
            self.cpu_free[cpu] = start

        instances: list[tuple[_SectionInstance, list[Node]]] = []
        for sec, beta in zip(secs, burdens):
            tasks = self._expand_tasks(sec)
            inst = _SectionInstance(
                sec, pending=len(tasks), parent=None, reps_left=0, burden=beta
            )
            inst.end_time = start
            instances.append((inst, tasks))
        self.top_instance = instances[0][0]

        def enqueue_run(idx: int, ready: float) -> None:
            # Release loop idx and every successor joined by nowait.
            j = idx
            while j < len(instances):
                inst, tasks = instances[j]
                if not tasks:
                    inst.end_time = max(inst.end_time, ready)
                    inst.pending = 0
                else:
                    chunks = self.schedule.static_chunks(len(tasks), self.t)
                    for cpu in range(self.t):
                        for r in chunks[cpu]:
                            self.queues[cpu].append(
                                ("chunk", ready, tasks[r.start : r.stop], inst)
                            )
                if not secs[j].nowait or j + 1 >= len(instances):
                    break
                j += 1
            for cpu in range(self.t):
                self._cpu_pull(cpu, self.cpu_free[cpu])

        # Wire barrier boundaries: when loop i (non-nowait) completes, the
        # next run of loops is released at its end + barrier cost.
        for i in range(len(instances) - 1):
            if not secs[i].nowait:
                inst = instances[i][0]

                def release(end_time: float, nxt: int = i + 1) -> None:
                    enqueue_run(nxt, end_time + self.oh.omp_join_barrier)

                inst.on_complete = release

        enqueue_run(0, start)

        self._drain()

        for inst, _tasks in instances:
            if inst.pending > 0:  # pragma: no cover - defensive
                raise EmulationError("chain emulation ended with unfinished tasks")
        end = max(inst.end_time for inst, _ in instances)
        return end + self.oh.omp_join_barrier

    def _drain(self) -> None:
        """Advance walkers in heap order until none is left, at most
        ``max_steps`` pops."""
        steps = 0
        while self.heap:
            steps += 1
            if steps > self.max_steps:
                raise EmulationError(
                    f"fast-forward emulation exceeded {self.max_steps} steps"
                )
            _, _, walker = heapq.heappop(self.heap)
            self._advance(walker)

    def _cpu_pull(self, cpu: int, now: float) -> None:
        """If the CPU is idle, start its next queued work or grab a chunk."""
        if self.cpu_busy[cpu]:
            return
        q = self.queues[cpu]
        if q:
            entry = q.popleft()
            if entry[0] == "walker":
                _, ready, walker = entry
                # A parent continuation resumes with no dispatch cost (it
                # never left its thread; it only waited for its children).
                walker.time = max(now, ready, self.cpu_free[cpu])
                self._push(walker)
            else:
                _, ready, chunk_tasks, owner = entry
                t0 = max(now, ready, self.cpu_free[cpu]) + self.dispatch
                self._push(_Walker(owner, cpu, t0, chunk_tasks))
            return
        if self.top_chunks:
            chunk_tasks = self.top_chunks.popleft()
            t0 = max(now, self.cpu_free[cpu]) + self.dispatch
            assert self.top_instance is not None
            self._push(_Walker(self.top_instance, cpu, t0, chunk_tasks))

    # -- walker stepping ------------------------------------------------------------

    def _advance(self, walker: _Walker) -> None:
        """Process nodes until the walker suspends (nested section), crosses
        a node boundary (re-heaped so competing walkers interleave in global
        time order — the paper's priority-heap behaviour), or finishes."""
        while True:
            if walker.task_idx >= len(walker.tasks):
                self._finish_chunk(walker)
                return
            task = walker.tasks[walker.task_idx]
            if walker.node_idx >= len(task.children):
                walker.task_idx += 1
                walker.node_idx = 0
                continue
            node = task.children[walker.node_idx]
            walker.node_idx += 1
            self.nodes_visited += 1

            if node.kind is NodeKind.U:
                walker.time += (
                    node.length * walker.instance.burden * node.repeat
                )
                self._push(walker)
                return
            if node.kind is NodeKind.L:
                assert node.lock_id is not None
                free = self.lock_free.get(node.lock_id, 0.0)
                start = max(walker.time, free) + self.oh.omp_lock_acquire
                end = (
                    start
                    + node.length * walker.instance.burden * node.repeat
                    + self.oh.omp_lock_release
                )
                self.lock_free[node.lock_id] = end
                walker.time = end
                self._push(walker)
                return
            if node.kind is NodeKind.SEC:
                if node.pipeline:
                    # Nested pipelines are emulated analytically in place
                    # (their internal recurrence has no CPU interplay with
                    # the surrounding section in the FF's abstract machine).
                    from repro.core.pipeline import ff_pipeline_cycles

                    walker.time += node.repeat * ff_pipeline_cycles(
                        node, self.t, burden=walker.instance.burden,
                        overheads=self.oh,
                    )
                    self._push(walker)
                    return
                self._launch_activation(walker, node, reps_left=node.repeat)
                return
            raise EmulationError(f"bad node inside task: {node!r}")

    def _launch_activation(self, walker: _Walker, sec: Node, reps_left: int) -> None:
        """Start one activation of a nested section; the parent suspends.

        Nested task *j* is pinned to CPU ``(parent_cpu + j) mod t`` —
        whole-node, non-preemptive, availability-blind: the naive mapping
        the paper identifies as the root of the Fig. 7 misprediction.
        """
        tasks = self._expand_tasks(sec)
        walker.time += self.oh.fork_cost(self.t)
        if not tasks:
            walker.time += reps_left * self.oh.omp_join_barrier
            self._push(walker)
            return
        instance = _SectionInstance(
            sec,
            pending=len(tasks),
            parent=walker,
            reps_left=reps_left - 1,
            burden=walker.instance.burden,
        )
        instance.end_time = walker.time
        # Parent yields its CPU while the nested section runs.
        self.cpu_free[walker.cpu] = max(self.cpu_free[walker.cpu], walker.time)
        self.cpu_busy[walker.cpu] = False
        for j, task in enumerate(tasks):
            cpu = (walker.cpu + j) % self.t
            self.queues[cpu].append(("chunk", walker.time, [task], instance))
        for cpu in range(self.t):
            self._cpu_pull(cpu, self.cpu_free[cpu])

    def _finish_chunk(self, walker: _Walker) -> None:
        instance = walker.instance
        cpu = walker.cpu
        self.cpu_free[cpu] = max(self.cpu_free[cpu], walker.time)
        self.cpu_busy[cpu] = False
        instance.end_time = max(instance.end_time, walker.time)
        instance.pending -= len(walker.tasks)
        if instance.pending <= 0 and instance.on_complete is not None:
            callback, instance.on_complete = instance.on_complete, None
            callback(instance.end_time)
        if instance.pending <= 0 and instance.parent is not None:
            parent = instance.parent
            ready = instance.end_time + self.oh.omp_join_barrier
            if instance.reps_left > 0:
                # Sequential re-activation of a compressed repeated section;
                # launching only enqueues children, so no CPU occupancy.
                parent.time = max(ready, self.cpu_free[parent.cpu])
                self._launch_activation(parent, instance.sec, instance.reps_left)
            else:
                # The parent continuation must queue behind any in-flight
                # work on its CPU (the abstract machine has exactly t CPUs;
                # jumping the queue would overlap execution and let
                # predicted speedups exceed t).
                self.queues[parent.cpu].append(("walker", ready, parent))
                self._cpu_pull(parent.cpu, self.cpu_free[parent.cpu])
        self._cpu_pull(cpu, self.cpu_free[cpu])
