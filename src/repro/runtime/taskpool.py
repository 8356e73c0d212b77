"""Task-pool runtimes on the simulated OS: Cilk Plus and OpenMP 3.0 tasks.

Paper Section III: "a naive implementation by OpenMP's nested parallelism
mostly yields poor speedups in these patterns because of too many spawned
physical threads.  For such recursive parallelism, TBB, Cilk Plus, and
OpenMP 3.0's task are much more effective."  Both runtimes run on one
machine, :class:`TaskPool`: ``n_workers`` simulated threads (the driving
thread is worker 0) executing task frames with these semantics:

- ``spawn`` enqueues a child task and returns its handle;
- ``sync`` does not block while useful work exists: the waiting worker runs
  queued tasks until the awaited children finish (help-first, as untied
  tasks allow), parking on the pool event only when the pool is dry;
- every task has an implicit sync before it completes, as in Cilk (and as
  OpenMP's implicit taskwait and end-of-region barrier guarantee).

The two pools differ only in queue discipline, costs and loop construct:

- :class:`CilkPool` — child stealing, as in Cilk Plus and TBB.  Each worker
  has a deque; an idle worker pops its own bottom (LIFO, depth first) or
  steals the top of a victim's deque (FIFO, the oldest and largest piece),
  scanning victims round-robin for determinism.  ``loop`` is ``cilk_for``'s
  recursive binary splitting down to a grain (default ``ceil(n / (8·P))``),
  so load balance emerges from stealing (paper Fig. 1(b)).
- :class:`OmpTaskPool` — libgomp's tasking model: one team-wide FIFO queue
  whose every dequeue pays a dispatch cost (OpenMP's classic contention
  point); the team pays the fork before the run and the join barrier after
  it.  ``loop`` is a taskloop: one task per body, then a taskwait.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Generator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.runtime.overhead import DEFAULT_OVERHEADS, RuntimeOverheads
from repro.simos import (
    Compute,
    EventClear,
    EventSet,
    EventWait,
    Join,
    SimEvent,
    SimKernel,
    Spawn,
)

#: A pool task body: takes the executing context, yields sim-OS requests.
PoolBody = Callable[["TaskContext"], Generator[Any, Any, Any]]


class Task:
    """A spawned task frame."""

    __slots__ = ("factory", "parent", "pending_children", "waiting", "done")

    def __init__(self, factory: PoolBody, parent: Optional["Task"]) -> None:
        self.factory = factory
        self.parent = parent
        self.pending_children = 0
        #: True while the owning worker is parked in this task's sync.
        self.waiting = False
        self.done = False


class TaskContext:
    """Execution context handed to a running task body."""

    __slots__ = ("pool", "wid", "task")

    def __init__(self, pool: "TaskPool", wid: int, task: Task) -> None:
        self.pool = pool
        self.wid = wid
        self.task = task

    def spawn(self, factory: PoolBody) -> Generator[Any, Any, Task]:
        """``cilk_spawn`` / ``#pragma omp task``: enqueue a child task;
        returns its handle."""
        pool = self.pool
        yield Compute(cycles=pool.spawn_cost)
        child = Task(factory, parent=self.task)
        self.task.pending_children += 1
        pool._push(self.wid, child)
        pool.spawns += 1
        if pool.work_event.waiters:
            yield from pool._notify()
        return child

    def sync(self) -> Generator[Any, Any, None]:
        """``cilk_sync`` / ``#pragma omp taskwait``: wait for this task's
        children, running queued tasks meanwhile."""
        yield from self.pool._sync_loop(self.wid, self.task)

    def call(self, factory: PoolBody) -> Generator[Any, Any, Any]:
        """A plain (non-spawned) call of a child body, as in line 12 of the
        paper's FFT example — runs inline on this worker."""
        child = Task(factory, parent=self.task)
        return self.pool._run_body(self.wid, child)


class TaskPool:
    """A pool of simulated workers running spawned tasks.

    Subclasses supply the queue discipline (``_push``/``_take``), the
    names, the spawn and worker-start costs (``spawn_cost``/``start_cost``)
    and ``loop``.
    """

    #: Worker ``i`` is the simulated thread ``f"{thread_prefix}{i}"``.
    thread_prefix: str
    #: Name of the event idle workers park on.
    event_name: str
    #: Cycles paid by ``spawn`` and by each extra worker at startup.
    spawn_cost: float
    start_cost: float

    def __init__(
        self,
        kernel: SimKernel,
        n_workers: int,
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        self.kernel = kernel
        self.n_workers = n_workers
        self.overheads = overheads
        self.work_event = SimEvent(self.event_name)
        self.stopping = False
        self.root: Optional[Task] = None
        #: Statistics.
        self.spawns = 0
        self.steals = 0
        self.tasks_run = 0

    # -- queue discipline -------------------------------------------------------

    def _push(self, wid: int, task: Task) -> None:
        """Enqueue ``task``, spawned by worker ``wid``."""
        raise NotImplementedError

    def _take(self, wid: int) -> Optional[tuple[Task, tuple[float, ...]]]:
        """The next task for worker ``wid`` with the cycles it pays before
        running it, or ``None`` when nothing is queued for it."""
        raise NotImplementedError

    def loop(
        self, ctx: TaskContext, bodies: Sequence[PoolBody]
    ) -> Generator[Any, Any, None]:
        """Run ``bodies`` in parallel from ``ctx``; returns once all ran.

        Each body receives the context of the worker that executes it, so
        nested spawns land where that worker enqueues."""
        raise NotImplementedError

    # -- public entry ------------------------------------------------------------

    def run(self, root_factory: PoolBody) -> Generator[Any, Any, None]:
        """Run ``root_factory`` to completion on this pool.

        Must be driven with ``yield from`` by a simulated thread, which
        becomes worker 0; ``n_workers − 1`` extra OS threads are spawned and
        joined before returning (one pool per estimate, matching the paper's
        per-section ``__cilkrts_set_param`` + measurement discipline).
        """
        self.stopping = False
        self.root = Task(root_factory, parent=None)
        self._push(0, self.root)
        workers = []
        for wid in range(1, self.n_workers):
            gen = self._worker_loop(wid)
            w = yield Spawn(gen, name=f"{self.thread_prefix}{wid}")
            workers.append(w)
        yield from self._master_loop()
        for w in workers:
            yield Join(w)
        self.root = None

    # -- worker machinery -----------------------------------------------------------

    def _notify(self) -> Generator[Any, Any, None]:
        yield EventSet(self.work_event, wake="all")
        yield EventClear(self.work_event)

    def _worker_loop(self, wid: int) -> Generator[Any, Any, None]:
        yield Compute(cycles=self.start_cost)
        while True:
            taken = self._take(wid)
            if taken is None:
                if self.stopping:
                    return
                yield EventWait(self.work_event)
                continue
            yield from self._execute(wid, *taken)

    def _master_loop(self) -> Generator[Any, Any, None]:
        root = self.root
        assert root is not None
        while not root.done:
            taken = self._take(0)
            if taken is None:
                yield EventWait(self.work_event)
                continue
            yield from self._execute(0, *taken)
        self.stopping = True
        yield from self._notify()

    def _execute(
        self, wid: int, task: Task, costs: tuple[float, ...]
    ) -> Generator[Any, Any, None]:
        for cycles in costs:
            yield Compute(cycles=cycles)
        yield from self._run_body(wid, task)

    def _run_body(self, wid: int, task: Task) -> Generator[Any, Any, Any]:
        self.tasks_run += 1
        ctx = TaskContext(self, wid, task)
        result = yield from task.factory(ctx)
        # Implicit sync: a task does not complete while its children run.
        if task.pending_children > 0:
            yield from self._sync_loop(wid, task)
        task.done = True
        parent = task.parent
        if parent is not None:
            parent.pending_children -= 1
            if parent.pending_children == 0 and parent.waiting:
                yield from self._notify()
        elif task is self.root:
            yield from self._notify()
        return result

    def _sync_loop(self, wid: int, task: Task) -> Generator[Any, Any, None]:
        while task.pending_children > 0:
            taken = self._take(wid)
            if taken is not None:
                yield from self._execute(wid, *taken)
                continue
            task.waiting = True
            yield EventWait(self.work_event)
            task.waiting = False


class CilkPool(TaskPool):
    """Cilk Plus-style work stealing over per-worker deques."""

    thread_prefix = "cilk-w"
    event_name = "cilk-work"

    def __init__(
        self,
        kernel: SimKernel,
        n_workers: int,
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
    ) -> None:
        super().__init__(kernel, n_workers, overheads)
        self.deques: list[deque[Task]] = [deque() for _ in range(n_workers)]
        self.spawn_cost = overheads.cilk_spawn
        self.start_cost = overheads.cilk_pool_start_per_worker
        self._own_costs = (overheads.cilk_task_run,)
        self._stolen_costs = (overheads.cilk_steal, overheads.cilk_task_run)

    def _push(self, wid: int, task: Task) -> None:
        self.deques[wid].append(task)

    def _take(self, wid: int) -> Optional[tuple[Task, tuple[float, ...]]]:
        """Pop own bottom, else steal a victim's top."""
        own = self.deques[wid]
        if own:
            return own.pop(), self._own_costs
        for offset in range(1, self.n_workers):
            victim = self.deques[(wid + offset) % self.n_workers]
            if victim:
                self.steals += 1
                return victim.popleft(), self._stolen_costs
        return None

    def loop(
        self,
        ctx: TaskContext,
        bodies: Sequence[PoolBody],
        grain: Optional[int] = None,
    ) -> Generator[Any, Any, None]:
        """``cilk_for`` over ``bodies`` with recursive binary splitting."""
        n = len(bodies)
        if n == 0:
            return
        if grain is None:
            grain = max(1, math.ceil(n / (8 * self.n_workers)))
        yield from self._for_range(ctx, bodies, 0, n, grain)

    def _for_range(
        self,
        ctx: TaskContext,
        bodies: Sequence[PoolBody],
        lo: int,
        hi: int,
        grain: int,
    ) -> Generator[Any, Any, None]:
        while hi - lo > grain:
            mid = (lo + hi) // 2
            upper = self._make_range_task(bodies, mid, hi, grain)
            yield from ctx.spawn(upper)
            hi = mid
        for i in range(lo, hi):
            yield from bodies[i](ctx)
        yield from ctx.sync()

    def _make_range_task(
        self, bodies: Sequence[PoolBody], lo: int, hi: int, grain: int
    ) -> PoolBody:
        def factory(cctx: TaskContext) -> Generator[Any, Any, None]:
            yield from self._for_range(cctx, bodies, lo, hi, grain)

        return factory


class OmpTaskPool(TaskPool):
    """An OpenMP team draining one shared FIFO task queue."""

    thread_prefix = "omp-task-w"
    event_name = "omp-task-work"

    def __init__(
        self,
        kernel: SimKernel,
        n_workers: int,
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
    ) -> None:
        super().__init__(kernel, n_workers, overheads)
        self.queue: deque[Task] = deque()
        self.spawn_cost = overheads.omp_task_create
        self.start_cost = overheads.omp_thread_start
        self._dispatch_costs = (overheads.omp_task_dispatch,)

    def run(self, root_factory: PoolBody) -> Generator[Any, Any, None]:
        """Fork the team, run ``root_factory`` on it, then pay the join
        barrier (driven with ``yield from``)."""
        oh = self.overheads
        yield Compute(cycles=oh.fork_cost(self.n_workers))
        yield from super().run(root_factory)
        yield Compute(cycles=oh.omp_join_barrier)

    def _push(self, wid: int, task: Task) -> None:
        self.queue.append(task)

    def _take(self, wid: int) -> Optional[tuple[Task, tuple[float, ...]]]:
        """Dequeue from the shared team queue (FIFO, like libgomp)."""
        if self.queue:
            return self.queue.popleft(), self._dispatch_costs
        return None

    def loop(
        self, ctx: TaskContext, bodies: Sequence[PoolBody]
    ) -> Generator[Any, Any, None]:
        """A taskloop: one task per body, then a taskwait."""
        for body in bodies:
            yield from ctx.spawn(body)
        yield from ctx.sync()
