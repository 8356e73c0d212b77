"""OpenMP 2.0-style fork/join runtime on the simulated OS.

One :class:`OmpRuntime` serves a kernel; each ``parallel_for`` call forks a
*team*: the calling thread becomes member 0 and ``n_threads − 1`` fresh OS
threads are spawned (paper-relevant detail: OpenMP nested parallelism spawns
*physical* threads, so nested regions oversubscribe the machine and rely on
the OS scheduler — the behaviour behind Figs. 1(b) and 7).

Scheduling follows libgomp semantics:

- ``static``: contiguous blocks, one per thread;
- ``static,c``: chunks of ``c`` dealt round-robin;
- ``dynamic,c``: chunks grabbed first-come-first-served from a shared
  counter, paying a higher per-chunk dispatch cost.

The implicit end-of-region barrier is a real simulated barrier.  A chain
of ``nowait`` loops runs in one region through ``parallel_loops``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.runtime.overhead import DEFAULT_OVERHEADS, RuntimeOverheads
from repro.runtime.tasks import Schedule, TaskBody
from repro.simos import (
    BarrierWait,
    Compute,
    Join,
    SimBarrier,
    SimKernel,
    Spawn,
)


class _DynamicState:
    """Shared chunk cursor for dynamic scheduling.

    The simulation kernel interleaves threads deterministically, so a plain
    counter is race-free; the *cost* of the real atomic fetch-add is modelled
    by ``omp_dynamic_dispatch``.
    """

    __slots__ = ("chunks", "next")

    def __init__(self, chunks: list[list[int]]) -> None:
        self.chunks = chunks
        self.next = 0

    def grab(self) -> Optional[list[int]]:
        if self.next >= len(self.chunks):
            return None
        chunk = self.chunks[self.next]
        self.next += 1
        return chunk


class OmpRuntime:
    """OpenMP-like parallel-loop execution for simulated threads."""

    def __init__(
        self,
        kernel: SimKernel,
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
    ) -> None:
        self.kernel = kernel
        self.overheads = overheads
        #: Parallel regions entered (for tests / overhead accounting).
        self.regions_forked = 0

    def parallel_for(
        self,
        bodies: Sequence[TaskBody],
        n_threads: int,
        schedule: Schedule,
    ) -> Generator[Any, Any, None]:
        """Execute ``bodies`` as the iterations of a parallel loop: a
        region with one worksharing loop (see :meth:`parallel_loops`).

        Must be driven with ``yield from`` by a simulated thread; returns
        after the implicit barrier and worker joins.
        """
        return self.parallel_loops(((bodies, schedule, True),), n_threads)

    def parallel_loops(
        self,
        loops: Sequence[tuple[Sequence[TaskBody], Schedule, bool]],
        n_threads: int,
    ) -> Generator[Any, Any, None]:
        """One parallel region containing several worksharing loops.

        ``loops`` is a sequence of ``(bodies, schedule, nowait)`` — OpenMP's

            #pragma omp parallel
            {
              #pragma omp for nowait   // loops[0]
              ...
              #pragma omp for          // loops[1]
              ...
            }

        A thread finishing its share of a ``nowait`` loop proceeds straight
        into the next loop; loops without ``nowait`` end with a team
        barrier.  The region always closes with an implicit barrier.  This
        is the semantics behind the paper's PAR_SEC_END(nowait) support.
        """
        if n_threads < 1:
            raise ConfigurationError(f"n_threads must be >= 1, got {n_threads}")
        oh = self.overheads
        self.regions_forked += 1
        # Master pays the fork cost (team wakeup + descriptor publication).
        yield Compute(cycles=oh.fork_cost(n_threads))

        if n_threads == 1:
            # Degenerate team: run everything inline, still paying dispatch.
            for bodies, schedule, _nowait in loops:
                for body in bodies:
                    yield Compute(cycles=oh.dispatch_cost(schedule))
                    yield from body()
            return

        barrier = SimBarrier(n_threads)
        plans = []
        for bodies, schedule, nowait in loops:
            n_iters = len(bodies)
            if schedule.is_dynamic_family:
                plans.append(
                    (bodies, schedule, nowait,
                     None, _DynamicState(schedule.chunks(n_iters, n_threads)))
                )
            else:
                plans.append(
                    (bodies, schedule, nowait,
                     schedule.static_chunks(n_iters, n_threads), None)
                )

        def member(tid: int, is_master: bool) -> Generator[Any, Any, None]:
            # The master is awake already: no thread-start cost.
            if not is_master:
                yield Compute(cycles=self.overheads.omp_thread_start)
            for bodies, schedule, nowait, owned, dynamic in plans:
                yield from self._member_work(tid, bodies, schedule, owned, dynamic)
                if not nowait:
                    yield BarrierWait(barrier)
            # Implicit barrier at the region end.
            yield BarrierWait(barrier)

        workers = []
        for tid in range(1, n_threads):
            w = yield Spawn(member(tid, False), name=f"omp-w{tid}")
            workers.append(w)
        yield from member(0, True)
        for worker in workers:
            yield Join(worker)
        yield Compute(cycles=oh.omp_join_barrier)

    # -- internals -----------------------------------------------------------

    def _member_work(
        self,
        tid: int,
        bodies: Sequence[TaskBody],
        schedule: Schedule,
        owned: Optional[list[list[range]]],
        dynamic: Optional[_DynamicState],
    ) -> Generator[Any, Any, None]:
        cost = self.overheads.dispatch_cost(schedule)
        if dynamic is not None:
            while True:
                yield Compute(cycles=cost)
                chunk = dynamic.grab()
                if chunk is None:
                    return
                for idx in chunk:
                    yield from bodies[idx]()
        else:
            assert owned is not None
            for chunk in owned[tid]:
                yield Compute(cycles=cost)
                for idx in chunk:
                    yield from bodies[idx]()
