"""Parallel-overhead constants and their EPCC-style measurement.

The paper models OpenMP construct overheads using the EPCC microbenchmark
methodology [6, 8] and "adds the factors in the FF emulator when (1) a
parallel loop is started and terminated, (2) an iteration is started, and
(3) a critical section is acquired and released" (Section IV-C).

Here the same constants are *paid* by the simulated runtimes (ground truth
and synthesizer) and *consumed* by the fast-forward emulator — and
:func:`measure_overheads` re-derives effective fork/join and dispatch costs
by running EPCC-style probe loops on the simulator, which is how the FF gets
its numbers in the benchmark harness.  Default magnitudes follow the EPCC
reports for a Westmere-class Xeon (fork/join in the small tens of
microseconds, per-chunk dispatch tens to hundreds of cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.simhw.machine import MachineConfig


@dataclass(frozen=True)
class RuntimeOverheads:
    """Cycle costs of runtime operations.

    OpenMP:

    - ``omp_fork_base`` + ``omp_fork_per_thread``·(t−1): entering a parallel
      region (team wakeup, work descriptor publication).
    - ``omp_thread_start``: per-worker cost before its first chunk.
    - ``omp_join_barrier``: master-side cost of the implicit end barrier.
    - ``omp_static_dispatch``: per-chunk loop bookkeeping under static
      schedules.
    - ``omp_dynamic_dispatch``: per-chunk shared-counter fetch-add under
      dynamic schedules (noticeably more expensive — why ``dynamic,1`` hurts
      fine-grained loops).
    - ``omp_lock_acquire`` / ``omp_lock_release``: critical-section entry and
      exit outside any contention wait.

    Cilk:

    - ``cilk_spawn``: pushing a child task frame onto the worker deque.
    - ``cilk_steal``: a successful steal (detach + transfer).
    - ``cilk_task_run``: per-task scheduling bookkeeping before the body.
    - ``cilk_pool_start_per_worker``: waking one worker at pool start.
    """

    omp_fork_base: float = 3_000.0
    omp_fork_per_thread: float = 1_200.0
    omp_thread_start: float = 800.0
    omp_join_barrier: float = 2_000.0
    omp_static_dispatch: float = 60.0
    omp_dynamic_dispatch: float = 220.0
    omp_lock_acquire: float = 120.0
    omp_lock_release: float = 80.0
    cilk_spawn: float = 180.0
    cilk_steal: float = 900.0
    cilk_task_run: float = 100.0
    cilk_pool_start_per_worker: float = 1_500.0
    #: OpenMP 3.0 tasking: creating a task (descriptor + enqueue on the
    #: team queue) and dequeuing one (the shared queue's lock).  Both cost
    #: more than Cilk's deque push because the queue is shared (EPCC's task
    #: benchmarks show the same relation).
    omp_task_create: float = 350.0
    omp_task_dispatch: float = 450.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value!r}")

    def fork_cost(self, n_threads: int) -> float:
        """Cycles the master pays to fork a team of ``n_threads``."""
        return self.omp_fork_base + self.omp_fork_per_thread * (n_threads - 1)

    def dispatch_cost(self, schedule) -> float:
        """Cycles of one OpenMP loop-chunk dispatch under ``schedule`` (a
        :class:`~repro.runtime.tasks.Schedule`)."""
        if schedule.is_dynamic_family:
            return self.omp_dynamic_dispatch
        return self.omp_static_dispatch

    def scaled(self, factor: float) -> "RuntimeOverheads":
        """All overheads multiplied by ``factor`` (ablation studies)."""
        if factor < 0:
            raise ConfigurationError(f"factor must be >= 0, got {factor!r}")
        return RuntimeOverheads(
            **{k: v * factor for k, v in self.__dict__.items()}
        )

    def with_(self, **kwargs: float) -> "RuntimeOverheads":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


#: Overheads used throughout unless a caller supplies its own.
DEFAULT_OVERHEADS = RuntimeOverheads()


def measure_overheads(
    config: MachineConfig,
    overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
    reps: int = 10,
) -> dict[str, float]:
    """EPCC-style overhead measurement on the simulated machine.

    Runs probe loops through the real runtime and reports *effective* costs:

    - ``parallel_region`` — cost of an empty parallel region on t = 2,
      measured as elapsed time minus ideal work (zero here);
    - ``static_iteration`` / ``dynamic_iteration`` — per-iteration cost of an
      N-iteration empty loop;
    - ``lock_pair`` — cost of an uncontended acquire/release pair.

    The FF emulator and Table III use these numbers, mirroring how the paper
    derives its overhead factors from [8] and then observes (Section VII-B)
    that real overheads are not always the constants the microbenchmark
    suggests.
    """
    # Imported here to avoid an import cycle (openmp imports overhead).
    from repro.simos import Compute, SimKernel, SimMutex, Acquire, Release
    from repro.runtime.openmp import OmpRuntime
    from repro.runtime.tasks import Schedule

    results: dict[str, float] = {}

    def region_probe() -> float:
        kernel = SimKernel(config.with_cores(2))
        omp = OmpRuntime(kernel, overheads)

        def empty_body():
            return
            yield  # pragma: no cover - marks this function as a generator

        def master():
            for _ in range(reps):
                yield from omp.parallel_for(
                    [empty_body, empty_body], n_threads=2, schedule=Schedule.static()
                )

        kernel.spawn(master(), name="epcc-region")
        return kernel.run() / reps

    results["parallel_region"] = region_probe()

    def loop_probe(schedule: Schedule, n_iters: int = 128) -> float:
        kernel = SimKernel(config.with_cores(2))
        omp = OmpRuntime(kernel, overheads)

        def empty_body():
            return
            yield  # pragma: no cover

        def master():
            yield from omp.parallel_for(
                [empty_body] * n_iters, n_threads=2, schedule=schedule
            )

        kernel.spawn(master(), name="epcc-loop")
        total = kernel.run()
        return (total - results["parallel_region"]) * 2 / n_iters

    results["static_iteration"] = loop_probe(Schedule.static_chunk(1))
    results["dynamic_iteration"] = loop_probe(Schedule.dynamic(1))

    def lock_probe(n: int = 64) -> float:
        kernel = SimKernel(config.with_cores(1))
        mutex = SimMutex("epcc")

        def master():
            for _ in range(n):
                yield Compute(cycles=overheads.omp_lock_acquire)
                yield Acquire(mutex)
                yield Release(mutex)
                yield Compute(cycles=overheads.omp_lock_release)

        kernel.spawn(master(), name="epcc-lock")
        return kernel.run() / n

    results["lock_pair"] = lock_probe()
    return results
