"""Pipeline-parallelism emulation (extension; paper Section VII-E, [23]).

The paper lists pipelining as an easy extension: "pipelining can be easily
supported by extending annotations [23] and the emulation algorithm".  This
module implements that extension for coarse-grained software pipelines in
the style of Thies et al. [23]:

- a *pipeline section*'s tasks (loop iterations) flow through a fixed
  sequence of stages; stage *s* of iteration *j* must run after both
  stage *s−1* of iteration *j* (dataflow) and stage *s* of iteration *j−1*
  (stages are stateful and internally serial);
- with ``t`` worker threads, stages are bound to threads: contiguous stages
  are grouped into ``t`` balanced clusters (the classic linear-partition
  problem, solved exactly by DP on average stage loads), one thread per
  cluster, iterations streaming through the clusters in order.

Two consumers:

- :func:`ff_pipeline_cycles` — the fast-forward (analytical) emulation:
  the exact completion-time recurrence
  ``finish(j,g) = max(finish(j,g−1), finish(j−1,g)) + len(j,g)``;
- :func:`replay_pipeline_section` — execution on the simulated machine
  (used for both REAL ground truth and FAKE synthesis): one simulated
  thread per cluster, handing iterations downstream through events.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.core.tree import Node, NodeKind
from repro.errors import EmulationError
from repro.runtime.overhead import DEFAULT_OVERHEADS, RuntimeOverheads
from repro.simhw.machine import MachineConfig
from repro.simos import (
    Acquire,
    Compute,
    EventSet,
    EventWait,
    Join,
    Release,
    SimEvent,
    SimKernel,
    SimMutex,
    Spawn,
)


# ------------------------------------------------------------- structure


def expand_pipeline_tasks(sec: Node) -> list[list[Node]]:
    """Logical iterations of a pipeline section as per-iteration stage
    lists (repeats expanded; stage repeats expanded within iterations)."""
    if sec.kind is not NodeKind.SEC or not sec.pipeline:
        raise EmulationError(f"{sec!r} is not a pipeline section")
    iterations: list[list[Node]] = []
    for task in sec.children:
        stages: list[Node] = []
        for stage in task.children:
            if stage.kind is not NodeKind.STAGE:
                raise EmulationError(
                    f"pipeline task contains non-stage child {stage!r}"
                )
            stages.extend([stage] * stage.repeat)
        iterations.extend([stages] * task.repeat)
    return iterations


def stage_lengths(iterations: list[list[Node]]) -> np.ndarray:
    """Matrix L[j, s] of measured stage lengths."""
    if not iterations:
        return np.zeros((0, 0))
    n_stages = len(iterations[0])
    if any(len(it) != n_stages for it in iterations):
        raise EmulationError("pipeline iterations disagree on stage count")
    # Per-instance length: expansion already repeats compressed STAGE nodes,
    # and subtree_length() includes the node's own repeat factor.
    return np.array(
        [[stage.subtree_length() / stage.repeat for stage in it] for it in iterations]
    )


# ------------------------------------------------------------ partitioning


def partition_stages(avg_loads: list[float], n_threads: int) -> list[list[int]]:
    """Optimal contiguous partition of stages into ≤ ``n_threads`` clusters
    minimising the maximum cluster load (DP over prefix sums)."""
    s = len(avg_loads)
    if s == 0:
        return []
    k = min(n_threads, s)
    prefix = np.concatenate([[0.0], np.cumsum(avg_loads)])

    # dp[i][g]: minimal max-load partitioning stages[:i] into g clusters.
    inf = float("inf")
    dp = np.full((s + 1, k + 1), inf)
    cut = np.zeros((s + 1, k + 1), dtype=int)
    dp[0, 0] = 0.0
    for i in range(1, s + 1):
        for g in range(1, min(i, k) + 1):
            for j in range(g - 1, i):
                cost = max(dp[j, g - 1], prefix[i] - prefix[j])
                if cost < dp[i, g]:
                    dp[i, g] = cost
                    cut[i, g] = j
    best_g = int(np.argmin(dp[s, 1:])) + 1
    groups: list[list[int]] = []
    i, g = s, best_g
    while g > 0:
        j = int(cut[i, g])
        groups.append(list(range(j, i)))
        i, g = j, g - 1
    groups.reverse()
    return groups


# ---------------------------------------------------------------- analytical


def ff_pipeline_cycles(
    sec: Node,
    n_threads: int,
    burden: float = 1.0,
    overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
) -> float:
    """Fast-forward emulation of one pipeline-section activation.

    Exact completion-time recurrence over thread clusters; per-iteration
    hand-off costs are charged like dynamic dispatch.
    """
    iterations = expand_pipeline_tasks(sec)
    if not iterations:
        return overheads.omp_fork_base + overheads.omp_join_barrier
    lengths = stage_lengths(iterations) * burden
    n_iters, n_stages = lengths.shape
    groups = partition_stages(list(lengths.mean(axis=0)), n_threads)
    # Cluster lengths per iteration (+ one hand-off cost per cluster).
    cluster = np.stack(
        [lengths[:, g].sum(axis=1) for g in groups], axis=1
    ) + overheads.omp_dynamic_dispatch

    finish = np.zeros(len(groups))
    for j in range(n_iters):
        for g in range(len(groups)):
            upstream = finish[g - 1] if g > 0 else 0.0
            finish[g] = max(upstream, finish[g]) + cluster[j, g]
    return (
        overheads.fork_cost(len(groups))
        + float(finish[-1])
        + overheads.omp_join_barrier
    )


# ------------------------------------------------------------------ replay


def replay_pipeline_section(
    kernel: SimKernel,
    sec: Node,
    n_threads: int,
    machine: MachineConfig,
    real: bool,
    burden: float = 1.0,
    overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
    locks: Optional[dict[int, SimMutex]] = None,
) -> Generator[Any, Any, None]:
    """Run a pipeline section on the simulated machine.

    Must be driven with ``yield from`` by the master thread.  One worker
    thread per stage cluster; worker ``g`` processes iterations in order,
    parking on an event until worker ``g−1`` has released that iteration.
    """
    iterations = expand_pipeline_tasks(sec)
    if not iterations:
        return
    locks = locks if locks is not None else {}
    lengths = stage_lengths(iterations)
    groups = partition_stages(list(lengths.mean(axis=0)), n_threads)
    n_iters = len(iterations)
    n_groups = len(groups)

    # ready[g][j]: iteration j may enter cluster g.  Events double as the
    # inter-stage queues of a coarse-grained pipeline.
    ready = [[SimEvent(f"pipe-{g}-{j}") for j in range(n_iters)] for g in range(n_groups)]

    def leaf_compute(node: Node) -> Compute:
        if real:
            base = node.cpu_cycles + node.llc_misses * machine.base_miss_stall
            return Compute(
                cycles=base,
                instructions=node.instructions,
                llc_misses=node.llc_misses,
            )
        return Compute(cycles=node.length * burden)

    def run_stage(stage: Node) -> Generator[Any, Any, None]:
        for node in stage.children:
            if node.kind is NodeKind.U:
                req = leaf_compute(node)
                yield Compute(
                    cycles=req.cycles * node.repeat,
                    instructions=req.instructions * node.repeat,
                    llc_misses=req.llc_misses * node.repeat,
                )
            elif node.kind is NodeKind.L:
                mutex = locks.setdefault(node.lock_id, SimMutex(f"lock{node.lock_id}"))
                for _ in range(node.repeat):
                    yield Compute(cycles=overheads.omp_lock_acquire)
                    yield Acquire(mutex)
                    yield leaf_compute(node)
                    yield Release(mutex)
                    yield Compute(cycles=overheads.omp_lock_release)
            else:  # pragma: no cover - validated trees
                raise EmulationError(f"bad node inside stage: {node!r}")

    def worker(g: int) -> Generator[Any, Any, None]:
        yield Compute(cycles=overheads.omp_thread_start)
        for j in range(n_iters):
            if g > 0:
                yield EventWait(ready[g][j])
            yield Compute(cycles=overheads.omp_dynamic_dispatch)
            for stage_idx in groups[g]:
                yield from run_stage(iterations[j][stage_idx])
            if g + 1 < n_groups:
                yield EventSet(ready[g + 1][j])

    yield Compute(cycles=overheads.fork_cost(n_groups))
    workers = []
    for g in range(1, n_groups):
        w = yield Spawn(worker(g), name=f"pipe-w{g}")
        workers.append(w)
    # Master drives cluster 0.
    yield from worker(0)
    for w in workers:
        yield Join(w)
    yield Compute(cycles=overheads.omp_join_barrier)
