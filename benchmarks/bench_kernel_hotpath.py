"""Kernel hot-path microbenches — event sparsity.

Not a paper artifact: these benches track the DES kernel's fast paths
behind ``repro sweep`` (lazy quantum arming + incremental reconfigure).
Each bench runs the eager variant and the optimized variant of the *same*
workload and asserts the deterministic wins (event counts, solve counts,
identical results); the wall-clock speedups feed the numbers recorded in
docs/performance.md §4.
"""

from __future__ import annotations

import time

from repro.simhw import MachineConfig
from repro.simos import Compute, Join, SimKernel, Spawn

#: Quantum-churn machine: a short timeslice makes the eager kernel pay one
#: heap event per slice per core even when nobody is waiting.
CHURN_MACHINE = MachineConfig(n_cores=4, timeslice_cycles=5_000.0)


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ------------------------------------------------------------ quantum churn


def _churn_kernel(optimize: bool, cycles: float = 25_000_000.0) -> SimKernel:
    """One long uncontended compute per core — pure quantum churn."""
    kernel = SimKernel(CHURN_MACHINE, optimize=optimize)

    def worker():
        yield Compute(cycles=cycles)

    def master():
        ts = []
        for _ in range(CHURN_MACHINE.n_cores):
            ts.append((yield Spawn(worker())))
        for t in ts:
            yield Join(t)

    kernel.spawn(master())
    return kernel


def run_churn(quick: bool = False) -> dict:
    """Uncontended long computes: eager arms a quantum per slice, the sparse
    kernel arms none (no waiter) and finishes on O(1) events."""
    cycles = 2_500_000.0 if quick else 25_000_000.0
    repeats = 1 if quick else 3

    results = {}
    for label, optimize in (("eager", False), ("sparse", True)):
        kernels = []

        def run():
            k = _churn_kernel(optimize, cycles)
            k.run()
            kernels.append(k)

        secs = _time(run, repeats)
        k = kernels[-1]
        results[label] = dict(
            secs=secs,
            events=k.events_pushed,
            quantum_arms=k.quantum_arms,
            final=k.clock.now,
        )
    eager, sparse = results["eager"], results["sparse"]
    # The whole point: pending-event count is O(1) in compute duration.
    assert sparse["quantum_arms"] == 0
    assert sparse["events"] * 20 <= eager["events"]
    assert sparse["final"] == eager["final"]
    results["speedup"] = eager["secs"] / sparse["secs"]
    return results


# ------------------------------------------------- zero-demand reconfigure


def _spawn_churn_kernel(optimize: bool, n_tasks: int) -> SimKernel:
    """Oversubscribed spawn/join churn, all demand-free: every dispatch and
    completion triggers a reconfigure pass, none of which needs a solve."""
    kernel = SimKernel(CHURN_MACHINE, optimize=optimize)

    def worker(n):
        for _ in range(4):
            yield Compute(cycles=1_000.0 + n)

    def master():
        ts = []
        for n in range(n_tasks):
            ts.append((yield Spawn(worker(n))))
        for t in ts:
            yield Join(t)

    kernel.spawn(master())
    return kernel


def run_zero_demand(quick: bool = False) -> dict:
    """Demand-free replay churn: the sparse kernel answers every reconfigure
    from the zero-demand fast path — no DRAM solve at all."""
    n_tasks = 64 if quick else 512
    results = {}
    for label, optimize in (("eager", False), ("sparse", True)):
        k = _spawn_churn_kernel(optimize, n_tasks)
        secs = _time(lambda: k.run(), repeats=1)
        results[label] = dict(
            secs=secs,
            solves=k.reconfig_solves,
            skips=k.reconfig_skips,
            final=k.clock.now,
        )
    eager, sparse = results["eager"], results["sparse"]
    assert sparse["solves"] == 0
    assert sparse["skips"] > 0
    assert eager["solves"] > 0
    assert sparse["final"] == eager["final"]
    return results


def run_hotpath(quick: bool = False) -> dict:
    """Both benches, for ``run_all.py``'s report table."""
    return {
        "churn": run_churn(quick),
        "zero_demand": run_zero_demand(quick),
    }


# ------------------------------------------------------- pytest-benchmark


def test_churn_event_sparsity(benchmark):
    """Quantum churn through the sparse kernel; asserts the event-count win."""
    r = benchmark.pedantic(run_churn, kwargs=dict(quick=True), rounds=1)
    assert r["sparse"]["events"] * 20 <= r["eager"]["events"]


def test_zero_demand_skips(benchmark):
    """Demand-free churn: zero DRAM solves on the sparse path."""
    r = benchmark.pedantic(run_zero_demand, kwargs=dict(quick=True), rounds=1)
    assert r["sparse"]["solves"] == 0
