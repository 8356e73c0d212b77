"""Simulator performance — events/sec, emulated nodes/sec, profiling rate.

Not a paper artifact: these benches track the cost of the reproduction's own
machinery (the substituted substrate), so regressions in kernel dispatch,
DRAM-solve, or FF traversal cost are caught.  They are also the honest
denominator behind "the synthesizer is cheap": the paper's overhead numbers
are *simulated-time*; these are the *wall-clock* costs of simulating.
"""

from __future__ import annotations

from _common import MACHINE
from repro.core.ffemu import FastForwardEmulator
from repro.core.profiler import IntervalProfiler
from repro.runtime import OmpRuntime, RuntimeOverheads, Schedule
from repro.simhw import MachineConfig
from repro.simos import Compute, Join, SimKernel, Spawn


def _flat_profile(n_tasks=400):
    def program(tr):
        with tr.section("loop"):
            for i in range(n_tasks):
                with tr.task():
                    tr.compute(10_000 + (i % 13) * 700)

    return IntervalProfiler(MACHINE).profile(program)


def test_kernel_event_throughput(benchmark):
    """Spawn/compute/join churn through the DES kernel."""
    machine = MachineConfig(n_cores=8, timeslice_cycles=5_000.0)

    def run():
        kernel = SimKernel(machine)

        def worker(n):
            for _ in range(20):
                yield Compute(cycles=1_000 + n)

        def master():
            ts = []
            for n in range(64):
                ts.append((yield Spawn(worker(n))))
            for t in ts:
                yield Join(t)

        kernel.spawn(master())
        return kernel.run()

    result = benchmark(run)
    assert result > 0


def test_omp_replay_throughput(benchmark):
    """A full OpenMP parallel_for through the simulated runtime."""
    machine = MachineConfig(n_cores=8)

    def run():
        kernel = SimKernel(machine)
        omp = OmpRuntime(kernel, RuntimeOverheads())

        def body():
            yield Compute(cycles=5_000)

        def master():
            yield from omp.parallel_for(
                [body] * 256, n_threads=8, schedule=Schedule.dynamic(1)
            )

        kernel.spawn(master())
        return kernel.run()

    result = benchmark(run)
    assert result > 0


def test_ff_emulation_throughput(benchmark):
    """Fast-forward emulation over a 400-task tree."""
    profile = _flat_profile(400)
    ff = FastForwardEmulator()

    def run():
        time, _ = ff.emulate_profile(profile.tree, 8, Schedule.static_chunk(1))
        return time

    result = benchmark(run)
    assert result > 0


def test_profiling_throughput(benchmark):
    """Interval profiling + compression of a 400-task program."""

    def run():
        return _flat_profile(400).serial_cycles()

    result = benchmark(run)
    assert result > 0


def test_dram_solve_throughput(benchmark):
    """The bandwidth-cap bisection under a saturated 12-segment set."""
    from repro.simhw import DramModel, SegmentDemand

    model = DramModel(MACHINE)
    segs = [
        SegmentDemand(mem_fraction=0.3 + 0.05 * (i % 8), demand_bytes_per_sec=2.5e9)
        for i in range(12)
    ]

    def run():
        return model.stall_multiplier(segs)

    result = benchmark(run)
    assert result >= 1.0


def test_dram_solve_cached_throughput(benchmark):
    """Repeated identical segment sets hit the memoized solve."""
    from repro.simhw import DramModel, SegmentDemand

    model = DramModel(MACHINE)
    segs = [
        SegmentDemand(mem_fraction=0.3 + 0.05 * (i % 8), demand_bytes_per_sec=2.5e9)
        for i in range(12)
    ]
    model.stall_multiplier(segs)  # warm the cache

    def run():
        return model.stall_multiplier(segs)

    result = benchmark(run)
    assert result >= 1.0
    info = model.cache_info()
    assert info["hits"] >= 1 and info["size"] >= 1
