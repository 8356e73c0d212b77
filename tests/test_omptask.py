"""Tests for the OpenMP 3.0-style task runtime."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import OmpTaskPool, RuntimeOverheads
from repro.simhw import MachineConfig
from repro.simos import Compute, SimKernel

ZERO_OH = RuntimeOverheads().scaled(0.0)


def run_pool(machine, root_factory, n_workers, overheads=ZERO_OH):
    kernel = SimKernel(machine)
    pool = OmpTaskPool(kernel, n_workers=n_workers, overheads=overheads)

    def master():
        yield from pool.run(root_factory)

    kernel.spawn(master(), name="master")
    end = kernel.run()
    return pool, end


class TestTaskSemantics:
    def test_tasks_run_in_parallel(self, machine4):
        def leaf(ctx):
            yield Compute(cycles=100_000)

        def root(ctx):
            for _ in range(3):
                yield from ctx.spawn(leaf)
            yield from leaf(ctx)
            yield from ctx.sync()

        _, end = run_pool(machine4, root, 4)
        assert end == pytest.approx(100_000.0, rel=0.02)

    def test_every_task_runs_once(self, machine4):
        ran = []

        def leaf(tag):
            def f(ctx):
                ran.append(tag)
                yield Compute(cycles=1_000)

            return f

        def root(ctx):
            for i in range(12):
                yield from ctx.spawn(leaf(i))
            yield from ctx.sync()

        run_pool(machine4, root, 3)
        assert sorted(ran) == list(range(12))

    def test_taskwait_covers_children(self, machine4):
        from repro.simos import GetTime

        after = []

        def slow(ctx):
            yield Compute(cycles=60_000)

        def root(ctx):
            yield from ctx.spawn(slow)
            yield from ctx.sync()
            after.append((yield GetTime()))

        run_pool(machine4, root, 2)
        assert after[0] >= 60_000.0

    def test_implicit_taskwait_at_end(self, machine4):
        ran = []

        def grandchild(ctx):
            ran.append("gc")
            yield Compute(cycles=40_000)

        def child(ctx):
            yield from ctx.spawn(grandchild)
            yield Compute(cycles=500)
            # no explicit taskwait

        def root(ctx):
            yield from ctx.spawn(child)
            yield from ctx.sync()
            assert ran == ["gc"]

        run_pool(machine4, root, 2)

    def test_recursive_tasks_scale(self, machine4):
        def rec(depth):
            def f(ctx):
                if depth == 0:
                    yield Compute(cycles=40_000)
                    return
                yield from ctx.spawn(rec(depth - 1))
                yield from rec(depth - 1)(ctx)
                yield from ctx.sync()

            return f

        pool, end = run_pool(machine4, rec(4), 4)
        # 16 leaves x 40k = 640k serial on 4 workers.
        assert end == pytest.approx(160_000.0, rel=0.15)

    def test_task_loop(self, machine4):
        ran = []

        def body(i):
            def f(ctx):
                ran.append(i)
                yield Compute(cycles=2_000)

            return f

        def root(ctx):
            yield from ctx.pool.loop(ctx, [body(i) for i in range(10)])
            assert sorted(ran) == list(range(10))

        run_pool(machine4, root, 4)

    def test_single_thread_serializes(self, machine4):
        def leaf(ctx):
            yield Compute(cycles=10_000)

        def root(ctx):
            yield from ctx.pool.loop(ctx, [leaf] * 6)

        _, end = run_pool(machine4, root, 1)
        assert end == pytest.approx(60_000.0, rel=0.01)

    def test_worker_count_validated(self, machine4):
        kernel = SimKernel(machine4)
        with pytest.raises(ConfigurationError):
            OmpTaskPool(kernel, n_workers=0)

    def test_stats(self, machine4):
        def leaf(ctx):
            yield Compute(cycles=100)

        def root(ctx):
            yield from ctx.pool.loop(ctx, [leaf] * 5)

        pool, _ = run_pool(machine4, root, 2)
        assert pool.spawns == 5
        assert pool.tasks_run == 6  # root + 5


class TestExecutorIntegration:
    def test_omp_task_paradigm_replay(self, machine4):
        from repro.core.executor import ParallelExecutor, ReplayMode
        from repro.core.profiler import IntervalProfiler

        def program(tr):
            with tr.section("loop"):
                for _ in range(8):
                    with tr.task():
                        tr.compute(50_000)

        profile = IntervalProfiler(machine4).profile(program)
        ex = ParallelExecutor(machine4, paradigm="omp_task", overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        assert r.speedup == pytest.approx(4.0, rel=0.1)

    def test_omp_task_nested_scales(self, machine4):
        from repro.core.executor import ParallelExecutor, ReplayMode
        from repro.core.profiler import IntervalProfiler

        def program(tr):
            with tr.section("outer"):
                for _ in range(2):
                    with tr.task():
                        with tr.section("inner"):
                            for _ in range(2):
                                with tr.task():
                                    tr.compute(100_000)

        profile = IntervalProfiler(machine4).profile(program)
        ex = ParallelExecutor(machine4, paradigm="omp_task", overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        # Unlike nested physical teams, tasks flatten into one pool.
        assert r.speedup == pytest.approx(4.0, rel=0.2)

    def test_dispatch_cost_charged(self, machine4):
        oh = RuntimeOverheads().scaled(0.0).with_(omp_task_dispatch=2_000.0)

        def leaf(ctx):
            yield Compute(cycles=0)

        def root(ctx):
            yield from ctx.pool.loop(ctx, [leaf] * 10)

        _, end = run_pool(machine4, root, 1, overheads=oh)
        assert end >= 10 * 2_000.0


class TestContextSwitchCost:
    def test_oversubscription_pays_switches(self):
        from repro.simos import Join, Spawn

        def spin():
            yield Compute(cycles=100_000)

        def run(cs):
            machine = MachineConfig(
                n_cores=2, timeslice_cycles=10_000.0, context_switch_cycles=cs
            )
            kernel = SimKernel(machine)

            def main():
                ts = []
                for _ in range(4):
                    ts.append((yield Spawn(spin())))
                for t in ts:
                    yield Join(t)

            kernel.spawn(main())
            return kernel.run()

        free = run(0.0)
        costly = run(2_000.0)
        assert costly > free * 1.1

    def test_no_cost_without_switching(self):
        from repro.simos import Join, Spawn

        machine = MachineConfig(n_cores=4, context_switch_cycles=5_000.0)
        kernel = SimKernel(machine)

        def spin():
            yield Compute(cycles=50_000)

        def main():
            ts = []
            for _ in range(3):
                ts.append((yield Spawn(spin())))
            for t in ts:
                yield Join(t)

        kernel.spawn(main())
        end = kernel.run()
        # Each thread gets its own core: only the initial pickups differ
        # from the master, a one-off 5k.
        assert end <= 56_000.0
