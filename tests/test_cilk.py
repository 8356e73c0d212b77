"""Tests for the Cilk-style work-stealing runtime."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import CilkPool, RuntimeOverheads
from repro.simhw import MachineConfig
from repro.simos import Compute, SimKernel

ZERO_OH = RuntimeOverheads().scaled(0.0)


def run_pool(machine, root_factory, n_workers, overheads=ZERO_OH):
    kernel = SimKernel(machine)
    pool = CilkPool(kernel, n_workers=n_workers, overheads=overheads)

    def master():
        yield from pool.run(root_factory)

    kernel.spawn(master(), name="master")
    end = kernel.run()
    return pool, end


class TestSpawnSync:
    def test_spawned_children_run_in_parallel(self, machine4):
        def leaf(ctx):
            yield Compute(cycles=100_000)

        def root(ctx):
            for _ in range(3):
                yield from ctx.spawn(leaf)
            yield from leaf(ctx)
            yield from ctx.sync()

        _, end = run_pool(machine4, root, 4)
        assert end == pytest.approx(100_000.0, rel=0.02)

    def test_every_task_runs_exactly_once(self, machine4):
        ran = []

        def leaf(tag):
            def f(ctx):
                ran.append(tag)
                yield Compute(cycles=1000)

            return f

        def root(ctx):
            for i in range(10):
                yield from ctx.spawn(leaf(i))
            yield from ctx.sync()

        run_pool(machine4, root, 4)
        assert sorted(ran) == list(range(10))

    def test_sync_waits_for_children(self, machine4):
        from repro.simos import GetTime

        after_sync = []

        def slow(ctx):
            yield Compute(cycles=77_000)

        def root(ctx):
            yield from ctx.spawn(slow)
            yield from ctx.sync()
            after_sync.append((yield GetTime()))

        run_pool(machine4, root, 2)
        assert after_sync[0] >= 77_000.0

    def test_implicit_sync_at_task_end(self, machine4):
        """A Cilk function does not return while its children run: the
        grandparent's sync must also cover grandchildren."""
        ran = []

        def grandchild(ctx):
            ran.append("gc")
            yield Compute(cycles=50_000)

        def child(ctx):
            yield from ctx.spawn(grandchild)
            yield Compute(cycles=1000)
            # No explicit sync: implicit sync must still cover grandchild.

        def root(ctx):
            yield from ctx.spawn(child)
            yield from ctx.sync()
            assert ran == ["gc"]

        run_pool(machine4, root, 2)

    def test_recursive_tree_scales(self, machine4):
        def rec(depth):
            def f(ctx):
                if depth == 0:
                    yield Compute(cycles=50_000)
                    return
                yield from ctx.spawn(rec(depth - 1))
                yield from rec(depth - 1)(ctx)
                yield from ctx.sync()

            return f

        pool, end = run_pool(machine4, rec(4), 4)
        # 16 leaves x 50k = 800k serial; near-ideal on 4 workers.
        assert end == pytest.approx(200_000.0, rel=0.15)
        assert pool.steals > 0

    def test_single_worker_serializes(self, machine4):
        def rec(depth):
            def f(ctx):
                if depth == 0:
                    yield Compute(cycles=10_000)
                    return
                yield from ctx.spawn(rec(depth - 1))
                yield from rec(depth - 1)(ctx)
                yield from ctx.sync()

            return f

        _, end = run_pool(machine4, rec(3), 1)
        assert end == pytest.approx(80_000.0, rel=0.01)

    def test_call_runs_inline(self, machine4):
        def callee(ctx):
            yield Compute(cycles=5000)
            return "inline"

        results = []

        def root(ctx):
            results.append((yield from ctx.call(callee)))

        run_pool(machine4, root, 2)
        assert results == ["inline"]


class TestCilkFor:
    def test_all_iterations_execute(self, machine4):
        ran = []

        def body(i):
            def f(ctx):
                ran.append(i)
                yield Compute(cycles=1000)

            return f

        bodies = [body(i) for i in range(25)]

        def root(ctx):
            pool = ctx.pool
            yield from pool.loop(ctx, bodies)

        run_pool(machine4, root, 4)
        assert sorted(ran) == list(range(25))

    def test_balanced_for_scales(self, machine4):
        def body(ctx):
            yield Compute(cycles=50_000)

        def root(ctx):
            yield from ctx.pool.loop(ctx, [body] * 16)

        _, end = run_pool(machine4, root, 4)
        assert end == pytest.approx(200_000.0, rel=0.15)

    def test_imbalanced_for_load_balances(self, machine4):
        # One huge iteration + many small: stealing keeps the rest busy.
        def big(ctx):
            yield Compute(cycles=400_000)

        def small(ctx):
            yield Compute(cycles=20_000)

        def root(ctx):
            yield from ctx.pool.loop(ctx, [big] + [small] * 20, grain=1)

        _, end = run_pool(machine4, root, 4)
        serial = 400_000 + 20 * 20_000
        # Ideal makespan = max(big task, serial/4) = the big task: stealing
        # must pack the small tasks alongside it.
        assert end == pytest.approx(400_000.0, rel=0.1)
        assert end < 0.6 * serial

    def test_empty_for(self, machine4):
        def root(ctx):
            yield from ctx.pool.loop(ctx, [])

        _, end = run_pool(machine4, root, 2)
        assert end == 0.0

    def test_grain_respected(self, machine4):
        """With grain >= n no splitting happens: zero steals possible from
        the range (the root runs it whole)."""

        def body(ctx):
            yield Compute(cycles=100)

        def root(ctx):
            yield from ctx.pool.loop(ctx, [body] * 8, grain=8)

        pool, _ = run_pool(machine4, root, 4)
        assert pool.spawns == 0


class TestPoolMechanics:
    def test_worker_count_validation(self, machine4):
        kernel = SimKernel(machine4)
        with pytest.raises(ConfigurationError):
            CilkPool(kernel, n_workers=0)

    def test_oversubscribed_pool_still_correct(self):
        machine = MachineConfig(n_cores=2, timeslice_cycles=5_000.0)
        ran = []

        def body(i):
            def f(ctx):
                ran.append(i)
                yield Compute(cycles=30_000)

            return f

        kernel = SimKernel(machine)
        pool = CilkPool(kernel, n_workers=6, overheads=ZERO_OH)

        def root(ctx):
            yield from pool.loop(ctx, [body(i) for i in range(12)])

        def master():
            yield from pool.run(root)

        kernel.spawn(master())
        end = kernel.run()
        assert sorted(ran) == list(range(12))
        # 12 x 30k on 2 physical cores.
        assert end == pytest.approx(180_000.0, rel=0.1)

    def test_pool_reusable_across_runs(self, machine4):
        def body(ctx):
            yield Compute(cycles=1000)

        kernel = SimKernel(machine4)
        pool = CilkPool(kernel, n_workers=2, overheads=ZERO_OH)

        def master():
            yield from pool.run(body)
            yield from pool.run(body)

        kernel.spawn(master())
        end = kernel.run()
        assert end == pytest.approx(2000.0, rel=0.01)

    def test_tasks_run_counter(self, machine4):
        def leaf(ctx):
            yield Compute(cycles=10)

        def root(ctx):
            for _ in range(5):
                yield from ctx.spawn(leaf)
            yield from ctx.sync()

        pool, _ = run_pool(machine4, root, 3)
        assert pool.tasks_run == 6  # root + 5 leaves
