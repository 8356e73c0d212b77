"""Tests for the discrete-event OS kernel: threads, sync primitives,
preemptive scheduling, fluid-rate compute, and failure modes."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.obs import Tracer
from repro.simhw import MachineConfig
from repro.simos import (
    Acquire,
    BarrierWait,
    Compute,
    EventClear,
    EventSet,
    EventWait,
    GetCurrentThread,
    GetTime,
    Join,
    Release,
    SimBarrier,
    SimEvent,
    SimKernel,
    SimMutex,
    Spawn,
    ThreadState,
    YieldCpu,
)


def run_master(machine, gen_fn):
    kernel = SimKernel(machine)
    root = kernel.spawn(gen_fn(), name="master")
    end = kernel.run()
    return kernel, root, end


class TestBasicExecution:
    def test_single_compute(self, machine2):
        def main():
            yield Compute(cycles=1000)

        _, _, end = run_master(machine2, main)
        assert end == pytest.approx(1000.0)

    def test_sequential_computes_add(self, machine2):
        def main():
            yield Compute(cycles=300)
            yield Compute(cycles=700)

        _, _, end = run_master(machine2, main)
        assert end == pytest.approx(1000.0)

    def test_zero_compute_free(self, machine2):
        def main():
            for _ in range(10):
                yield Compute(cycles=0, instructions=5)

        kernel, _, end = run_master(machine2, main)
        assert end == 0.0
        assert kernel.counters.instructions == 50

    def test_return_value(self, machine2):
        def main():
            yield Compute(cycles=10)
            return 42

        _, root, _ = run_master(machine2, main)
        assert root.result == 42
        assert root.state is ThreadState.FINISHED

    def test_get_time(self, machine2):
        times = []

        def main():
            times.append((yield GetTime()))
            yield Compute(cycles=500)
            times.append((yield GetTime()))

        run_master(machine2, main)
        assert times == [0.0, 500.0]

    def test_get_current_thread(self, machine2):
        seen = []

        def main():
            me = yield GetCurrentThread()
            seen.append(me)

        _, root, _ = run_master(machine2, main)
        assert seen == [root]


class TestSpawnJoin:
    def test_parallel_computes_overlap(self, machine2):
        def child():
            yield Compute(cycles=1000)

        def main():
            a = yield Spawn(child())
            b = yield Spawn(child())
            yield Join(a)
            yield Join(b)

        # Master occupies one core only while spawning; children overlap on
        # the two cores.
        _, _, end = run_master(machine2, main)
        assert end == pytest.approx(1000.0)

    def test_join_returns_child_result(self, machine2):
        def child():
            yield Compute(cycles=10)
            return "done"

        def main():
            t = yield Spawn(child())
            result = yield Join(t)
            assert result == "done"

        run_master(machine2, main)

    def test_join_already_finished(self, machine2):
        def child():
            yield Compute(cycles=10)
            return 7

        def main():
            t = yield Spawn(child())
            yield Compute(cycles=1000)  # child certainly finished
            result = yield Join(t)
            assert result == 7

        run_master(machine2, main)

    def test_many_joiners(self, machine2):
        def slow():
            yield Compute(cycles=5000)
            return "x"

        results = []

        def waiter(target):
            def gen():
                results.append((yield Join(target)))

            return gen

        kernel = SimKernel(machine2)

        def main():
            t = yield Spawn(slow())
            for _ in range(3):
                yield Spawn(waiter(t)())

        kernel.spawn(main())
        kernel.run()
        assert results == ["x", "x", "x"]


class TestMutex:
    def test_critical_sections_serialize(self, machine4):
        mutex = SimMutex()

        def worker():
            yield Acquire(mutex)
            yield Compute(cycles=1000)
            yield Release(mutex)

        def main():
            ts = []
            for _ in range(4):
                ts.append((yield Spawn(worker())))
            for t in ts:
                yield Join(t)

        _, _, end = run_master(machine4, main)
        assert end == pytest.approx(4000.0)

    def test_contention_stats(self, machine4):
        mutex = SimMutex()

        def worker():
            yield Acquire(mutex)
            yield Compute(cycles=100)
            yield Release(mutex)

        def main():
            ts = []
            for _ in range(3):
                ts.append((yield Spawn(worker())))
            for t in ts:
                yield Join(t)

        kernel = SimKernel(machine4)
        kernel.spawn(main())
        kernel.run()
        assert mutex.acquires == 3
        assert mutex.contended_acquires == 2

    def test_release_not_owner_raises(self, machine2):
        mutex = SimMutex()

        def main():
            yield Release(mutex)

        with pytest.raises(SimulationError):
            run_master(machine2, main)

    def test_recursive_acquire_raises(self, machine2):
        mutex = SimMutex()

        def main():
            yield Acquire(mutex)
            yield Acquire(mutex)

        with pytest.raises(SimulationError):
            run_master(machine2, main)

    def test_fifo_handoff_order(self, machine4):
        mutex = SimMutex()
        order = []

        def worker(tag, delay):
            def gen():
                yield Compute(cycles=delay)
                yield Acquire(mutex)
                order.append(tag)
                yield Compute(cycles=1000)
                yield Release(mutex)

            return gen

        def main():
            ts = []
            for tag, delay in (("a", 0), ("b", 10), ("c", 20)):
                ts.append((yield Spawn(worker(tag, delay)())))
            for t in ts:
                yield Join(t)

        run_master(machine4, main)
        assert order == ["a", "b", "c"]


class TestBarrier:
    def test_barrier_releases_all(self, machine4):
        barrier = SimBarrier(3)
        after = []

        def worker(delay):
            def gen():
                yield Compute(cycles=delay)
                yield BarrierWait(barrier)
                after.append((yield GetTime()))

            return gen

        def main():
            ts = []
            for delay in (100, 500, 900):
                ts.append((yield Spawn(worker(delay)())))
            for t in ts:
                yield Join(t)

        run_master(machine4, main)
        # Everyone leaves at the last arrival time.
        assert all(t == pytest.approx(900.0) for t in after)
        assert barrier.generations == 1

    def test_barrier_reusable(self, machine4):
        barrier = SimBarrier(2)

        def worker():
            for _ in range(3):
                yield Compute(cycles=100)
                yield BarrierWait(barrier)

        def main():
            a = yield Spawn(worker())
            b = yield Spawn(worker())
            yield Join(a)
            yield Join(b)

        run_master(machine4, main)
        assert barrier.generations == 3


class TestEvents:
    def test_wait_already_set(self, machine2):
        event = SimEvent()
        event.is_set = True

        def main():
            yield EventWait(event)

        _, _, end = run_master(machine2, main)
        assert end == 0.0

    def test_set_wakes_waiter(self, machine2):
        event = SimEvent()
        woke = []

        def waiter():
            yield EventWait(event)
            woke.append((yield GetTime()))

        def main():
            yield Spawn(waiter())
            yield Compute(cycles=777)
            yield EventSet(event)

        run_master(machine2, main)
        assert woke == [pytest.approx(777.0)]

    def test_wake_one(self, machine4):
        event = SimEvent()
        woke = []

        def waiter(tag):
            def gen():
                yield EventWait(event)
                woke.append(tag)

            return gen

        def main():
            a = yield Spawn(waiter("a")())
            b = yield Spawn(waiter("b")())
            yield Compute(cycles=100)
            yield EventSet(event, wake="one")
            yield EventClear(event)
            # b still blocked; release it so the kernel can terminate.
            yield Compute(cycles=100)
            yield EventSet(event, wake="all")
            yield Join(a)
            yield Join(b)

        run_master(machine4, main)
        assert woke[0] == "a"
        assert sorted(woke) == ["a", "b"]


class TestPreemption:
    def test_oversubscription_fair_share(self):
        machine = MachineConfig(n_cores=2, timeslice_cycles=1000.0)

        def spin():
            yield Compute(cycles=100_000)

        def main():
            ts = []
            for _ in range(4):
                ts.append((yield Spawn(spin())))
            for t in ts:
                yield Join(t)

        kernel = SimKernel(machine)
        kernel.spawn(main())
        end = kernel.run()
        # 4 threads x 100k cycles on 2 cores with fair time sharing.
        assert end == pytest.approx(200_000.0, rel=0.02)
        assert kernel.preemptions > 0

    def test_no_preemption_without_waiters(self, machine2):
        def spin():
            yield Compute(cycles=100_000)

        def main():
            t = yield Spawn(spin())
            yield Join(t)

        kernel = SimKernel(machine2)
        kernel.spawn(main())
        kernel.run()
        assert kernel.preemptions == 0

    def test_work_conserved_under_preemption(self):
        machine = MachineConfig(n_cores=2, timeslice_cycles=500.0)

        def spin(n):
            yield Compute(cycles=n, instructions=n)

        def main():
            ts = []
            for n in (30_000, 50_000, 70_000, 90_000):
                ts.append((yield Spawn(spin(n))))
            for t in ts:
                yield Join(t)

        kernel = SimKernel(machine)
        kernel.spawn(main())
        kernel.run()
        assert kernel.counters.instructions == pytest.approx(240_000.0)


class TestDeadlock:
    def test_deadlock_detected(self, machine2):
        event = SimEvent()  # never set

        def main():
            yield EventWait(event)

        with pytest.raises(DeadlockError):
            run_master(machine2, main)

    def test_lock_deadlock_detected(self, machine2):
        a, b = SimMutex("a"), SimMutex("b")

        def w1():
            yield Acquire(a)
            yield Compute(cycles=100)
            yield Acquire(b)

        def w2():
            yield Acquire(b)
            yield Compute(cycles=100)
            yield Acquire(a)

        def main():
            t1 = yield Spawn(w1())
            t2 = yield Spawn(w2())
            yield Join(t1)
            yield Join(t2)

        with pytest.raises(DeadlockError):
            run_master(machine2, main)

    def test_deadlock_names_every_blocked_thread(self, machine2):
        event = SimEvent()  # never set

        def waiter():
            yield EventWait(event)

        def main():
            a = yield Spawn(waiter(), name="waiter-a")
            b = yield Spawn(waiter(), name="waiter-b")
            yield Join(a)
            yield Join(b)

        with pytest.raises(DeadlockError) as info:
            run_master(machine2, main)
        message = str(info.value)
        assert "3 thread(s) alive" in message
        for name in ("waiter-a", "waiter-b", "master"):
            assert f"'{name}'" in message


class TestDramTrack:
    """A traced run samples ``dram{s}.demand_gbs`` once per change of the
    socket's demand multiset, the drop to zero included."""

    def _samples(self, tracer, socket):
        return [
            (e.ts, e.args["value"])
            for e in tracer.events()
            if e.name == f"dram{socket}.demand_gbs"
        ]

    @staticmethod
    def _gbs(cfg, cycles, misses):
        return misses * cfg.line_size / cfg.cycles_to_seconds(cycles) / 1e9

    def test_one_socket_steps_through_each_change(self, machine4):
        cfg = machine4
        tracer = Tracer(enabled=True)

        def stream(cycles, misses):
            yield Compute(cycles=cycles, llc_misses=misses)

        def main():
            a = yield Spawn(stream(100_000.0, 1_000.0))
            b = yield Spawn(stream(300_000.0, 2_000.0))
            yield Join(a)
            yield Join(b)
            yield Compute(cycles=50_000.0)

        kernel = SimKernel(cfg, tracer=tracer)
        kernel.spawn(main())
        kernel.run()
        a = self._gbs(cfg, 100_000.0, 1_000.0)
        b = self._gbs(cfg, 300_000.0, 2_000.0)
        values = [v for _, v in self._samples(tracer, 0)]
        assert values == pytest.approx([a + b, b, 0.0], rel=1e-12)
        assert values[-1] == 0.0

    def test_sockets_step_independently(self):
        cfg = MachineConfig(n_cores=4, n_sockets=2)
        tracer = Tracer(enabled=True)

        def stream(cycles, misses):
            yield Compute(cycles=cycles, llc_misses=misses)

        def main():
            # Core 0 is on socket 0 and core 1 on socket 1.
            a = yield Spawn(
                stream(100_000.0, 1_000.0), affinity=frozenset({0})
            )
            b = yield Spawn(
                stream(300_000.0, 2_000.0), affinity=frozenset({1})
            )
            yield Join(a)
            yield Join(b)

        kernel = SimKernel(cfg, tracer=tracer)
        kernel.spawn(main())
        end = kernel.run()
        (a0, a_val), (a_end, a_zero) = self._samples(tracer, 0)
        (b0, b_val), (b_end, b_zero) = self._samples(tracer, 1)
        assert a0 == b0 == 0.0
        assert a_val == pytest.approx(self._gbs(cfg, 100_000.0, 1_000.0))
        assert b_val == pytest.approx(self._gbs(cfg, 300_000.0, 2_000.0))
        assert a_zero == b_zero == 0.0
        assert 0.0 < a_end < b_end == end


class TestMemoryContention:
    def test_streaming_threads_saturate(self, machine4):
        cfg = machine4

        def stream():
            # Fully memory-bound: base = misses * omega0.
            yield Compute(
                cycles=1e6 * cfg.base_miss_stall,
                instructions=1e6,
                llc_misses=1e6,
            )

        def run_n(n):
            kernel = SimKernel(cfg)

            def main():
                ts = []
                for _ in range(n):
                    ts.append((yield Spawn(stream())))
                for t in ts:
                    yield Join(t)

            kernel.spawn(main())
            return kernel.run()

        t1, t2, t4 = run_n(1), run_n(2), run_n(4)
        # Per-thread demand is half the peak (line*freq/omega0 = 6 GB/s on
        # the default config), so 4 threads demand 2x the peak: the stall
        # multiplier solves to exactly 2 and the run takes 2x the base time.
        base = 1e6 * cfg.base_miss_stall
        demand = 1e6 * cfg.line_size / cfg.cycles_to_seconds(base)
        expected_t4 = (4 * demand / cfg.dram_peak_bytes_per_sec) * base
        assert t2 > t1
        assert t4 == pytest.approx(expected_t4, rel=1e-6)
        assert t4 > 1.5 * t2

    def test_compute_threads_unaffected(self, machine4):
        def spin():
            yield Compute(cycles=100_000)

        def run_n(n):
            kernel = SimKernel(machine4)

            def main():
                ts = []
                for _ in range(n):
                    ts.append((yield Spawn(spin())))
                for t in ts:
                    yield Join(t)

            kernel.spawn(main())
            return kernel.run()

        assert run_n(4) == pytest.approx(run_n(1), rel=1e-9)


class TestDeterminism:
    def test_identical_runs(self):
        machine = MachineConfig(n_cores=3, timeslice_cycles=700.0)

        def build():
            mutex = SimMutex()

            def worker(n):
                def gen():
                    yield Compute(cycles=1000 * n)
                    yield Acquire(mutex)
                    yield Compute(cycles=50)
                    yield Release(mutex)
                    yield YieldCpu()
                    yield Compute(cycles=500)

                return gen

            def main():
                ts = []
                for n in range(1, 8):
                    ts.append((yield Spawn(worker(n)())))
                for t in ts:
                    yield Join(t)

            kernel = SimKernel(machine)
            kernel.spawn(main())
            return kernel.run()

        assert build() == build()


class TestYield:
    def test_yield_allows_other_thread(self, machine2):
        machine = MachineConfig(n_cores=1)
        order = []

        def a():
            order.append("a1")
            yield YieldCpu()
            order.append("a2")
            yield Compute(cycles=1)

        def b():
            order.append("b")
            yield Compute(cycles=1)

        def main():
            ta = yield Spawn(a())
            tb = yield Spawn(b())
            yield Join(ta)
            yield Join(tb)

        run_master(machine, main)
        assert order == ["a1", "b", "a2"]


class TestAffinity:
    def test_pinned_threads_share_one_core(self):
        machine = MachineConfig(n_cores=4, timeslice_cycles=1_000.0)
        kernel = SimKernel(machine)

        def spin():
            yield Compute(cycles=50_000)

        def main():
            ts = []
            for _ in range(2):
                t = yield Spawn(spin(), affinity=frozenset({0}))
                ts.append(t)
            for t in ts:
                yield Join(t)

        kernel.spawn(main())
        end = kernel.run()
        # Both pinned to core 0: serialized (time-shared), ~100k total.
        assert end == pytest.approx(100_000.0, rel=0.02)

    def test_unpinned_threads_use_all_cores(self):
        machine = MachineConfig(n_cores=4)
        kernel = SimKernel(machine)

        def spin():
            yield Compute(cycles=50_000)

        def main():
            ts = []
            for _ in range(2):
                ts.append((yield Spawn(spin())))
            for t in ts:
                yield Join(t)

        kernel.spawn(main())
        assert kernel.run() == pytest.approx(50_000.0, rel=0.02)

    def test_affinity_does_not_block_other_cores(self):
        machine = MachineConfig(n_cores=2)
        kernel = SimKernel(machine)
        order = []

        def pinned():
            yield Compute(cycles=80_000)
            order.append("pinned")

        def free():
            yield Compute(cycles=1_000)
            order.append("free")

        def main():
            a = yield Spawn(pinned(), affinity=frozenset({1}))
            b = yield Spawn(free())
            yield Join(a)
            yield Join(b)

        kernel.spawn(main())
        kernel.run()
        assert order == ["free", "pinned"]
