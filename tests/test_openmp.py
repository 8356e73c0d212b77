"""Tests for the OpenMP-like runtime: schedules, barriers, nesting."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime import OmpRuntime, RuntimeOverheads, Schedule, ScheduleKind
from repro.simhw import MachineConfig
from repro.simos import Compute, GetTime, SimKernel

ZERO_OH = RuntimeOverheads().scaled(0.0)


def run_loop(machine, bodies, n_threads, schedule, overheads=ZERO_OH):
    kernel = SimKernel(machine)
    omp = OmpRuntime(kernel, overheads)

    def master():
        yield from omp.parallel_for(bodies, n_threads=n_threads, schedule=schedule)

    kernel.spawn(master(), name="master")
    return kernel.run()


def body_of(cycles, log=None, tag=None):
    def body():
        if log is not None:
            log.append(tag)
        yield Compute(cycles=cycles)

    return body


class TestSchedaParsing:
    def test_parse_static(self):
        s = Schedule.parse("static")
        assert s.kind is ScheduleKind.STATIC

    def test_parse_static_chunk(self):
        s = Schedule.parse("static,4")
        assert s.kind is ScheduleKind.STATIC_CHUNK
        assert s.chunk == 4

    def test_parse_dynamic(self):
        s = Schedule.parse("dynamic,1")
        assert s.kind is ScheduleKind.DYNAMIC

    def test_parse_paren_form(self):
        assert Schedule.parse("(static,1)").label == "static,1"

    def test_parse_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            Schedule.parse("runtime")

    def test_parse_guided(self):
        s = Schedule.parse("guided,2")
        assert s.kind is ScheduleKind.GUIDED
        assert s.chunk == 2
        assert s.label == "guided,2"

    def test_chunk_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Schedule.static_chunk(0)

    def test_labels(self):
        assert Schedule.static().label == "static"
        assert Schedule.dynamic(2).label == "dynamic,2"


class TestStaticAssignment:
    def test_static_partitions_exactly(self):
        owned = Schedule.static().static_assignment(10, 3)
        flat = sorted(i for chunk in owned for i in chunk)
        assert flat == list(range(10))
        # Contiguous blocks, first threads get the extras.
        assert owned[0] == [0, 1, 2, 3]
        assert owned[1] == [4, 5, 6]

    def test_static_chunk_round_robin(self):
        owned = Schedule.static_chunk(2).static_assignment(8, 2)
        assert owned[0] == [0, 1, 4, 5]
        assert owned[1] == [2, 3, 6, 7]

    def test_dynamic_has_no_static_assignment(self):
        with pytest.raises(ConfigurationError):
            Schedule.dynamic(1).static_assignment(4, 2)

    def test_chunks_cover_space(self):
        chunks = Schedule.dynamic(3).chunks(10)
        flat = [i for c in chunks for i in c]
        assert flat == list(range(10))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]


class TestParallelFor:
    def test_balanced_loop_scales(self, machine4):
        bodies = [body_of(90_000)] * 8
        t = run_loop(machine4, bodies, 4, Schedule.static())
        assert t == pytest.approx(180_000.0, rel=0.01)

    def test_single_thread_serializes(self, machine4):
        bodies = [body_of(10_000)] * 6
        t = run_loop(machine4, bodies, 1, Schedule.static())
        assert t == pytest.approx(60_000.0, rel=0.01)

    def test_every_iteration_runs_once(self, machine4):
        log = []
        bodies = [body_of(100, log, i) for i in range(20)]
        for sched in (Schedule.static(), Schedule.static_chunk(1), Schedule.dynamic(1)):
            log.clear()
            run_loop(machine4, bodies, 3, sched)
            assert sorted(log) == list(range(20))

    def test_imbalance_static_vs_dynamic(self, machine4):
        # Ramp costs: plain static puts the heavy tail on one thread.
        bodies = [body_of((i + 1) * 10_000) for i in range(12)]
        t_static = run_loop(machine4, bodies, 4, Schedule.static())
        t_dyn = run_loop(machine4, bodies, 4, Schedule.dynamic(1))
        t_rr = run_loop(machine4, bodies, 4, Schedule.static_chunk(1))
        assert t_static > t_rr
        assert t_static > t_dyn

    def test_empty_loop(self, machine4):
        t = run_loop(machine4, [], 4, Schedule.static())
        assert t == 0.0

    def test_invalid_thread_count(self, machine4):
        with pytest.raises(ConfigurationError):
            run_loop(machine4, [body_of(1)], 0, Schedule.static())

    def test_fork_overhead_charged(self, machine4):
        oh = RuntimeOverheads().scaled(0.0).with_(
            omp_fork_base=1000.0, omp_fork_per_thread=500.0
        )
        t = run_loop(machine4, [body_of(0)] * 4, 4, Schedule.static(), overheads=oh)
        assert t >= 1000.0 + 500.0 * 3

    def test_barrier_waits_for_slowest(self, machine4):
        times = []

        def fast():
            yield Compute(cycles=100)

        def slow():
            yield Compute(cycles=50_000)

        kernel = SimKernel(machine4)
        omp = OmpRuntime(kernel, ZERO_OH)

        def master():
            yield from omp.parallel_for(
                [fast, fast, fast, slow], n_threads=4, schedule=Schedule.static()
            )
            times.append((yield GetTime()))

        kernel.spawn(master())
        kernel.run()
        assert times[0] >= 50_000.0


class TestNestedParallelism:
    def test_nested_teams_oversubscribe(self):
        """Fig. 7: 2 outer tasks x nested loops {10, 5} and {5, 10} units on
        2 cores -> fair time sharing gives the 2.0x outcome."""
        machine = MachineConfig(n_cores=2, timeslice_cycles=10_000.0)
        unit = 1_000_000.0

        def nested_body(c):
            def body():
                yield Compute(cycles=c)

            return body

        kernel = SimKernel(machine)
        omp = OmpRuntime(kernel, ZERO_OH)

        def outer_task(costs):
            def body():
                yield from omp.parallel_for(
                    [nested_body(c) for c in costs],
                    n_threads=2,
                    schedule=Schedule.static(),
                )

            return body

        def master():
            yield from omp.parallel_for(
                [outer_task([10 * unit, 5 * unit]), outer_task([5 * unit, 10 * unit])],
                n_threads=2,
                schedule=Schedule.static(),
            )

        kernel.spawn(master())
        end = kernel.run()
        assert end == pytest.approx(15 * unit, rel=0.03)

    def test_region_count(self, machine4):
        kernel = SimKernel(machine4)
        omp = OmpRuntime(kernel, ZERO_OH)

        def inner():
            yield Compute(cycles=100)

        def outer():
            yield from omp.parallel_for([inner] * 2, 2, Schedule.static())

        def master():
            yield from omp.parallel_for([outer] * 3, 3, Schedule.static())

        kernel.spawn(master())
        kernel.run()
        assert omp.regions_forked == 4  # 1 outer + 3 nested


class TestGuidedSchedule:
    def test_guided_chunks_shrink(self):
        chunks = Schedule.guided(1).chunks(100, 4)
        sizes = [len(c) for c in chunks]
        assert sizes[0] == 25  # remaining/t at the start
        assert sizes == sorted(sizes, reverse=True) or sizes[-1] == 1
        assert sum(sizes) == 100
        flat = [i for c in chunks for i in c]
        assert flat == list(range(100))

    def test_guided_min_chunk_respected(self):
        chunks = Schedule.guided(8).chunks(100, 4)
        # Every chunk except possibly the last is >= the minimum.
        assert all(len(c) >= 8 for c in chunks[:-1])

    def test_guided_runs_every_iteration_once(self, machine4):
        log = []
        bodies = [body_of(100, log, i) for i in range(30)]
        run_loop(machine4, bodies, 3, Schedule.guided(1))
        assert sorted(log) == list(range(30))

    def test_guided_balances_ramp(self, machine4):
        bodies = [body_of((i + 1) * 10_000) for i in range(24)]
        t_guided = run_loop(machine4, bodies, 4, Schedule.guided(1))
        t_static = run_loop(machine4, bodies, 4, Schedule.static())
        assert t_guided < t_static

    def test_guided_no_static_assignment(self):
        with pytest.raises(ConfigurationError):
            Schedule.guided(1).static_assignment(10, 2)

    def test_ff_supports_guided(self):
        from repro.core.ffemu import FastForwardEmulator
        from repro.core.profiler import IntervalProfiler

        def program(tr):
            with tr.section("loop"):
                for i in range(24):
                    with tr.task():
                        tr.compute((i + 1) * 10_000)

        profile = IntervalProfiler(MachineConfig(n_cores=4)).profile(program)
        ff = FastForwardEmulator(ZERO_OH)
        t_guided, _ = ff.emulate_profile(profile.tree, 4, Schedule.guided(1))
        t_static, _ = ff.emulate_profile(profile.tree, 4, Schedule.static())
        assert t_guided < t_static

    def test_ff_guided_matches_replay(self):
        from repro.core.executor import ParallelExecutor, ReplayMode
        from repro.core.ffemu import FastForwardEmulator
        from repro.core.profiler import IntervalProfiler

        machine = MachineConfig(n_cores=4)

        def program(tr):
            with tr.section("loop"):
                for i in range(20):
                    with tr.task():
                        tr.compute(20_000 + (i % 5) * 7_000)

        profile = IntervalProfiler(machine).profile(program)
        ff = FastForwardEmulator(ZERO_OH)
        ff_time, _ = ff.emulate_profile(profile.tree, 4, Schedule.guided(1))
        ex = ParallelExecutor(machine, schedule=Schedule.guided(1), overheads=ZERO_OH)
        real = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        assert ff_time == pytest.approx(real.total_cycles, rel=0.05)
