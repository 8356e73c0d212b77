"""Tests for the fast-forward emulator (paper Section IV-C/D)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarEngine
from repro.core.ffemu import FastForwardEmulator
from repro.core.profiler import IntervalProfiler
from repro.core.tree import Node, NodeKind, ProgramTree
from repro.errors import EmulationError
from repro.runtime import RuntimeOverheads, Schedule
from repro.simhw import MachineConfig

M = MachineConfig(n_cores=12)
ZERO_OH = RuntimeOverheads().scaled(0.0)

lengths = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


def profile_of(program):
    return IntervalProfiler(M).profile(program)


def balanced_loop(n_tasks=12, cost=10_000):
    def program(tr):
        with tr.section("loop"):
            for _ in range(n_tasks):
                with tr.task():
                    tr.compute(cost)

    return profile_of(program)


class TestBasicPrediction:
    def test_single_thread_is_serial(self):
        profile = balanced_loop()
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 1, Schedule.static())
        assert time == pytest.approx(profile.serial_cycles())

    def test_balanced_loop_ideal(self):
        profile = balanced_loop(12, 10_000)
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 4, Schedule.static())
        assert time == pytest.approx(30_000.0)

    def test_speedup_never_exceeds_threads(self):
        profile = balanced_loop(24, 5_000)
        ff = FastForwardEmulator(ZERO_OH)
        for t in (2, 4, 8):
            time, _ = ff.emulate_profile(profile.tree, t, Schedule.static())
            assert profile.serial_cycles() / time <= t + 1e-9

    def test_serial_top_level_nodes_pass_through(self):
        def program(tr):
            tr.compute(10_000)
            with tr.section("s"):
                with tr.task():
                    tr.compute(1000)

        profile = profile_of(program)
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 8, Schedule.static())
        assert time >= 10_000.0

    def test_section_results_reported(self):
        profile = balanced_loop()
        ff = FastForwardEmulator(ZERO_OH)
        _, sections = ff.emulate_profile(profile.tree, 4, Schedule.static())
        assert len(sections) == 1
        assert sections[0].name == "loop"
        assert sections[0].speedup == pytest.approx(4.0, rel=0.01)

    def test_needs_sec_node(self):
        ff = FastForwardEmulator()
        with pytest.raises(EmulationError):
            ff.emulate_section(Node(NodeKind.TASK), 2, Schedule.static())

    def test_invalid_thread_count(self):
        profile = balanced_loop()
        ff = FastForwardEmulator()
        with pytest.raises(EmulationError):
            ff.emulate_section(
                profile.tree.top_level_sections()[0], 0, Schedule.static()
            )


class TestScheduleModelling:
    """The Fig. 5 scenario: three unequal iterations with a lock on 2 CPUs;
    schedule choice changes the speedup."""

    @pytest.fixture
    def fig5_profile(self):
        # Iterations: 650 (150 U, 250 L, 50 U... simplified), 600, 250.
        def program(tr):
            with tr.section("loop"):
                with tr.task("I0"):
                    tr.compute(150)
                    with tr.lock(1):
                        tr.compute(450)
                    tr.compute(50)
                with tr.task("I1"):
                    tr.compute(100)
                    with tr.lock(1):
                        tr.compute(300)
                    tr.compute(200)
                with tr.task("I2"):
                    tr.compute(150)
                    tr.compute(50)
                    tr.compute(50)

        return profile_of(program)

    def test_schedules_differ(self, fig5_profile):
        ff = FastForwardEmulator(ZERO_OH)
        results = {}
        for sched in ("static", "static,1", "dynamic,1"):
            time, _ = ff.emulate_profile(fig5_profile.tree, 2, Schedule.parse(sched))
            results[sched] = fig5_profile.serial_cycles() / time
        # Paper Fig. 5: dynamic,1 (1.58) > static,1 (1.30) > static (1.20).
        assert results["dynamic,1"] > results["static,1"] > results["static"]

    def test_lock_serialization(self):
        # Two tasks that are pure critical section on the same lock cannot
        # overlap: speedup stays ~1.
        def program(tr):
            with tr.section("s"):
                for _ in range(4):
                    with tr.task():
                        with tr.lock(1):
                            tr.compute(10_000)

        profile = profile_of(program)
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 4, Schedule.static_chunk(1))
        assert time == pytest.approx(40_000.0, rel=0.01)

    def test_different_locks_dont_serialize(self):
        def program(tr):
            with tr.section("s"):
                for lock in (1, 2):
                    with tr.task():
                        with tr.lock(lock):
                            tr.compute(10_000)

        profile = profile_of(program)
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 2, Schedule.static_chunk(1))
        assert time == pytest.approx(10_000.0, rel=0.01)


class TestNestedParallelism:
    def test_fig7_misprediction(self):
        """The FF's documented blind spot: predicts 1.5x where the real
        (preemptive) machine reaches 2.0x."""
        unit = 1e6

        def program(tr):
            with tr.section("Loop1"):
                with tr.task("I0"):
                    with tr.section("LoopA"):
                        with tr.task():
                            tr.compute(10 * unit)
                        with tr.task():
                            tr.compute(5 * unit)
                with tr.task("I1"):
                    with tr.section("LoopB"):
                        with tr.task():
                            tr.compute(5 * unit)
                        with tr.task():
                            tr.compute(10 * unit)

        profile = profile_of(program)
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 2, Schedule.static())
        assert profile.serial_cycles() / time == pytest.approx(1.5, rel=0.01)

    def test_balanced_nested_loop_shows_rr_collision(self):
        """Parent-relative round-robin is availability-blind: outer task 0
        maps its inner tasks to CPUs {0,1} and outer task 1 to {1,2}, so
        CPU 1 serialises two inner tasks while CPU 3 idles.  The FF predicts
        2x the ideal time here — by design (Section IV-D); the synthesizer
        path gets the ideal 10k (see test_executor)."""

        def program(tr):
            with tr.section("outer"):
                for _ in range(2):
                    with tr.task():
                        with tr.section("inner"):
                            for _ in range(2):
                                with tr.task():
                                    tr.compute(10_000)

        profile = profile_of(program)
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 4, Schedule.static())
        assert time == pytest.approx(20_000.0, rel=0.01)

    def test_repeated_nested_sections_are_sequential(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC, name="outer"))
        task = sec.add(Node(NodeKind.TASK))
        inner = task.add(Node(NodeKind.SEC, name="inner", repeat=3))
        it = inner.add(Node(NodeKind.TASK))
        it.add(Node(NodeKind.U, length=1000))
        ff = FastForwardEmulator(ZERO_OH)
        time = ff.emulate_section(sec, 4, Schedule.static())
        # Three sequential activations of a single-task section.
        assert time == pytest.approx(3000.0, rel=0.01)


class TestBurdenFactors:
    def test_burden_scales_section_time(self):
        profile = balanced_loop(8, 10_000)
        ff = FastForwardEmulator(ZERO_OH)
        t_plain, _ = ff.emulate_profile(profile.tree, 4, Schedule.static())
        t_burdened, _ = ff.emulate_profile(
            profile.tree, 4, Schedule.static(), burdens={"loop": 1.5}
        )
        assert t_burdened == pytest.approx(1.5 * t_plain, rel=0.01)

    def test_unknown_section_name_ignored(self):
        profile = balanced_loop()
        ff = FastForwardEmulator(ZERO_OH)
        a, _ = ff.emulate_profile(profile.tree, 4, Schedule.static())
        b, _ = ff.emulate_profile(
            profile.tree, 4, Schedule.static(), burdens={"other": 2.0}
        )
        assert a == b


class TestOverheadModelling:
    def test_fork_join_charged_per_section(self):
        profile = balanced_loop(4, 1000)
        oh = RuntimeOverheads().scaled(0.0).with_(
            omp_fork_base=5000.0, omp_join_barrier=3000.0
        )
        ff = FastForwardEmulator(oh)
        time, _ = ff.emulate_profile(profile.tree, 4, Schedule.static())
        assert time >= 5000.0 + 3000.0 + 1000.0

    def test_dynamic_dispatch_costlier(self):
        profile = balanced_loop(32, 1000)
        ff = FastForwardEmulator(RuntimeOverheads())
        t_static, _ = ff.emulate_profile(profile.tree, 4, Schedule.static_chunk(1))
        t_dyn, _ = ff.emulate_profile(profile.tree, 4, Schedule.dynamic(1))
        assert t_dyn > t_static

    def test_nodes_visited_counted(self):
        profile = balanced_loop(10)
        ff = FastForwardEmulator(ZERO_OH)
        ff.emulate_profile(profile.tree, 2, Schedule.static())
        assert ff.nodes_visited >= 10


class TestFastPathParity:
    """The columnar FF (``ColumnarEngine.ff_point``, the only FF fast path)
    must match the heap walk: its static-family closed form within 1e-9,
    its dynamic-family greedy walk and its delegated sections ``==``."""

    @staticmethod
    def _both(sec, n_threads, schedule, burden=1.0, oh=ZERO_OH):
        root = Node(NodeKind.ROOT)
        root.add(sec)
        profile = SimpleNamespace(tree=ProgramTree(root), machine=M)
        point = ColumnarEngine(profile, oh).ff_point(
            schedule, n_threads, {sec.name: burden}
        )
        walk = FastForwardEmulator(oh).emulate_section(
            sec, n_threads, schedule, burden=burden
        )
        return point, walk

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_exact_walk(self, data):
        """Random compressed runs x {static, static,c, dynamic, guided} x
        1-12 threads: closed form within 1e-9 relative of the heap walk,
        greedy walk ``==``."""
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC, name="s"))
        for _ in range(data.draw(st.integers(1, 6), label="runs")):
            task = sec.add(
                Node(NodeKind.TASK, repeat=data.draw(st.integers(1, 50)))
            )
            for _ in range(data.draw(st.integers(1, 3), label="leaves")):
                task.add(
                    Node(
                        NodeKind.U,
                        length=data.draw(lengths),
                        repeat=data.draw(st.integers(1, 4)),
                    )
                )
        schedule = data.draw(
            st.sampled_from(
                [Schedule.static(), Schedule.dynamic(1), Schedule.guided(2)]
                + [Schedule.static_chunk(c) for c in (1, 2, 3, 7)]
            ),
            label="schedule",
        )
        n_threads = data.draw(st.integers(1, 12), label="threads")
        burden = data.draw(st.sampled_from([1.0, 1.37]), label="burden")

        point, walk = self._both(sec, n_threads, schedule, burden)
        if schedule.is_dynamic_family:
            assert point[0] == walk
        else:
            assert point[0] == pytest.approx(walk, rel=1e-9)

    def test_overheads_included(self):
        # Fork/dispatch/join charging matches the heap walk too.
        sec = Node(NodeKind.SEC, name="s")
        Node(NodeKind.ROOT).add(sec)
        task = sec.add(Node(NodeKind.TASK, repeat=23))
        task.add(Node(NodeKind.U, length=1500.0))
        oh = RuntimeOverheads()
        for sched in (Schedule.static(), Schedule.static_chunk(3)):
            for t in (1, 4, 6):
                point, walk = self._both(sec, t, sched, oh=oh)
                assert point[0] == pytest.approx(walk, rel=1e-9)

    def test_lock_falls_back(self):
        def program(tr):
            with tr.section("s"):
                for _ in range(4):
                    with tr.task():
                        with tr.lock(1):
                            tr.compute(10_000)

        profile = profile_of(program)
        engine = ColumnarEngine(profile, ZERO_OH)
        point = engine.ff_point(Schedule.static_chunk(1), 4, {})
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 4, Schedule.static_chunk(1))
        assert time == pytest.approx(40_000.0, rel=0.01)
        # The lock-bearing section runs on the heap walk inside the point.
        assert point[0] == time

    def test_nested_section_falls_back(self):
        def program(tr):
            with tr.section("outer"):
                for _ in range(2):
                    with tr.task():
                        with tr.section("inner"):
                            with tr.task():
                                tr.compute(5_000)

        profile = profile_of(program)
        engine = ColumnarEngine(profile, ZERO_OH)
        point = engine.ff_point(Schedule.static(), 4, {})
        ff = FastForwardEmulator(ZERO_OH)
        time, _ = ff.emulate_profile(profile.tree, 4, Schedule.static())
        assert time == pytest.approx(5_000.0, rel=0.01)
        assert point[0] == time

    def test_more_threads_than_chunks(self):
        # Threads beyond the chunk count contribute fork time only.
        sec = Node(NodeKind.SEC, name="s")
        Node(NodeKind.ROOT).add(sec)
        task = sec.add(Node(NodeKind.TASK, repeat=3))
        task.add(Node(NodeKind.U, length=1000.0))
        point, walk = self._both(sec, 8, Schedule.static_chunk(2))
        assert point[0] == pytest.approx(walk, rel=1e-9)


class TestCompressedTrees:
    def test_repeat_expansion_matches_explicit(self):
        # A compressed section (one task, repeat=12) must emulate the same
        # as twelve explicit identical tasks.
        explicit = Node(NodeKind.ROOT)
        sec_e = explicit.add(Node(NodeKind.SEC, name="s"))
        for _ in range(12):
            t = sec_e.add(Node(NodeKind.TASK))
            t.add(Node(NodeKind.U, length=1000))

        compressed = Node(NodeKind.ROOT)
        sec_c = compressed.add(Node(NodeKind.SEC, name="s"))
        t = sec_c.add(Node(NodeKind.TASK, repeat=12))
        t.add(Node(NodeKind.U, length=1000))

        ff = FastForwardEmulator(ZERO_OH)
        a = ff.emulate_section(sec_e, 4, Schedule.static())
        b = ff.emulate_section(sec_c, 4, Schedule.static())
        assert a == pytest.approx(b)


class TestCounterSemantics:
    """The bugfix: ``nodes_visited`` is per-emulation scratch
    (emulate_profile resets it on entry), while cumulative totals live on
    the process metrics registry."""

    def test_emulate_profile_resets_instance_counters(self):
        ff = FastForwardEmulator(ZERO_OH)
        profile = balanced_loop(8)
        ff.emulate_profile(profile.tree, 4, Schedule.static())
        first = ff.nodes_visited
        ff.emulate_profile(profile.tree, 4, Schedule.static())
        # A shared emulator reused across grid points reports the *last*
        # emulation, not an ever-growing sum (the seed leaked counts).
        assert ff.nodes_visited == first > 0

    def test_reset_counters_between_direct_section_calls(self):
        sec = Node(NodeKind.SEC, name="s")
        Node(NodeKind.ROOT).add(sec)
        task = sec.add(Node(NodeKind.TASK, repeat=4))
        task.add(Node(NodeKind.U, length=1000.0))
        ff = FastForwardEmulator(ZERO_OH)
        ff.emulate_section(sec, 2, Schedule.static())
        once = ff.nodes_visited
        ff.emulate_section(sec, 4, Schedule.static())
        assert ff.nodes_visited == 2 * once > 0
        ff.reset_counters()
        assert ff.nodes_visited == 0

    def test_registry_accumulates_across_emulations(self):
        from repro.obs import MetricsRegistry, set_metrics

        mine = MetricsRegistry()
        old = set_metrics(mine)
        try:
            ff = FastForwardEmulator(ZERO_OH)
            profile = balanced_loop(8)
            ff.emulate_profile(profile.tree, 2, Schedule.static())
            visited = ff.nodes_visited
            ff.emulate_profile(profile.tree, 4, Schedule.static())
            assert mine.counter_value("ff.emulations") == 2.0
            # Cumulative, even though the instance attribute was reset in
            # between.
            assert mine.counter_value("ff.nodes_visited") == (
                visited + ff.nodes_visited
            )
        finally:
            set_metrics(old)
