"""Tests for tree replay: REAL ground truth and FAKE synthesizer modes."""

import pytest

from repro.core.executor import ParallelExecutor, ReplayMode
from repro.core.lower import OVERHEAD_ACCESS_NODE
from repro.core.profiler import IntervalProfiler
from repro.core.tree import Node, NodeKind
from repro.errors import EmulationError
from repro.runtime import RuntimeOverheads, Schedule
from repro.simhw import MachineConfig
from repro.simhw.memtrace import AccessPattern, MemSpec

M = MachineConfig(n_cores=4)
M12 = MachineConfig(n_cores=12)
ZERO_OH = RuntimeOverheads().scaled(0.0)


def profile_of(program, machine=M):
    return IntervalProfiler(machine).profile(program)


def balanced(n=8, cost=50_000):
    def program(tr):
        with tr.section("loop"):
            for _ in range(n):
                with tr.task():
                    tr.compute(cost)

    return profile_of(program)


class TestRealReplay:
    def test_single_thread_matches_serial(self):
        profile = balanced()
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        result = ex.execute_profile(profile.tree, 1, ReplayMode.REAL)
        assert result.speedup == pytest.approx(1.0, rel=0.01)

    def test_balanced_scales(self):
        profile = balanced(8, 50_000)
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        result = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        assert result.speedup == pytest.approx(4.0, rel=0.02)

    def test_speedup_bounded_by_threads(self):
        profile = balanced(16, 20_000)
        ex = ParallelExecutor(M)
        for t in (2, 4):
            r = ex.execute_profile(profile.tree, t, ReplayMode.REAL)
            assert r.speedup <= t

    def test_memory_bound_saturates(self):
        def program(tr):
            spec = MemSpec(AccessPattern.STREAMING, bytes_touched=20_000_000)
            with tr.section("stream"):
                for _ in range(12):
                    with tr.task():
                        tr.compute(1_000_000, mem=spec)

        profile = profile_of(program, M12)
        ex = ParallelExecutor(M12, overheads=ZERO_OH)
        s4 = ex.execute_profile(profile.tree, 4, ReplayMode.REAL).speedup
        s12 = ex.execute_profile(profile.tree, 12, ReplayMode.REAL).speedup
        # Heavily memory-bound: 12 threads barely beat 4.
        assert s12 < s4 * 1.5
        assert s12 < 4.0

    def test_lock_contention_is_real(self):
        def program(tr):
            with tr.section("locks"):
                for _ in range(4):
                    with tr.task():
                        with tr.lock(1):
                            tr.compute(50_000)

        profile = profile_of(program)
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        assert r.speedup == pytest.approx(1.0, rel=0.05)

    def test_serial_nodes_added(self):
        def program(tr):
            tr.compute(100_000)
            with tr.section("s"):
                for _ in range(4):
                    with tr.task():
                        tr.compute(25_000)

        profile = profile_of(program)
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        # Amdahl: 200k serial time, parallel = 100k + 25k.
        assert r.total_cycles == pytest.approx(125_000.0, rel=0.02)

    def test_nested_oversubscription_fair(self):
        """Fig. 7 ground truth: 2.0x on a dual-core."""
        machine = MachineConfig(n_cores=2, timeslice_cycles=20_000.0)
        unit = 1e6

        def program(tr):
            with tr.section("Loop1"):
                with tr.task():
                    with tr.section("A"):
                        with tr.task():
                            tr.compute(10 * unit)
                        with tr.task():
                            tr.compute(5 * unit)
                with tr.task():
                    with tr.section("B"):
                        with tr.task():
                            tr.compute(5 * unit)
                        with tr.task():
                            tr.compute(10 * unit)

        profile = profile_of(program, machine)
        ex = ParallelExecutor(machine, overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 2, ReplayMode.REAL)
        assert r.speedup == pytest.approx(2.0, rel=0.03)

    def test_repeat_compressed_equivalent(self):
        # Build compressed tree by hand; replay must expand repeats.
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC, name="s"))
        task = sec.add(Node(NodeKind.TASK, repeat=8))
        task.add(Node(NodeKind.U, length=50_000, cpu_cycles=50_000, instructions=50_000))
        from repro.core.tree import ProgramTree

        tree = ProgramTree(root)
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        r = ex.execute_profile(tree, 4, ReplayMode.REAL)
        assert r.speedup == pytest.approx(4.0, rel=0.02)


class TestFakeReplay:
    def test_fake_uses_measured_lengths(self):
        profile = balanced(8, 50_000)
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        real = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        fake = ex.execute_profile(profile.tree, 4, ReplayMode.FAKE)
        assert fake.speedup == pytest.approx(real.speedup, rel=0.02)

    def test_burden_slows_fake(self):
        profile = balanced()
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        plain = ex.execute_profile(profile.tree, 4, ReplayMode.FAKE)
        burdened = ex.execute_profile(
            profile.tree, 4, ReplayMode.FAKE, burdens={"loop": 1.5}
        )
        assert burdened.speedup == pytest.approx(plain.speedup / 1.5, rel=0.05)

    def test_burden_ignored_in_real(self):
        profile = balanced()
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        a = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        b = ex.execute_profile(profile.tree, 4, ReplayMode.REAL, burdens={"loop": 9.9})
        assert a.total_cycles == b.total_cycles

    def test_traversal_overhead_tracked_and_subtracted(self):
        profile = balanced(n=16, cost=1_000)
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        fake = ex.execute_profile(profile.tree, 2, ReplayMode.FAKE)
        run = fake.sections[0]
        assert run.traversal_overhead > 0
        assert run.net_cycles < run.gross_cycles
        # Per-worker overhead: at least the per-node cost times the nodes
        # one worker handled.
        assert run.traversal_overhead >= OVERHEAD_ACCESS_NODE * 8

    def test_real_has_no_traversal_overhead(self):
        profile = balanced()
        ex = ParallelExecutor(M, overheads=ZERO_OH)
        real = ex.execute_profile(profile.tree, 2, ReplayMode.REAL)
        assert real.sections[0].traversal_overhead == 0.0

    def test_fake_does_not_touch_memory(self):
        """FakeDelay must not generate DRAM traffic: a memory-bound program
        replayed FAKE (burden 1) scales as if compute-bound."""

        def program(tr):
            spec = MemSpec(AccessPattern.STREAMING, bytes_touched=20_000_000)
            with tr.section("stream"):
                for _ in range(12):
                    with tr.task():
                        tr.compute(1_000_000, mem=spec)

        profile = profile_of(program, M12)
        ex = ParallelExecutor(M12, overheads=ZERO_OH)
        fake = ex.execute_profile(profile.tree, 12, ReplayMode.FAKE)
        assert fake.speedup == pytest.approx(12.0, rel=0.05)


class TestCilkReplay:
    def test_cilk_balanced(self):
        profile = balanced(16, 50_000)
        ex = ParallelExecutor(M, paradigm="cilk", overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        assert r.speedup == pytest.approx(4.0, rel=0.15)

    def test_cilk_nested_scales(self):
        def program(tr):
            with tr.section("outer"):
                for _ in range(2):
                    with tr.task():
                        with tr.section("inner"):
                            for _ in range(2):
                                with tr.task():
                                    tr.compute(100_000)

        profile = profile_of(program)
        ex = ParallelExecutor(M, paradigm="cilk", overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        # Work stealing flattens the nested structure: near-ideal.
        assert r.speedup == pytest.approx(4.0, rel=0.2)

    def test_cilk_locks(self):
        def program(tr):
            with tr.section("s"):
                for _ in range(4):
                    with tr.task():
                        with tr.lock(1):
                            tr.compute(25_000)

        profile = profile_of(program)
        ex = ParallelExecutor(M, paradigm="cilk", overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        assert r.speedup == pytest.approx(1.0, rel=0.1)

    def test_steals_reported(self):
        profile = balanced(16, 10_000)
        ex = ParallelExecutor(M, paradigm="cilk", overheads=ZERO_OH)
        r = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
        assert r.sections[0].steals > 0


class TestValidation:
    def test_unknown_paradigm(self):
        with pytest.raises(EmulationError):
            ParallelExecutor(M, paradigm="tbb")

    def test_execute_section_needs_sec(self):
        ex = ParallelExecutor(M)
        with pytest.raises(EmulationError):
            ex.execute_section(Node(NodeKind.TASK), 2)

    def test_schedules_affect_real_replay(self):
        def program(tr):
            with tr.section("ramp"):
                for i in range(12):
                    with tr.task():
                        tr.compute((i + 1) * 20_000)

        profile = profile_of(program)
        static = ParallelExecutor(M, schedule=Schedule.static(), overheads=ZERO_OH)
        rr = ParallelExecutor(M, schedule=Schedule.static_chunk(1), overheads=ZERO_OH)
        s_static = static.execute_profile(profile.tree, 4, ReplayMode.REAL).speedup
        s_rr = rr.execute_profile(profile.tree, 4, ReplayMode.REAL).speedup
        assert s_rr > s_static
