"""Tests for the interval profiler and ProgramProfile."""

import math

import pytest

from repro.core.profiler import IntervalProfiler
from repro.errors import ConfigurationError
from repro.simhw import MachineConfig
from repro.simhw.memtrace import AccessPattern, MemSpec

M = MachineConfig(n_cores=4)


def simple_program(tr):
    tr.compute(500)
    with tr.section("loop"):
        for i in range(4):
            with tr.task():
                tr.compute(1000 * (i + 1))
    tr.compute(250)


def memory_program(tr):
    spec = MemSpec(AccessPattern.STREAMING, bytes_touched=64 * 50_000)
    with tr.section("hot"):
        for _ in range(4):
            with tr.task():
                tr.compute(10_000, mem=spec)


class TestProfile:
    def test_tree_and_serial_cycles(self):
        profile = IntervalProfiler(M).profile(simple_program)
        assert profile.serial_cycles() == pytest.approx(500 + 10_000 + 250)

    def test_sections_collected(self):
        profile = IntervalProfiler(M).profile(simple_program)
        assert set(profile.sections) == {"loop"}
        assert profile.sections["loop"].invocations == 1

    def test_section_counter_values(self):
        profile = IntervalProfiler(M).profile(memory_program)
        sc = profile.sections["hot"]
        assert sc.total.llc_misses == pytest.approx(4 * 50_000)
        assert sc.mpi > 0
        assert sc.traffic_mbs(M) > 0

    def test_compression_applied(self):
        profile = IntervalProfiler(M, compress=True).profile(memory_program)
        assert profile.compression is not None
        # Four identical tasks collapse.
        assert profile.tree.unique_nodes() <= 4

    def test_compression_disabled(self):
        profile = IntervalProfiler(M, compress=False).profile(memory_program)
        assert profile.compression is None
        assert profile.tree.unique_nodes() == 2 + 4 * 2

    def test_profiling_stats_slowdown(self):
        profile = IntervalProfiler(M).profile(simple_program)
        stats = profile.stats
        assert stats.slowdown >= 1.0
        assert stats.annotation_events == 2 + 4 * 2
        assert stats.gross_tracer_cycles > stats.net_program_cycles

    def test_repeated_section_invocations(self):
        def program(tr):
            for _ in range(5):
                with tr.section("rep"):
                    with tr.task():
                        tr.compute(100)

        profile = IntervalProfiler(M).profile(program)
        assert profile.sections["rep"].invocations == 5


class TestCompressWhileTracing:
    def test_profiler_never_runs_the_batch_pass(self, monkeypatch):
        import repro.core.compress as compress

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the batch RLE pass walked a full tree")

        monkeypatch.setattr(compress, "_rle", forbidden)
        profile = IntervalProfiler(M).profile(memory_program)
        sec = profile.tree.top_level_sections()[0]
        assert [t.repeat for t in sec.children] == [4]

    def test_counts_are_the_raw_tree_size(self):
        profile = IntervalProfiler(M).profile(memory_program)
        raw = IntervalProfiler(M, compress=False).profile(memory_program)
        nodes = raw.tree.unique_nodes()
        assert nodes == 2 + 4 * 2
        assert profile.compression.logical_nodes == nodes
        assert profile.compression.nodes_before == nodes
        assert profile.compression.nodes_after == profile.tree.unique_nodes()

    def test_net_cycles_equal_the_raw_tree(self):
        profile = IntervalProfiler(M).profile(simple_program)
        raw = IntervalProfiler(M, compress=False).profile(simple_program)
        assert profile.stats.net_program_cycles == raw.tree.serial_cycles()
        assert profile.tree.root.length == profile.stats.net_program_cycles


class TestToleranceChecks:
    @pytest.mark.parametrize("tolerance", [-0.1, math.nan, math.inf, "5%"])
    def test_bad_tolerance_rejected_before_tracing(self, tolerance):
        with pytest.raises(ConfigurationError, match="tolerance"):
            IntervalProfiler(M, tolerance=tolerance)

    def test_prophet_rejects_bad_tolerance(self):
        from repro import ParallelProphet

        with pytest.raises(ConfigurationError, match="tolerance"):
            ParallelProphet(machine=M, compression_tolerance=math.nan)

    def test_zero_tolerance_accepted(self):
        profile = IntervalProfiler(M, tolerance=0.0).profile(memory_program)
        assert profile.compression is not None


class TestBurdenLookup:
    def test_default_burden_is_one(self):
        profile = IntervalProfiler(M).profile(simple_program)
        assert profile.burden_for("loop", 8) == 1.0

    def test_exact_lookup(self):
        profile = IntervalProfiler(M).profile(simple_program)
        profile.burdens["loop"] = {2: 1.1, 4: 1.3}
        assert profile.burden_for("loop", 4) == pytest.approx(1.3)

    def test_interpolation(self):
        profile = IntervalProfiler(M).profile(simple_program)
        profile.burdens["loop"] = {2: 1.0, 6: 2.0}
        assert profile.burden_for("loop", 4) == pytest.approx(1.5)

    def test_clamping_at_edges(self):
        profile = IntervalProfiler(M).profile(simple_program)
        profile.burdens["loop"] = {4: 1.5, 8: 2.0}
        assert profile.burden_for("loop", 2) == pytest.approx(1.5)
        assert profile.burden_for("loop", 16) == pytest.approx(2.0)

    def test_unknown_section(self):
        profile = IntervalProfiler(M).profile(simple_program)
        assert profile.burden_for("nope", 4) == 1.0
