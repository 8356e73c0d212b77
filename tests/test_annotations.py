"""Tests for the annotation API and tracer (paper Table II semantics)."""

import pytest

from repro.core.annotations import Tracer
from repro.core.tree import NodeKind
from repro.errors import AnnotationError
from repro.simhw import MachineConfig
from repro.simhw.memtrace import AccessPattern, MemSpec

M = MachineConfig(n_cores=4)


def make_tracer(**kwargs) -> Tracer:
    return Tracer(M, **kwargs)


class TestBasicStructure:
    def test_simple_loop_tree(self):
        tr = make_tracer()
        with tr.section("loop"):
            for i in range(3):
                with tr.task(f"i{i}"):
                    tr.compute(1000)
        root = tr.finish()
        assert len(root.children) == 1
        sec = root.children[0]
        assert sec.kind is NodeKind.SEC
        assert sec.name == "loop"
        assert len(sec.children) == 3
        assert all(t.kind is NodeKind.TASK for t in sec.children)
        assert all(t.children[0].kind is NodeKind.U for t in sec.children)

    def test_lock_produces_l_node(self):
        tr = make_tracer()
        with tr.section("s"):
            with tr.task():
                tr.compute(100)
                with tr.lock(7):
                    tr.compute(50)
                tr.compute(100)
        root = tr.finish()
        task = root.children[0].children[0]
        kinds = [c.kind for c in task.children]
        assert kinds == [NodeKind.U, NodeKind.L, NodeKind.U]
        assert task.children[1].lock_id == 7

    def test_top_level_serial_node(self):
        tr = make_tracer()
        tr.compute(500)
        with tr.section("s"):
            with tr.task():
                tr.compute(100)
        tr.compute(300)
        root = tr.finish()
        kinds = [c.kind for c in root.children]
        assert kinds == [NodeKind.U, NodeKind.SEC, NodeKind.U]

    def test_nested_section(self):
        tr = make_tracer()
        with tr.section("outer"):
            with tr.task():
                with tr.section("inner"):
                    with tr.task():
                        tr.compute(10)
        root = tr.finish()
        inner = root.children[0].children[0].children[0]
        assert inner.kind is NodeKind.SEC
        assert inner.name == "inner"

    def test_consecutive_computes_merge(self):
        tr = make_tracer()
        with tr.section("s"):
            with tr.task():
                tr.compute(100)
                tr.compute(200)
                tr.compute(300)
        root = tr.finish()
        task = root.children[0].children[0]
        assert len(task.children) == 1
        assert task.children[0].length == pytest.approx(600)

    def test_nowait_recorded(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        tr.par_task_begin()
        tr.compute(10)
        tr.par_task_end()
        tr.par_sec_end(barrier=False)
        root = tr.finish()
        assert root.children[0].nowait is True


class TestLengths:
    def test_leaf_length_is_measured_compute(self):
        tr = make_tracer()
        with tr.section("s"):
            with tr.task():
                measured = tr.compute(12345)
        root = tr.finish()
        leaf = root.children[0].children[0].children[0]
        assert leaf.length == pytest.approx(measured)

    def test_overhead_perfectly_subtracted(self):
        tr = make_tracer(overhead_subtraction_accuracy=1.0)
        with tr.section("s"):
            for _ in range(5):
                with tr.task():
                    tr.compute(1000)
        root = tr.finish()
        sec = root.children[0]
        # Net section length equals the sum of the real computation.
        assert sec.length == pytest.approx(5000.0)

    def test_imperfect_subtraction_leaves_residue(self):
        tr = make_tracer(overhead_subtraction_accuracy=0.0)
        with tr.section("s"):
            for _ in range(5):
                with tr.task():
                    tr.compute(1000)
        root = tr.finish()
        sec = root.children[0]
        # All the tracer overhead inside remains in the gross length.
        inside_events = 10 + 1  # 5 task pairs + the sec begin
        expected = 5000.0 + inside_events * M.tracer_overhead_cycles
        assert sec.length == pytest.approx(expected)

    def test_memory_compute_includes_stall(self):
        tr = make_tracer()
        spec = MemSpec(AccessPattern.STREAMING, bytes_touched=64 * 100_000)
        with tr.section("s"):
            with tr.task():
                measured = tr.compute(1000, mem=spec)
        # 100k misses at >= base stall each, far beyond the cpu part.
        assert measured >= 100_000 * M.base_miss_stall

    def test_counters_accumulate(self):
        tr = make_tracer()
        with tr.section("s"):
            with tr.task():
                tr.compute(1000, instructions=800)
        tr.finish()
        assert tr.counters.instructions == 800


class TestSectionCounters:
    def test_per_section_collection(self):
        tr = make_tracer()
        spec = MemSpec(AccessPattern.STREAMING, bytes_touched=64 * 1000)
        with tr.section("hot"):
            with tr.task():
                tr.compute(1000, mem=spec)
        with tr.section("cold"):
            with tr.task():
                tr.compute(1000)
        tr.finish()
        counters = tr.section_counters()
        assert set(counters) == {"hot", "cold"}
        assert counters["hot"][0].llc_misses == pytest.approx(1000)
        assert counters["cold"][0].llc_misses == 0

    def test_repeated_sections_one_delta_each(self):
        tr = make_tracer()
        for _ in range(3):
            with tr.section("loop"):
                with tr.task():
                    tr.compute(100)
        tr.finish()
        assert len(tr.section_counters()["loop"]) == 3

    def test_nested_sections_not_counted_separately(self):
        tr = make_tracer()
        with tr.section("outer"):
            with tr.task():
                with tr.section("inner"):
                    with tr.task():
                        tr.compute(10)
        tr.finish()
        assert set(tr.section_counters()) == {"outer"}


class TestErrorChecking:
    def test_task_outside_section(self):
        tr = make_tracer()
        with pytest.raises(AnnotationError):
            tr.par_task_begin()

    def test_mismatched_end(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        with pytest.raises(AnnotationError):
            tr.par_task_end()

    def test_sec_end_inside_task(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        tr.par_task_begin()
        with pytest.raises(AnnotationError):
            tr.par_sec_end()

    def test_compute_directly_in_section(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        with pytest.raises(AnnotationError):
            tr.compute(100)

    def test_lock_outside_task(self):
        tr = make_tracer()
        with pytest.raises(AnnotationError):
            tr.lock_begin(1)

    def test_nested_locks_rejected(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        tr.par_task_begin()
        tr.lock_begin(1)
        with pytest.raises(AnnotationError):
            tr.lock_begin(2)

    def test_wrong_lock_end(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        tr.par_task_begin()
        tr.lock_begin(1)
        with pytest.raises(AnnotationError):
            tr.lock_end(2)

    def test_task_end_with_lock_held(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        tr.par_task_begin()
        tr.lock_begin(1)
        with pytest.raises(AnnotationError):
            tr.par_task_end()

    def test_section_inside_lock_rejected(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        tr.par_task_begin()
        tr.lock_begin(1)
        with pytest.raises(AnnotationError):
            tr.par_sec_begin("nested")

    def test_finish_with_open_pairs(self):
        tr = make_tracer()
        tr.par_sec_begin("s")
        with pytest.raises(AnnotationError):
            tr.finish()

    def test_use_after_finish(self):
        tr = make_tracer()
        tr.finish()
        with pytest.raises(AnnotationError):
            tr.compute(10)

    def test_negative_compute(self):
        tr = make_tracer()
        with pytest.raises(AnnotationError):
            tr.compute(-5)

    @pytest.mark.parametrize("cycles", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_compute(self, cycles):
        """A NaN or infinite compute would profile to a NaN serial time
        and NaN speedups."""
        tr = make_tracer()
        with tr.section("s"), tr.task():
            with pytest.raises(AnnotationError, match="cpu_cycles"):
                tr.compute(cycles)
            tr.compute(100)
        tr.finish()
        assert tr.counters.cycles == 100

    @pytest.mark.parametrize(
        "instructions", [-1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_bad_instructions(self, instructions):
        tr = make_tracer()
        with tr.section("s"), tr.task():
            with pytest.raises(AnnotationError, match="instructions"):
                tr.compute(100, instructions=instructions)
            with pytest.raises(AnnotationError, match="instructions"):
                tr.compute(0, instructions=instructions)
        assert tr.counters.instructions == 0.0

    def test_zero_compute_is_valid(self):
        tr = make_tracer()
        with tr.section("s"), tr.task():
            assert tr.compute(0) == 0.0
            tr.compute(10, instructions=0)
        assert tr.finish().length > 0

    def test_invalid_accuracy(self):
        with pytest.raises(AnnotationError):
            make_tracer(overhead_subtraction_accuracy=1.5)


class TestOverheadAccounting:
    def test_annotation_events_counted(self):
        tr = make_tracer()
        with tr.section("s"):  # 2 events
            with tr.task():  # 2 events
                tr.compute(10)
                with tr.lock(1):  # 2 events
                    tr.compute(10)
        tr.finish()
        assert tr.annotation_events == 6
        assert tr.overhead_total == pytest.approx(6 * M.tracer_overhead_cycles)

    def test_gross_clock_includes_overhead(self):
        tr = make_tracer()
        with tr.section("s"):
            with tr.task():
                tr.compute(1000)
        tr.finish()
        assert tr.clock == pytest.approx(1000 + 4 * M.tracer_overhead_cycles)
