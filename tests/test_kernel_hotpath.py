"""Tests for the event-sparse kernel and the replay section memo.

Two layers are covered: the lazy-quantum / incremental-reconfigure kernel
and the process-wide section memo.  The kernel's schedules are pinned by a
golden corpus (``tests/kernel_corpus.py``): every case must reproduce its
recorded final time, preemption count, event count and schedule-trace
digest exactly, whether or not the run is traced.
"""

from __future__ import annotations

import pytest

from repro.core.executor import (
    ParallelExecutor,
    ReplayMode,
    clear_section_memo,
    section_memo_info,
)
from repro.core.tree import Node, NodeKind, ProgramTree
from repro.obs import Tracer
from repro.simhw import MachineConfig
from repro.simos import Compute, Join, SimKernel, Spawn
from tests.kernel_corpus import MACHINES, generate_cases, load_corpus, replay


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_section_memo()
    yield
    clear_section_memo()


# --------------------------------------------------- satellite: counters


class TestCounterAttribution:
    """Resume switch-cost must not inflate counter attribution: instruction
    and miss totals equal the requested amounts even when segments are
    preempted and resumed many times on cold cores."""

    def test_totals_exact_under_forced_preemption(self):
        machine = MachineConfig(
            n_cores=2,
            timeslice_cycles=1_000.0,
            context_switch_cycles=700.0,
        )

        def spin(cycles, instr, misses):
            yield Compute(cycles=cycles, instructions=instr, llc_misses=misses)

        def main():
            ts = []
            for i in range(6):
                ts.append(
                    (yield Spawn(spin(40_000.0 + i * 7_000.0, 10_000.0, 64.0)))
                )
            for t in ts:
                yield Join(t)

        kernel = SimKernel(machine)
        kernel.spawn(main())
        kernel.run()
        assert kernel.preemptions > 10, "test must actually force preemption"
        assert kernel.counters.instructions == pytest.approx(60_000.0, rel=1e-12)
        assert kernel.counters.llc_misses == pytest.approx(6 * 64.0, rel=1e-12)

    def test_totals_exact_traced_and_untraced(self):
        machine = MachineConfig(
            n_cores=1, timeslice_cycles=500.0, context_switch_cycles=300.0
        )

        def spin():
            yield Compute(cycles=10_000.0, instructions=5_000.0, llc_misses=16.0)

        def main():
            a = yield Spawn(spin())
            b = yield Spawn(spin())
            yield Join(a)
            yield Join(b)

        for enabled in (False, True):
            kernel = SimKernel(machine, tracer=Tracer(enabled=enabled))
            kernel.spawn(main())
            kernel.run()
            assert kernel.counters.instructions == pytest.approx(10_000.0)
            assert kernel.counters.llc_misses == pytest.approx(32.0)


# ---------------------------------------------------------- golden corpus


class TestGoldenCorpus:
    """The kernel reproduces every case of the golden schedule corpus
    (``tests/kernel_corpus.py``): final time, preemptions, events pushed
    and the sha256 of the schedule trace, untraced and traced alike."""

    def test_cases_regenerate(self):
        """The seeded generator still yields the recorded settings, so a
        digest mismatch below is a kernel change, not a corpus change."""
        records = load_corpus()
        cases = generate_cases()
        assert len(records) == len(cases) == 240 + 108
        for case, record in zip(cases, records):
            assert {k: record[k] for k in case} == case

    def test_corpus_covers_the_settings(self):
        records = load_corpus()

        def seen(field):
            return {r[field] for r in records}

        assert seen("paradigm") == {"omp", "cilk", "omp_task"}
        assert seen("mode") == {"real", "fake"}
        assert seen("handoff") == {"fifo", "lifo", "random", "adversarial"}
        assert seen("schedule") == {"static", "static,3", "dynamic,2", "guided,1"}
        assert seen("machine") == set(MACHINES)
        over = {
            r["n_threads"] > MACHINES[r["machine"]].n_cores for r in records
        }
        assert over == {False, True}
        for handoff in ("fifo", "lifo", "random", "adversarial"):
            assert any(r["locks"] for r in records if r["handoff"] == handoff)
        assert any(r["preemptions"] > 0 for r in records)
        nested = [r for r in records if r.get("nested")]
        assert {(r["paradigm"], r["mode"]) for r in nested} == {
            (p, m) for p in ("omp", "cilk", "omp_task") for m in ("real", "fake")
        }
        assert {r["n_threads"] for r in nested} == {1, 2, 4, 8}
        assert all(r["locks"] for r in nested if r["handoff"] == "lifo")

    def test_untraced_replays_match_corpus(self):
        mismatched = [r["id"] for r in load_corpus() if replay(r) != r]
        assert mismatched == []

    def test_traced_replays_match_corpus(self):
        """Tracing only observes: every policy's traced schedule is the
        untraced one, event count included."""
        subset = load_corpus()[::4]
        assert {r["handoff"] for r in subset} == {
            "fifo", "lifo", "random", "adversarial"
        }
        mismatched = [
            r["id"] for r in subset if replay(r, tracer=Tracer(enabled=True)) != r
        ]
        assert mismatched == []


# ------------------------------------------------------- event sparsity


class TestEventSparsity:
    def test_uncontended_compute_is_o1_in_duration(self):
        """An uncontended single-thread compute must push O(1) heap events
        regardless of how many timeslices it spans."""
        counts = []
        for slices in (10, 1_000):
            machine = MachineConfig(n_cores=2, timeslice_cycles=1_000.0)

            def main():
                yield Compute(cycles=slices * 1_000.0)

            kernel = SimKernel(machine)
            kernel.spawn(main())
            kernel.run()
            counts.append(kernel.events_pushed)
        assert counts[0] == counts[1], (
            f"event count grew with duration: {counts}"
        )
        assert counts[0] <= 4

    def test_zero_demand_reconfigures_skip_solver(self):
        machine = MachineConfig(n_cores=4)

        def spin():
            yield Compute(cycles=50_000.0)

        def main():
            ts = []
            for _ in range(4):
                ts.append((yield Spawn(spin())))
            for t in ts:
                yield Join(t)

        kernel = SimKernel(machine)
        kernel.spawn(main())
        kernel.run()
        stats = kernel.dram_cache_stats()
        assert stats["hits"] == stats["misses"] == 0

    def test_steady_demand_solves_once(self):
        """Identical missy segments swapping in and out leave the demand
        multiset unchanged: one solve serves both streams' 19 segment
        changes, and one more the lone last segment."""
        machine = MachineConfig(n_cores=2)

        def stream():
            for _ in range(20):
                yield Compute(cycles=40_000.0, llc_misses=400.0)

        def main():
            a = yield Spawn(stream())
            b = yield Spawn(stream())
            yield Join(a)
            yield Join(b)

        kernel = SimKernel(machine)
        kernel.spawn(main())
        kernel.run()
        stats = kernel.dram_cache_stats()
        assert stats["hits"] + stats["misses"] == 2


# ------------------------------------------------------------ fixtures


def _leaf_section(with_lock=False, nested=False, misses=False):
    root = Node(NodeKind.ROOT)
    sec = root.add(Node(NodeKind.SEC, name="s"))
    for _ in range(3):
        task = sec.add(Node(NodeKind.TASK, repeat=8))
        task.add(
            Node(
                NodeKind.U,
                length=10_000.0,
                cpu_cycles=10_000.0,
                instructions=5_000.0,
                llc_misses=40.0 if misses else 0.0,
            )
        )
        if with_lock:
            task.add(
                Node(NodeKind.L, length=500.0, cpu_cycles=500.0, lock_id=1)
            )
        if nested:
            inner = task.add(Node(NodeKind.SEC, name="inner"))
            it = inner.add(Node(NodeKind.TASK, repeat=2))
            it.add(Node(NodeKind.U, length=1_000.0, cpu_cycles=1_000.0))
    return ProgramTree(root)


# ----------------------------------------------------------- section memo


class TestSectionMemo:
    MACHINE = MachineConfig(n_cores=4)

    def test_identical_sections_hit_across_executor_instances(self):
        """The memo is process-wide: a fresh executor replays into it."""
        tree = _leaf_section()
        before = section_memo_info()["hits"]
        r1 = ParallelExecutor(self.MACHINE).execute_profile(
            tree, 4, ReplayMode.REAL
        )
        r2 = ParallelExecutor(self.MACHINE).execute_profile(
            tree, 4, ReplayMode.REAL
        )
        info = section_memo_info()
        assert info["hits"] == before + 1
        assert r1.total_cycles == r2.total_cycles

    def test_key_distinguishes_threads_and_burden(self):
        tree = _leaf_section()
        ex = ParallelExecutor(self.MACHINE)
        ex.execute_profile(tree, 2, ReplayMode.FAKE, burdens={"s": 1.0})
        misses = section_memo_info()["misses"]
        ex.execute_profile(tree, 4, ReplayMode.FAKE, burdens={"s": 1.0})
        ex.execute_profile(tree, 4, ReplayMode.FAKE, burdens={"s": 1.5})
        assert section_memo_info()["misses"] == misses + 2

    def test_tracing_bypasses_memo(self):
        tree = _leaf_section()
        tracer = Tracer(enabled=True)
        ex = ParallelExecutor(self.MACHINE, tracer=tracer)
        ex.execute_profile(tree, 4, ReplayMode.REAL)
        info = section_memo_info()
        assert info["hits"] == 0 and info["misses"] == 0

    def test_memo_result_matches_fresh_run(self):
        tree = _leaf_section(misses=True)
        a = ParallelExecutor(self.MACHINE).execute_profile(
            tree, 4, ReplayMode.REAL
        )
        clear_section_memo()
        b = ParallelExecutor(self.MACHINE).execute_profile(
            tree, 4, ReplayMode.REAL
        )
        assert a.total_cycles == b.total_cycles
