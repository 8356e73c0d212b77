"""The served answers reproduce the golden answer corpus exactly.

``tests/answer_corpus.py`` draws 48 seeded Fig. 11 programs (Test1 and
Test2, 8 and 12 cores, three schedules) and records their FF, SYN and REAL
speedups as ``float.hex`` beside a sha256 of each serialized profile; its
Fig. 12 slice records the Fig. 12 grid of the eight benchmarks the same
way.  Every record must come back bit for bit: a profiler change shows up
as a profile digest mismatch, an evaluator change as a speedup mismatch.
"""

from __future__ import annotations

import pytest

from repro.baselines.cilkview import CilkviewAnalyzer
from repro.core.executor import clear_section_memo
from repro.validate.invariants import SPEEDUP_EPS
from tests.answer_corpus import (
    CORES,
    FIG12_SCALES,
    FIG12_THREADS,
    N_PROGRAMS,
    POOL_THREADS,
    POOL_WORKLOADS,
    SCHEDULES,
    Answerer,
    answer_fig12,
    draw_programs,
    load_corpus,
    load_fig12,
)


class TestAnswerCorpus:
    def test_programs_regenerate(self):
        """The seeded stream still yields the recorded settings, so a
        mismatch below is a pipeline change, not a corpus change."""
        records = load_corpus()
        programs = draw_programs()
        assert len(records) == len(programs) == N_PROGRAMS
        for program, record in zip(programs, records):
            for key in ("index", "pattern", "cores", "schedule"):
                assert record[key] == program[key]
        assert {r["pattern"] for r in records} == {"test1", "test2"}
        assert {r["cores"] for r in records} == set(CORES)
        assert {r["schedule"] for r in records} == set(SCHEDULES)

    def test_answers_match_corpus(self):
        clear_section_memo()
        answerer = Answerer()
        mismatched = []
        for program, record in zip(draw_programs(), load_corpus()):
            profile = answerer.profile(program)
            if answerer.answer(program, profile) != record:
                mismatched.append(record["index"])
        assert mismatched == []


@pytest.fixture(scope="module")
def fig12_answers():
    """Every Fig. 12 benchmark's ``(record, (task, estimate) pairs,
    profile)``, answered once for the tests below."""
    clear_section_memo()
    return {name: answer_fig12(name) for name in FIG12_SCALES}


class TestFig12Slice:
    def test_slice_covers_the_grid(self):
        records = load_fig12()
        assert [r["workload"] for r in records] == list(FIG12_SCALES)
        for r in records:
            pool = len(POOL_THREADS) * 2 if r["workload"] in POOL_WORKLOADS else 0
            assert len(r["points"]) == 8 * len(FIG12_THREADS) + pool

    def test_answers_match_corpus(self, fig12_answers):
        mismatched = [
            record["workload"]
            for record in load_fig12()
            if fig12_answers[record["workload"]][0] != record
        ]
        assert mismatched == []

    def test_pool_answers_obey_the_span_law(self, fig12_answers):
        """Every task-pool SYN and REAL answer of the slice is at most
        the program's parallelism T1/T∞ (Cilkview's work and span),
        within its method's slack: a pool replay that dropped a
        dependence would exceed it."""
        checked = 0
        for name in POOL_WORKLOADS:
            _, pairs, profile = fig12_answers[name]
            bound = CilkviewAnalyzer().analyze(profile).parallelism
            for task, estimate in pairs:
                if estimate.method == "ff":
                    continue
                assert task.paradigm in ("cilk", "omp_task")
                limit = bound * (1.0 + SPEEDUP_EPS[estimate.method])
                assert estimate.speedup <= limit, (
                    name, task, estimate.method, estimate.speedup, bound
                )
                checked += 1
        # PredM SYN per schedule, Pred SYN and REAL; SYN and REAL under
        # omp_task.
        per_workload = (len(SCHEDULES) + 2) * len(FIG12_THREADS)
        assert checked == len(POOL_WORKLOADS) * (
            per_workload + 2 * len(POOL_THREADS)
        )
