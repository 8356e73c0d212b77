"""The served answers reproduce the golden answer corpus exactly.

``tests/answer_corpus.py`` draws 48 seeded Fig. 11 programs (Test1 and
Test2, 8 and 12 cores, three schedules) and records their FF, SYN and REAL
speedups as ``float.hex`` beside a sha256 of each serialized profile.
Every record must come back bit for bit: a profiler change shows up as a
profile digest mismatch, an evaluator change as a speedup mismatch.
"""

from __future__ import annotations

from repro.core.executor import clear_section_memo
from tests.answer_corpus import (
    CORES,
    N_PROGRAMS,
    SCHEDULES,
    Answerer,
    draw_programs,
    load_corpus,
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
