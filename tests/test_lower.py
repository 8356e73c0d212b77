"""One lowering per (section, β, team or pool), read by every replay.

``repro.core.lower`` is the only place a task's leaves become walk ops or
kernel requests.  These tests pin that the columnar engine lowers each
(section, β, team or pool) once across a sweep, that its team and pool
lowerings of one REAL section differ only in the OpenMP lock calls, and
that the executor's replay and the walk read the same lowering.  The
trees are the kernel corpus's flat and nested ones.
"""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.columnar import ColumnarEngine
from repro.core.executor import ParallelExecutor, ReplayMode, clear_section_memo
from repro.core.lower import Section
from repro.core.tree import NodeKind
from repro.obs import Tracer
from repro.runtime import RuntimeOverheads, Schedule
from repro.simos import Compute
from tests.kernel_corpus import MACHINES, build_nested_tree, build_tree

SCHEDULES = ("static", "static,3", "dynamic,2", "guided,1")
PARADIGMS = ("omp", "cilk", "omp_task")
M4 = MACHINES["m4"]


def corpus_trees():
    """Lock-bearing flat and nested kernel-corpus trees, memory-light."""
    return [
        build(random.Random(seed), locks=True, missy=1 / 300)
        for build in (build_tree, build_nested_tree)
        for seed in (3, 11)
    ]


def profile_of(tree, machine=M4):
    """A profile stub whose burden factor changes with ``t``, so each
    thread count has a FAKE lowering of its own."""
    names = [sec.name for sec in tree.top_level_sections()]
    return SimpleNamespace(
        tree=tree,
        machine=machine,
        sections=names,
        burden_for=lambda name, t: 1.0 + t / 8,
    )


@pytest.fixture
def lowerings(monkeypatch):
    """Count every section lowering made, by its cache key.  The corpus
    trees share no nested node, so each nested section's key counts its
    parent's lowerings too."""
    counts: Counter = Counter()
    init = Section.__init__

    def counting(self, node, spec, lock_ids):
        counts[(id(node), spec[1], spec[2] is not None)] += 1
        init(self, node, spec, lock_ids)

    monkeypatch.setattr(Section, "__init__", counting)
    return counts


def _with_lock_calls(stream: list, acquire: list, release: list) -> list:
    """A pool stream with the OpenMP lock calls a team pays around each
    critical section."""
    out: list = []
    for op in stream:
        lock = op.__class__ is int
        if lock and op >= 0:
            out += acquire
        out.append(op)
        if lock and op < 0:
            out += release
    return out


def _assert_team_is_pool_plus_calls(team: Section, pool: Section, oh) -> None:
    """``team``'s walk ops and kernel requests are ``pool``'s with the lock
    calls added (a zero-cycle call is no walk op), nested sections too."""
    assert team.node is pool.node and team.lock_ids == pool.lock_ids
    assert team.missy == pool.missy and team.nested == pool.nested
    assert team.trav == pool.trav
    acquire, release = oh.omp_lock_acquire, oh.omp_lock_release
    for i, p_ops in enumerate(pool.ops):
        ops = _with_lock_calls(
            p_ops,
            [float(acquire)] if acquire > 0.0 else [],
            [float(release)] if release > 0.0 else [],
        )
        reqs = _with_lock_calls(pool.requests(i), [acquire], [release])
        for got, want in ((team.ops[i], ops), (team.requests(i), reqs)):
            assert len(got) == len(want)
            for t_op, p_op in zip(got, want):
                if t_op.__class__ is Section:
                    _assert_team_is_pool_plus_calls(t_op, p_op, oh)
                elif t_op.__class__ is Compute and p_op.__class__ is not Compute:
                    assert t_op.cycles == p_op  # a lock call
                else:
                    assert t_op == p_op and t_op.__class__ is p_op.__class__


class TestLoweringCache:
    @pytest.mark.parametrize("tree", corpus_trees())
    def test_each_lowering_once_per_engine(self, tree, lowerings):
        """Over every schedule, paradigm and t in {2, 4}, SYN and REAL,
        walked or delegated, one engine lowers each (section, β, team or
        pool) exactly once."""
        clear_section_memo()
        engine = ColumnarEngine(profile_of(tree), RuntimeOverheads())
        for label in SCHEDULES:
            schedule = Schedule.parse(label)
            for t in (2, 4):
                for paradigm in PARADIGMS:
                    engine.syn_point(schedule, t, True, paradigm)
                    engine.real_point(schedule, t, paradigm)
                    engine.real_point(schedule, t, paradigm, "lifo")
        assert lowerings and set(lowerings.values()) == {1}
        teams = {key[2] for key in lowerings}
        assert teams == {True, False}
        betas = {key[1] for key in lowerings}
        assert {None, 1.25, 1.5} <= betas

    def test_delegated_replays_share_the_engine_cache(self, lowerings):
        """A machine with a context-switch cost walks no team with t > 1:
        every section is replayed by executors, which lower through the
        engine's cache."""
        clear_section_memo()
        tree = corpus_trees()[2]
        engine = ColumnarEngine(
            profile_of(tree, MACHINES["m4_switch"]), RuntimeOverheads()
        )
        for label in SCHEDULES:
            for t in (2, 4):
                engine.syn_point(Schedule.parse(label), t, True, "omp")
        assert lowerings and set(lowerings.values()) == {1}
        top = {id(sec) for sec in tree.top_level_sections()}
        assert {key for key in lowerings if key[0] in top} <= set(engine._lowered)


class TestTeamAndPool:
    @pytest.mark.parametrize("tree", corpus_trees())
    def test_same_ops_apart_from_lock_calls(self, tree, lowerings):
        """A team walk and a pool walk of one REAL section read their
        cached lowerings, whose compute and lock ops (and kernel requests)
        agree; the team's only adds the OpenMP lock-call segments."""
        oh = RuntimeOverheads()
        engine = ColumnarEngine(profile_of(tree), oh)
        for sc in engine._secs:
            assert sc.lock_ids
            engine._walk(sc, Schedule.static(), 4, None,
                         (len(sc.lock_ids), "fifo", 0))
            engine._pool_walk(sc, 4, None, (len(sc.lock_ids), "fifo", 0),
                              cilk=True)
            engine._pool_walk(sc, 4, None, (len(sc.lock_ids), "fifo", 0),
                              cilk=False)
            team = engine._lowered[(id(sc.node), None, True)]
            pool = engine._lowered[(id(sc.node), None, False)]
            assert team is sc and any(team.ops)
            # The walks never build the kernel's form of a stream.
            assert team._reqs is None and pool._reqs is None
            _assert_team_is_pool_plus_calls(team, pool, oh)
        assert set(lowerings.values()) == {1}


class TestExecutorReadsTheLowering:
    @pytest.mark.parametrize("tree", corpus_trees())
    @pytest.mark.parametrize("mode", list(ReplayMode))
    def test_replay_and_walk_share_one_lowering(self, tree, mode, lowerings):
        """The executor's replay, handed the engine's cache, lowers
        nothing the walk has not lowered, and both give the same answer."""
        engine = ColumnarEngine(profile_of(tree), RuntimeOverheads())
        beta = 1.5 if mode is ReplayMode.FAKE else None
        compared = 0
        for sc in engine._secs:
            for t in (2, 4):
                locking = (len(sc.lock_ids), "fifo", 0)
                for paradigm in PARADIGMS:
                    if paradigm == "omp":
                        walked = engine._walk(sc, Schedule.static(), t, beta,
                                              locking)
                    else:
                        walked = engine._pool_walk(sc, t, beta, locking,
                                                   paradigm == "cilk")
                    before = sum(lowerings.values())
                    ex = ParallelExecutor(
                        M4, paradigm=paradigm, overheads=engine.overheads
                    )
                    ex.lowered = engine._lowered
                    run = ex._execute_section_uncached(
                        sc.node, t, mode, 1.5
                    )
                    assert sum(lowerings.values()) == before
                    if walked is not None:
                        compared += 1
                        assert walked == (run.gross_cycles,
                                          run.traversal_overhead)
        assert compared and set(lowerings.values()) == {1}

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_traced_repeats_read_one_lowering(self, paradigm, lowerings):
        """A traced replay runs each repeat of a section on one lowering,
        and answers as the untraced replay does."""
        tree = corpus_trees()[1]
        for sec in tree.top_level_sections():
            if not sec.nowait:
                sec.repeat = 3
        assert any(sec.repeat == 3 for sec in tree.top_level_sections())
        runs = {}
        for traced in (False, True):
            clear_section_memo()
            lowerings.clear()
            ex = ParallelExecutor(
                M4, paradigm=paradigm, tracer=Tracer(enabled=traced)
            )
            runs[traced] = ex.execute_profile(tree, 4, ReplayMode.FAKE)
            assert set(lowerings.values()) == {1}
            assert len(lowerings) == sum(
                1 for node in tree.root.children if node.kind is NodeKind.SEC
            )
        assert runs[True].total_cycles == runs[False].total_cycles
