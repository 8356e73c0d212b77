"""A cold predict does each piece of work once.

- A team whose members never interact (a flat lock-free section with no
  missy lane, at most one member per core) is summed per member
  (``ColumnarEngine._sum``): its answer is ``==`` the team walk's.
- Each engine solves a DRAM running set once, behind the walks' own
  quantized memos; the cache is exact, so no REAL answer depends on which
  points an engine ran first.
- The tracer memoizes the serial slowdown per ``(base cycles, misses)``,
  and its ``with`` sugar still leaves a pair open when the body raises.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ParallelProphet
from repro.core.annotations import Tracer
from repro.core.columnar import ColumnarEngine, _spans, verify_points
from repro.core.tree import Node, NodeKind, ProgramTree
from repro.errors import AnnotationError
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.runtime import RuntimeOverheads, Schedule
from repro.simhw import MachineConfig
from repro.simhw.memtrace import AccessPattern, MemSpec
from repro.workloads import get_workload
from tests.answer_corpus import FIG12_CORES, FIG12_SCALES, FIG12_THREADS

M6 = MachineConfig(n_cores=6)
SCHEDULES = ("static", "static,1", "static,3", "dynamic,1", "dynamic,4",
             "guided,1", "guided,3")


@pytest.fixture
def fresh_metrics():
    previous = get_metrics()
    reg = MetricsRegistry()
    set_metrics(reg)
    yield reg
    set_metrics(previous)


# ------------------------------------------------------------ chunk spans


@pytest.mark.parametrize("label", SCHEDULES)
def test_spans_are_the_schedules_chunks(label):
    schedule = Schedule.parse(label)
    for n in range(0, 40):
        for t in range(1, 8):
            got = _spans(schedule, n, t)
            if schedule.is_dynamic_family:
                want = [(c[0], c[-1] + 1) for c in schedule.chunks(n, t)]
                assert list(got) == want
            else:
                want = [
                    [(r.start, r.stop) for r in mine]
                    for mine in schedule.static_chunks(n, t)
                ]
                assert [list(mine) for mine in got] == want


# ------------------------------------------------------------ summed teams

#: Cycle values: few distinct ones, so that events tie and iterations of
#: equal length differ in traversal (a FAKE leaf visit is 50 cycles), and
#: one too small to move a non-zero start.
CYCLES = st.one_of(
    st.sampled_from([0.0, 1e-14, 50.0, 100.0, 150.0]),
    st.floats(min_value=0.0, max_value=1e5),
)


@st.composite
def flat_sections(draw):
    """ROOT -> SEC -> TASK* -> U leaves, with no lock and no miss; a REAL
    task whose leaves all have zero cycles lowers to no op at all."""
    root = Node(NodeKind.ROOT)
    sec = root.add(Node(NodeKind.SEC, name="s"))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        task = sec.add(Node(
            NodeKind.TASK, repeat=draw(st.sampled_from([1, 2, 3, 7]))
        ))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            cycles = draw(CYCLES)
            task.add(Node(
                NodeKind.U, length=draw(CYCLES), cpu_cycles=cycles,
                instructions=cycles,
                repeat=draw(st.sampled_from([1, 2])),
            ))
    return ProgramTree(root)


#: Zero and non-zero fork, dispatch and thread-start costs; a 1e20-cycle
#: fork leaves every later addition below one ulp, so all events tie.
COSTS = st.sampled_from([0.0, 1e-14, 50.0, 800.0])
FORKS = st.sampled_from([0.0, 1e-14, 50.0, 800.0, 1e20])


@st.composite
def overheads(draw):
    return RuntimeOverheads(
        omp_fork_base=draw(FORKS),
        omp_fork_per_thread=draw(COSTS),
        omp_thread_start=draw(COSTS),
        omp_join_barrier=draw(COSTS),
        omp_static_dispatch=draw(COSTS),
        omp_dynamic_dispatch=draw(COSTS),
    )


def _engine(tree, oh) -> ColumnarEngine:
    profile = SimpleNamespace(
        tree=tree, machine=M6, sections=["s"], burden_for=lambda name, t: 1.0
    )
    return ColumnarEngine(profile, oh)


class TestSummedTeams:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        flat_sections(),
        overheads(),
        st.sampled_from(SCHEDULES),
        st.integers(min_value=1, max_value=M6.n_cores),
        st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 4.0)),
    )
    def test_sum_is_the_team_walk(self, tree, oh, label, t, beta):
        """FAKE at a random β, demand-free REAL (β None): the summed
        team's ``(gross, traversal)`` is ``==`` the team walk's."""
        engine = _engine(tree, oh)
        (sc,) = engine._secs
        assert not sc.missy and not sc.lock_ids and not sc.nested
        schedule = Schedule.parse(label)
        assert engine._sum(sc, schedule, t, beta) == engine._walk(
            sc, schedule, t, beta
        )

    def test_empty_chunks_are_grabbed_inline(self):
        """Under a 800-cycle fork with free dispatch, member 0 grabs an
        empty iteration and the next one in the fork's dispatch round,
        before members 1 and 2 grab at all.  The three 100-cycle chunks
        then end together and the last iteration goes to member 0, whose
        traversal stays 100 (150 had member 2 taken it)."""
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC, name="s"))
        sec.add(Node(NodeKind.TASK))  # no leaf: no op, no visit
        for lengths in ([50.0], [50.0], [0.0, 0.0], [0.0]):
            task = sec.add(Node(NodeKind.TASK))
            for length in lengths:
                task.add(Node(NodeKind.U, length=length))
        oh = RuntimeOverheads(
            omp_fork_base=800.0, omp_fork_per_thread=0.0,
            omp_thread_start=0.0, omp_join_barrier=0.0,
            omp_dynamic_dispatch=0.0,
        )
        engine = _engine(ProgramTree(root), oh)
        (sc,) = engine._secs
        schedule = Schedule.dynamic(1)
        walked = engine._walk(sc, schedule, 3, 1.0)
        assert walked == (950.0, 100.0)
        assert engine._sum(sc, schedule, 3, 1.0) == walked

    def test_replay_sums_only_lone_teams(self, fresh_metrics):
        """The replay sums a flat lock-free section at every SYN point and
        at a REAL point without memory demand, and walks a missy one at
        REAL; every point is ``==`` the eager emulators."""
        prophet = ParallelProphet(machine=M6)

        def program(tr):
            with tr.section("flat"):
                for i in range(9):
                    with tr.task():
                        tr.compute(1_000.0 + 250.0 * (i % 3))
            with tr.section("missy"):
                for _ in range(4):
                    with tr.task():
                        tr.compute(20_000.0, mem=MemSpec(
                            AccessPattern.STREAMING, bytes_touched=400_000
                        ))

        profile = prophet.profile(program)
        engine = ColumnarEngine(profile, prophet.overheads)
        threads = (1, 3, 6)
        for label in SCHEDULES:
            schedule = Schedule.parse(label)
            for t in threads:
                fresh_metrics.reset()
                engine.syn_point(schedule, t, True, "omp")
                assert fresh_metrics.counter_value("columnar.summed") == 2
                fresh_metrics.reset()
                engine.real_point(schedule, t, "omp")
                assert fresh_metrics.counter_value("columnar.summed") == 1
        checked, mismatches = verify_points(
            prophet, profile, threads, SCHEDULES, ("ff", "syn", "real")
        )
        assert checked == 3 * len(threads) * len(SCHEDULES)
        assert mismatches == []


# ------------------------------------------------------ engine solve cache


def _real_points(name):
    spec = get_workload(name, **FIG12_SCALES[name])
    prophet = ParallelProphet(machine=MachineConfig(n_cores=FIG12_CORES))
    profile = prophet.profile(spec.program)
    points = [
        (Schedule.parse(label), t)
        for label in ("static", "static,1", "dynamic,1")
        for t in FIG12_THREADS
    ]
    return prophet, profile, spec.paradigm, points


@pytest.mark.parametrize("name", ["npb_mg", "ompscr_qsort"])
def test_engine_solves_do_not_depend_on_order(name, fresh_metrics):
    """Every REAL point of a memory-bound Fig. 12 workload (team walks for
    ``npb_mg``, Cilk pool walks for ``ompscr_qsort``) is ``==`` from a
    fresh engine per point and from one engine in grid order or reversed,
    and the shared engine's cache answers some walks' misses."""
    prophet, profile, paradigm, points = _real_points(name)
    fresh = [
        ColumnarEngine(profile, prophet.overheads).real_point(s, t, paradigm)
        for s, t in points
    ]
    fresh_metrics.reset()
    shared = ColumnarEngine(profile, prophet.overheads)
    forward = [shared.real_point(s, t, paradigm) for s, t in points]
    assert fresh_metrics.counter_value("columnar.solves.hits") > 0
    shared = ColumnarEngine(profile, prophet.overheads)
    backward = [shared.real_point(s, t, paradigm) for s, t in reversed(points)]
    assert forward == fresh
    assert backward[::-1] == fresh


# --------------------------------------------------------------- tracer


class TestTracerSugar:
    @pytest.mark.parametrize("which", ["section", "task", "lock", "stage"])
    def test_raising_body_leaves_the_pair_open(self, which):
        """As with the generator-based sugar, an exception in the body
        propagates and the pair is not closed, so ``finish`` reports it."""
        tr = Tracer(M6)
        if which != "section":
            tr.par_sec_begin("s", pipeline=which == "stage")
        if which in ("lock", "stage"):
            tr.par_task_begin()
        depth = tr.depth
        sugar = {
            "section": lambda: tr.section("inner"),
            "task": tr.task,
            "lock": lambda: tr.lock(3),
            "stage": tr.stage,
        }[which]
        with pytest.raises(ValueError):
            with sugar():
                if which != "section":
                    tr.compute(10.0)
                raise ValueError("body")
        if which == "lock":
            assert tr._current_lock == 3 and tr.depth == depth
        else:
            assert tr.depth == depth + 1
        with pytest.raises(AnnotationError, match="unclosed|still held"):
            tr.finish()

    def test_task_body_that_raises_stays_open(self):
        tr = Tracer(M6)
        tr.par_sec_begin("s")
        with pytest.raises(RuntimeError):
            with tr.task("t"):
                tr.compute(100.0)
                raise RuntimeError("body")
        assert tr._top.kind is NodeKind.TASK and tr._top.name == "t"
        tr.par_task_end()
        tr.par_sec_end()
        root = tr.finish()
        assert [c.kind for c in root.children[0].children] == [NodeKind.TASK]

    def test_sugar_matches_the_annotation_calls(self):
        def sugar(tr):
            with tr.section("p", pipeline=True):
                with tr.task():
                    with tr.stage("a"):
                        tr.compute(100.0)
                        with tr.lock(1):
                            tr.compute(5.0)
            with tr.section("q", barrier=False):
                with tr.task():
                    tr.compute(7.0)

        def calls(tr):
            tr.par_sec_begin("p", pipeline=True)
            tr.par_task_begin()
            tr.stage_begin("a")
            tr.compute(100.0)
            tr.lock_begin(1)
            tr.compute(5.0)
            tr.lock_end(1)
            tr.stage_end()
            tr.par_task_end()
            tr.par_sec_end()
            tr.par_sec_begin("q")
            tr.par_task_begin()
            tr.compute(7.0)
            tr.par_task_end()
            tr.par_sec_end(barrier=False)

        trees = []
        for program in (sugar, calls):
            tr = Tracer(M6)
            program(tr)
            trees.append(tr.finish())
        assert trees[0].fingerprint() == trees[1].fingerprint()
        assert trees[0].children[1].nowait

    def test_slowdown_memo_is_the_model(self):
        """Repeated pairs come from the memo, at the model's value."""
        tr = Tracer(M6)
        mem = MemSpec(AccessPattern.STREAMING, bytes_touched=400_000)
        with tr.section("s"):
            for _ in range(5):
                with tr.task():
                    tr.compute(20_000.0, mem=mem)
        tr.finish()
        assert tr.dram.cache_info()["misses"] + tr.dram.cache_info()["hits"] == 1
        (slowdown,) = tr._slowdowns.values()
        fresh = Tracer(M6)
        ((base, misses),) = tr._slowdowns
        assert fresh._serial_slowdown(base, misses) == slowdown > 1.0
