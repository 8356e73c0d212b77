"""Tests for the columnar sweep engine (``repro.core.columnar``).

The engine's contract is *parity, not approximation*: it serves every grid
point, and each must be ``==`` the eager oracle (the FF walks, the team
walk and the delegated replays are the eager arithmetic).  The property tests
reuse the ``test_fuzz_pipeline`` program generator so the parity claim is
exercised across random program shapes, not just hand-picked fixtures.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ParallelProphet
from repro.core.batch import BatchPredictor, SweepTask, _predict_point
from repro.core.columnar import ColumnarEngine, _SecCols, verify_points
from repro.core.executor import ReplayMode, clear_section_memo
from repro.core.ffemu import FastForwardEmulator
from repro.core.executor import ParallelExecutor
from repro.core.report import SpeedupReport
from repro.core.synthesizer import Synthesizer
from repro.obs import MetricsRegistry, Tracer, set_metrics
from repro.runtime.overhead import RuntimeOverheads
from repro.runtime.tasks import Schedule
from repro.simhw import MachineConfig
from repro.simhw.dram import DramModel, SegmentDemand
from repro.simhw.memtrace import AccessPattern, MemSpec
from repro.validate.fuzz import build_program
from repro.workloads import get_workload

from tests.test_fuzz_pipeline import programs

M4 = MachineConfig(n_cores=4)
M8 = MachineConfig(n_cores=8)


# ------------------------------------------------------------------ fixtures


def imbalanced_loop(tr):
    with tr.section("loop"):
        for i in range(16):
            with tr.task():
                tr.compute(5_000 + 1_000 * (i % 4))


def memory_loop(tr):
    with tr.section("mem"):
        for _ in range(8):
            with tr.task():
                tr.compute(
                    20_000,
                    mem=MemSpec(AccessPattern.STREAMING, bytes_touched=1_000_000),
                )


def memory_imbalanced_loop(tr):
    """Memory-bound iterations of four sizes with one demand signature
    (cycles and misses scale together)."""
    with tr.section("memi"):
        for i in range(12):
            k = 1 + i % 4
            with tr.task():
                tr.compute(
                    20_000 * k,
                    mem=MemSpec(AccessPattern.STREAMING, bytes_touched=250_000 * k),
                )


def locked_loop(tr):
    with tr.section("locked"):
        for _ in range(8):
            with tr.task():
                with tr.lock(1):
                    tr.compute(6_000)


def nested_loop(tr):
    with tr.section("outer"):
        for _ in range(4):
            with tr.task():
                tr.compute(5_000)
                with tr.section("inner"):
                    for _ in range(2):
                        with tr.task():
                            tr.compute(5_000)


def mixed_workload(tr):
    tr.compute(30_000)
    imbalanced_loop(tr)
    memory_loop(tr)


def mixed_signature_loop(tr):
    """Memory-demanding and demand-free iterations in one section."""
    with tr.section("mixsig"):
        for i in range(6):
            with tr.task():
                if i % 2:
                    tr.compute(
                        2_000_000,
                        mem=MemSpec(AccessPattern.STREAMING, bytes_touched=256_000),
                    )
                else:
                    tr.compute(20_000)


def repeated_loop(tr):
    for _ in range(7):
        with tr.section("rep"):
            for i in range(5):
                with tr.task():
                    tr.compute(
                        7_000 + 1_000 * (i % 2),
                        mem=MemSpec(AccessPattern.STREAMING, bytes_touched=300_000),
                    )


def _repeated_profile(prophet):
    """``repeated_loop``'s profile: one section activated 7 times, each
    task's leaf repeated 7 times."""
    profile = prophet.profile(repeated_loop)
    (sec,) = profile.tree.top_level_sections()
    assert sec.repeat == 7
    for task in sec.children:
        task.children[0].repeat = 7
    return profile


@pytest.fixture(scope="module")
def prophet():
    return ParallelProphet(machine=M8)


@pytest.fixture(scope="module")
def profiles(prophet):
    return {
        "cpu": prophet.profile(imbalanced_loop),
        "mem": prophet.profile(memory_loop),
        "memi": prophet.profile(memory_imbalanced_loop),
        "locked": prophet.profile(locked_loop),
        "nested": prophet.profile(nested_loop),
        "mixed": prophet.profile(mixed_workload),
        "mixsig": prophet.profile(mixed_signature_loop),
    }


@pytest.fixture()
def fresh_metrics():
    mine = MetricsRegistry()
    old = set_metrics(mine)
    try:
        yield mine
    finally:
        set_metrics(old)


def _assert_parity(eager, columnar):
    """Same grid, and every estimate ``==`` its eager reference."""
    assert len(eager.estimates) == len(columnar.estimates) > 0
    for e, c in zip(eager.estimates, columnar.estimates):
        assert c == e, f"{e.method}/{e.schedule}/t={e.n_threads}"


def _delegated_items(engine, paradigm="omp", t=1):
    """Distinct items one SYN or REAL point at ``t`` replays through the
    executor on a single-socket machine without switch costs: the
    delegated items of an OpenMP team that fits the machine, every item
    otherwise, and every top-level section under a task-pool paradigm
    (nowait chains replay section by section)."""
    if paradigm != "omp":
        return len(engine.profile.tree.top_level_sections())
    team = t <= engine.machine.n_cores
    return len({
        id(item) for item in engine._items
        if not isinstance(item, float)
        and not (team and isinstance(item, _SecCols))
    })


def _eager_reference(prophet, profile, threads, schedules=("static",),
                     methods=("syn",), memory_model=True):
    """The grid through the reference emulators only: the batch worker
    with no columnar engine (burdens are attached by the caller's sweep).
    The section memo is cleared first: it keys burdens at 12 significant
    digits, so a replay left by an earlier grid could answer for a burden
    that differs below that, and ``==`` checks need a history-free oracle."""
    clear_section_memo()
    ff = FastForwardEmulator(prophet.overheads)
    report = SpeedupReport()
    for label in schedules:
        for t in threads:
            task = SweepTask("workload", label, t, tuple(methods),
                             memory_model=memory_model)
            report.extend(
                _predict_point(profile, prophet.overheads, task, ff, engine=None)
            )
    return report


def _both_backends(prophet, profile, **kwargs):
    """(eager reference, default sweep) reports of one grid."""
    clear_section_memo()
    columnar = BatchPredictor(prophet, jobs=1).sweep(profile, **kwargs)[
        "workload"
    ]
    return _eager_reference(prophet, profile, **kwargs), columnar


# ------------------------------------------------------------ property test


def _strip_to_eligible(items):
    """Keep memory specs, drop locks and nested sections — the static-family
    leaf-only shape the columnar engine lowers."""
    out = []
    for item in items:
        if isinstance(item, float):
            out.append(item)
            continue
        kind, tasks = item
        out.append(
            (
                kind,
                [
                    ([(op, cyc, mem, None) for op, cyc, mem, _ in ops], [])
                    for ops, _nested in tasks
                ],
            )
        )
    return out


class TestColumnarParityProperty:
    @given(programs(), st.integers(min_value=1, max_value=6))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_matches_eager_on_random_programs(self, items, n_threads):
        """FF/SYN/REAL ``==`` parity across random eligible programs (t=5,6
        oversubscribe the 4-core machine, delegating every SYN/REAL
        section to the executor; memory specs exercise the batched-DRAM
        walks — fused ``static`` lanes, ``static,N`` interleaving, the
        dynamic chunk cursor — and mixed demand signatures)."""
        prophet = ParallelProphet(machine=M4)
        profile = prophet.profile(build_program(_strip_to_eligible(items)))
        kwargs = dict(
            threads=[n_threads],
            schedules=["static", "static,2", "static,1", "dynamic,1", "guided,2"],
            methods=("ff", "syn", "real"),
            memory_model=False,
        )
        eager, columnar = _both_backends(prophet, profile, **kwargs)
        _assert_parity(eager, columnar)

    @given(
        programs(),
        st.integers(min_value=1, max_value=6),
        st.sampled_from(["fifo", "lifo"]),
        st.sampled_from(["omp", "cilk", "omp_task"]),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_unstripped_programs_delegate_exactly(self, items, n_threads,
                                                  handoff, paradigm):
        """Unstripped programs (locks, nesting, mixed demand signatures)
        under FIFO and a non-FIFO handoff and every paradigm: the engine
        serves every SYN/REAL point, replays exactly the sections the team
        walk does not model through the executor (all of them for the
        task-pool paradigms and for t=5,6 on the 4-core machine), and is
        ``==`` the eager reference.  A task-pool replay never reads the
        schedule, so it runs once across the three schedules."""
        prophet = ParallelProphet(machine=M4)
        profile = prophet.profile(build_program(items))
        engine = ColumnarEngine(profile, prophet.overheads)
        ff = FastForwardEmulator(prophet.overheads)
        methods = ("syn", "real") if handoff != "fifo" else ("ff", "syn", "real")
        metrics = MetricsRegistry()
        old = set_metrics(metrics)
        try:
            for i, schedule in enumerate(("static", "static,1", "dynamic,1")):
                task = SweepTask("workload", schedule, n_threads, methods,
                                 paradigm=paradigm, memory_model=False,
                                 handoff=handoff)
                clear_section_memo()
                before = metrics.counter_value("replay.sections")
                served = _predict_point(
                    profile, prophet.overheads, task, ff, engine
                )
                replays = metrics.counter_value("replay.sections") - before
                shared = i > 0 and paradigm != "omp"
                assert replays == (0 if shared else 2 * _delegated_items(
                    engine, paradigm, n_threads
                ))
                clear_section_memo()
                eager = _predict_point(
                    profile, prophet.overheads, task, ff, engine=None
                )
                for e, c in zip(eager, served):
                    assert c == e, f"{e.method}/{e.schedule}/t={e.n_threads}"
        finally:
            set_metrics(old)


class TestFFGreedyWalk:
    @given(
        programs(),
        st.sampled_from(["dynamic,1", "dynamic,2", "dynamic,5", "guided,1",
                         "guided,3"]),
        st.integers(min_value=1, max_value=7),
        st.sampled_from([1.37, 2.5, 0.81]),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_equals_heap_walk(self, items, schedule, n_threads, beta):
        """The dynamic-family FF greedy walk of every lock-free section is
        ``==`` ``FastForwardEmulator.emulate_section`` — several chunk
        sizes, t up to above the 4-core machine's ``n_cores``, β ≠ 1."""
        prophet = ParallelProphet(machine=M4)
        profile = prophet.profile(build_program(_strip_to_eligible(items)))
        engine = ColumnarEngine(profile, prophet.overheads)
        schedule = Schedule.parse(schedule)
        for sc in engine._secs:
            walk = FastForwardEmulator(prophet.overheads).emulate_section(
                sc.node, n_threads, schedule, beta
            )
            assert engine._ff_section(sc, schedule, n_threads, beta) == walk


class TestFFPointCache:
    """Every FF item — lowered or on the heap walk — is cached per (item,
    schedule, t, β) on the predictor's engine."""

    GRID = dict(
        threads=[2, 4],
        schedules=["static", "static,1", "dynamic,1", "guided,2"],
        methods=("ff",),
        memory_model=False,
    )

    def test_second_sweep_walks_no_nodes(self, prophet, profiles,
                                         fresh_metrics):
        predictor = BatchPredictor(prophet, jobs=1)
        work = {name: profiles[name] for name in ("cpu", "locked", "nested")}
        first = predictor.sweep(work, **self.GRID)
        visited = fresh_metrics.counter_value("ff.nodes_visited")
        assert visited > 0  # the delegated sections' heap walks
        second = predictor.sweep(work, **self.GRID)
        assert fresh_metrics.counter_value("ff.nodes_visited") == visited
        assert fresh_metrics.counter_value("ff.emulations") == 0
        for name in work:
            assert second[name].estimates == first[name].estimates

    def test_engine_holds_no_emulator(self, prophet, profiles):
        """Serve worker threads share an engine; the FF emulator's
        ``nodes_visited`` is scratch state, so none may live on it."""
        engine = ColumnarEngine(profiles["nested"], prophet.overheads)
        engine.ff_point(Schedule.dynamic(1), 4, {})
        assert not any(
            isinstance(v, FastForwardEmulator) for v in vars(engine).values()
        )


# ------------------------------------------------------------ fixture parity


class TestFixtureParity:
    @pytest.mark.parametrize("schedule", ["static", "static,1", "static,3"])
    def test_cpu_grid(self, prophet, profiles, schedule):
        eager, columnar = _both_backends(
            prophet,
            profiles["cpu"],
            threads=[1, 2, 3, 4, 8],
            schedules=[schedule],
            methods=("ff", "syn", "real"),
            memory_model=False,
        )
        _assert_parity(eager, columnar)

    def test_missy_real_grid(self, prophet, profiles, fresh_metrics):
        """Memory-demanding REAL replay: the batched DRAM bisection must
        match the kernel's per-solve path, including saturation."""
        eager, columnar = _both_backends(
            prophet,
            profiles["mem"],
            threads=[2, 4, 8],
            schedules=["static"],
            methods=("real",),
            memory_model=False,
        )
        _assert_parity(eager, columnar)
        assert fresh_metrics.counter_value("columnar.hits") > 0

    @pytest.mark.parametrize(
        "schedule",
        ["static", "static,1", "static,3", "dynamic,1", "dynamic,3", "guided,2"],
    )
    @pytest.mark.parametrize("name", ["mem", "memi", "mixed", "mixsig"])
    def test_walk_grid(self, prophet, profiles, fresh_metrics, schedule, name):
        """Memory demand under the static family (one demand signature,
        several sizes, or demand-free and missy iterations mixed in one
        section) and the dynamic family replay through the team walk at
        ``==`` parity, with the memory model's burdens on the SYN side;
        every point is served, FF's included."""
        eager, columnar = _both_backends(
            prophet,
            profiles[name],
            threads=[1, 2, 3, 4, 8],
            schedules=[schedule],
            methods=("ff", "syn", "real"),
            memory_model=True,
        )
        _assert_parity(eager, columnar)
        assert fresh_metrics.counter_value("columnar.hits") == 15.0

    def test_same_time_ties_go_by_member(self):
        """Free fork, thread start, dispatch and join make members finish
        together; same-time events must go by member (the kernel's core
        order) — the reverse order lands an ulp away on this grid."""
        free = RuntimeOverheads().with_(
            omp_fork_base=0.0,
            omp_fork_per_thread=0.0,
            omp_thread_start=0.0,
            omp_dynamic_dispatch=0.0,
            omp_join_barrier=0.0,
        )
        prophet = ParallelProphet(machine=M4, overheads=free)

        def ties(tr):
            with tr.section("ties"):
                for cycles in (1000, 2000, 1000, 2000, 3000):
                    with tr.task():
                        tr.compute(
                            cycles,
                            mem=MemSpec(AccessPattern.STREAMING, bytes_touched=64_000),
                        )

        profile = prophet.profile(ties)
        eager, columnar = _both_backends(
            prophet,
            profile,
            threads=[2, 3, 4],
            schedules=["dynamic,1", "dynamic,2", "guided,1"],
            methods=("syn", "real"),
            memory_model=False,
        )
        assert columnar.estimates == eager.estimates

    def test_repeated_leaves_and_sections(self, prophet):
        """Repeated activations and repeated leaves under burdens: FAKE
        leaf cycles are ``(length*beta)*repeat`` and the synthesizer sums
        one replay per activation."""
        profile = _repeated_profile(prophet)
        eager, columnar = _both_backends(
            prophet,
            profile,
            threads=[2, 3, 4, 8],
            schedules=["static,1", "dynamic,1", "guided,2"],
            methods=("syn", "real"),
            memory_model=True,
        )
        _assert_parity(eager, columnar)

    def test_memory_model_burdens(self, prophet, profiles):
        eager, columnar = _both_backends(
            prophet,
            profiles["mixed"],
            threads=[2, 4, 8],
            schedules=["static"],
            methods=("ff", "syn"),
            memory_model=True,
        )
        _assert_parity(eager, columnar)

    def test_report_precision_identity(self, prophet, profiles):
        """Fig. 11/12-style assembly: the rendered report — the benches'
        output surface — must be byte-identical across backends."""
        kwargs = dict(
            threads=[2, 4, 6, 8],
            schedules=["static", "static,2"],
            methods=("ff", "syn"),
            memory_model=True,
        )
        columnar = prophet.predict(profiles["mixed"], **kwargs)
        eager = _eager_reference(prophet, profiles["mixed"], **kwargs)
        assert columnar.to_table() == eager.to_table()


# ------------------------------------------------- delegation in served points


class TestTracedAnswers:
    def test_repeated_section_traced_equals_untraced(self, prophet):
        """A repeated section replays once per repeat while tracing (one
        timeline span each), yet SYN and REAL answers stay ``==`` to the
        untraced ones, which add one replay's net cycles times the repeat."""
        profile = _repeated_profile(prophet)
        for label in ("static,1", "dynamic,1"):
            schedule = Schedule.parse(label)
            for t in (2, 3, 4, 8):
                answers = []
                for tracer in (Tracer(enabled=False), Tracer(enabled=True)):
                    syn = Synthesizer(
                        schedule=schedule, overheads=prophet.overheads,
                        tracer=tracer,
                    ).predict(profile, t)
                    real = ParallelExecutor(
                        profile.machine, schedule=schedule,
                        overheads=prophet.overheads, tracer=tracer,
                    ).execute_profile(profile.tree, t, ReplayMode.REAL)
                    answers.append((syn.estimate.speedup, real.total_cycles))
                assert answers[0] == answers[1], f"{label}/t={t}"


class TestFallbacks:
    """Sections the faster walks do not model fall back to the eager
    emulator *inside* a served point; the point itself is always served."""

    def _run(self, prophet, profile, **kwargs):
        kwargs.setdefault("memory_model", False)
        return _both_backends(prophet, profile, **kwargs)

    def test_locks_fall_back(self, prophet, profiles, fresh_metrics):
        """A lock-bearing section falls back to the executor inside a
        served point: one replay per SYN/REAL point, ``==`` eager."""
        eager, columnar = self._run(
            prophet, profiles["locked"], threads=[4], methods=("syn", "real")
        )
        assert columnar.estimates == eager.estimates
        assert fresh_metrics.counter_value("columnar.hits") == 2.0

    def test_nesting_falls_back(self, prophet, profiles, fresh_metrics):
        """FF and SYN both serve a nested program's point and fall back for
        the nested section only — to the FF heap walk and the executor —
        so the point is ``==`` eager."""
        eager, columnar = self._run(
            prophet, profiles["nested"], threads=[4], methods=("ff", "syn")
        )
        assert columnar.estimates == eager.estimates
        assert fresh_metrics.counter_value("columnar.hits") == 2.0
        assert fresh_metrics.counter_value("ff.emulations") == 1.0  # eager

    def test_dynamic_schedule_served_exactly(
        self, prophet, profiles, fresh_metrics
    ):
        """Dynamic-family FF takes the greedy chunk walk; SYN and REAL
        replay through the team walk's shared chunk cursor.  All three are
        ``==`` eager (demand-free and memory-bound), every point served."""
        for name in ("cpu", "mem"):
            eager, columnar = self._run(
                prophet,
                profiles[name],
                threads=[1, 2, 4],
                schedules=["dynamic,1", "guided,2"],
                methods=("ff", "syn", "real"),
            )
            for e, c in zip(eager.estimates, columnar.estimates):
                assert c == e, f"{name}: {e.method}/{e.schedule}/t={e.n_threads}"
        assert fresh_metrics.counter_value("columnar.hits") == 36.0

    def test_oversubscription_replay_falls_back(self, prophet, profiles,
                                                fresh_metrics):
        """t > n_cores: FF's abstract machine is still walked, and the
        replay, which involves preemption, falls back to the executor
        inside the served SYN point — both points ``==`` eager."""
        eager, columnar = self._run(
            prophet, profiles["cpu"], threads=[16], methods=("ff", "syn")
        )
        _assert_parity(eager, columnar)
        assert fresh_metrics.counter_value("columnar.hits") == 2.0

    def test_former_declines_served(self, profiles, fresh_metrics,
                                    monkeypatch):
        """Task-pool paradigms, an oversubscribed team and a machine with
        a context-switch cost: the team walk models none of them, so the
        engine delegates every section to the executor under the point's
        paradigm — and still serves the point, ``==`` the eager oracle,
        without the whole-program emulators."""
        switching = MachineConfig(n_cores=8, context_switch_cycles=500.0)
        switch_profile = ParallelProphet(machine=switching).profile(
            imbalanced_loop
        )
        cases = [
            (profiles["mixed"], M8, "cilk", 4),
            (profiles["mixed"], M8, "omp_task", 4),
            (profiles["mixed"], M8, "omp", 16),
            (switch_profile, switching, "omp", 2),
        ]

        def whole_program(*args, **kwargs):
            raise AssertionError("a served point ran a whole-program emulator")

        for profile, machine, paradigm, t in cases:
            overheads = ParallelProphet(machine=machine).overheads
            engine = ColumnarEngine(profile, overheads)
            ff = FastForwardEmulator(overheads)
            task = SweepTask("workload", "static", t, ("ff", "syn", "real"),
                             paradigm=paradigm, memory_model=False)
            hits = fresh_metrics.counter_value("columnar.hits")
            clear_section_memo()
            with monkeypatch.context() as patch:
                patch.setattr(Synthesizer, "predict", whole_program)
                patch.setattr(ParallelExecutor, "execute_profile",
                              whole_program)
                patch.setattr(FastForwardEmulator, "emulate_profile",
                              whole_program)
                served = _predict_point(profile, overheads, task, ff, engine)
            assert fresh_metrics.counter_value("columnar.hits") == hits + 3
            clear_section_memo()
            eager = _predict_point(profile, overheads, task, ff, engine=None)
            assert served == eager, (paradigm, t)

    def test_syn_replay_counter_served_points(self, prophet, profiles,
                                              fresh_metrics):
        """Served SYN points still count as replays — the counter means
        'synthesizer estimates produced', whichever backend computed them."""
        BatchPredictor(prophet, jobs=1).sweep(
            {"cpu": profiles["cpu"], "mem": profiles["mem"]},
            threads=[2, 4],
            methods=("syn",),
            memory_model=False,
        )
        assert fresh_metrics.counter_value("syn.replays") == 4.0


# ------------------------------------------------------- Fig. 12 workloads


class TestFig12Walk:
    """The four lowerable Fig. 12 workloads at reduced scales: the default
    sweep's ``static,1`` REAL and ``dynamic,1`` PredM SYN points come from
    the team walk and equal the eager reference exactly."""

    SCALES = {
        "ompscr_lu": dict(size=24),
        "ompscr_md": dict(particles=64, steps=1),
        "npb_ft": dict(planes=12, timesteps=1),
        "npb_mg": dict(fine_planes=12, cycles_count=1),
    }
    THREADS = [2, 4, 8, 12]

    @pytest.mark.parametrize("name", sorted(SCALES))
    def test_walk_serves_static1_real_and_dynamic_predm(self, name,
                                                        fresh_metrics):
        prophet = ParallelProphet(machine=MachineConfig(n_cores=12))
        spec = get_workload(name, **self.SCALES[name])
        profile = prophet.profile(spec.program)
        predictor = BatchPredictor(prophet, jobs=1)
        n = len(self.THREADS)
        grids = [("static,1", "real", False), ("dynamic,1", "syn", True)]
        for i, (schedule, method, memory_model) in enumerate(grids, 1):
            kwargs = dict(
                threads=self.THREADS,
                schedules=[schedule],
                methods=(method,),
                memory_model=memory_model,
            )
            served = predictor.sweep(profile, **kwargs)["workload"]
            assert fresh_metrics.counter_value("columnar.hits") == i * n
            eager = _eager_reference(prophet, profile, **kwargs)
            assert served.estimates == eager.estimates


# --------------------------------------------------- per-section delegation


class TestSectionDelegation:
    """SYN/REAL points of lock-bearing programs — a lock in every section
    (``npb_ep``), in 20 of 50 (``npb_cg``), a Fig. 11 Test1 program — are
    served under FIFO and a non-FIFO handoff: the executor replays only
    the delegated sections, and the answer matches the eager reference."""

    @staticmethod
    def _fig11_test1():
        from repro.workloads.synthetic import Test1Params, test1_program

        return test1_program(
            Test1Params(
                i_max=24, mean_cycles=60_000.0, spread=0.5, shape="random",
                ratio_delay_1=0.3, ratio_delay_lock_1=0.2, ratio_delay_2=0.2,
                ratio_delay_lock_2=0.1, ratio_delay_3=0.2, do_lock1=True,
                do_lock2=True, seed=5,
            )
        )

    PROGRAMS = {
        "npb_ep": lambda: get_workload("npb_ep", batches=24).program,
        "npb_cg": lambda: get_workload(
            "npb_cg", outer_steps=1, inner_iterations=2, row_blocks=16
        ).program,
        "fig11_test1": _fig11_test1,
    }

    @pytest.mark.parametrize("handoff", ["fifo", "lifo"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_served_with_delegated_sections(self, name, handoff,
                                            fresh_metrics):
        prophet = ParallelProphet(machine=MachineConfig(n_cores=8))
        profile = prophet.profile(self.PROGRAMS[name]())
        engine = ColumnarEngine(profile, prophet.overheads)
        ff = FastForwardEmulator(prophet.overheads)
        task = SweepTask("workload", "static", 4, ("syn", "real"),
                         memory_model=False, handoff=handoff)
        clear_section_memo()
        served = _predict_point(profile, prophet.overheads, task, ff, engine)
        n_delegated = _delegated_items(engine)
        assert 0 < n_delegated <= len(profile.tree.top_level_sections())
        assert fresh_metrics.counter_value("columnar.hits") == 2.0
        assert fresh_metrics.counter_value("replay.sections") == 2 * n_delegated
        clear_section_memo()
        eager = _predict_point(profile, prophet.overheads, task, ff, engine=None)
        assert served == eager

    def test_npb_cg_delegates_only_its_lock_sections(self):
        profile = ParallelProphet(machine=M8).profile(
            self.PROGRAMS["npb_cg"]()
        )
        engine = ColumnarEngine(profile, ParallelProphet(machine=M8).overheads)
        delegated = [
            item.name for item in engine._items
            if not isinstance(item, (float, _SecCols))
        ]
        assert delegated and set(delegated) == {"cg_dot"}
        assert {sc.name for sc in engine._secs} == {"cg_matvec", "cg_axpy"}

    def test_multi_socket_missy_real_delegates(self, fresh_metrics):
        """The walk models one DRAM pool; memory-demanding REAL sections on
        a multi-socket machine replay through the executor instead."""
        numa = MachineConfig(n_cores=8, n_sockets=2)
        prophet = ParallelProphet(machine=numa)
        profile = prophet.profile(mixed_workload)
        engine = ColumnarEngine(profile, prophet.overheads)
        clear_section_memo()
        served = engine.real_point(Schedule.static(), 4, "omp")
        assert fresh_metrics.counter_value("columnar.hits") == 1.0
        # "mem" replays; the demand-free "loop" keeps the team walk.
        assert fresh_metrics.counter_value("replay.sections") == 1.0
        (eager,) = _eager_reference(
            prophet, profile, threads=[4], methods=("real",),
            memory_model=False,
        ).estimates
        assert served == eager


def _strip_locks(items):
    """Drop every lock, nested sections included; keep the shapes."""

    def section(desc):
        kind, tasks = desc
        return (
            kind,
            [
                ([(op, cyc, mem, None) for op, cyc, mem, _ in ops],
                 [section(sub) for sub in nested])
                for ops, nested in tasks
            ],
        )

    return [it if isinstance(it, float) else section(it) for it in items]


@st.composite
def pipeline_programs(draw):
    """One pipeline section: 1-5 iterations of 1-3 stages, each stage a
    compute that may take one of two locks."""
    n_stages = draw(st.integers(min_value=1, max_value=3))
    iters = draw(st.lists(
        st.lists(
            st.tuples(st.floats(min_value=1_000.0, max_value=60_000.0),
                      st.sampled_from([None, None, 1, 2])),
            min_size=n_stages, max_size=n_stages,
        ),
        min_size=1, max_size=5,
    ))

    def program(tr):
        with tr.section("pipe", pipeline=True):
            for stages in iters:
                with tr.task():
                    for cycles, lock in stages:
                        with tr.stage():
                            if lock is None:
                                tr.compute(cycles)
                            else:
                                with tr.lock(lock):
                                    tr.compute(cycles)

    return program


def _section_run(sec, paradigm, schedule, t, mode, handoff="fifo", seed=0):
    """One uncached executor replay of ``sec``."""
    executor = ParallelExecutor(
        machine=M4, paradigm=paradigm, schedule=Schedule.parse(schedule),
        handoff=handoff, handoff_seed=seed,
    )
    return executor._execute_section_uncached(sec, t, mode, 1.0)


SCHEDULES = ["static", "static,1", "static,3", "dynamic,1", "dynamic,2",
             "guided,2"]


def pipeline_loop(tr):
    with tr.section("pipe", pipeline=True):
        for i in range(6):
            with tr.task():
                for cycles in (8_000.0, 12_000.0 + 1_000.0 * (i % 3)):
                    with tr.stage():
                        tr.compute(cycles)


class TestReplayKeyRule:
    """The engine keys a delegated replay by the inputs it reads: no
    schedule for a task-pool or pipeline replay, no paradigm for a
    pipeline replay, no handoff policy for a lock-free one.  Each dropped
    input must leave the replay's whole ``SectionRun`` ``==``."""

    def test_pipeline_replays_once_across_paradigms_and_schedules(
        self, fresh_metrics
    ):
        prophet = ParallelProphet(machine=M8)
        profile = prophet.profile(pipeline_loop)
        engine = ColumnarEngine(profile, prophet.overheads)
        ff = FastForwardEmulator(prophet.overheads)
        tasks = [
            SweepTask("workload", label, 4, ("syn",), paradigm=paradigm,
                      memory_model=False)
            for paradigm in ("omp", "cilk", "omp_task")
            for label in ("static", "dynamic,1")
        ]
        clear_section_memo()
        served = [
            _predict_point(profile, prophet.overheads, task, ff, engine)
            for task in tasks
        ]
        assert fresh_metrics.counter_value("replay.sections") == 1.0
        for task, answer in zip(tasks, served):
            clear_section_memo()
            eager = _predict_point(
                profile, prophet.overheads, task, ff, engine=None
            )
            assert answer == eager, f"{task.paradigm}/{task.schedule}"

    @given(
        pipeline_programs(),
        st.sampled_from(SCHEDULES),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([ReplayMode.FAKE, ReplayMode.REAL]),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_pipeline_replays_ignore_the_paradigm(
        self, program, schedule, n_threads, mode
    ):
        (sec,) = ParallelProphet(machine=M4).profile(
            program
        ).tree.top_level_sections()
        omp = _section_run(sec, "omp", schedule, n_threads, mode)
        for paradigm in ("cilk", "omp_task"):
            assert _section_run(
                sec, paradigm, schedule, n_threads, mode
            ) == omp, paradigm

    @given(
        st.one_of(programs().map(build_program), pipeline_programs()),
        st.sampled_from(["omp", "cilk", "omp_task"]),
        st.sampled_from(SCHEDULES),
        st.sampled_from(SCHEDULES),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([ReplayMode.FAKE, ReplayMode.REAL]),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_pool_and_pipeline_replays_ignore_the_schedule(
        self, program, paradigm, s1, s2, n_threads, mode
    ):
        profile = ParallelProphet(machine=M4).profile(program)
        for sec in profile.tree.top_level_sections():
            if paradigm == "omp" and not sec.pipeline:
                continue  # a worksharing replay reads the schedule
            assert _section_run(sec, paradigm, s1, n_threads, mode) == (
                _section_run(sec, paradigm, s2, n_threads, mode)
            ), f"{paradigm}/{sec.name}: {s1} vs {s2}"

    @given(
        programs(),
        st.sampled_from(["omp", "cilk", "omp_task"]),
        st.sampled_from(SCHEDULES),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([ReplayMode.FAKE, ReplayMode.REAL]),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_lock_free_replays_ignore_the_handoff(
        self, items, paradigm, schedule, n_threads, mode
    ):
        profile = ParallelProphet(machine=M4).profile(
            build_program(_strip_locks(items))
        )
        for sec in profile.tree.top_level_sections():
            fifo = _section_run(sec, paradigm, schedule, n_threads, mode)
            for handoff, seed in (("lifo", 0), ("adversarial", 0),
                                  ("random", 0), ("random", 7)):
                assert _section_run(
                    sec, paradigm, schedule, n_threads, mode, handoff, seed
                ) == fifo, f"{paradigm}/{sec.name}/{handoff}:{seed}"


# ------------------------------------------------------------- configuration


class TestBackendSelection:
    def test_jobs_do_not_change_columnar_results(self, prophet, profiles):
        """Batch composition must not leak into per-point values."""
        kwargs = dict(
            threads=[2, 4, 8],
            methods=("ff", "syn", "real"),
            memory_model=False,
        )
        serial = BatchPredictor(prophet, jobs=1).sweep(profiles["cpu"], **kwargs)
        pooled = BatchPredictor(prophet, jobs=2).sweep(profiles["cpu"], **kwargs)
        assert serial["workload"].estimates == pooled["workload"].estimates


# -------------------------------------------------------------- verification


class TestVerifyPoints:
    def test_clean_profile_verifies(self, prophet, profiles):
        checked, mismatches = verify_points(
            prophet, profiles["cpu"], threads=[1, 2, 4, 8]
        )
        assert mismatches == []
        assert checked == 8  # ff + syn at four thread counts

    def test_every_point_checked(self, prophet, profiles):
        """Every point of the lock-bearing program is served and verified:
        its section delegated, the oversubscribed t=16 and the Cilk
        points included."""
        for paradigm in ("omp", "cilk"):
            checked, mismatches = verify_points(
                prophet, profiles["locked"], threads=[2, 4, 16],
                methods=("ff", "syn", "real"), paradigm=paradigm,
            )
            assert mismatches == []
            assert checked == 9

    def test_every_ff_point_must_be_equal(self, prophet, profiles,
                                          monkeypatch):
        """Every FF point is held to ``==``: a 1e-12 drift is reported on
        a lowered section under both schedule families and on a delegated
        one."""
        import repro.core.columnar as columnar_mod

        served = columnar_mod.ColumnarEngine.ff_point

        def skewed(self, schedule, t, burdens):
            total, results = served(self, schedule, t, burdens)
            return total * (1 + 1e-12), results

        monkeypatch.setattr(columnar_mod.ColumnarEngine, "ff_point", skewed)
        for name, schedule, n_bad in (
            ("cpu", "static", 1),
            ("cpu", "dynamic,1", 1),
            ("locked", "static", 1),
        ):
            checked, mismatches = verify_points(
                prophet, profiles[name], threads=[4], schedules=[schedule],
                methods=("ff",),
            )
            assert checked == 1
            assert len(mismatches) == n_bad, (name, schedule)

    def test_real_points_verified(self, prophet, profiles):
        """REAL ground truth (the batched-DRAM missy walk included) is
        re-verified against an uncached eager executor replay."""
        for name in ("cpu", "mem"):
            checked, mismatches = verify_points(
                prophet, profiles[name], threads=[2, 4, 8], methods=("real",)
            )
            assert mismatches == []
            assert checked == 3

    def test_real_mismatch_reported(self, prophet, profiles, monkeypatch):
        from dataclasses import replace

        import repro.core.columnar as columnar_mod

        served = columnar_mod.ColumnarEngine.real_point

        def skewed(self, *args):
            est = served(self, *args)
            return replace(est, speedup=est.speedup * (1 + 1e-6))

        monkeypatch.setattr(columnar_mod.ColumnarEngine, "real_point", skewed)
        checked, mismatches = verify_points(
            prophet, profiles["mem"], threads=[4], methods=("real",)
        )
        assert checked == 1
        assert len(mismatches) == 1 and "real/static/t=4" in mismatches[0]


# --------------------------------------------------------- batched DRAM solve


class TestSolveBatch:
    #: (mem_fraction, demand) running sets spanning the solver's regimes:
    #: unsaturated (queue factor only), saturated (bisection), deeply
    #: saturated, and zero-demand padding columns.
    CASES = [
        [(0.3, 1e8)],
        [(0.9, 8e9), (0.8, 7e9), (0.5, 1e9)],
        [(0.99, 5e10), (0.97, 4e10)],
        [(0.0, 0.0), (0.6, 3e9), (0.0, 0.0)],
    ]

    def _dram(self):
        return DramModel(
            M8, peak_bytes_per_sec=M8.dram_peak_bytes_per_sec_per_socket
        )

    def test_matches_scalar_solve(self):
        width = max(len(c) for c in self.CASES)
        F = np.zeros((len(self.CASES), width))
        D = np.zeros((len(self.CASES), width))
        for i, case in enumerate(self.CASES):
            for j, (f, d) in enumerate(case):
                F[i, j] = f
                D[i, j] = d
        ks = self._dram().solve_batch(F, D)
        for i, case in enumerate(self.CASES):
            segs = [SegmentDemand(f, d) for f, d in case]
            scalar = self._dram().stall_multiplier(segs)
            assert float(ks[i]) == scalar, f"case {i}"


# ------------------------------------------------------------ metrics/cal


class TestHitRates:
    def test_derived_rates(self):
        reg = MetricsRegistry()
        reg.inc("dram.solve.hits", 3.0)
        reg.inc("dram.solve.misses", 1.0)
        reg.inc("lonely.hits", 2.0)  # no paired .misses: no rate
        assert reg.hit_rates() == {"dram.solve.hit_rate": 0.75}
        rendered = reg.render()
        assert "dram.solve.hit_rate" in rendered
        assert "75.0%" in rendered

    def test_snapshot_stays_raw(self):
        reg = MetricsRegistry()
        reg.inc("x.hits", 1.0)
        reg.inc("x.misses", 1.0)
        assert "x.hit_rate" not in reg.snapshot()["counters"]

    def test_zero_total_emits_no_rate(self):
        reg = MetricsRegistry()
        reg.inc("x.hits", 0.0)
        reg.inc("x.misses", 0.0)
        assert reg.hit_rates() == {}


class TestSharedCalibration:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_calibrates_once_per_sweep(self, jobs, fresh_metrics):
        """Both the in-process and the pooled sweep paths calibrate the
        Ψ/Φ model exactly once per prophet — never per grid point."""
        prophet = ParallelProphet(machine=M8)
        profile = prophet.profile(memory_loop)
        BatchPredictor(prophet, jobs=jobs).sweep(
            profile, threads=[4, 8], methods=("syn",), memory_model=True
        )
        assert fresh_metrics.counter_value("memmodel.calibrations") == 1.0
