"""Tests for the columnar sweep engine (``repro.core.columnar``).

The engine's contract is *parity, not approximation*: every grid point it
serves must agree with the eager kernel within 1e-9 relative — exactly
(``==``) where the team walk replays the whole point — and every point it
declines must reach the eager path untouched.  The property test
reuses the ``test_fuzz_pipeline`` program generator so the parity claim is
exercised across random program shapes, not just hand-picked fixtures.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ParallelProphet
from repro.core.batch import BatchPredictor, SweepTask, _predict_point
from repro.core.columnar import DECLINE_REASONS, ColumnarEngine, verify_points
from repro.core.executor import clear_section_memo
from repro.core.ffemu import FastForwardEmulator
from repro.core.report import SpeedupReport
from repro.obs import MetricsRegistry, set_metrics
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

REL = 1e-9


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
    }


@pytest.fixture()
def fresh_metrics():
    mine = MetricsRegistry()
    old = set_metrics(mine)
    try:
        yield mine
    finally:
        set_metrics(old)


def _assert_parity(eager, columnar, rel=REL):
    """Same grid, same keys, speedups within ``rel``."""
    assert len(eager.estimates) == len(columnar.estimates) > 0
    for e, c in zip(eager.estimates, columnar.estimates):
        assert (e.method, e.schedule, e.n_threads) == (
            c.method,
            c.schedule,
            c.n_threads,
        )
        assert c.speedup == pytest.approx(e.speedup, rel=rel), (
            f"{e.method}/{e.schedule}/t={e.n_threads}"
        )


def _walk_served(profile, prophet, estimate):
    """True when the team walk answers every section of ``estimate``'s
    grid point: SYN/REAL under a dynamic-family schedule, and REAL when
    every section demands memory.  Such points must be ``==`` eager."""
    if estimate.method == "ff":
        return False
    if Schedule.parse(estimate.schedule).is_dynamic_family:
        return True
    engine = ColumnarEngine(profile, prophet.overheads)
    if engine._lowering() is None:
        return False
    return estimate.method == "real" and all(
        sc.total_misses > 0.0 for sc in engine._secs
    )


def _assert_walk_parity(prophet, profile, eager, columnar):
    """``_assert_parity``, and ``==`` for every walk-served point."""
    _assert_parity(eager, columnar)
    for e, c in zip(eager.estimates, columnar.estimates):
        if _walk_served(profile, prophet, c):
            assert c == e, f"{e.method}/{e.schedule}/t={e.n_threads}"


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
        """FF/SYN/REAL parity at <=1e-9 across random eligible programs,
        and ``==`` wherever the team walk serves the whole point (t=5,6
        oversubscribe the 4-core machine, exercising the syn/real
        fallback; memory specs exercise the batched-DRAM walks — fused
        ``static`` lanes, ``static,N`` interleaving, the dynamic chunk
        cursor — and the mixed-signature fallback)."""
        prophet = ParallelProphet(machine=M4)
        profile = prophet.profile(build_program(_strip_to_eligible(items)))
        kwargs = dict(
            threads=[n_threads],
            schedules=["static", "static,2", "static,1", "dynamic,1", "guided,2"],
            methods=("ff", "syn", "real"),
            memory_model=False,
        )
        eager, columnar = _both_backends(prophet, profile, **kwargs)
        _assert_walk_parity(prophet, profile, eager, columnar)

    @given(programs(), st.integers(min_value=1, max_value=4))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_ineligible_programs_fall_back_exactly(self, items, n_threads):
        """Unstripped programs (locks, nesting) must be *identical*, not
        merely close: the engine declines and both runs are eager."""
        prophet = ParallelProphet(machine=M4)
        profile = prophet.profile(build_program(items))
        kwargs = dict(
            threads=[n_threads],
            schedules=["static,1"],
            methods=("ff", "syn"),
            memory_model=False,
        )
        eager, columnar = _both_backends(prophet, profile, **kwargs)
        for e, c in zip(eager.estimates, columnar.estimates):
            assert (c.speedup == e.speedup) or (
                c.speedup == pytest.approx(e.speedup, rel=REL)
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
    @pytest.mark.parametrize("name", ["mem", "memi", "mixed"])
    def test_walk_grid(self, prophet, profiles, fresh_metrics, schedule, name):
        """Memory demand under ``static`` (fused lanes) and ``static,N``
        (interleaved per-leaf lanes), and the dynamic family, replay
        through the team walk at ``==`` parity, with the memory model's
        burdens on the SYN side."""
        eager, columnar = _both_backends(
            prophet,
            profiles[name],
            threads=[1, 2, 3, 4, 8],
            schedules=[schedule],
            methods=("ff", "syn", "real"),
            memory_model=True,
        )
        _assert_walk_parity(prophet, profiles[name], eager, columnar)
        dynamic = Schedule.parse(schedule).is_dynamic_family
        assert fresh_metrics.counter_value("columnar.hits") == (
            10.0 if dynamic else 15.0
        )

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

        def repeated(tr):
            for _ in range(7):
                with tr.section("rep"):
                    for i in range(5):
                        with tr.task():
                            tr.compute(
                                7_000 + 1_000 * (i % 2),
                                mem=MemSpec(
                                    AccessPattern.STREAMING, bytes_touched=300_000
                                ),
                            )

        profile = prophet.profile(repeated)
        (sec,) = profile.tree.top_level_sections()
        assert sec.repeat == 7
        for task in sec.children:
            task.children[0].repeat = 7
        eager, columnar = _both_backends(
            prophet,
            profile,
            threads=[2, 3, 4, 8],
            schedules=["static,1", "dynamic,1", "guided,2"],
            methods=("syn", "real"),
            memory_model=True,
        )
        _assert_walk_parity(prophet, profile, eager, columnar)

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


# ----------------------------------------------------------------- fallbacks


class TestFallbacks:
    def _run(self, prophet, profile, **kwargs):
        kwargs.setdefault("memory_model", False)
        return _both_backends(prophet, profile, **kwargs)

    def test_locks_fall_back(self, prophet, profiles, fresh_metrics):
        eager, columnar = self._run(
            prophet, profiles["locked"], threads=[4], methods=("syn", "real")
        )
        _assert_parity(eager, columnar)
        assert fresh_metrics.counter_value("columnar.fallbacks") > 0

    def test_nesting_falls_back(self, prophet, profiles, fresh_metrics):
        eager, columnar = self._run(
            prophet, profiles["nested"], threads=[4], methods=("ff", "syn")
        )
        _assert_parity(eager, columnar)
        assert fresh_metrics.counter_value("columnar.fallbacks") > 0
        assert fresh_metrics.counter_value("columnar.hits") == 0

    def test_dynamic_schedule_ff_declines_syn_real_walk(
        self, prophet, profiles, fresh_metrics
    ):
        """Dynamic-family FF is interleaving-dependent and stays on the
        heap walk; SYN and REAL replay through the team walk's shared
        chunk cursor, bit for bit (demand-free and memory-bound)."""
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
        assert fresh_metrics.counter_value("columnar.fallbacks") == 12.0
        assert fresh_metrics.counter_value("columnar.declines.dynamic") == 12.0
        assert fresh_metrics.counter_value("columnar.hits") == 24.0

    def test_oversubscription_replay_falls_back(self, prophet, profiles,
                                                fresh_metrics):
        """t > n_cores: FF's abstract machine is still closed-form (served),
        but the replay involves preemption, so syn declines."""
        eager, columnar = self._run(
            prophet, profiles["cpu"], threads=[16], methods=("ff", "syn")
        )
        _assert_parity(eager, columnar)
        assert fresh_metrics.counter_value("columnar.hits") == 1.0  # the ff
        assert fresh_metrics.counter_value("columnar.fallbacks") == 1.0

    def test_numpy_missing_falls_back(self, prophet, profiles, fresh_metrics,
                                      monkeypatch):
        import repro.core.columnar as columnar_mod

        monkeypatch.setattr(columnar_mod, "np", None)
        report = prophet.predict(
            profiles["cpu"],
            threads=[2],
            methods=("ff", "syn"),
            memory_model=False,
        )
        assert len(report.estimates) == 2
        assert fresh_metrics.counter_value("columnar.hits") == 0
        assert fresh_metrics.counter_value("columnar.fallbacks") == 2.0

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


class TestDeclineReasons:
    def test_every_reason_counted_and_summed(self, profiles, fresh_metrics,
                                             monkeypatch):
        """One decline per reason; ``columnar.declines.*`` sum to
        ``columnar.fallbacks``."""
        import repro.core.columnar as columnar_mod

        static = Schedule.static()

        def engine(profile, machine=M8):
            return ColumnarEngine(profile, ParallelProphet(machine=machine).overheads)

        def profiled(program, machine):
            return ParallelProphet(machine=machine).profile(program)

        assert engine(profiles["locked"]).syn_point(static, 2, False, "omp") is None
        assert engine(profiles["cpu"]).syn_point(static, 2, False, "cilk") is None
        assert engine(profiles["cpu"]).real_point(static, 16, "omp") is None
        switching = MachineConfig(n_cores=8, context_switch_cycles=500.0)
        assert engine(profiled(imbalanced_loop, switching), switching).syn_point(
            static, 2, False, "omp"
        ) is None
        assert engine(profiles["cpu"]).ff_point(Schedule.dynamic(1), 2, {}) is None
        mixed = profiled(mixed_signature_loop, M8)
        assert engine(mixed).real_point(static, 2, "omp") is None
        numa = MachineConfig(n_cores=8, n_sockets=2)
        assert engine(profiled(memory_loop, numa), numa).real_point(
            static, 2, "omp"
        ) is None
        monkeypatch.setattr(columnar_mod, "np", None)
        assert engine(profiles["cpu"]).ff_point(static, 2, {}) is None

        declines = {
            reason: fresh_metrics.counter_value(f"columnar.declines.{reason}")
            for reason in DECLINE_REASONS
        }
        assert declines == {reason: 1.0 for reason in DECLINE_REASONS}
        assert sum(declines.values()) == fresh_metrics.counter_value(
            "columnar.fallbacks"
        )
        assert fresh_metrics.counter_value("columnar.hits") == 0


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
            assert fresh_metrics.counter_value("columnar.fallbacks") == 0
            eager = _eager_reference(prophet, profile, **kwargs)
            assert served.estimates == eager.estimates


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
        checked, skipped, mismatches = verify_points(
            prophet, profiles["cpu"], threads=[1, 2, 4, 8]
        )
        assert mismatches == []
        assert checked == 8  # ff + syn at four thread counts
        assert skipped == 0

    def test_ineligible_points_counted_as_skipped(self, prophet, profiles):
        checked, skipped, mismatches = verify_points(
            prophet, profiles["locked"], threads=[2, 4]
        )
        assert mismatches == []
        assert checked == 0
        assert skipped == 4

    def test_real_points_verified(self, prophet, profiles):
        """REAL ground truth (the batched-DRAM missy walk included) is
        re-verified against an uncached eager executor replay."""
        for name in ("cpu", "mem"):
            checked, skipped, mismatches = verify_points(
                prophet, profiles[name], threads=[2, 4, 8], methods=("real",)
            )
            assert mismatches == []
            assert (checked, skipped) == (3, 0)

    def test_real_mismatch_reported(self, prophet, profiles, monkeypatch):
        from dataclasses import replace

        import repro.core.columnar as columnar_mod

        served = columnar_mod.ColumnarEngine.real_point

        def skewed(self, schedule, t, paradigm):
            est = served(self, schedule, t, paradigm)
            return replace(est, speedup=est.speedup * (1 + 1e-6))

        monkeypatch.setattr(columnar_mod.ColumnarEngine, "real_point", skewed)
        checked, _, mismatches = verify_points(
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
        np = pytest.importorskip("numpy")
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
