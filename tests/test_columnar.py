"""Tests for the columnar sweep engine (``repro.core.columnar``).

The engine's contract is *parity, not approximation*: every grid point it
serves must agree with the eager kernel within 1e-9 relative, and every
point it declines must reach the eager path untouched.  The property test
reuses the ``test_fuzz_pipeline`` program generator so the parity claim is
exercised across random program shapes, not just hand-picked fixtures.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ParallelProphet
from repro.core.batch import BatchPredictor, SweepTask, _predict_point
from repro.core.columnar import verify_points
from repro.core.ffemu import FastForwardEmulator
from repro.core.report import SpeedupReport
from repro.obs import MetricsRegistry, set_metrics
from repro.simhw import MachineConfig
from repro.simhw.dram import DramModel, SegmentDemand
from repro.simhw.memtrace import AccessPattern, MemSpec
from repro.validate.fuzz import build_program

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


def _eager_reference(prophet, profile, threads, schedules=("static",),
                     methods=("syn",), memory_model=True):
    """The grid through the reference emulators only: the batch worker
    with no columnar engine (burdens are attached by the caller's sweep)."""
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
        """FF/SYN/REAL parity at <=1e-9 across random eligible programs
        (t=5,6 oversubscribe the 4-core machine, exercising the syn/real
        fallback; memory specs exercise the batched-DRAM missy walk and
        its mixed-signature fallback)."""
        prophet = ParallelProphet(machine=M4)
        profile = prophet.profile(build_program(_strip_to_eligible(items)))
        kwargs = dict(
            threads=[n_threads],
            schedules=["static", "static,2"],
            methods=("ff", "syn", "real"),
            memory_model=False,
        )
        eager, columnar = _both_backends(prophet, profile, **kwargs)
        _assert_parity(eager, columnar)

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

    def test_dynamic_schedule_falls_back(self, prophet, profiles,
                                         fresh_metrics):
        eager, columnar = self._run(
            prophet,
            profiles["cpu"],
            threads=[2, 4],
            schedules=["dynamic,1"],
            methods=("ff", "syn"),
        )
        _assert_parity(eager, columnar)
        assert fresh_metrics.counter_value("columnar.hits") == 0
        assert fresh_metrics.counter_value("columnar.fallbacks") == 4.0

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
