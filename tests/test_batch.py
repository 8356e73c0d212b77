"""Tests for the batch sweep engine (``repro.core.batch``)."""

import pytest

from repro import ParallelProphet
from repro.core.batch import BatchPredictor, SweepTask, SweepTaskFailure, sweep
from repro.core.executor import clear_section_memo
from repro.errors import BatchError, ConfigurationError
from repro.obs import MetricsRegistry, Tracer, set_metrics, set_tracer
from repro.simhw import MachineConfig
from repro.workloads import get_workload

M = MachineConfig(n_cores=8)


def imbalanced_loop(tr):
    with tr.section("loop"):
        for i in range(16):
            with tr.task():
                tr.compute(5_000 + 1_000 * (i % 4))


def memory_loop(tr):
    from repro.simhw.memtrace import AccessPattern, MemSpec

    with tr.section("mem"):
        for _ in range(8):
            with tr.task():
                tr.compute(
                    20_000,
                    mem=MemSpec(AccessPattern.STREAMING, bytes_touched=1_000_000),
                )


@pytest.fixture(scope="module")
def prophet():
    return ParallelProphet(machine=M)


@pytest.fixture(scope="module")
def profiles(prophet):
    return {
        "cpu": prophet.profile(imbalanced_loop),
        "mem": prophet.profile(memory_loop),
    }


class TestSweepTask:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepTask("w", "static", 4, methods=("magic",))

    def test_bad_thread_count_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepTask("w", "static", 0)

    def test_hashable_and_frozen(self):
        task = SweepTask("w", "static", 4)
        assert task in {task}
        with pytest.raises(AttributeError):
            task.n_threads = 8


class TestSweepGrid:
    def test_grid_order_and_shape(self, prophet, profiles):
        reports = BatchPredictor(prophet, jobs=1).sweep(
            profiles,
            threads=[2, 4],
            schedules=["static", "static,1"],
            methods=("syn",),
            memory_model=False,
        )
        assert set(reports) == {"cpu", "mem"}
        keys = [
            (e.schedule, e.n_threads, e.method)
            for e in reports["cpu"].estimates
        ]
        # Schedules outer, threads inner — ParallelProphet.predict's order.
        assert keys == [
            ("static", 2, "syn"),
            ("static", 4, "syn"),
            ("static,1", 2, "syn"),
            ("static,1", 4, "syn"),
        ]

    def test_single_profile_shorthand(self, prophet, profiles):
        reports = BatchPredictor(prophet, jobs=1).sweep(
            profiles["cpu"], threads=[4], memory_model=False
        )
        assert list(reports) == ["workload"]
        assert reports["workload"].speedup(n_threads=4) > 1.0

    def test_matches_prophet_predict(self, prophet, profiles):
        """The batch engine must agree exactly with the facade's loop."""
        direct = prophet.predict(
            profiles["cpu"],
            threads=[2, 4],
            schedules=["static,1"],
            methods=("ff", "syn"),
            memory_model=False,
        )
        batched = BatchPredictor(prophet, jobs=1).sweep(
            {"cpu": profiles["cpu"]},
            threads=[2, 4],
            schedules=["static,1"],
            methods=("ff", "syn"),
            memory_model=False,
        )["cpu"]
        assert direct.estimates == batched.estimates

    def test_real_method(self, prophet, profiles):
        reports = BatchPredictor(prophet, jobs=1).sweep(
            profiles["cpu"], threads=[4], methods=("real",), memory_model=False
        )
        est = reports["workload"].one(method="real", n_threads=4)
        assert 1.0 < est.speedup <= 4.0

    def test_memory_model_burdens_attached(self, prophet, profiles):
        reports = BatchPredictor(prophet, jobs=1).sweep(
            profiles["mem"], threads=[8], methods=("syn",), memory_model=True
        )
        withm = reports["workload"].one(with_memory_model=True)
        assert withm.speedup > 0
        assert profiles["mem"].burden_for("mem", 8) >= 1.0

    def test_module_level_sweep(self, prophet, profiles):
        reports = sweep(
            profiles["cpu"],
            threads=[2],
            memory_model=False,
            jobs=1,
            prophet=prophet,
        )
        assert reports["workload"].speedup(n_threads=2) > 1.0


class TestRun:
    def test_unknown_workload_rejected(self, prophet, profiles):
        with pytest.raises(ConfigurationError):
            BatchPredictor(prophet, jobs=1).run(
                [SweepTask("nope", "static", 2)], profiles
            )

    def test_heterogeneous_tasks(self, prophet, profiles):
        """Non-cross-product grids: per-task schedules and method sets."""
        tasks = [
            SweepTask("cpu", "static", 2, ("syn", "real"), memory_model=False),
            SweepTask("mem", "dynamic,1", 4, ("ff",), memory_model=False),
        ]
        results = BatchPredictor(prophet, jobs=1).run(tasks, profiles)
        assert [task for task, _ in results] == tasks
        assert [e.method for e in results[0][1]] == ["syn", "real"]
        assert [e.method for e in results[1][1]] == ["ff"]
        assert results[1][1][0].schedule == "dynamic,1"

    def test_empty_task_list(self, prophet, profiles):
        assert BatchPredictor(prophet, jobs=1).run([], profiles) == []


class TestDeterminism:
    def test_parallel_matches_serial(self, prophet, profiles):
        """jobs > 1 must be byte-identical to the in-process run."""
        kwargs = dict(
            threads=[2, 4, 8],
            schedules=["static", "dynamic,1"],
            methods=("ff", "syn", "real"),
            memory_model=False,
        )
        serial = BatchPredictor(prophet, jobs=1).sweep(profiles, **kwargs)
        parallel = BatchPredictor(prophet, jobs=2).sweep(profiles, **kwargs)
        assert list(serial) == list(parallel)
        for name in serial:
            assert serial[name].estimates == parallel[name].estimates
            assert serial[name].to_table() == parallel[name].to_table()

    def test_parallel_matches_serial_with_memory_model(self, prophet, profiles):
        kwargs = dict(threads=[4, 8], methods=("syn",), memory_model=True)
        serial = BatchPredictor(prophet, jobs=1).sweep(profiles, **kwargs)
        parallel = BatchPredictor(prophet, jobs=3).sweep(profiles, **kwargs)
        for name in serial:
            assert serial[name].estimates == parallel[name].estimates

    def test_chunking_does_not_change_results(self, prophet, profiles):
        kwargs = dict(threads=[2, 4, 8], methods=("syn",), memory_model=False)
        a = BatchPredictor(prophet, jobs=2, chunks_per_job=1).sweep(
            profiles, **kwargs
        )
        b = BatchPredictor(prophet, jobs=2, chunks_per_job=8).sweep(
            profiles, **kwargs
        )
        for name in a:
            assert a[name].estimates == b[name].estimates


class TestConfig:
    def test_default_jobs_positive(self, prophet):
        assert BatchPredictor(prophet).jobs >= 1

    def test_bad_chunks_per_job(self, prophet):
        with pytest.raises(ConfigurationError):
            BatchPredictor(prophet, chunks_per_job=0)


#: A schedule spec SweepTask accepts (it keeps the raw string) but
#: Schedule.parse rejects inside the worker — the injection vehicle.
BAD_SCHEDULE = "nosuchsched"


def _mixed_tasks(good=3):
    tasks = [
        SweepTask("cpu", "static", 2 + i, ("syn",), memory_model=False)
        for i in range(good)
    ]
    # Poison the middle of the grid, not the edges.
    tasks.insert(1, SweepTask("cpu", BAD_SCHEDULE, 2, ("syn",), memory_model=False))
    return tasks


class TestFailureHandling:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_does_not_poison_chunk(self, prophet, profiles, jobs):
        """Other tasks in the same chunk still produce results."""
        tasks = _mixed_tasks()
        results = BatchPredictor(prophet, jobs=jobs).run(
            tasks, profiles, on_error="collect"
        )
        assert [task for task, _ in results] == tasks
        outcomes = [outcome for _, outcome in results]
        failures = [o for o in outcomes if isinstance(o, SweepTaskFailure)]
        assert len(failures) == 1
        assert failures[0].schedule == BAD_SCHEDULE
        assert failures[0].error == "ConfigurationError"
        assert BAD_SCHEDULE in failures[0].message
        # The three good tasks all succeeded, in grid order.
        good = [o for o in outcomes if not isinstance(o, SweepTaskFailure)]
        assert len(good) == 3
        assert all(ests[0].method == "syn" for ests in good)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_mode_raises_after_merge(self, prophet, profiles, jobs):
        with pytest.raises(BatchError) as exc_info:
            BatchPredictor(prophet, jobs=jobs).run(tasks=_mixed_tasks(),
                                                   profiles=profiles)
        err = exc_info.value
        assert len(err.failures) == 1
        assert isinstance(err.failures[0], SweepTaskFailure)
        assert BAD_SCHEDULE in str(err)

    def test_collect_matches_between_job_counts(self, prophet, profiles):
        """Failure placement is deterministic across pool sizes."""
        tasks = _mixed_tasks()
        serial = BatchPredictor(prophet, jobs=1).run(
            tasks, profiles, on_error="collect"
        )
        parallel = BatchPredictor(prophet, jobs=2).run(
            tasks, profiles, on_error="collect"
        )
        assert serial == parallel

    def test_sweep_attaches_failures_to_report(self, prophet, profiles):
        reports = BatchPredictor(prophet, jobs=1).sweep(
            {"cpu": profiles["cpu"]},
            threads=[2, 4],
            schedules=["static", BAD_SCHEDULE],
            methods=("syn",),
            memory_model=False,
            on_error="collect",
        )
        report = reports["cpu"]
        assert len(report.failures) == 2  # two thread counts × bad schedule
        assert len(report.estimates) == 2
        assert "2 grid point(s) failed" in report.to_table()

    def test_sweep_raises_by_default(self, prophet, profiles):
        with pytest.raises(BatchError):
            BatchPredictor(prophet, jobs=1).sweep(
                {"cpu": profiles["cpu"]},
                threads=[2],
                schedules=[BAD_SCHEDULE],
                methods=("syn",),
                memory_model=False,
            )

    def test_bad_on_error_rejected(self, prophet, profiles):
        with pytest.raises(ConfigurationError):
            BatchPredictor(prophet, jobs=1).run(
                [], profiles, on_error="explode"
            )


class TestMetricsMerge:
    @pytest.fixture()
    def fresh_metrics(self):
        mine = MetricsRegistry()
        old = set_metrics(mine)
        try:
            yield mine
        finally:
            set_metrics(old)

    def test_parallel_counters_match_serial(self, prophet, profiles,
                                            fresh_metrics):
        """Worker snapshots merged in submission order equal the in-process
        counters: the determinism guarantee extends to metrics."""
        kwargs = dict(threads=[2, 4], methods=("syn",), memory_model=False)
        BatchPredictor(prophet, jobs=1).sweep(profiles, **kwargs)
        serial_counters = fresh_metrics.snapshot()["counters"]
        assert serial_counters.get("syn.replays") == 4.0  # 2 workloads × 2 t

        fresh_metrics.reset()
        BatchPredictor(prophet, jobs=2).sweep(profiles, **kwargs)
        parallel_counters = fresh_metrics.snapshot()["counters"]
        assert parallel_counters == serial_counters

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_errors_counted(self, prophet, profiles, jobs,
                                 fresh_metrics):
        BatchPredictor(prophet, jobs=jobs).run(
            _mixed_tasks(), profiles, on_error="collect"
        )
        assert fresh_metrics.counter_value("batch.task.errors") == 1.0
        assert fresh_metrics.counter_value("batch.tasks") == 4.0


class TestPersistentCaches:
    """The daemon-facing cache surface: reset(), cache_info(), and warm
    columnar-engine reuse across run() calls on one predictor instance."""

    def test_cache_info_shape(self, prophet):
        info = BatchPredictor(prophet, jobs=1).cache_info()
        assert set(info) == {"engines", "section_memo"}
        assert info["engines"] == {
            "size": 0,
            "maxsize": 32,
            "hits": 0,
            "misses": 0,
            "point_entries": 0,
        }
        assert "hits" in info["section_memo"]

    def test_run_populates_persistent_caches(self, prophet, profiles):
        predictor = BatchPredictor(prophet, jobs=1)
        predictor.sweep(
            profiles, threads=[2, 4], methods=("real",), memory_model=False
        )
        info = predictor.cache_info()
        assert info["engines"]["size"] == len(profiles)
        assert info["engines"]["misses"] == len(profiles)

    def test_engine_cache_hits_on_repeat(self, prophet, profiles):
        predictor = BatchPredictor(prophet, jobs=1)
        kwargs = dict(threads=[2, 4], methods=("syn",), memory_model=False)
        predictor.sweep(profiles, **kwargs)
        cold = predictor.cache_info()["engines"]
        assert cold["misses"] == len(profiles) and cold["hits"] == 0
        predictor.sweep(profiles, **kwargs)
        warm = predictor.cache_info()["engines"]
        assert warm["misses"] == cold["misses"]
        assert warm["hits"] == len(profiles)

    def test_repeat_run_results_identical(self, prophet, profiles):
        predictor = BatchPredictor(prophet, jobs=1)
        kwargs = dict(
            threads=[2, 4], methods=("syn", "real"), memory_model=False
        )
        cold = predictor.sweep(profiles, **kwargs)
        warm = predictor.sweep(profiles, **kwargs)
        for name in profiles:
            cold_rows = [
                (e.method, e.schedule, e.n_threads, e.speedup)
                for e in cold[name].estimates
            ]
            warm_rows = [
                (e.method, e.schedule, e.n_threads, e.speedup)
                for e in warm[name].estimates
            ]
            assert cold_rows == warm_rows

    def test_reset_empties_caches(self, prophet, profiles):
        predictor = BatchPredictor(prophet, jobs=1)
        predictor.sweep(
            profiles, threads=[2], methods=("real",), memory_model=False
        )
        predictor.reset()
        info = predictor.cache_info()
        assert info["engines"]["size"] == 0
        assert info["engines"]["hits"] == info["engines"]["misses"] == 0

    def test_caches_trimmed_to_bound(self, prophet, profiles, monkeypatch):
        import repro.core.batch as batch_mod

        assert len(profiles) > 1
        monkeypatch.setattr(batch_mod, "ENGINE_CACHE_SIZE", 1)
        predictor = BatchPredictor(prophet, jobs=1)
        predictor.sweep(
            profiles,
            threads=[2, 4],
            schedules=["static", "static,1", "dynamic,1"],
            methods=("real",),
            memory_model=False,
        )
        assert predictor.cache_info()["engines"]["size"] == 1

    def test_pool_path_unaffected_by_instance_caches(self, prophet, profiles):
        kwargs = dict(threads=[2, 4], methods=("syn",), memory_model=False)
        warm = BatchPredictor(prophet, jobs=1)
        warm.sweep(profiles, **kwargs)
        warm_again = warm.sweep(profiles, **kwargs)
        pool = BatchPredictor(prophet, jobs=2).sweep(profiles, **kwargs)
        for name in profiles:
            assert [
                (e.method, e.schedule, e.n_threads, e.speedup)
                for e in pool[name].estimates
            ] == [
                (e.method, e.schedule, e.n_threads, e.speedup)
                for e in warm_again[name].estimates
            ]


# -------------------------------------------------- one answer per grid point

#: Registered workloads: locks (EP), memory saturation (FT), the
#: lock-free MD kernel, and Cilk FFT (pool-walked).
ONE_ANSWER_WORKLOADS = ("npb_ep", "npb_ft", "ompscr_md", "ompscr_fft")
ONE_ANSWER_GRID = dict(
    threads=[2, 4, 8],
    schedules=["static", "static,1", "dynamic,1"],
    methods=("ff", "syn", "real"),
)


def _keyed(report):
    """(schedule, t, method) → estimate; the grid must not repeat a key."""
    keyed = {(e.schedule, e.n_threads, e.method): e for e in report}
    assert len(keyed) == len(report.estimates)
    return keyed


@pytest.fixture(scope="module")
def registered():
    prophet = ParallelProphet(machine=M)
    # Burden factors depend on the thread counts the Ψ/Φ fit covers: pin
    # the calibration set so every path below shares one fit.
    prophet.calibration(ONE_ANSWER_GRID["threads"])
    profiles = {
        name: prophet.profile(get_workload(name).program)
        for name in ONE_ANSWER_WORKLOADS
    }
    return prophet, profiles


class TestOneAnswerPerGridPoint:
    """A grid point's estimate is a pure function of (profile, machine,
    point): the facade, cold and warm sweeps, the pool, the thread order
    and tracing all give ``==`` estimates, ``sections`` included."""

    @pytest.mark.parametrize("name", ONE_ANSWER_WORKLOADS)
    def test_every_path_gives_the_same_estimates(self, registered, name):
        prophet, profiles = registered
        profile = profiles[name]
        paradigm = get_workload(name).paradigm
        grid = dict(ONE_ANSWER_GRID, paradigm=paradigm)

        clear_section_memo()
        predictor = BatchPredictor(prophet, jobs=1)
        cold = _keyed(predictor.sweep(profile, **grid)["workload"])
        assert len(cold) == 3 * 3 * 3

        facade = _keyed(
            prophet.predict(
                profile,
                grid["threads"],
                paradigm=paradigm,
                schedules=grid["schedules"],
                methods=("ff", "syn"),
            )
        )
        for schedule in grid["schedules"]:
            facade.update(
                _keyed(
                    prophet.measure_real(
                        profile,
                        grid["threads"],
                        paradigm=paradigm,
                        schedule=schedule,
                    )
                )
            )
        assert facade == cold

        other = next(p for n, p in profiles.items() if n != name)
        predictor.sweep(other, **grid)
        clear_section_memo()
        warm = _keyed(predictor.sweep(profile, **grid)["workload"])
        assert predictor.cache_info()["engines"]["hits"] > 0
        assert warm == cold

        pooled = BatchPredictor(prophet, jobs=2).sweep(profile, **grid)
        assert _keyed(pooled["workload"]) == cold

        backwards = dict(grid, threads=grid["threads"][::-1])
        reordered = BatchPredictor(prophet, jobs=1).sweep(profile, **backwards)
        assert _keyed(reordered["workload"]) == cold

        # Tracing on: delegated sections replay on traced kernels and skip
        # the section memo.
        clear_section_memo()
        old = set_tracer(Tracer(enabled=True))
        try:
            traced = BatchPredictor(prophet, jobs=1).sweep(profile, **grid)
        finally:
            set_tracer(old)
        assert _keyed(traced["workload"]) == cold


class TestProfileMachine:
    """Every grid point runs on the machine the profile was taken on, so a
    prophet built for another machine gives the same ground truth."""

    def test_measure_real_uses_the_profile_machine(self):
        prophet12 = ParallelProphet(machine=MachineConfig(n_cores=12))
        profile = prophet12.profile(get_workload("ompscr_md").program)
        prophet8 = ParallelProphet(machine=M)
        real = prophet8.measure_real(profile, [12])
        swept = BatchPredictor(prophet8, jobs=1).sweep(
            profile, threads=[12], methods=("real",)
        )["workload"]
        assert real.estimates == swept.estimates
        assert real.estimates == prophet12.measure_real(profile, [12]).estimates
        # Twelve threads on the profile's twelve cores: no oversubscription.
        assert real.speedup(n_threads=12) > 8.0
