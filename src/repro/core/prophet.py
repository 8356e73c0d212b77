"""Top-level Parallel Prophet API (paper Fig. 3 workflow).

Typical use::

    prophet = ParallelProphet(machine=WESTMERE_12)
    profile = prophet.profile(program)              # interval + memory profiling
    report = prophet.predict(                        # emulation
        profile,
        threads=[2, 4, 6, 8, 10, 12],
        schedules=["static", "static,1", "dynamic,1"],
        methods=("ff", "syn"),
    )
    print(report.to_table())

Ground-truth measurement (replaying the tree as an actually-parallelized
program on the simulated machine) is exposed as :meth:`measure_real` so
benchmark harnesses can print Real-vs-Pred comparisons like the paper's
Figs. 2, 11, 12.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.core.annotations import AnnotationProgram
from repro.core.executor import ParallelExecutor, ReplayMode
from repro.core.ffemu import FastForwardEmulator
from repro.core.memmodel import MemoryModel
from repro.core.microbench import CalibrationResult, calibrate_memory_model
from repro.core.profiler import IntervalProfiler, ProgramProfile
from repro.core.report import SpeedupEstimate, SpeedupReport
from repro.core.synthesizer import Synthesizer
from repro.errors import ConfigurationError
from repro.obs import get_tracer
from repro.runtime.overhead import DEFAULT_OVERHEADS, RuntimeOverheads
from repro.runtime.tasks import Schedule
from repro.simhw.machine import WESTMERE_12, MachineConfig
from repro.validate.invariants import get_checker, has_nested_sections

#: Evaluation backends: ``"auto"`` consults the columnar engine per grid
#: point with per-point eager fallback; ``"eager"`` forces the scalar path.
BACKENDS = ("auto", "eager")


def check_backend(backend: str) -> str:
    """Return ``backend`` or raise ConfigurationError if it is unknown."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


class ParallelProphet:
    """Facade tying together profiling, the memory model, and the emulators."""

    def __init__(
        self,
        machine: MachineConfig = WESTMERE_12,
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
        compress: bool = True,
        compression_tolerance: float = 0.05,
        overhead_subtraction_accuracy: float = 1.0,
        tracer=None,
    ) -> None:
        self.machine = machine
        self.overheads = overheads
        #: Tracer forwarded to every emulator/executor this facade builds.
        self.obs = tracer if tracer is not None else get_tracer()
        #: Runtime invariant checker: every estimate leaving this facade is
        #: bounds-checked against its machine's concurrency while enabled.
        self.inv = get_checker()
        self.profiler = IntervalProfiler(
            machine,
            compress=compress,
            tolerance=compression_tolerance,
            overhead_subtraction_accuracy=overhead_subtraction_accuracy,
        )
        self._calibration: Optional[CalibrationResult] = None

    # --------------------------------------------------------------- profiling

    def profile(self, program: AnnotationProgram) -> ProgramProfile:
        """Interval-profile an annotated serial program (Fig. 3 step 2)."""
        return self.profiler.profile(program)

    @staticmethod
    def replay_cache_info() -> dict[str, int]:
        """Hit/miss/size counters of the cross-grid section memo shared by
        every SYN/REAL replay this facade (and the batch sweeper) runs."""
        from repro.core.executor import section_memo_info

        return section_memo_info()

    def calibration_info(self) -> dict:
        """State of the Ψ/Φ calibration cache (the serve layer's costliest
        warmup): whether it exists and which thread counts it covers."""
        if self._calibration is None:
            return {"calibrated": False, "thread_counts": []}
        return {
            "calibrated": True,
            "thread_counts": sorted(self._calibration.psi),
        }

    # --------------------------------------------------------------- memory model

    def calibration(
        self, thread_counts: Sequence[int] = (2, 4, 8, 12)
    ) -> CalibrationResult:
        """The machine's Ψ/Φ calibration, computed once and cached.

        A spread of thread counts is always swept in addition to the
        requested ones — the Φ fit needs contention at several levels; a
        single thread count gives a degenerate (near-vertical) relation.
        """
        needed = sorted({t for t in thread_counts if t >= 2})
        if self._calibration is None or not all(
            t in self._calibration.psi for t in needed
        ):
            n = self.machine.n_cores
            spread = {t for t in (2, 4, max(2, n // 2), n) if t >= 2}
            merged = set(needed) | spread | (
                set(self._calibration.psi) if self._calibration else set()
            )
            self._calibration = calibrate_memory_model(
                self.machine, thread_counts=sorted(merged)
            )
        return self._calibration

    def attach_burdens(
        self, profile: ProgramProfile, thread_counts: Sequence[int]
    ) -> MemoryModel:
        """Compute and attach burden factors for every top-level section."""
        model = MemoryModel(self.calibration(thread_counts))
        model.attach(profile, thread_counts)
        return model

    # --------------------------------------------------------------- prediction

    def _make_engine(self, backend: str, profile: ProgramProfile):
        """Resolve a ``backend`` selector into a columnar engine or None.

        ``"auto"`` returns an engine (consulted per grid point, with
        per-point eager fallback); ``"eager"`` returns None.  Tracing
        forces the eager path — the analytic engine emits no events."""
        if check_backend(backend) == "eager" or self.obs.enabled:
            return None
        from repro.core.columnar import ColumnarEngine

        return ColumnarEngine(profile, self.overheads)

    def predict(
        self,
        profile: ProgramProfile,
        threads: Sequence[int],
        paradigm: str = "omp",
        schedules: Iterable[str | Schedule] = ("static",),
        methods: Sequence[str] = ("syn",),
        memory_model: bool = True,
        backend: str = "auto",
        tier: str = "exact",
        surrogate=None,
    ) -> SpeedupReport:
        """Predict speedups for every (method, schedule, thread count).

        ``methods``: any of ``"ff"`` (fast-forward) and ``"syn"``
        (program synthesis).  With ``memory_model=True`` burden factors are
        calibrated and applied; otherwise every β is 1.

        ``backend`` selects the evaluation strategy: ``"auto"`` consults
        the vectorized columnar engine per grid point and falls back to
        the eager emulators wherever the engine declines (locks, nesting,
        dynamic schedules, ...); ``"eager"`` forces the scalar per-point
        path everywhere.

        ``tier`` selects *who* answers (see ``docs/surrogate.md``):
        ``"exact"`` (default) runs the emulators; ``"surrogate"`` answers
        every supported grid point from the learned model (``surrogate``,
        or the process default); ``"auto"`` answers from the model only
        where its uncertainty is below the calibrated threshold and falls
        back to the exact path elsewhere.  Hits/fallbacks/abstains are
        recorded under ``surrogate.*`` in the metrics registry.
        """
        if tier not in ("exact", "surrogate", "auto"):
            raise ConfigurationError(
                f"unknown tier {tier!r}; expected 'exact', 'surrogate' "
                f"or 'auto'"
            )
        for m in methods:
            if m not in ("ff", "syn"):
                raise ConfigurationError(f"unknown prediction method {m!r}")
        scheds = [s if isinstance(s, Schedule) else Schedule.parse(s) for s in schedules]
        if tier != "exact":
            return self._predict_tiered(
                profile,
                threads,
                paradigm,
                scheds,
                methods,
                memory_model,
                backend,
                tier,
                surrogate,
            )
        engine = self._make_engine(backend, profile)
        if memory_model and profile.sections:
            self.attach_burdens(profile, threads)

        report = SpeedupReport()
        serial = profile.serial_cycles()
        # Burden tables depend only on the thread count, and the FF emulator
        # is stateless between runs: compute/construct each once for the
        # whole (schedule × threads) grid instead of per grid point.
        burden_tables: dict[int, dict[str, float]] = {
            t: (
                {name: profile.burden_for(name, t) for name in profile.sections}
                if memory_model
                else {}
            )
            for t in threads
        }
        ff = (
            FastForwardEmulator(self.overheads, tracer=self.obs)
            if "ff" in methods
            else None
        )
        for schedule in scheds:
            syn = (
                Synthesizer(
                    paradigm=paradigm,
                    schedule=schedule,
                    overheads=self.overheads,
                    tracer=self.obs,
                )
                if "syn" in methods
                else None
            )
            for t in threads:
                if ff is not None:
                    col = (
                        engine.ff_point(schedule, t, burden_tables[t])
                        if engine is not None
                        else None
                    )
                    if col is not None:
                        predicted, ff_sections = col
                    else:
                        predicted, ff_sections = ff.emulate_profile(
                            profile.tree, t, schedule, burden_tables[t]
                        )
                    report.add(
                        SpeedupEstimate(
                            method="ff",
                            paradigm=paradigm,
                            schedule=schedule.label,
                            n_threads=t,
                            speedup=serial / predicted if predicted > 0 else 1.0,
                            with_memory_model=memory_model,
                            sections={r.name: r.speedup for r in ff_sections},
                        )
                    )
                if syn is not None:
                    est = (
                        engine.syn_point(schedule, t, memory_model, paradigm)
                        if engine is not None
                        else None
                    )
                    if est is None:
                        run = syn.predict(
                            profile, t, use_memory_model=memory_model
                        )
                        est = run.estimate
                    report.add(est)
        if self.inv.enabled:
            self._check_estimates(profile, report, "predict")
        return report

    def _predict_tiered(
        self,
        profile: ProgramProfile,
        threads: Sequence[int],
        paradigm: str,
        scheds: Sequence[Schedule],
        methods: Sequence[str],
        memory_model: bool,
        backend: str,
        tier: str,
        surrogate,
    ) -> SpeedupReport:
        """The surrogate-first prediction path behind ``tier != "exact"``.

        Every grid point the model supports (and, under ``auto``, is
        confident about) is answered without touching an emulator — no
        burden calibration, no lowering; the rest are evaluated through the
        same per-point worker the batch sweeper uses, so a fallback answer
        is byte-identical to the exact path's.
        """
        from repro.core.batch import SweepTask, _predict_point
        from repro.obs import get_metrics
        from repro.surrogate import get_default_surrogate

        sur = surrogate if surrogate is not None else get_default_surrogate()
        metrics = get_metrics()
        answers: dict[tuple[str, int, str], SpeedupEstimate] = {}
        fallback: dict[tuple[str, int], list[str]] = {}
        for schedule in scheds:
            for t in threads:
                for method in methods:
                    ans = sur.answer(
                        profile,
                        self.machine,
                        method,
                        paradigm,
                        schedule,
                        t,
                        memory_model,
                    )
                    if ans is not None and tier == "auto" and not ans.confident:
                        metrics.inc("surrogate.abstains")
                        ans = None
                    if ans is None:
                        metrics.inc("surrogate.fallbacks")
                        fallback.setdefault((schedule.label, t), []).append(
                            method
                        )
                        continue
                    metrics.inc("surrogate.hits")
                    answers[(schedule.label, t, method)] = SpeedupEstimate(
                        method=method,
                        paradigm=paradigm,
                        schedule=schedule.label,
                        n_threads=t,
                        speedup=ans.speedup,
                        with_memory_model=memory_model,
                    )
        if fallback:
            if memory_model and profile.sections:
                self.attach_burdens(
                    profile, sorted({t for _label, t in fallback})
                )
            engine = self._make_engine(backend, profile)
            ff = FastForwardEmulator(self.overheads, tracer=self.obs)
            for (label, t), needed in fallback.items():
                task = SweepTask(
                    workload="workload",
                    schedule=label,
                    n_threads=t,
                    methods=tuple(needed),
                    paradigm=paradigm,
                    memory_model=memory_model,
                )
                for est in _predict_point(
                    profile, self.overheads, task, ff, None, engine
                ):
                    answers[(label, t, est.method)] = est
        report = SpeedupReport()
        for schedule in scheds:
            for t in threads:
                # ff before syn per point, matching the exact path's order.
                for method in ("ff", "syn"):
                    if method in methods:
                        report.add(answers[(schedule.label, t, method)])
        if self.inv.enabled:
            self._check_estimates(profile, report, "predict")
        return report

    def explore(
        self,
        profile: ProgramProfile,
        threads: Sequence[int],
        paradigm: str = "omp",
        schedules: Iterable[str] = ("static",),
        method: str = "syn",
        memory_model: bool = True,
        samples: int = 6,
        seed: int = 0,
        jobs: Optional[int] = 1,
    ) -> SpeedupReport:
        """Explore the lock-interleaving space of every grid point.

        Convenience wrapper over :class:`repro.explore.Explorer`: returns a
        report whose estimates are the default FIFO predictions
        (byte-identical to :meth:`predict` with the same grid) and whose
        ``envelopes`` carry one min/median/max
        :class:`~repro.core.report.SpeedupEnvelope` per grid point, sampled
        over ``samples`` handoff-policy variants.
        """
        from repro.explore import Explorer

        return Explorer(self, samples=samples, seed=seed, jobs=jobs).explore(
            {"workload": profile},
            threads=threads,
            schedules=schedules,
            paradigm=paradigm,
            method=method,
            memory_model=memory_model,
        )["workload"]

    # --------------------------------------------------------------- ground truth

    def measure_real(
        self,
        profile: ProgramProfile,
        threads: Sequence[int],
        paradigm: str = "omp",
        schedule: str | Schedule = "static",
    ) -> SpeedupReport:
        """Replay the tree as an actually-parallelized program (REAL mode) —
        the reproduction's stand-in for the paper's measured 'Real' bars."""
        sched = schedule if isinstance(schedule, Schedule) else Schedule.parse(schedule)
        executor = ParallelExecutor(
            machine=self.machine,
            paradigm=paradigm,
            schedule=sched,
            overheads=self.overheads,
            tracer=self.obs,
        )
        report = SpeedupReport()
        for t in threads:
            result = executor.execute_profile(profile.tree, t, ReplayMode.REAL)
            report.add(
                SpeedupEstimate(
                    method="real",
                    paradigm=paradigm,
                    schedule=sched.label,
                    n_threads=t,
                    speedup=result.speedup,
                )
            )
        if self.inv.enabled:
            self._check_estimates(profile, report, "measure_real")
        return report

    def _check_estimates(
        self, profile: ProgramProfile, report: SpeedupReport, where: str
    ) -> None:
        """Bounds-check every estimate of ``report`` (invariant checker on)."""
        nested = has_nested_sections(profile.tree)
        for e in report.estimates:
            self.inv.check_speedup(
                e.method,
                e.speedup,
                e.n_threads,
                self.machine.n_cores,
                nested,
                where=f"{where}:{e.method}/{e.schedule}/t={e.n_threads}",
            )
