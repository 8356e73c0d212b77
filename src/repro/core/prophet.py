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
from repro.core.batch import BatchPredictor
from repro.core.memmodel import MemoryModel
from repro.core.microbench import CalibrationResult, calibrate_memory_model
from repro.core.profiler import IntervalProfiler, ProgramProfile
from repro.core.report import SpeedupReport
from repro.errors import ConfigurationError
from repro.runtime.overhead import DEFAULT_OVERHEADS, RuntimeOverheads
from repro.runtime.tasks import Schedule
from repro.simhw.machine import WESTMERE_12, MachineConfig


class ParallelProphet:
    """Facade tying together profiling, the memory model, and the emulators."""

    def __init__(
        self,
        machine: MachineConfig = WESTMERE_12,
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
        compress: bool = True,
        compression_tolerance: float = 0.05,
        overhead_subtraction_accuracy: float = 1.0,
    ) -> None:
        self.machine = machine
        self.overheads = overheads
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

    def predict(
        self,
        profile: ProgramProfile,
        threads: Sequence[int],
        paradigm: str = "omp",
        schedules: Iterable[str | Schedule] = ("static",),
        methods: Sequence[str] = ("syn",),
        memory_model: bool = True,
        tier: str = "exact",
        surrogate=None,
    ) -> SpeedupReport:
        """Predict speedups for every (method, schedule, thread count).

        ``methods``: any of ``"ff"`` (fast-forward) and ``"syn"``
        (program synthesis).  With ``memory_model=True`` burden factors are
        calibrated and applied; otherwise every β is 1.  Estimates come
        back schedules outer, threads inner, ``ff`` before ``syn``.

        ``tier`` selects *who* answers (see ``docs/surrogate.md``):
        ``"exact"`` (default) runs the emulators; ``"surrogate"`` answers
        every supported grid point from the learned model (``surrogate``,
        or the process default); ``"auto"`` answers from the model only
        where its uncertainty is below the calibrated threshold and falls
        back to the exact path elsewhere.  Hits/fallbacks/abstains are
        recorded under ``surrogate.*`` in the metrics registry.

        Every grid point is evaluated by the batch worker
        (:class:`~repro.core.batch.BatchPredictor`, in-process), so this
        answer is the one a sweep of the same grid gives.
        """
        for m in methods:
            if m not in ("ff", "syn"):
                raise ConfigurationError(f"unknown prediction method {m!r}")
        scheds = [s if isinstance(s, Schedule) else Schedule.parse(s) for s in schedules]
        return BatchPredictor(self, jobs=1, tier=tier, surrogate=surrogate).sweep(
            profile,
            threads=threads,
            schedules=scheds,
            methods=tuple(m for m in ("ff", "syn") if m in methods),
            paradigm=paradigm,
            memory_model=memory_model,
        )["workload"]

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
        """Replay the tree as an actually-parallelized program (REAL mode) on
        the profile's machine — the reproduction's stand-in for the paper's
        measured 'Real' bars.  Same batch worker as :meth:`predict`."""
        sched = schedule if isinstance(schedule, Schedule) else Schedule.parse(schedule)
        return BatchPredictor(self, jobs=1).sweep(
            profile,
            threads=threads,
            schedules=[sched],
            methods=("real",),
            paradigm=paradigm,
        )["workload"]
