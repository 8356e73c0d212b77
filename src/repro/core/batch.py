"""Sweep-scale batch prediction over (workload × schedule × threads × method).

The paper sells the emulators as lightweight per estimate (§VII-D), but the
validation methodology multiplies estimates: Fig. 11 alone is hundreds of
samples × schedules × core counts of *independent* emulations.  Every grid
point is a pure function of ``(profile, schedule, n_threads, method)``, so
the sweep is embarrassingly parallel — this module fans it out over a
``ProcessPoolExecutor`` with a deterministic merge.

Guarantees
----------
- **Determinism**: results are returned in grid order regardless of worker
  completion order, and the same worker code runs whether ``jobs`` is 1
  (in-process, no pool) or N (processes).  A parallel sweep is byte-identical
  to the serial one.
- **One calibration**: burden factors are attached to each profile in the
  parent *before* dispatch, so workers never re-run the Ψ/Φ microbenchmark
  (the prophet's calibration cache is shared by construction).
- **Bounded pickling**: tasks are grouped per workload and chunked, so a
  profile crosses the process boundary O(jobs) times, not once per point.

Typical use::

    prophet = ParallelProphet(machine=WESTMERE_12)
    profiles = {"ft": prophet.profile(ft_program)}
    reports = BatchPredictor(prophet, jobs=4).sweep(
        profiles,
        threads=[2, 4, 8, 12],
        schedules=["static", "static,1", "dynamic,1"],
        methods=("ff", "syn", "real"),
    )
    print(reports["ft"].to_table())
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.core.executor import ParallelExecutor, ReplayMode
from repro.core.ffemu import FastForwardEmulator
from repro.core.lru import LRUCache
from repro.core.profiler import ProgramProfile
from repro.core.report import SpeedupEstimate, SpeedupReport
from repro.core.synthesizer import Synthesizer
from repro.errors import BatchError, ConfigurationError
from repro.obs import get_metrics, get_tracer
from repro.runtime.overhead import RuntimeOverheads
from repro.runtime.tasks import Schedule
from repro.simos import normalize_handoff
from repro.validate.invariants import get_checker, has_nested_sections

#: Prediction methods a sweep task may request.
SWEEP_METHODS = ("ff", "syn", "real")

#: Bound of each predictor's columnar-engine cache (entries).
ENGINE_CACHE_SIZE = 32

#: Answer tiers (see ``docs/surrogate.md``).
TIERS = ("exact", "surrogate", "auto")


def _check_tier(tier: str) -> str:
    """Return ``tier`` or raise ConfigurationError if it is unknown."""
    if tier not in TIERS:
        raise ConfigurationError(
            f"unknown tier {tier!r}; expected 'exact', 'surrogate' or 'auto'"
        )
    return tier


@dataclass(frozen=True)
class SweepTaskFailure:
    """Structured record of one failed grid point.

    Produced inside the worker (the exception itself may not survive
    pickling, so only its type name and message cross the process
    boundary) and merged into grid order with the successful results.
    """

    workload: str
    schedule: str
    n_threads: int
    error: str  # exception class name, e.g. "ConfigurationError"
    message: str

    def __str__(self) -> str:
        return (
            f"{self.workload}/{self.schedule}/t={self.n_threads}: "
            f"{self.error}: {self.message}"
        )


@dataclass(frozen=True)
class SweepTask:
    """One grid point: all requested methods for (workload, schedule, t).

    ``schedule`` is kept as its string label so tasks stay hashable and
    cheap to pickle; it is parsed once inside the worker.
    """

    workload: str
    schedule: str
    n_threads: int
    methods: tuple[str, ...] = ("syn",)
    paradigm: str = "omp"
    memory_model: bool = True
    #: Lock-handoff policy the replay kernels use at contended releases.
    #: Non-default policies turn this grid point into one schedule-space
    #: sample of ``repro.explore``'s speedup envelope.
    handoff: str = "fifo"
    handoff_seed: int = 0

    def __post_init__(self) -> None:
        for m in self.methods:
            if m not in SWEEP_METHODS:
                raise ConfigurationError(
                    f"unknown sweep method {m!r} (expected one of {SWEEP_METHODS})"
                )
        if self.n_threads < 1:
            raise ConfigurationError(
                f"n_threads must be >= 1, got {self.n_threads}"
            )
        # Canonicalise ("seeded-random" → "random", seed pinned to 0 for
        # policies that ignore it) so task equality reflects replay
        # behaviour, not spelling.
        object.__setattr__(self, "handoff", normalize_handoff(self.handoff))
        if self.handoff != "random":
            object.__setattr__(self, "handoff_seed", 0)
        if self.handoff != "fifo" and "ff" in self.methods:
            raise ConfigurationError(
                "the fast-forward emulator is interleaving-blind; "
                f"handoff={self.handoff!r} supports only 'syn' and 'real'"
            )


def _predict_point(
    profile: ProgramProfile,
    overheads: RuntimeOverheads,
    task: SweepTask,
    ff: Optional[FastForwardEmulator],
    engine=None,
    serial: Optional[float] = None,
) -> list[SpeedupEstimate]:
    """Evaluate one grid point; the only code that does.

    ``engine`` (a columnar engine for ``profile``) answers every method of
    every point.  With ``engine`` None — a caller asking for the eager
    oracle — every method runs on the reference emulators: the FF heap
    walk (``ff``), the
    :class:`~repro.core.synthesizer.Synthesizer` and a
    :class:`~repro.core.executor.ParallelExecutor` REAL replay.  Runs
    identically in-process and in a pool worker.

    Everything runs on ``profile.machine``, the machine the profile was
    taken on.  Replays recur through the process-wide section memo.
    ``serial`` is ``profile.serial_cycles()`` if the caller already has it
    (a tree walk per chunk instead of per FF point).  With the invariant
    checker on, every estimate is bounds-checked before it is returned.
    """
    schedule = Schedule.parse(task.schedule)
    estimates: list[SpeedupEstimate] = []
    for method in task.methods:
        if method == "ff":
            if serial is None:
                serial = profile.serial_cycles()
            burdens = (
                {
                    name: profile.burden_for(name, task.n_threads)
                    for name in profile.sections
                }
                if task.memory_model
                else {}
            )
            if engine is not None:
                predicted, ff_sections = engine.ff_point(
                    schedule, task.n_threads, burdens
                )
            else:
                predicted, ff_sections = ff.emulate_profile(
                    profile.tree, task.n_threads, schedule, burdens
                )
            estimates.append(
                SpeedupEstimate(
                    method="ff",
                    paradigm=task.paradigm,
                    schedule=schedule.label,
                    n_threads=task.n_threads,
                    speedup=serial / predicted if predicted > 0 else 1.0,
                    with_memory_model=task.memory_model,
                    sections={r.name: r.speedup for r in ff_sections},
                )
            )
        elif method == "syn":
            if engine is not None:
                est = engine.syn_point(
                    schedule,
                    task.n_threads,
                    task.memory_model,
                    task.paradigm,
                    task.handoff,
                    task.handoff_seed,
                )
            else:
                syn = Synthesizer(
                    paradigm=task.paradigm,
                    schedule=schedule,
                    overheads=overheads,
                    handoff=task.handoff,
                    handoff_seed=task.handoff_seed,
                )
                est = syn.predict(
                    profile, task.n_threads, use_memory_model=task.memory_model
                ).estimate
            estimates.append(est)
        elif engine is not None:  # "real" — simulated ground-truth replay
            estimates.append(
                engine.real_point(
                    schedule,
                    task.n_threads,
                    task.paradigm,
                    task.handoff,
                    task.handoff_seed,
                )
            )
        else:
            executor = ParallelExecutor(
                machine=profile.machine,
                paradigm=task.paradigm,
                schedule=schedule,
                overheads=overheads,
                handoff=task.handoff,
                handoff_seed=task.handoff_seed,
            )
            result = executor.execute_profile(
                profile.tree, task.n_threads, ReplayMode.REAL
            )
            estimates.append(
                SpeedupEstimate(
                    method="real",
                    paradigm=task.paradigm,
                    schedule=schedule.label,
                    n_threads=task.n_threads,
                    speedup=result.speedup,
                )
            )
    inv = get_checker()
    if inv.enabled:
        # Workers inherit REPRO_VALIDATE through the environment, and a
        # raise-mode violation here becomes a structured SweepTaskFailure
        # via _run_taskset's existing error plumbing.
        nested = has_nested_sections(profile.tree)
        for e in estimates:
            inv.check_speedup(
                e.method,
                e.speedup,
                e.n_threads,
                profile.machine.n_cores,
                nested,
                where=f"batch:{task.workload}/{e.method}"
                f"/{e.schedule}/t={e.n_threads}",
            )
    return estimates


def _run_taskset(
    profile: ProgramProfile,
    overheads: RuntimeOverheads,
    indexed_tasks: Sequence[tuple[int, SweepTask]],
    collect_metrics: bool = False,
    engine=None,
) -> tuple[
    list[tuple[int, Union[list[SpeedupEstimate], SweepTaskFailure]]],
    Optional[dict],
]:
    """Worker entry point: evaluate a chunk of one workload's grid points.

    ``engine`` is the caller's persistent columnar engine for ``profile``:
    the in-process path passes :class:`BatchPredictor`'s, so lowerings and
    point caches survive across sweeps; pool workers pass None and get one
    engine per chunk.

    A failing task yields a :class:`SweepTaskFailure` in its grid slot
    instead of poisoning the whole chunk: the remaining tasks still run,
    and the parent's index-sorted merge stays deterministic.

    With ``collect_metrics=True`` (the process-pool path) the worker's
    process-wide metrics registry is reset at chunk start and its snapshot
    returned alongside the results, so the parent can fold worker-side
    counters (FF emulations, DRAM solves, ...) into its own
    registry.  The in-process path passes ``False``: increments land on
    the parent registry directly and must not be double-counted.
    """
    metrics = get_metrics()
    if collect_metrics:
        metrics.reset()
        inv = get_checker()
        if inv.enabled:
            # Fork-started pool workers inherit the parent's checker
            # verbatim — including the CLI's record mode, whose collected
            # violations would die with the worker process.  Force raise
            # mode: the except below turns a violation into a structured
            # SweepTaskFailure that survives the trip back to the parent.
            inv.mode = "raise"
            inv.reset()
    serial = profile.serial_cycles()
    if engine is None:
        from repro.core.columnar import ColumnarEngine

        engine = ColumnarEngine(profile, overheads)
    results: list[tuple[int, Union[list[SpeedupEstimate], SweepTaskFailure]]] = []
    for index, task in indexed_tasks:
        try:
            results.append(
                (
                    index,
                    _predict_point(
                        profile, overheads, task, None, engine, serial
                    ),
                )
            )
        except Exception as exc:
            metrics.inc("batch.task.errors")
            results.append(
                (
                    index,
                    SweepTaskFailure(
                        workload=task.workload,
                        schedule=task.schedule,
                        n_threads=task.n_threads,
                        error=type(exc).__name__,
                        message=str(exc),
                    ),
                )
            )
    return results, (metrics.snapshot() if collect_metrics else None)


class BatchPredictor:
    """Deterministic fan-out of prediction grids over worker processes."""

    def __init__(
        self,
        prophet=None,
        jobs: Optional[int] = None,
        chunks_per_job: int = 4,
        tier: str = "exact",
        surrogate=None,
    ) -> None:
        """``jobs=None`` uses every CPU; ``jobs=1`` runs in-process (no pool
        is created, which keeps single-job sweeps overhead-free and makes
        the serial run the natural determinism baseline).  ``chunks_per_job``
        controls work-stealing granularity: each worker receives roughly
        this many chunks so an expensive grid point cannot straggle the
        whole sweep.  ``tier`` is the default answer tier for sweeps
        (``"exact"``, ``"surrogate"``, or ``"auto"`` — see
        ``docs/surrogate.md``); ``surrogate`` overrides the process-default
        model for non-exact tiers."""
        if prophet is None:
            from repro.core.prophet import ParallelProphet

            prophet = ParallelProphet()
        self.prophet = prophet
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        if chunks_per_job < 1:
            raise ConfigurationError(
                f"chunks_per_job must be >= 1, got {chunks_per_job}"
            )
        self.chunks_per_job = chunks_per_job
        self.tier = _check_tier(tier)
        self.surrogate = surrogate
        #: Columnar engines keyed by live profile object: ``id(profile)``
        #: maps to ``(profile, engine)``, and pinning the profile in the
        #: value keeps the id unambiguous while the entry lives.  They live
        #: across sweeps on the in-process path, so repeat traffic reuses
        #: lowerings and point caches.  Lookups are counted on the cache
        #: only, not in the metrics registry: pool chunking would make
        #: registry counts diverge between jobs=1 and jobs>1 sweeps of the
        #: same grid.  Manage through :meth:`cache_info` / :meth:`reset`.
        self._engines = LRUCache("engines", ENGINE_CACHE_SIZE)

    # ------------------------------------------------------------------ API

    def sweep(
        self,
        profiles: Union[ProgramProfile, Mapping[str, ProgramProfile]],
        threads: Sequence[int],
        schedules: Iterable[Union[str, Schedule]] = ("static",),
        methods: Sequence[str] = ("syn",),
        paradigm: str = "omp",
        memory_model: bool = True,
        on_error: str = "raise",
        tier: Optional[str] = None,
    ) -> dict[str, SpeedupReport]:
        """Evaluate the full (workload × schedule × threads) grid.

        Returns one :class:`SpeedupReport` per workload with estimates in
        grid order (schedules outer, threads inner — the same order
        :meth:`ParallelProphet.predict` emits).

        ``on_error="raise"`` raises :class:`repro.errors.BatchError` if any
        grid point failed; ``on_error="collect"`` instead attaches the
        :class:`SweepTaskFailure` records to ``report.failures`` of the
        affected workload and keeps the successful estimates.

        ``tier=None`` uses the predictor's configured tier; pass
        ``"exact"``/``"surrogate"``/``"auto"`` to override per call.
        """
        if isinstance(profiles, ProgramProfile):
            profiles = {"workload": profiles}
        else:
            profiles = dict(profiles)
        labels = []
        for s in schedules:
            if isinstance(s, Schedule):
                labels.append(s.label)
                continue
            try:
                labels.append(Schedule.parse(s).label)
            except ConfigurationError:
                # Defer to the per-task path: the worker fails this grid
                # point with a structured SweepTaskFailure, so on_error
                # governs unparsable schedules like any other task error.
                labels.append(s)
        tasks = [
            SweepTask(
                workload=name,
                schedule=label,
                n_threads=t,
                methods=tuple(methods),
                paradigm=paradigm,
                memory_model=memory_model,
            )
            for name in profiles
            for label in labels
            for t in threads
        ]
        reports = {name: SpeedupReport() for name in profiles}
        for task, outcome in self.run(tasks, profiles, on_error=on_error, tier=tier):
            if isinstance(outcome, SweepTaskFailure):
                reports[task.workload].failures.append(outcome)
            else:
                reports[task.workload].extend(outcome)
        return reports

    def run(
        self,
        tasks: Sequence[SweepTask],
        profiles: Mapping[str, ProgramProfile],
        on_error: str = "raise",
        tier: Optional[str] = None,
    ) -> list[tuple[SweepTask, Union[list[SpeedupEstimate], SweepTaskFailure]]]:
        """Evaluate an explicit task list; results come back in task order.

        This is the engine under :meth:`sweep` for grids that are not plain
        cross products (e.g. a different schedule per sample, or ground
        truth only at selected thread counts).

        A failing grid point never poisons its chunk or the merge: workers
        substitute a :class:`SweepTaskFailure` in the task's grid slot and
        keep going.  With ``on_error="raise"`` (default) a
        :class:`repro.errors.BatchError` carrying every failure is raised
        *after* the full merge; ``on_error="collect"`` returns the failure
        records in-place so callers can inspect partial results.

        With a non-exact ``tier`` (argument, or the predictor's default)
        the surrogate answers what it can *in the parent before dispatch* —
        the same pre-pass whether ``jobs`` is 1 or N, so surrogate metrics
        and results stay identical across job counts.  Only grid points
        with remaining exact work are dispatched; a point whose exact
        methods fail reports the failure for the whole point.
        """
        if on_error not in ("raise", "collect"):
            raise ConfigurationError(
                f'on_error must be "raise" or "collect", got {on_error!r}'
            )
        tier = _check_tier(tier if tier is not None else self.tier)
        for task in tasks:
            if task.workload not in profiles:
                raise ConfigurationError(
                    f"task references unknown workload {task.workload!r}"
                )

        pre: dict[int, dict[str, SpeedupEstimate]] = {}
        if tier != "exact":
            indexed = self._surrogate_prepass(tasks, profiles, tier, pre)
        else:
            indexed = list(enumerate(tasks))
        self._attach_burdens([task for _i, task in indexed], profiles)

        by_workload: dict[str, list[tuple[int, SweepTask]]] = {}
        for index, task in indexed:
            by_workload.setdefault(task.workload, []).append((index, task))

        jobs = min(self.jobs, len(tasks)) if tasks else 1
        overheads = self.prophet.overheads
        obs = get_tracer()
        metrics = get_metrics()
        gathered: list[
            tuple[int, Union[list[SpeedupEstimate], SweepTaskFailure]]
        ] = []
        # One shared chunk construction: the in-process run is the pooled
        # run with chunk size "whole workload" and no pool, so both paths
        # exercise identical worker code (and the burden tables attached
        # above — there is no per-point recalibration on either path).
        if jobs <= 1:
            chunk = max((len(v) for v in by_workload.values()), default=1)
        else:
            chunk = max(1, math.ceil(len(tasks) / (jobs * self.chunks_per_job)))
        chunks = [
            (name, items[pos : pos + chunk])
            for name, items in by_workload.items()
            for pos in range(0, len(items), chunk)
        ]
        if jobs <= 1:
            # In-process: metric increments land on this registry directly,
            # so the worker must not reset/snapshot it.  The predictor's
            # persistent engine cache keeps lowerings warm across run()s.
            for name, chunk_items in chunks:
                results, _ = _run_taskset(
                    profiles[name],
                    overheads,
                    chunk_items,
                    False,
                    self._engine_for(profiles[name]),
                )
                gathered.extend(results)
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = []
                for name, chunk_items in chunks:
                    if obs.enabled:
                        # The batch track is indexed by grid position, not
                        # sim time: each chunk dispatch marks its first slot.
                        obs.instant(
                            "chunk_dispatch",
                            ts=float(chunk_items[0][0]),
                            track="batch",
                            cat="batch",
                            args={"workload": name, "size": len(chunk_items)},
                        )
                    futures.append(
                        pool.submit(
                            _run_taskset,
                            profiles[name],
                            overheads,
                            chunk_items,
                            True,
                        )
                    )
                # Merge worker metric snapshots in *submission* order —
                # counter merges are commutative sums, so the combined
                # registry is identical however the workers raced.
                for future in futures:
                    results, snapshot = future.result()
                    gathered.extend(results)
                    if snapshot is not None:
                        metrics.merge(snapshot)
        if pre:
            # Fold surrogate answers back into grid slots: fully-answered
            # points join the merge directly; partially-answered points
            # interleave surrogate and exact estimates in the task's method
            # order; an exact failure reports the whole point as failed.
            merged: dict[
                int, Union[list[SpeedupEstimate], SweepTaskFailure]
            ] = dict(gathered)
            for index, answered in pre.items():
                exact = merged.get(index)
                if isinstance(exact, SweepTaskFailure):
                    continue
                by_method = {e.method: e for e in (exact or [])}
                merged[index] = [
                    answered.get(m, by_method.get(m))
                    for m in tasks[index].methods
                ]
            gathered = list(merged.items())
        gathered.sort(key=lambda pair: pair[0])
        metrics.inc("batch.tasks", float(len(tasks)))

        failures = []
        for index, outcome in gathered:
            if isinstance(outcome, SweepTaskFailure):
                failures.append(outcome)
                if obs.enabled:
                    obs.instant(
                        "task_error",
                        ts=float(index),
                        track="batch",
                        cat="batch",
                        args={"task": str(outcome)},
                    )
            elif obs.enabled:
                obs.instant(
                    "task_complete",
                    ts=float(index),
                    track="batch",
                    cat="batch",
                    args={"workload": tasks[index].workload},
                )
        if failures and on_error == "raise":
            raise BatchError(failures)
        return [(tasks[index], outcome) for index, outcome in gathered]

    def _surrogate_prepass(
        self,
        tasks: Sequence[SweepTask],
        profiles: Mapping[str, ProgramProfile],
        tier: str,
        pre: dict[int, dict[str, SpeedupEstimate]],
    ) -> list[tuple[int, SweepTask]]:
        """Answer supported grid points from the surrogate before dispatch.

        Fills ``pre`` (index → method → estimate) and returns the indexed
        task list still needing exact evaluation, with answered methods
        stripped.  Runs entirely in the parent so hit/abstain/fallback
        metrics are identical for in-process and pooled sweeps.  Non-FIFO
        handoffs and unparsable schedules are left for the exact path (the
        model is trained on FIFO replays only; malformed schedules must
        keep producing their structured worker-side failures).
        """
        from dataclasses import replace as dc_replace

        from repro.surrogate import get_default_surrogate

        sur = (
            self.surrogate
            if self.surrogate is not None
            else get_default_surrogate()
        )
        metrics = get_metrics()
        inv = get_checker()
        nested_cache: dict[int, bool] = {}
        indexed: list[tuple[int, SweepTask]] = []
        for index, task in enumerate(tasks):
            profile = profiles[task.workload]
            try:
                schedule = Schedule.parse(task.schedule)
            except ConfigurationError:
                schedule = None
            answered: dict[str, SpeedupEstimate] = {}
            remaining: list[str] = []
            for method in task.methods:
                ans = None
                if schedule is not None and task.handoff == "fifo":
                    ans = sur.answer(
                        profile,
                        profile.machine,
                        method,
                        task.paradigm,
                        schedule,
                        task.n_threads,
                        task.memory_model,
                    )
                    if ans is not None and tier == "auto" and not ans.confident:
                        metrics.inc("surrogate.abstains")
                        ans = None
                if ans is None:
                    if schedule is not None:
                        metrics.inc("surrogate.fallbacks")
                    remaining.append(method)
                    continue
                metrics.inc("surrogate.hits")
                est = SpeedupEstimate(
                    method=method,
                    paradigm=task.paradigm,
                    schedule=schedule.label,
                    n_threads=task.n_threads,
                    speedup=ans.speedup,
                    with_memory_model=task.memory_model,
                )
                if inv.enabled:
                    nested = nested_cache.get(id(profile))
                    if nested is None:
                        nested = has_nested_sections(profile.tree)
                        nested_cache[id(profile)] = nested
                    inv.check_speedup(
                        method,
                        est.speedup,
                        task.n_threads,
                        profile.machine.n_cores,
                        nested,
                        where=f"batch:{task.workload}/{method}"
                        f"/{est.schedule}/t={task.n_threads}",
                    )
                answered[method] = est
            if answered:
                pre[index] = answered
            if remaining:
                indexed.append(
                    (
                        index,
                        task
                        if len(remaining) == len(task.methods)
                        else dc_replace(task, methods=tuple(remaining)),
                    )
                )
        return indexed

    # ----------------------------------------------------- cache lifetime

    def cache_info(self) -> dict:
        """Sizes and hit counters of every cache this predictor feeds.

        The explicit surface the serve cache layer and tests use instead
        of reaching into ``_engines``: the predictor-lifetime columnar
        engine cache, plus the process-wide section memo the replays recur
        through.
        """
        from repro.core.executor import section_memo_info

        info = self._engines.info()
        return {
            "engines": {
                "size": info["size"],
                "maxsize": info["maxsize"],
                "hits": info["hits"],
                "misses": info["misses"],
                "point_entries": sum(
                    engine.cache_info()["points"]
                    for _key, (_profile, engine) in self._engines.items()
                ),
            },
            "section_memo": section_memo_info(),
        }

    def reset(self) -> None:
        """Drop the predictor-lifetime engine cache and its counters.

        The process-wide section memo is shared with other predictors and
        the facade, so it is *not* cleared here — use
        :func:`repro.core.executor.clear_section_memo` (or the serve cache
        layer's ``clear()``, which does both) for a fully cold state.
        """
        self._engines.clear()

    def _engine_for(self, profile: ProgramProfile):
        """The cached columnar engine of a live profile object (LRU)."""

        def build():
            from repro.core.columnar import ColumnarEngine

            return profile, ColumnarEngine(profile, self.prophet.overheads)

        return self._engines.get_or_create(id(profile), build)[1]

    # ------------------------------------------------------------- internals

    def _attach_burdens(
        self,
        tasks: Sequence[SweepTask],
        profiles: Mapping[str, ProgramProfile],
    ) -> None:
        """Attach burden factors once per profile, in the parent process.

        Only thread counts actually requested with the memory model by a
        predictive method need Ψ/Φ evaluation; the calibration itself is
        computed once on the prophet and reused for every profile."""
        for name, profile in profiles.items():
            wanted = sorted(
                {
                    task.n_threads
                    for task in tasks
                    if task.workload == name
                    and task.memory_model
                    and any(m in ("ff", "syn") for m in task.methods)
                }
            )
            if wanted and profile.sections:
                self.prophet.attach_burdens(profile, wanted)


def sweep(
    profiles: Union[ProgramProfile, Mapping[str, ProgramProfile]],
    threads: Sequence[int],
    schedules: Iterable[Union[str, Schedule]] = ("static",),
    methods: Sequence[str] = ("syn",),
    paradigm: str = "omp",
    memory_model: bool = True,
    jobs: Optional[int] = None,
    prophet=None,
    on_error: str = "raise",
    tier: str = "exact",
) -> dict[str, SpeedupReport]:
    """Module-level convenience wrapper around :meth:`BatchPredictor.sweep`."""
    return BatchPredictor(prophet, jobs=jobs, tier=tier).sweep(
        profiles,
        threads=threads,
        schedules=schedules,
        methods=methods,
        paradigm=paradigm,
        memory_model=memory_model,
        on_error=on_error,
    )
