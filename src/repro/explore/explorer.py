"""Interleaving exploration over the event-sparse DES kernel.

One explored grid point = the same (workload, schedule, n_threads) evaluated
once per :class:`ScheduleVariant` — a lock-handoff policy plus seed — through
the ordinary :class:`~repro.core.batch.BatchPredictor` fan-out.  The FIFO
variant is always sampled: it is byte-identical to the un-explored prediction,
so the envelope is anchored on the number every other caller already sees,
and the point estimate the report carries stays unchanged.

Only lock handoffs can tell the variants apart, and only ``SimMutex``
reads the policy: the columnar engine's point cache keys a section by the
policy and seed only when its subtree holds an ``L`` node.  Exploring N
variants of a lock-free section therefore evaluates it once: a walked
section never reaches the executor, and a delegated one (``t >
n_cores``, a pipeline) replays once per (section, t).  Lock-bearing sections
replay once per variant (the section memo keys them by policy and seed,
so explored replays never answer for one another).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.core.batch import BatchPredictor, SweepTask, SweepTaskFailure
from repro.core.profiler import ProgramProfile
from repro.core.report import SpeedupEnvelope, SpeedupEstimate, SpeedupReport
from repro.errors import ConfigurationError
from repro.simos import normalize_handoff

#: Methods an exploration may sample (the FF emulator is interleaving-blind).
EXPLORE_METHODS = ("syn", "real")


@dataclass(frozen=True)
class ScheduleVariant:
    """One point of the handoff-policy space: a policy plus its seed."""

    handoff: str
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "handoff", normalize_handoff(self.handoff))
        if self.handoff != "random":
            object.__setattr__(self, "seed", 0)

    @property
    def label(self) -> str:
        """Stable display name, e.g. ``"fifo"`` or ``"random:3"``."""
        if self.handoff == "random":
            return f"random:{self.seed}"
        return self.handoff

    @classmethod
    def parse(cls, label: str) -> "ScheduleVariant":
        """Inverse of :attr:`label` (how envelope extremes are re-run)."""
        if ":" in label:
            policy, _, seed = label.partition(":")
            return cls(handoff=policy, seed=int(seed))
        return cls(handoff=label)


def default_variants(samples: int = 6, seed: int = 0) -> tuple[ScheduleVariant, ...]:
    """The standard exploration set: fifo, lifo, adversarial, then seeded
    random draws until ``samples`` variants exist.

    ``fifo`` always comes first — the envelope must contain the default
    prediction by construction.  ``seed`` offsets the random draws so two
    explorations with different seeds sample different interleavings.
    """
    if samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {samples}")
    fixed = [
        ScheduleVariant("fifo"),
        ScheduleVariant("lifo"),
        ScheduleVariant("adversarial"),
    ]
    variants = fixed[:samples]
    variants.extend(
        ScheduleVariant("random", seed=seed + i) for i in range(samples - len(variants))
    )
    return tuple(variants)


class Explorer:
    """Envelope-producing driver over :class:`BatchPredictor`.

    Typical use::

        prophet = ParallelProphet()
        profiles = {"locky": prophet.profile(program)}
        reports = Explorer(prophet, samples=6, jobs=4).explore(
            profiles, threads=[2, 4], schedules=["static"]
        )
        env = reports["locky"].envelope(schedule="static", n_threads=4)
        assert env.contains(real_speedup, slack=0.06)
    """

    def __init__(
        self,
        prophet=None,
        samples: int = 6,
        seed: int = 0,
        variants: Optional[Sequence[ScheduleVariant]] = None,
        jobs: Optional[int] = 1,
    ) -> None:
        """``variants`` overrides the default policy set; a missing fifo
        variant is prepended so the envelope always brackets the default
        prediction.  ``jobs`` is forwarded to the batch
        fan-out — results are byte-identical for any ``jobs`` (the sweep's
        determinism guarantee)."""
        if variants is None:
            variants = default_variants(samples, seed)
        else:
            variants = tuple(variants)
            if not any(v.handoff == "fifo" for v in variants):
                variants = (ScheduleVariant("fifo"),) + variants
        self.variants = tuple(variants)
        self.seed = seed
        self.batch = BatchPredictor(prophet, jobs=jobs)
        self.prophet = self.batch.prophet

    # ------------------------------------------------------------------ API

    def explore(
        self,
        profiles: Union[ProgramProfile, Mapping[str, ProgramProfile]],
        threads: Sequence[int],
        schedules: Iterable[str] = ("static",),
        paradigm: str = "omp",
        method: str = "syn",
        memory_model: bool = True,
        on_error: str = "raise",
    ) -> dict[str, SpeedupReport]:
        """Explore the grid; one report per workload.

        Each report carries the FIFO variant's estimates (exactly what an
        un-explored sweep would return) plus one
        :class:`~repro.core.report.SpeedupEnvelope` per grid point in
        ``report.envelopes``.  ``method`` is ``"syn"`` (predicted envelope)
        or ``"real"`` (measured envelope — ground truth under every
        explored interleaving).
        """
        if method not in EXPLORE_METHODS:
            raise ConfigurationError(
                f"unknown exploration method {method!r} "
                f"(expected one of {EXPLORE_METHODS})"
            )
        if isinstance(profiles, ProgramProfile):
            profiles = {"workload": profiles}
        else:
            profiles = dict(profiles)
        schedules = list(schedules)
        # Grid order: workload, schedule, threads — variants innermost, so
        # each point's samples come back contiguous and in variant order.
        tasks = [
            SweepTask(
                workload=name,
                schedule=schedule,
                n_threads=t,
                methods=(method,),
                paradigm=paradigm,
                memory_model=memory_model,
                handoff=variant.handoff,
                handoff_seed=variant.seed,
            )
            for name in profiles
            for schedule in schedules
            for t in threads
            for variant in self.variants
        ]
        reports = {name: SpeedupReport() for name in profiles}
        # Samples per grid point, insertion-ordered (= grid order).
        points: dict[tuple, list[tuple[str, float]]] = {}
        for task, outcome in self.batch.run(tasks, profiles, on_error=on_error):
            if isinstance(outcome, SweepTaskFailure):
                reports[task.workload].failures.append(outcome)
                continue
            variant = ScheduleVariant(task.handoff, task.handoff_seed)
            for est in outcome:
                if variant.handoff == "fifo":
                    # The anchor sample doubles as the point estimate.
                    reports[task.workload].add(est)
                key = (task.workload, est.paradigm, est.schedule, est.n_threads)
                points.setdefault(key, []).append((variant.label, est.speedup))
        for (name, point_paradigm, schedule, t), samples in points.items():
            reports[name].envelopes.append(
                SpeedupEnvelope.from_samples(
                    method=method,
                    paradigm=point_paradigm,
                    schedule=schedule,
                    n_threads=t,
                    samples=samples,
                )
            )
        return reports


def verify_envelope(
    prophet,
    profile: ProgramProfile,
    n_threads: int,
    schedule: str = "static",
    paradigm: str = "omp",
    samples: int = 6,
    seed: int = 0,
    memory_model: bool = True,
) -> tuple[int, int]:
    """Re-verify one explored point's extremes from cold caches.

    Explores the (single) grid point through the normal memoised batch
    path, then re-runs the variants that produced ``lo`` and ``hi``
    through the same grid-point evaluator with a fresh columnar engine and
    a cleared section memo, and compares bitwise.  Returns ``(checked,
    mismatches)`` — a non-zero mismatch count means a cache (the section
    memo, the engine's point cache) corrupted an explored sample.
    """
    from repro.core.batch import _predict_point
    from repro.core.columnar import ColumnarEngine
    from repro.core.executor import clear_section_memo
    from repro.core.ffemu import FastForwardEmulator

    explorer = Explorer(prophet, samples=samples, seed=seed, jobs=1)
    report = explorer.explore(
        {"point": profile},
        threads=[n_threads],
        schedules=[schedule],
        paradigm=paradigm,
        memory_model=memory_model,
    )["point"]
    (env,) = report.envelopes
    # Both extremes are re-run even when one variant produced both (a
    # degenerate, zero-width envelope): the second replay then doubles as
    # an uncached-determinism check.
    expected = [(env.lo_variant, env.lo), (env.hi_variant, env.hi)]
    checked = mismatches = 0
    for label, value in expected:
        variant = ScheduleVariant.parse(label)
        task = SweepTask(
            workload="point",
            schedule=schedule,
            n_threads=n_threads,
            paradigm=paradigm,
            memory_model=memory_model,
            handoff=variant.handoff,
            handoff_seed=variant.seed,
        )
        clear_section_memo()
        (est,) = _predict_point(
            profile,
            prophet.overheads,
            task,
            FastForwardEmulator(prophet.overheads),
            ColumnarEngine(profile, prophet.overheads),
        )
        checked += 1
        if est.speedup != value:
            mismatches += 1
    return checked, mismatches
