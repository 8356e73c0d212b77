"""The program-synthesis-based emulator (paper Section IV-E, Fig. 8).

The synthesizer predicts speedups by *running* an automatically generated
parallel program whose computations are fake delays: each U/L node becomes a
``FakeDelay(length × burden)`` that consumes time without touching memory,
locks are real mutexes, and nested sections are recursive parallel
constructs.  Because the generated program executes through the real runtime
and OS (here: the simulated ones), "all the details of schedulings and
overhead are automatically and silently modeled" — which is what fixes the
fast-forward emulator's nested-parallelism errors (Fig. 7).

The one modelling obligation the synthesizer retains is subtracting its own
tree-traversal overhead: per-node access and per-recursive-call costs are
charged while running, accumulated per worker, and the longest per-worker
total is subtracted from the gross measurement (Fig. 8 line 26).  Both the
charging and the subtraction are reproduced by the FAKE replay mode of
:class:`~repro.core.executor.ParallelExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.executor import ParallelExecutor, ReplayMode, ReplayResult
from repro.core.profiler import ProgramProfile
from repro.core.report import SpeedupEstimate
from repro.obs import get_metrics, get_tracer
from repro.runtime.overhead import DEFAULT_OVERHEADS, RuntimeOverheads
from repro.runtime.tasks import Schedule


@dataclass
class SynthesizerRun:
    """One synthesizer estimate plus its cost accounting (Section VII-D)."""

    estimate: SpeedupEstimate
    replay: ReplayResult
    #: Simulated cycles spent producing this estimate; per the paper,
    #: roughly serial_time × (1 + 1/S) plus profiling.
    emulation_cycles: float

    @property
    def slowdown_per_estimate(self) -> float:
        serial = self.replay.serial_cycles
        if serial <= 0:
            return 1.0
        return self.emulation_cycles / serial


class Synthesizer:
    """Speedup prediction by synthetic parallel execution."""

    def __init__(
        self,
        paradigm: str = "omp",
        schedule: Schedule = Schedule.static(),
        overheads: RuntimeOverheads = DEFAULT_OVERHEADS,
        tracer=None,
        handoff: str = "fifo",
        handoff_seed: int = 0,
    ) -> None:
        self.paradigm = paradigm
        self.schedule = schedule
        self.overheads = overheads
        #: Lock handoff policy + seed for the FAKE replay's kernels — how
        #: ``repro.explore`` turns one SYN point into a schedule-space
        #: sample.
        self.handoff = handoff
        self.handoff_seed = handoff_seed
        #: Forwarded to the replay executor so SYN replay events land on
        #: the caller's trace timeline.
        self.obs = tracer if tracer is not None else get_tracer()

    def predict(
        self,
        profile: ProgramProfile,
        n_threads: int,
        use_memory_model: bool = True,
    ) -> SynthesizerRun:
        """Predict the speedup at ``n_threads``.

        With ``use_memory_model=True`` the burden factors previously attached
        to the profile (see :meth:`repro.core.memmodel.MemoryModel.attach`)
        scale every fake delay in their section; otherwise β = 1 everywhere
        (the paper's 'Pred' vs 'PredM' distinction in Fig. 12).
        """
        get_metrics().inc("syn.replays")
        executor = ParallelExecutor(
            machine=profile.machine,
            paradigm=self.paradigm,
            schedule=self.schedule,
            overheads=self.overheads,
            tracer=self.obs,
            handoff=self.handoff,
            handoff_seed=self.handoff_seed,
        )
        burdens = (
            {name: profile.burden_for(name, n_threads) for name in profile.sections}
            if use_memory_model
            else {}
        )
        replay = executor.execute_profile(
            profile.tree, n_threads, mode=ReplayMode.FAKE, burdens=burdens
        )
        # Per-section speedups, aggregating repeated activations by name.
        net_by_name: dict[str, float] = {}
        for run in replay.sections:
            net_by_name[run.name] = net_by_name.get(run.name, 0.0) + run.net_cycles
        sections = {
            name: _safe_div(self._section_serial(profile, name), net)
            for name, net in net_by_name.items()
        }
        estimate = SpeedupEstimate(
            method="syn",
            paradigm=self.paradigm,
            schedule=self.schedule.label,
            n_threads=n_threads,
            speedup=replay.speedup,
            with_memory_model=use_memory_model,
            sections=sections,
        )
        emulation_cycles = sum(r.gross_cycles for r in replay.sections)
        return SynthesizerRun(
            estimate=estimate, replay=replay, emulation_cycles=emulation_cycles
        )

    @staticmethod
    def _section_serial(profile: ProgramProfile, name: str) -> float:
        # A name can label many top-level SEC nodes (e.g. a parallel inner
        # loop entered once per serial outer iteration); sum them all.
        return sum(
            sec.subtree_length()
            for sec in profile.tree.top_level_sections()
            if sec.name == name
        )


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0
