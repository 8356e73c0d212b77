"""Cross-emulator differential validation: FF vs SYN vs REAL.

The paper's credibility argument is cross-validation of its two emulators
against measured runs (Figs. 11-12); this harness makes that comparison an
always-available tool.  It runs all three methods over a
workload × paradigm × schedule × threads grid, applies a tolerance policy,
and — crucially — *classifies* discrepancies instead of flattening them to
pass/fail:

- ``ok`` — every pairwise error within tolerance;
- ``expected`` — a divergence with a known, documented cause.  The paper's
  own Fig. 7 is the canonical case: on nested parallelism the FF predicts
  1.5× where real and synthesizer give 2.0×, because its abstract machine
  models neither OS preemption nor oversubscription.  Lock-bearing trees
  are the other class (the FF serialises critical sections greedily, the
  replay develops real convoys).
- ``violation`` — a divergence with *no* known cause: a regression in one
  of the fast paths this harness exists to catch.

Lock-bearing workloads get a sharper check than a flat tolerance: their
SYN prediction is expanded into a [min, max] envelope over explored lock
interleavings (:mod:`repro.explore`) and REAL must fall inside it — see
``docs/exploration.md``.

Counts are reported through ``repro.obs.metrics`` (``validate.diff.*``);
records carry the three speedups so a report is self-explanatory.  See
``docs/validation.md`` for the tolerance policy rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

# NOTE: repro.core is imported lazily throughout.  simos.kernel and the
# core executors import this package at module level for get_checker(), so
# an eager repro.core import here would be circular.
from repro.obs import get_metrics
from repro.validate.invariants import has_nested_sections
from repro.validate.policy import (
    ENVELOPE_SLACK,
    FF_TOLERANCE,
    SURROGATE_TOLERANCE,
    SYN_TOLERANCE,
)


@dataclass(frozen=True)
class GridPoint:
    """One differential comparison: a workload at one configuration."""

    workload: str
    paradigm: str
    schedule: str
    n_threads: int

    @property
    def label(self) -> str:
        return (
            f"{self.workload}/{self.paradigm}/{self.schedule}"
            f"/t={self.n_threads}"
        )


@dataclass(frozen=True)
class TolerancePolicy:
    """Acceptable relative errors between methods.

    Defaults come from :mod:`repro.validate.policy` (the single source
    shared with the invariant checker).  They follow the paper's measured
    envelopes: the synthesizer's Fig. 11 error is 3.3% average with a 19%
    worst case (hence 0.25 with headroom for the FAKE replay's
    overhead-subtraction drift); the FF is held tighter (0.15, ~2× its
    7.3% average) *because* its known failure modes — nested parallelism,
    locks — are classified as expected divergences rather than absorbed
    into slack.

    ``envelope_slack`` governs lock-bearing points when exploration is on:
    instead of the flat ``syn_vs_real`` band around the single FIFO
    prediction, REAL must fall inside the explored [min, max] envelope
    widened by this relative slack (covering what interleaving choice
    cannot explain — overhead-subtraction drift, fake-delay quantisation).
    """

    syn_vs_real: float = SYN_TOLERANCE
    ff_vs_real: float = FF_TOLERANCE
    envelope_slack: float = ENVELOPE_SLACK
    #: The surrogate tier predicts the *emulators'* answers, so its
    #: tolerance class compares surrogate vs exact (not vs REAL): a
    #: confident surrogate answer further than this from the exact method
    #: it stands in for is a violation (see :func:`verify_surrogate`).
    surrogate_vs_exact: float = SURROGATE_TOLERANCE


@dataclass
class DiffRecord:
    """Outcome of one grid point."""

    point: GridPoint
    speedups: dict[str, Optional[float]]
    status: str  # "ok" | "expected" | "violation"
    kind: str = ""  # divergence class, e.g. "ff_nested_underprediction"
    detail: str = ""
    #: The explored SYN envelope this point was judged against, when
    #: exploration ran (lock-bearing trees); None for flat-tolerance points.
    envelope: Optional[object] = None

    def __str__(self) -> str:
        cells = ", ".join(
            f"{m}={s:.2f}" for m, s in self.speedups.items() if s is not None
        )
        if self.envelope is not None:
            cells += f", syn∈[{self.envelope.lo:.2f}, {self.envelope.hi:.2f}]"
        tail = f" [{self.kind}] {self.detail}" if self.kind else ""
        return f"{self.status:>9}  {self.point.label}  ({cells}){tail}"


@dataclass
class DifferentialReport:
    """All records of one harness run, with filtered views and a summary."""

    records: list[DiffRecord] = field(default_factory=list)

    @property
    def violations(self) -> list[DiffRecord]:
        return [r for r in self.records if r.status == "violation"]

    @property
    def expected_divergences(self) -> list[DiffRecord]:
        return [r for r in self.records if r.status == "expected"]

    @property
    def ok(self) -> list[DiffRecord]:
        return [r for r in self.records if r.status == "ok"]

    def merge(self, other: "DifferentialReport") -> None:
        """Append ``other``'s records to this report."""
        self.records.extend(other.records)

    def summary(self) -> str:
        """One count line (ok / expected divergences / violations), then
        every record that is not ok."""
        lines = [
            f"differential: {len(self.records)} grid point(s) — "
            f"{len(self.ok)} ok, "
            f"{len(self.expected_divergences)} expected divergence(s), "
            f"{len(self.violations)} violation(s)"
        ]
        for r in self.records:
            if r.status != "ok":
                lines.append(str(r))
        return "\n".join(lines)


def _has_locks(tree) -> bool:
    """True if any node of the tree is an L (critical-section) node."""
    from repro.core.tree import NodeKind

    seen: set[int] = set()
    stack = list(tree.root.children)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.kind is NodeKind.L:
            return True
        stack.extend(node.children)
    return False


class DifferentialHarness:
    """Runs FF vs SYN vs REAL over a grid and classifies every discrepancy."""

    def __init__(
        self,
        prophet=None,
        policy: Optional[TolerancePolicy] = None,
        explore_samples: int = 6,
    ):
        """``explore_samples`` controls schedule-space exploration of
        lock-bearing workloads: their SYN prediction is expanded into a
        [min, max] envelope over that many handoff-policy variants, and
        REAL is required to fall inside it (±``policy.envelope_slack``)
        instead of within the flat ``syn_vs_real`` band — the flat band
        papered over the single-interleaving blind spot.  ``0`` disables
        exploration and restores the flat check everywhere."""
        if prophet is None:
            from repro.core.prophet import ParallelProphet

            prophet = ParallelProphet()
        self.prophet = prophet
        self.policy = policy or TolerancePolicy()
        self.explore_samples = explore_samples

    def run(
        self,
        profiles: Mapping[str, "object"],
        threads: Sequence[int],
        schedules: Iterable[str] = ("static",),
        paradigms: Iterable[str] = ("omp",),
        memory_model: bool = True,
    ) -> DifferentialReport:
        """Differential-validate every grid point; returns the full report.

        The FF is compared only under the ``omp`` paradigm (its abstract
        machine models OpenMP worksharing); under ``cilk``/``omp_task`` the
        comparison is SYN vs REAL.  ``memory_model=False`` skips burden
        calibration — right for memory-free programs and much faster.
        """
        report = DifferentialReport()
        metrics = get_metrics()
        schedules = list(schedules)
        paradigms = list(paradigms)
        for name, profile in profiles.items():
            nested = has_nested_sections(profile.tree)
            locky = _has_locks(profile.tree)
            for paradigm in paradigms:
                use_ff = paradigm == "omp"
                for schedule in schedules:
                    predicted = self.prophet.predict(
                        profile,
                        threads=threads,
                        paradigm=paradigm,
                        schedules=[schedule],
                        methods=("ff", "syn") if use_ff else ("syn",),
                        memory_model=memory_model,
                    )
                    real = self.prophet.measure_real(
                        profile, threads, paradigm=paradigm, schedule=schedule
                    )
                    exploration = None
                    if locky and self.explore_samples > 0:
                        # Lock-bearing tree: the single FIFO prediction is
                        # one interleaving among many, so judge REAL
                        # against the explored envelope instead of a flat
                        # band around that one point.
                        from repro.explore import Explorer

                        exploration = Explorer(
                            self.prophet, samples=self.explore_samples
                        ).explore(
                            {name: profile},
                            threads=threads,
                            schedules=[schedule],
                            paradigm=paradigm,
                            memory_model=memory_model,
                        )[name]
                        metrics.inc("validate.diff.explored_grids")
                    for t in threads:
                        point = GridPoint(name, paradigm, schedule, t)
                        speedups = {
                            "ff": (
                                predicted.speedup(method="ff", n_threads=t)
                                if use_ff
                                else None
                            ),
                            "syn": predicted.speedup(method="syn", n_threads=t),
                            "real": real.speedup(n_threads=t),
                        }
                        record = self._classify(
                            point,
                            speedups,
                            nested=nested,
                            locky=locky,
                            envelope=(
                                exploration.envelope(n_threads=t)
                                if exploration is not None
                                else None
                            ),
                        )
                        report.records.append(record)
                        metrics.inc("validate.diff.points")
                        metrics.inc(f"validate.diff.{record.status}")
        return report

    # ------------------------------------------------------------- internals

    def _classify(
        self,
        point: GridPoint,
        speedups: dict[str, Optional[float]],
        nested: bool,
        locky: bool,
        envelope=None,
    ) -> DiffRecord:
        """Apply the tolerance policy and the known-divergence taxonomy."""
        from repro.core.report import error_ratio

        real = speedups["real"]
        syn = speedups["syn"]
        ff = speedups["ff"]

        if envelope is not None:
            # Envelope check replaces the flat SYN band: the explored
            # [min, max] already spans the interleavings, so REAL escaping
            # it is a genuine emulation defect, not schedule luck.
            if not envelope.contains(real, slack=self.policy.envelope_slack):
                return DiffRecord(
                    point,
                    speedups,
                    status="violation",
                    kind="syn_envelope_miss",
                    detail=f"real {real:.2f} outside explored envelope "
                    f"[{envelope.lo:.2f}, {envelope.hi:.2f}] "
                    f"(±{self.policy.envelope_slack:.0%} slack, "
                    f"{envelope.n_samples} interleavings)",
                    envelope=envelope,
                )
        else:
            err_syn = error_ratio(syn, real)
            if err_syn > self.policy.syn_vs_real:
                return DiffRecord(
                    point,
                    speedups,
                    status="violation",
                    kind="syn_real_mismatch",
                    detail=f"synthesizer off by {err_syn:.1%} "
                    f"(tolerance {self.policy.syn_vs_real:.0%})",
                )

        if ff is not None:
            err_ff = error_ratio(ff, real)
            if err_ff > self.policy.ff_vs_real:
                if nested and ff < real:
                    # Paper Fig. 7: the FF's abstract machine models neither
                    # preemption nor oversubscription, so nested parallelism
                    # is systematically underpredicted.
                    return DiffRecord(
                        point,
                        speedups,
                        status="expected",
                        kind="ff_nested_underprediction",
                        detail=f"FF under by {err_ff:.1%} on nested "
                        "parallelism (paper Fig. 7)",
                        envelope=envelope,
                    )
                if locky:
                    # The FF serialises critical sections greedily on its
                    # event heap; the replay develops real lock convoys.
                    return DiffRecord(
                        point,
                        speedups,
                        status="expected",
                        kind="ff_lock_approximation",
                        detail=f"FF off by {err_ff:.1%} on a lock-bearing "
                        "tree (greedy serialisation)",
                        envelope=envelope,
                    )
                return DiffRecord(
                    point,
                    speedups,
                    status="violation",
                    kind="ff_real_mismatch",
                    detail=f"FF off by {err_ff:.1%} with no known cause "
                    f"(tolerance {self.policy.ff_vs_real:.0%})",
                    envelope=envelope,
                )

        return DiffRecord(point, speedups, status="ok", envelope=envelope)


def verify_surrogate(
    prophet,
    profile,
    threads: Sequence[int],
    schedules: Iterable[str] = ("static",),
    paradigm: str = "omp",
    memory_model: bool = True,
    surrogate=None,
    tolerance: Optional[float] = None,
) -> tuple[int, int, list[str]]:
    """Validate surrogate answers against uncached exact replays.

    For every grid point the surrogate answers *confidently* (the only
    answers the ``auto`` tier would serve without fallback), recompute the
    exact prediction with the section-replay memo cleared — so the
    reference cannot come from warm state the surrogate's training run
    left behind — and compare under the surrogate tolerance class.

    Returns ``(checked, abstained, mismatches)``: grid points compared,
    grid points the surrogate declined (unsupported or unconfident — those
    fall back to exact in production and need no check), and human-readable
    mismatch descriptions (empty means the tier is sound on this grid).
    """
    from repro.core.executor import clear_section_memo
    from repro.core.report import error_ratio
    from repro.runtime.tasks import Schedule

    if surrogate is None:
        from repro.surrogate import get_default_surrogate

        surrogate = get_default_surrogate()
    if tolerance is None:
        tolerance = SURROGATE_TOLERANCE
    checked = abstained = 0
    mismatches: list[str] = []
    metrics = get_metrics()
    for sched in schedules:
        schedule = Schedule.parse(sched)
        for t in threads:
            for method in ("ff", "syn"):
                ans = surrogate.answer(
                    profile,
                    profile.machine,
                    method,
                    paradigm,
                    schedule,
                    t,
                    memory_model=memory_model,
                )
                if ans is None or not ans.confident:
                    abstained += 1
                    continue
                clear_section_memo()
                exact_report = prophet.predict(
                    profile,
                    threads=[t],
                    paradigm=paradigm,
                    schedules=[schedule.label],
                    methods=(method,),
                    memory_model=memory_model,
                )
                exact = exact_report.speedup(method=method, n_threads=t)
                checked += 1
                metrics.inc("validate.surrogate.checked")
                err = error_ratio(ans.speedup, exact)
                if err > tolerance:
                    metrics.inc("validate.surrogate.mismatches")
                    mismatches.append(
                        f"{method}/{schedule.label}/t={t}: surrogate "
                        f"{ans.speedup:.3f}x vs exact {exact:.3f}x "
                        f"(error {err:.1%} > tolerance {tolerance:.0%}, "
                        f"spread {ans.spread:.4f})"
                    )
    return checked, abstained, mismatches
