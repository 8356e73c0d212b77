"""Interval + memory profiling producing a :class:`ProgramProfile`.

This is step 2 of the paper's workflow (Fig. 3): run the annotated serial
program once under the tracer, collect the program tree and per-top-level-
section hardware counters, optionally compress the tree, and package the
result for the emulators and the memory model.

Compression (Section VI-B) happens while tracing: the tracer run-length
encodes each node as it closes, so the full tree is never built, and the
dictionary pass then shares subtrees of the short tree.  The batch
:func:`~repro.core.compress.compress_tree` gives the same tree from the raw
one (``compress=False``) and serves loaded and hand-built trees;
:func:`~repro.core.compress.compress_tree_lossy` is batch only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.annotations import AnnotationProgram, Tracer
from repro.core.compress import CompressionStats, check_tolerance, compress_folded
from repro.core.tree import ProgramTree
from repro.simhw.counters import CounterSet
from repro.simhw.machine import MachineConfig


@dataclass
class SectionCounters:
    """Aggregated hardware counters for one top-level section *name*.

    A section that executes many times (e.g. the parallel inner loop of LU,
    entered once per outer iteration) contributes one counter delta per
    invocation; the memory model uses the aggregate — "if a top-level
    parallel section is executed multiple times, we take an average"
    (Section V).
    """

    name: str
    total: CounterSet
    invocations: int

    @property
    def mpi(self) -> float:
        return self.total.mpi

    def traffic_mbs(self, machine: MachineConfig) -> float:
        """δ — the section's aggregate serial DRAM traffic in MB/s."""
        return self.total.traffic_mbs(machine)


@dataclass
class ProfileStats:
    """Cost accounting for the profiling run itself (Section VII-D)."""

    net_program_cycles: float
    gross_tracer_cycles: float
    annotation_events: int

    @property
    def slowdown(self) -> float:
        """Profiling slowdown factor versus the un-instrumented serial run."""
        if self.net_program_cycles <= 0:
            return 1.0
        return self.gross_tracer_cycles / self.net_program_cycles


@dataclass
class ProgramProfile:
    """Everything the emulators and memory model need about one program."""

    tree: ProgramTree
    sections: dict[str, SectionCounters]
    machine: MachineConfig
    stats: ProfileStats
    compression: Optional[CompressionStats] = None
    #: Burden factors per section name per thread count; attached by the
    #: memory model (Section V), consumed by both emulators.
    burdens: dict[str, dict[int, float]] = field(default_factory=dict)

    def serial_cycles(self) -> float:
        """Net serial execution time of the whole program (cycles)."""
        return self.tree.serial_cycles()

    def burden_for(self, section_name: str, n_threads: int) -> float:
        """β for a section at a thread count; 1.0 when no model is attached."""
        table = self.burdens.get(section_name)
        if not table:
            return 1.0
        if n_threads in table:
            return table[n_threads]
        # Interpolate between the nearest calibrated thread counts.
        keys = sorted(table)
        if n_threads <= keys[0]:
            return table[keys[0]]
        if n_threads >= keys[-1]:
            return table[keys[-1]]
        lo = max(k for k in keys if k <= n_threads)
        hi = min(k for k in keys if k >= n_threads)
        if lo == hi:
            return table[lo]
        w = (n_threads - lo) / (hi - lo)
        return table[lo] * (1 - w) + table[hi] * w


class IntervalProfiler:
    """Profiles an annotated serial program on a given machine.

    ``compress=True`` run-length encodes the tree while tracing, at relative
    ``tolerance``, then shares subtrees; ``compress=False`` keeps the raw
    tree.  A negative or non-finite ``tolerance`` raises
    :class:`~repro.errors.ConfigurationError` here, before any tracing.
    """

    def __init__(
        self,
        machine: MachineConfig,
        compress: bool = True,
        tolerance: float = 0.05,
        overhead_subtraction_accuracy: float = 1.0,
        trace_driven: bool = False,
        trace_seed: int = 0,
    ) -> None:
        self.machine = machine
        self.compress = compress
        self.tolerance = check_tolerance(tolerance)
        self.accuracy = overhead_subtraction_accuracy
        self.trace_driven = trace_driven
        self.trace_seed = trace_seed

    def profile(self, program: AnnotationProgram) -> ProgramProfile:
        """Run ``program`` under a fresh tracer and build its profile."""
        tracer = Tracer(
            self.machine,
            overhead_subtraction_accuracy=self.accuracy,
            trace_driven=self.trace_driven,
            trace_seed=self.trace_seed,
            rle_tolerance=self.tolerance if self.compress else None,
        )
        program(tracer)
        # Run-length encoding keeps node kinds and each pipeline task's
        # stage count, so validating the folded tree equals validating the
        # raw one.
        tree = ProgramTree(tracer.finish())

        stats = ProfileStats(
            net_program_cycles=tree.root.length,
            gross_tracer_cycles=tracer.clock,
            annotation_events=tracer.annotation_events,
        )

        compression: Optional[CompressionStats] = None
        if self.compress:
            compression = compress_folded(tree, tracer.nodes_traced)

        sections: dict[str, SectionCounters] = {}
        for name, deltas in tracer.section_counters().items():
            total = CounterSet()
            for d in deltas:
                total.add(d)
            sections[name] = SectionCounters(
                name=name, total=total, invocations=len(deltas)
            )

        return ProgramProfile(
            tree=tree,
            sections=sections,
            machine=self.machine,
            stats=stats,
            compression=compression,
        )
