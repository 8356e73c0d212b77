"""Simulated threads and the request vocabulary they yield to the kernel.

A simulated thread is a Python generator.  It *yields* request objects to the
kernel and receives the request's result via ``send()`` — the standard
coroutine-style DES idiom (cf. SimPy), chosen over callbacks because parallel
runtime code (OpenMP worker bodies, Cilk workers) reads naturally as
sequential control flow.

Example::

    def body(kernel):
        yield Compute(cycles=1_000)
        yield Acquire(mutex)
        yield Compute(cycles=50)
        yield Release(mutex)

Every request is a tiny immutable-ish data object; the kernel owns all state
transitions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.simos.sync import SimBarrier, SimEvent, SimMutex


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    FINISHED = "finished"


class SimThread:
    """Kernel-side record of one simulated thread."""

    __slots__ = (
        "tid",
        "name",
        "gen",
        "state",
        "affinity",
        "core",
        "joiners",
        "segment",
        "result",
        "ready_stamp",
        "pending_value",
        "switch_debt",
        "seg_cache",
        "work_done",
    )

    def __init__(
        self,
        tid: int,
        gen: Generator[Any, Any, Any],
        name: str = "",
        affinity: Optional[frozenset[int]] = None,
    ) -> None:
        self.tid = tid
        self.name = name or f"thread-{tid}"
        self.gen = gen
        self.state = ThreadState.NEW
        #: Set of core ids this thread may run on; ``None`` means any core.
        self.affinity = affinity
        #: Core currently running this thread, if any.
        self.core: Optional[int] = None
        #: Threads blocked in ``Join`` on this thread.
        self.joiners: list["SimThread"] = []
        #: The in-flight compute segment when preempted mid-compute.
        self.segment: Optional["ComputeSegment"] = None
        #: Value returned by the generator (via ``return``), once finished.
        self.result: Any = None
        #: Monotone stamp for FIFO ready-queue ordering.
        self.ready_stamp: int = 0
        #: Value to send into the generator at the next resume.
        self.pending_value: Any = None
        #: Context-switch cost owed, paid by the next compute segment.
        self.switch_debt: float = 0.0
        #: Retired :class:`ComputeSegment` reused by the next attach (the
        #: kernel's epoch staleness checks make identity reuse safe).
        self.seg_cache: Optional["ComputeSegment"] = None
        #: Base compute cycles executed so far — the progress proxy behind
        #: the ``adversarial`` lock-handoff policy.  Accumulated only while
        #: that policy is active (kernels default to leaving it at 0).
        self.work_done: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimThread({self.tid}, {self.name!r}, {self.state.value})"


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass
class Compute:
    """Run on a core for ``cycles`` uncontended cycles.

    ``cycles`` is the *base* duration: pure execution plus LLC-miss stall at
    an idle memory system.  The kernel stretches the memory portion under
    DRAM contention.  ``instructions`` and ``llc_misses`` feed the simulated
    performance counters and the contention model; both may be zero for
    "fake delay" segments (the synthesizer's FakeDelay spins without touching
    memory — Section IV-E).
    """

    cycles: float
    instructions: float = 0.0
    llc_misses: float = 0.0

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ConfigurationError(f"Compute cycles must be >= 0, got {self.cycles!r}")
        if self.instructions < 0 or self.llc_misses < 0:
            raise ConfigurationError("instructions and llc_misses must be >= 0")


@dataclass
class Acquire:
    """Block until the mutex is owned by the calling thread."""

    mutex: "SimMutex"


@dataclass
class Release:
    """Release an owned mutex (FIFO handoff to the next waiter)."""

    mutex: "SimMutex"


@dataclass
class BarrierWait:
    """Block until ``barrier.parties`` threads have arrived."""

    barrier: "SimBarrier"


@dataclass
class Spawn:
    """Create a new thread from ``gen``; the spawned :class:`SimThread` is
    returned to the caller."""

    gen: Generator[Any, Any, Any]
    name: str = ""
    affinity: Optional[frozenset[int]] = None


@dataclass
class Join:
    """Block until ``thread`` finishes; returns its ``result``."""

    thread: SimThread


@dataclass
class YieldCpu:
    """Voluntarily move to the back of the ready queue."""


@dataclass
class GetTime:
    """Returns the current virtual time in cycles."""


@dataclass
class GetCurrentThread:
    """Returns the calling :class:`SimThread` (for per-worker accounting)."""


@dataclass
class EventWait:
    """Block until the event is set (level-triggered)."""

    event: "SimEvent"


@dataclass
class EventSet:
    """Set the event and wake waiters (``wake='all'`` or ``'one'``)."""

    event: "SimEvent"
    wake: str = "all"


@dataclass
class EventClear:
    """Clear the event."""

    event: "SimEvent"


@dataclass(slots=True)
class ComputeSegment:
    """Kernel-internal progress record for an in-flight :class:`Compute`.

    ``remaining`` counts *base* cycles still owed.  ``rate_epoch`` lazily
    invalidates stale completion events after a rate reconfiguration.

    ``switch_debt`` is context-switch cost added to ``remaining`` when a
    preempted segment resumes on a cold core.  It is *not* part of
    ``total``: counter attribution in ``_advance_segment`` pays the debt
    off first, so instruction/miss fractions are computed against real
    work only and sum to exactly 1 over the segment's life.
    """

    thread: SimThread
    total: float
    remaining: float
    instructions: float
    llc_misses: float
    mem_fraction: float
    demand_bytes_per_sec: float
    last_update: float = 0.0
    slowdown: float = 1.0
    rate_epoch: int = 0
    #: Wall cycles actually consumed so far (for counters/overhead checks).
    wall_consumed: float = 0.0
    #: Outstanding resume-switch cycles folded into ``remaining``.
    switch_debt: float = 0.0
    #: Rate anchor: time and remaining when ``slowdown`` was last *changed*
    #: (not merely re-confirmed).  Progress is always computed from the
    #: anchor in closed form, so any number of intermediate observations
    #: yields bitwise-identical ``remaining``: timestamps do not depend on
    #: how often a segment was advanced.
    anchor_time: float = 0.0
    anchor_remaining: float = 0.0
    #: Completion time computed once per anchor; re-pushed verbatim.
    t_complete: float = 0.0
    #: Attribution-fraction accumulator for the invariant checker: the sum
    #: of per-advance ``work/total`` fractions, expected to reach exactly 1
    #: at completion.  −1.0 while the checker is disabled (the sentinel
    #: keeps a mid-run enable from producing false positives).
    inv_frac: float = -1.0

    def progress_fraction(self) -> float:
        """Fraction of the segment's base cycles already executed."""
        if self.total <= 0:
            return 1.0
        return 1.0 - self.remaining / self.total
