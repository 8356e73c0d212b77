"""Synchronisation primitives for the simulated OS.

These are passive data holders; all state transitions happen inside the
kernel so that wakeups are ordered deterministically with the event queue.
Semantics:

- :class:`SimMutex` — wait queue with *direct handoff*: on release a waiter
  becomes the owner immediately, so lock convoys and contention delays are
  modelled faithfully (the paper emulates lock acquisition "by a real
  mutex" in the synthesizer; this is the simulated equivalent).  *Which*
  waiter is chosen is the kernel's **handoff policy** — ``fifo`` (the
  default, and the only order the seed kernel knew) picks the head of the
  queue; the other policies in :data:`HANDOFF_POLICIES` explore the
  interleaving space for ``repro.explore``'s speedup envelopes.
- :class:`SimBarrier` — classic counting barrier releasing all parties at
  once; used for OpenMP's implicit region barriers.
- :class:`SimEvent` — level-triggered event with wake-one/wake-all, used by
  the Cilk-style task pool for idle-worker parking.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simos.thread import SimThread

#: Lock handoff policies a kernel can run (see :meth:`SimMutex.pop_waiter`).
#: ``fifo`` is byte-identical to the seed kernel's single behaviour; the
#: rest exist to explore the schedule space (``repro.explore``).
HANDOFF_POLICIES = ("fifo", "lifo", "random", "adversarial")

#: Accepted aliases (the CLI/docs spell the seeded policy out).
_HANDOFF_ALIASES = {"seeded-random": "random"}


def normalize_handoff(policy: str) -> str:
    """Canonical handoff-policy name, or :class:`ConfigurationError`."""
    policy = _HANDOFF_ALIASES.get(policy, policy)
    if policy not in HANDOFF_POLICIES:
        raise ConfigurationError(
            f"unknown handoff policy {policy!r} "
            f"(expected one of {HANDOFF_POLICIES})"
        )
    return policy


def handoff_index(policy: str, n: int, rng=None) -> int:
    """Index of the waiter that the ``fifo``, ``lifo`` or ``random``
    handoff ``policy`` picks from a queue of ``n`` (``n >= 1``): the head,
    the tail, or one ``rng.randrange(n)`` draw.

    The kernel's mutexes (:meth:`SimMutex.pop_waiter`) and the columnar
    team walk (:mod:`repro.core.walk`) both pick through it, so the same
    seeded stream hands a lock to the same waiter in both.
    ``adversarial`` ranks waiters by progress, which only the kernel's
    threads carry, so :meth:`SimMutex.pop_waiter` picks it itself; any
    other policy raises :class:`ConfigurationError`."""
    if policy == "fifo":
        return 0
    if policy == "lifo":
        return n - 1
    if policy == "random":
        return rng.randrange(n)
    raise ConfigurationError(
        f"unknown handoff policy {policy!r} "
        f"(expected one of {HANDOFF_POLICIES})"
    )


class SimMutex:
    """A direct-handoff mutex with a pluggable wait-queue discipline."""

    _next_id = 0

    def __init__(self, name: str = "") -> None:
        SimMutex._next_id += 1
        self.mid = SimMutex._next_id
        self.name = name or f"mutex-{self.mid}"
        self.owner: Optional["SimThread"] = None
        self.waiters: Deque["SimThread"] = deque()
        #: Total number of acquisitions that had to wait (contention metric).
        self.contended_acquires: int = 0
        self.acquires: int = 0

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def reset_counters(self) -> None:
        """Zero the per-run contention counters.

        Replays build fresh mutexes per section, so counters are per-run by
        construction; any harness that *does* reuse a mutex across seeded
        exploration replays must reset between them or the stats leak
        (the FF-counter bug class fixed in PR 2)."""
        self.contended_acquires = 0
        self.acquires = 0

    def pop_waiter(self, policy: str = "fifo", rng=None) -> "SimThread":
        """Remove and return the waiter the handoff ``policy`` selects.

        - ``fifo`` — head of the queue (arrival order; the seed behaviour).
        - ``lifo`` — most recent arrival, starving the head of the convoy.
        - ``random`` — a uniform draw from ``rng`` (the kernel's seeded
          stream, so replays stay bit-reproducible).
        - ``adversarial`` — longest-remaining-work-first: the waiter that
          has made the *least* progress so far (the kernel's per-thread
          executed-cycles proxy; static partitions hand workers comparable
          totals, so least-progressed ≈ longest-remaining).  Ties break in
          arrival order, keeping the choice deterministic.

        The caller must guarantee the queue is non-empty.  The first three
        picks are :func:`handoff_index`'s.
        """
        waiters = self.waiters
        if policy == "adversarial":
            index = min(
                range(len(waiters)), key=lambda i: (waiters[i].work_done, i)
            )
        else:
            index = handoff_index(policy, len(waiters), rng)
        chosen = waiters[index]
        del waiters[index]
        return chosen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        o = self.owner.tid if self.owner else None
        return f"SimMutex({self.name!r}, owner={o}, waiting={len(self.waiters)})"


class SimBarrier:
    """A counting barrier for a fixed number of parties."""

    def __init__(self, parties: int, name: str = "") -> None:
        if parties < 1:
            raise ConfigurationError(f"barrier parties must be >= 1, got {parties}")
        self.parties = parties
        self.name = name or f"barrier({parties})"
        self.arrived: list["SimThread"] = []
        #: Completed barrier episodes (for tests).
        self.generations: int = 0

    def reset_counters(self) -> None:
        """Zero the per-run episode counter (see :meth:`SimMutex.reset_counters`)."""
        self.generations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimBarrier({self.name!r}, {len(self.arrived)}/{self.parties})"


class SimEvent:
    """A level-triggered event flag."""

    def __init__(self, name: str = "") -> None:
        self.name = name or "event"
        self.is_set = False
        self.waiters: Deque["SimThread"] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimEvent({self.name!r}, set={self.is_set}, waiting={len(self.waiters)})"
