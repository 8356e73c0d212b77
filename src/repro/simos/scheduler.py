"""Preemptive round-robin CPU scheduler.

Models the relevant slice of a Linux-like scheduler: a FIFO ready queue,
per-core current threads, a fixed timeslice after which a running thread is
preempted *if* someone is waiting, and optional core affinity.  Fairness
under oversubscription is the property the paper's Fig. 7 depends on —
four runnable threads on two cores each make ~50 % progress per wall unit —
and round-robin time-sharing with a timeslice much shorter than task lengths
delivers exactly that.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.obs import get_tracer
from repro.simos.thread import SimThread, ThreadState


def next_boundary(anchor: float, now: float, timeslice: float) -> float:
    """A core's first round-robin boundary after ``now``: its boundary
    ``anchor`` advanced by repeated ``+= timeslice``, never by a multiply.

    The float accumulation fixes the preemption times, so its order is
    part of the answer.  The kernel arms a quantum there
    (``SimKernel._ensure_quanta``), and the columnar team walk
    (:mod:`repro.core.walk`) arms its mirror of it there too."""
    while anchor <= now:
        anchor += timeslice
    return anchor


class CpuScheduler:
    """Ready-queue plus core-assignment bookkeeping.

    The scheduler is purely mechanical; the kernel decides *when* to call it
    (dispatch points, quantum expiry, wakeups).  It carries an observability
    hook — ready-queue entries are traced as instants so the exported
    timeline shows scheduler latency (ready → dispatch) per thread.
    """

    def __init__(
        self,
        n_cores: int,
        tracer=None,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        if n_cores < 1:
            raise ConfigurationError(f"n_cores must be >= 1, got {n_cores}")
        self.n_cores = n_cores
        self.ready: Deque[SimThread] = deque()
        self.running: list[Optional[SimThread]] = [None] * n_cores
        self._stamp = 0
        #: Ready threads with no affinity constraint.  Kept in sync by
        #: make_ready/pick_next so ``has_waiter_for`` is O(1) in the common
        #: all-unpinned case (it is called per core per dispatch round).
        self._unpinned_ready = 0
        #: Cores with no running thread; lets the kernel's dispatch loop
        #: bail out O(1) when every core is busy (the common steady state).
        self.idle_count = n_cores
        #: Tracer plus a clock accessor supplied by the owning kernel (the
        #: scheduler itself has no notion of time).
        self.obs = tracer if tracer is not None else get_tracer()
        self._now = now

    # -- ready queue ----------------------------------------------------------

    def make_ready(self, thread: SimThread, front: bool = False) -> None:
        """Append a runnable thread to the ready queue.

        ``front=True`` is used for direct mutex handoff so a woken lock
        owner reacquires a core before unrelated queued work.
        """
        if thread.state is ThreadState.FINISHED or thread.core is not None:
            raise SimulationError(
                f"cannot make {thread!r} ready from state {thread.state}"
            )
        self._stamp += 1
        thread.ready_stamp = self._stamp
        thread.state = ThreadState.READY
        if self.obs.enabled and self._now is not None:
            self.obs.instant(
                "ready",
                ts=self._now(),
                track=f"thread:{thread.name or f't{thread.tid}'}",
                cat="state",
                args={"front": front} if front else None,
            )
        if thread.affinity is None:
            self._unpinned_ready += 1
        if front:
            self.ready.appendleft(thread)
        else:
            self.ready.append(thread)

    def has_waiter_for(self, core: int) -> bool:
        """True if some ready thread may run on ``core``."""
        if self._unpinned_ready:
            return True
        if not self.ready:
            return False
        return any(self._allowed(t, core) for t in self.ready)

    @staticmethod
    def _allowed(thread: SimThread, core: int) -> bool:
        return thread.affinity is None or core in thread.affinity

    def pick_next(self, core: int) -> Optional[SimThread]:
        """Pop the oldest ready thread allowed on ``core``."""
        for i, t in enumerate(self.ready):
            if self._allowed(t, core):
                del self.ready[i]
                if t.affinity is None:
                    self._unpinned_ready -= 1
                return t
        return None

    # -- core assignment --------------------------------------------------------

    def assign(self, thread: SimThread, core: int) -> None:
        """Place ``thread`` on an idle ``core`` and mark it RUNNING."""
        if self.running[core] is not None:
            raise SimulationError(f"core {core} already running {self.running[core]!r}")
        if thread.core is not None:
            raise SimulationError(f"{thread!r} already on core {thread.core}")
        self.running[core] = thread
        thread.core = core
        thread.state = ThreadState.RUNNING
        self.idle_count -= 1

    def unassign(self, thread: SimThread) -> int:
        """Remove ``thread`` from its core; returns the freed core id."""
        core = thread.core
        if core is None or self.running[core] is not thread:
            raise SimulationError(f"{thread!r} is not running on a core")
        self.running[core] = None
        thread.core = None
        self.idle_count += 1
        return core

    def idle_cores(self) -> list[int]:
        """Core ids with no running thread."""
        return [c for c, t in enumerate(self.running) if t is None]

    def running_threads(self) -> list[SimThread]:
        """Threads currently assigned to cores."""
        return [t for t in self.running if t is not None]

    @property
    def n_ready(self) -> int:
        return len(self.ready)
