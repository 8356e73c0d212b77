"""The discrete-event simulation kernel.

Executes simulated threads (generator coroutines, see
:mod:`repro.simos.thread`) over ``n_cores`` simulated CPUs with:

- **fluid-rate compute**: running compute segments progress at a rate set by
  the DRAM contention model; rates are piecewise-constant and recomputed
  whenever the set of running segments changes (completion, dispatch, block,
  preemption).  Completion events are lazily invalidated via per-segment
  epochs — the standard fluid-DES technique;
- **preemptive round-robin scheduling** with a configurable timeslice, which
  yields fair time-sharing under oversubscription (the OS behaviour behind
  the paper's Fig. 7);
- **event sparsity**: a quantum expiry is armed only while a core has a
  waiter, and a rate pass re-solves DRAM contention only for a socket whose
  demand multiset changed, so an uncontended compute costs O(1) events;
- **deterministic ordering**: same-time heap events are tie-broken by a
  history-independent key (quantum expiries before segment completions,
  then core id) and the ready queue is FIFO, so every run is exactly
  reproducible.  Traced and untraced runs take the same path: the tracer
  only observes, and a traced schedule equals the untraced one.

Zero-duration operations (lock handoff, spawning, event flips) are free;
all runtime costs are modelled *explicitly* by the parallel runtimes in
:mod:`repro.runtime` as Compute requests, keeping overhead assumptions
visible and configurable rather than buried in the kernel.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Generator, Optional

from repro.errors import DeadlockError, SimulationError
from repro.obs import get_tracer
from repro.simhw.clock import VirtualClock
from repro.simhw.counters import CounterSet
from repro.simhw.dram import DramModel, SegmentDemand
from repro.simhw.machine import MachineConfig
from repro.simos.scheduler import CpuScheduler, next_boundary
from repro.simos.sync import SimBarrier, SimEvent, SimMutex, normalize_handoff
from repro.validate.invariants import get_checker
from repro.simos.thread import (
    Acquire,
    BarrierWait,
    Compute,
    ComputeSegment,
    EventClear,
    EventSet,
    EventWait,
    GetCurrentThread,
    GetTime,
    Join,
    Release,
    SimThread,
    Spawn,
    ThreadState,
    YieldCpu,
)

#: Relative tolerance below which a segment's remaining work counts as done.
_DONE_TOL = 1e-7

#: Sentinel returned by request handlers when the thread stopped being
#: runnable (computing, blocked, yielded) — never a valid send value.
_SUSPEND = object()


class SimKernel:
    """A deterministic multicore discrete-event kernel."""

    def __init__(
        self,
        config: MachineConfig,
        record_trace: bool = False,
        tracer=None,
        handoff: str = "fifo",
        handoff_seed: int = 0,
    ) -> None:
        self.config = config
        self.clock = VirtualClock()
        #: Lock handoff policy (``repro.simos.sync.HANDOFF_POLICIES``).
        #: ``fifo`` (arrival order) is the default; the others explore the
        #: interleaving space for ``repro.explore``.
        self.handoff = normalize_handoff(handoff)
        self.handoff_seed = handoff_seed
        #: Seeded stream for the ``random`` policy.  Draws happen in
        #: simulation order, which is itself deterministic, so a (policy,
        #: seed) pair fully determines the schedule — across processes too.
        self._handoff_rng = (
            random.Random(handoff_seed) if self.handoff == "random" else None
        )
        #: The ``adversarial`` policy ranks waiters by executed cycles; the
        #: per-thread accumulation is paid only when that policy is active.
        self._track_progress = self.handoff == "adversarial"
        #: Structured event tracer (``repro.obs``).  Defaults to the
        #: process-global tracer, which is disabled unless opted in; hooks
        #: guard on ``obs.enabled`` so the disabled cost is one branch.
        self.obs = tracer if tracer is not None else get_tracer()
        #: Sim-time origin: the tracer's offset at construction, so several
        #: kernel runs of one program share a single exported timeline.
        self._obs_t0 = self.obs.offset
        #: (core, dispatch time) per running thread tid, for span emission.
        self._obs_running: dict[int, tuple[int, float]] = {}
        #: Per socket: the demand version and the demand multiset of the
        #: last ``dram{s}.demand_gbs`` sample (traced runs only).
        self._obs_dram_ver = [0] * config.n_sockets
        self._obs_dram_sig: list[tuple] = [()] * config.n_sockets
        #: Runtime invariant checker (``repro.validate``); same discipline
        #: as the tracer — every hook is one attribute test when disabled.
        self.inv = get_checker()
        #: Base compute cycles handed to this kernel (attach totals plus
        #: resume-switch costs), for the end-of-run conservation check.
        self._inv_cycles_in = 0.0
        #: True once any segment carried memory demand: slowdowns may then
        #: exceed 1, so conservation becomes a lower bound, not an equality.
        self._inv_any_demand = False
        self.scheduler = CpuScheduler(
            config.n_cores, tracer=self.obs, now=self._obs_now
        )
        #: One DRAM pool per socket (one pool total on UMA machines).
        self.dram_pools = [
            DramModel(config, peak_bytes_per_sec=config.dram_peak_bytes_per_sec_per_socket)
            for _ in range(config.n_sockets)
        ]
        #: Global performance-counter accumulator (all cores).
        self.counters = CounterSet()
        self._heap: list[tuple] = []
        self._seq = 0
        self._next_tid = 0
        self._live = 0
        self._quantum_arm = [0] * config.n_cores
        self._last_tid: list[Optional[int]] = [None] * config.n_cores
        self._epoch = 0
        # Lazy-quantum state: the next round-robin boundary per core and
        # whether an expiry event is currently in the heap.  Boundaries
        # advance from the dispatch anchor by ``next_boundary``, whose float
        # accumulation fixes the preemption times (the golden schedule
        # corpus in ``tests/data/kernel_corpus.json`` pins them).
        self._q_next = [0.0] * config.n_cores
        self._q_armed = [False] * config.n_cores
        # Incremental-reconfigure state: per-socket demand-multiset
        # signature and the stall factor it solved to, plus segments
        # attached since the last reconfigure (they need a completion
        # event even when their socket's rates are unchanged).
        self._socket_sig: dict[int, tuple] = {}
        self._socket_k: dict[int, float] = {}
        # Segments with no completion event yet (rate_epoch == -1), attached
        # or reattached since the last reconfigure pass consumed the list.
        self._fresh_segs: list[ComputeSegment] = []
        # False when every busy core's quantum is known to be armed (or no
        # waiter exists): lets _ensure_quanta bail out O(1) per dispatch.
        self._quanta_dirty = True
        # Running segments with nonzero memory demand.  While zero, every
        # running segment's slowdown is identically 1.0 (f == 0), so
        # reconfigure needs no grouping, no signature, and no solve.
        self._demand_running = 0
        # Monotone per-socket demand-set version, bumped whenever a segment
        # with nonzero demand starts or stops running on that socket, and
        # the version each socket's cached signature was computed at.  An
        # unchanged version lets _reconfigure skip building the signature
        # at all — the common case on steady-state passes.
        self._demand_ver = [0] * config.n_sockets
        self._socket_ver: dict[int, int] = {}
        #: Unfinished threads that have blocked, by tid; those still BLOCKED
        #: are named in a deadlock report.
        self._blocked: dict[int, SimThread] = {}
        #: Optional schedule trace for tests: (time, event, thread name, core).
        self.trace: Optional[list[tuple[float, str, str, Optional[int]]]] = (
            [] if record_trace else None
        )
        #: Total context switches performed (preemptions only).
        self.preemptions = 0
        #: Lock acquisitions that blocked (bridged to the metrics registry
        #: once per replayed section, never from this hot path).
        self.lock_contended = 0
        #: Total lock acquisitions, contended or not.  Both counters are
        #: per-kernel (one kernel per section replay), so exploration
        #: replays report per-run contention stats with nothing carried
        #: over between seeds.
        self.lock_acquires = 0

    # ------------------------------------------------------------------ API

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "",
        affinity: Optional[frozenset[int]] = None,
    ) -> SimThread:
        """Create a thread and place it on the ready queue."""
        self._next_tid += 1
        t = SimThread(self._next_tid, gen, name=name, affinity=affinity)
        t.pending_value = None  # type: ignore[attr-defined]
        self._live += 1
        self.scheduler.make_ready(t)
        self._trace("spawn", t)
        return t

    def dram_cache_stats(self) -> dict[str, int]:
        """Aggregated DRAM-solve memo counters across all socket pools.

        The kernel calls :meth:`DramModel.slowdowns` on every running-set
        change; the hit ratio here is the fraction of those contention solves
        answered from the LRU memo instead of the bisection."""
        stats = {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}
        for pool in self.dram_pools:
            info = pool.cache_info()
            for field in stats:
                stats[field] += info[field]
        return stats

    @property
    def events_pushed(self) -> int:
        """Total events ever pushed onto the heap (work metric for benches)."""
        return self._seq

    def run(self) -> float:
        """Run until every spawned thread has finished; returns final time."""
        self._dispatch_and_reconfigure()
        heap = self._heap
        heappop = heapq.heappop
        advance_to = self.clock.advance_to
        inv = self.inv
        while self._live > 0:
            if not heap:
                self._raise_deadlock()
            t, _rank, _stable, _seq, kind, data = heappop(heap)
            if inv.enabled:
                inv.check_event_time(t, self.clock.now)
            if kind == "seg":
                segment, epoch = data
                thread = segment.thread
                if thread.segment is not segment or segment.rate_epoch != epoch:
                    continue  # stale completion event
                advance_to(t)
                self._advance_segment(segment)
                if segment.remaining > _DONE_TOL * max(segment.total, 1.0):
                    raise SimulationError(
                        f"segment completion fired early: {segment.remaining!r} left"
                    )
                self._complete_segment(thread)
            elif kind == "quantum":
                core, arm = data
                if self._quantum_arm[core] != arm:
                    continue  # stale quantum event
                advance_to(t)
                self._quantum_expired(core)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")
        if inv.enabled:
            inv.check_work_conservation(
                self._inv_cycles_in,
                self.counters.cycles,
                exact=not self._inv_any_demand,
                where="kernel.run",
            )
        return self.clock.now

    # ------------------------------------------------------------- internals

    def _obs_now(self) -> float:
        """Current simulated time on the shared (offset) trace timeline."""
        return self.clock.now + self._obs_t0

    def _obs_event(self, event: str, thread: SimThread) -> None:
        """Emit tracer records for one lifecycle event.

        Dispatch opens a per-core occupancy window; preempt/yield/block/
        finish close it as a span on the ``cpu<N>`` track (one track per
        simulated core — the Perfetto Gantt view), and every state change
        lands as an instant on the thread's own track.
        """
        obs = self.obs
        now = self._obs_now()
        label = thread.name or f"t{thread.tid}"
        if event == "dispatch":
            assert thread.core is not None
            self._obs_running[thread.tid] = (thread.core, now)
        else:
            window = self._obs_running.pop(thread.tid, None)
            if window is not None:
                core, t0 = window
                obs.span(
                    label, ts=t0, dur=now - t0, track=f"cpu{core}", cat="sched"
                )
        obs.instant(event, ts=now, track=f"thread:{label}", cat="state")

    def _trace(self, event: str, thread: SimThread) -> None:
        if self.trace is not None:
            self.trace.append((self.clock.now, event, thread.name, thread.core))
        if self.obs.enabled:
            self._obs_event(event, thread)

    def _push(self, time: float, kind: str, data: Any) -> None:
        """Queue an event under a deterministic, history-independent key.

        Same-time events order by (kind rank, core): quantum expiries
        before segment completions, then by the core involved.  Keying ties
        by push sequence instead would leak the *history* of pushes (which
        passes re-pushed which completions) into the schedule.  The
        columnar team walk (``repro.core.walk``) orders its same-time
        member events by the same ``(time, core)`` key, so changing the key
        moves answers.
        """
        self._seq += 1
        if kind == "seg":
            core = data[0].thread.core
            key = (time, 1, core if core is not None else -1)
        else:  # quantum: data = (core, arm)
            key = (time, 0, data[0])
        heapq.heappush(self._heap, (*key, self._seq, kind, data))

    def _raise_deadlock(self) -> None:
        blocked = [
            t.name or f"t{t.tid}"
            for t in self._blocked.values()
            if t.state is ThreadState.BLOCKED
        ]
        raise DeadlockError(
            f"no events pending but {self._live} thread(s) alive; "
            f"blocked: {blocked}"
        )

    # -- segment/rate machinery -------------------------------------------------

    def _running_segments(self) -> list[ComputeSegment]:
        return [
            t.segment
            for t in self.scheduler.running_threads()
            if t.segment is not None
        ]

    def _advance_segment(self, seg: ComputeSegment) -> None:
        """Advance one segment's progress to the current time and accumulate
        its proportional share of instructions/misses into the counters."""
        now = self.clock.now
        dt = now - seg.last_update
        if dt < 0:
            raise SimulationError("segment updated backwards in time")
        if dt == 0:
            return
        # Absolute-form progress: remaining at ``now`` is a closed-form
        # expression over the rate anchor, never an accumulated subtraction,
        # so the answer does not depend on how often a segment is advanced
        # (the columnar team walk rates segments in the same form).
        new_remaining = seg.anchor_remaining - (now - seg.anchor_time) / seg.slowdown
        if new_remaining < 0.0:
            new_remaining = 0.0
        base_progress = seg.remaining - new_remaining
        if base_progress < 0.0:
            base_progress = 0.0
        # Resume-switch debt is folded into ``remaining`` but is not work:
        # pay it off first (the switch happens at the head of the interval)
        # so instruction/miss attribution fractions sum to exactly 1 over
        # the segment's life even under repeated preemption.
        work = base_progress
        if seg.switch_debt > 0.0:
            paid = min(seg.switch_debt, base_progress)
            seg.switch_debt -= paid
            work = base_progress - paid
        if self._track_progress:
            seg.thread.work_done += work
        frac = work / seg.total if seg.total > 0 else 1.0
        if self.inv.enabled and seg.inv_frac >= 0.0:
            seg.inv_frac += frac
        self.counters.instructions += seg.instructions * frac
        self.counters.llc_misses += seg.llc_misses * frac
        self.counters.cycles += dt
        seg.remaining = new_remaining
        seg.wall_consumed += dt
        seg.last_update = now

    def _demand_transition(self, thread: SimThread, delta: int) -> None:
        """A segment with nonzero demand started (+1) or stopped (-1)
        running on ``thread``'s core: keep the global count and the core's
        socket demand-set version in sync."""
        self._demand_running += delta
        if self.config.n_sockets == 1 or thread.core is None:
            self._demand_ver[0] += 1
        else:
            self._demand_ver[self.config.socket_of(thread.core)] += 1

    def _group_by_socket(
        self, segs: list[ComputeSegment]
    ) -> dict[int, list[ComputeSegment]]:
        """Group running segments by the socket of the core they run on;
        each socket pool solves its own bandwidth cap."""
        if self.config.n_sockets == 1:
            return {0: segs} if segs else {}
        by_socket: dict[int, list[ComputeSegment]] = {}
        for seg in segs:
            core = seg.thread.core
            socket = self.config.socket_of(core) if core is not None else 0
            by_socket.setdefault(socket, []).append(seg)
        return by_socket

    def _rerate_socket(
        self, socket: int, group: list[ComputeSegment], sig: tuple
    ) -> None:
        """Full re-rate of one socket: advance, solve, re-push everything."""
        for seg in group:
            self._advance_segment(seg)
        pool = self.dram_pools[socket]
        demands = [
            SegmentDemand(seg.mem_fraction, seg.demand_bytes_per_sec)
            for seg in group
        ]
        # Same math as DramModel.slowdowns (1 - f + f*k), inlined so the
        # solved stall factor can be cached alongside the signature.
        k = pool.stall_multiplier(demands)
        if self.inv.enabled:
            self.inv.check_dram_cap(pool, demands, k)
        self._epoch += 1
        epoch = self._epoch
        now = self.clock.now
        for seg in group:
            f = seg.mem_fraction
            s = 1.0 - f + f * k
            if seg.rate_epoch == -1 or s != seg.slowdown:
                # The rate really changed: re-anchor and fix the completion
                # time once.  An unchanged rate keeps the anchor and the
                # stored completion time verbatim, so the re-pushed event
                # lands exactly where the superseded one was.
                seg.slowdown = s
                seg.anchor_time = now
                seg.anchor_remaining = seg.remaining
                seg.t_complete = now + seg.remaining * s
            seg.rate_epoch = epoch
            self._push(seg.t_complete, "seg", (seg, epoch))
        self._socket_sig[socket] = sig
        self._socket_k[socket] = k

    def _reconfigure(self) -> None:
        """Recompute contention rates (per socket pool) and reschedule
        completion events.

        A socket whose demand multiset is unchanged keeps its solved stall
        factor and its in-heap completion events: only segments attached
        since the last pass get an event, rated with the cached factor.
        This skips the DRAM solve *and* the O(running) re-push entirely for
        the common cases — zero-demand FAKE replays and steady-state
        homogeneous REAL sections."""
        if self.obs.enabled:
            self._obs_dram()
        fresh = self._fresh_segs
        if fresh:
            self._fresh_segs = []
        if self._demand_running == 0:
            # Every running segment is demand-free: slowdowns are all 1.0
            # by construction, continuing completion events stay valid, and
            # only fresh segments need an event.  O(fresh), no solve.
            if fresh:
                now = self.clock.now
                epoch = self._epoch
                for seg in fresh:
                    if seg.rate_epoch == -1 and seg.thread.core is not None:
                        seg.slowdown = 1.0
                        seg.anchor_time = now
                        seg.anchor_remaining = seg.remaining
                        seg.t_complete = now + seg.remaining * 1.0
                        epoch += 1
                        seg.rate_epoch = epoch
                        self._push(seg.t_complete, "seg", (seg, epoch))
                self._epoch = epoch
            return
        segs = self._running_segments()
        now = self.clock.now
        for socket, group in self._group_by_socket(segs).items():
            ver = self._demand_ver[socket]
            if ver != self._socket_ver.get(socket):
                # The demand set transitioned since the cached signature
                # was taken: rebuild it (the multiset may still match,
                # e.g. one missy segment swapped for an identical one).
                sig = self._demand_signature(group)
                self._socket_ver[socket] = ver
                if sig != self._socket_sig.get(socket):
                    self._rerate_socket(socket, group, sig)
                    continue
            # Unchanged multiset: continuing segments keep their rates and
            # their pending completion events; only fresh ones need both.
            if fresh:
                k = self._socket_k[socket]
                for seg in group:
                    if seg.rate_epoch == -1:
                        f = seg.mem_fraction
                        s = 1.0 - f + f * k
                        seg.slowdown = s
                        seg.anchor_time = now
                        seg.anchor_remaining = seg.remaining
                        seg.t_complete = now + seg.remaining * s
                        self._epoch += 1
                        seg.rate_epoch = self._epoch
                        self._push(seg.t_complete, "seg", (seg, self._epoch))

    @staticmethod
    def _demand_signature(group: list[ComputeSegment]) -> tuple:
        """The sorted ``(mem_fraction, demand)`` multiset of the segments
        in ``group`` that demand DRAM bandwidth."""
        return tuple(
            sorted(
                (seg.mem_fraction, seg.demand_bytes_per_sec)
                for seg in group
                if seg.demand_bytes_per_sec > 0.0
            )
        )

    def _obs_dram(self) -> None:
        """Emit one ``dram{s}.demand_gbs`` sample per socket whose demand
        multiset changed since its last sample, the drop to zero included:
        the Perfetto step graph shows exactly when DRAM saturates."""
        seen = self._obs_dram_ver
        changed = [
            socket
            for socket, ver in enumerate(self._demand_ver)
            if ver != seen[socket]
        ]
        if not changed:
            return
        groups = self._group_by_socket(self._running_segments())
        for socket in changed:
            seen[socket] = self._demand_ver[socket]
            sig = self._demand_signature(groups.get(socket, []))
            if sig == self._obs_dram_sig[socket]:
                continue
            self._obs_dram_sig[socket] = sig
            self.obs.counter(
                f"dram{socket}.demand_gbs",
                ts=self._obs_now(),
                value=sum(demand for _, demand in sig) / 1e9,
                track=f"dram{socket}",
                cat="dram",
            )

    def _dispatch_and_reconfigure(self) -> None:
        self._dispatch()
        self._reconfigure()

    def _dispatch(self) -> None:
        """Fill idle cores from the ready queue until no assignment is
        possible.  Stepping a dispatched thread can wake or block others, so
        iterate to a fixed point."""
        sched = self.scheduler
        while True:
            if sched.idle_count == 0 or not sched.ready:
                # Nothing to assign; still check for newly armed quanta
                # (a waiter may have appeared for a busy core).
                self._ensure_quanta()
                return
            assigned = False
            for core in self.scheduler.idle_cores():
                thread = self.scheduler.pick_next(core)
                if thread is None:
                    continue
                self.scheduler.assign(thread, core)
                # Re-anchor the round-robin boundary; the expiry event
                # itself is armed lazily (only if a waiter shows up).
                self._quantum_arm[core] += 1
                self._q_armed[core] = False
                self._q_next[core] = self.clock.now + self.config.timeslice_cycles
                self._quanta_dirty = True
                self._trace("dispatch", thread)
                assigned = True
                # Context-switch cost: the core picks up a different thread
                # than it last ran (register state + cache warmup).
                switch_cost = 0.0
                if (
                    self.config.context_switch_cycles > 0
                    and self._last_tid[core] is not None
                    and self._last_tid[core] != thread.tid
                ):
                    switch_cost = self.config.context_switch_cycles
                    if self.obs.enabled:
                        self.obs.instant(
                            "context_switch",
                            ts=self._obs_now(),
                            track=f"cpu{core}",
                            cat="sched",
                            args={"cost": switch_cost},
                        )
                self._last_tid[core] = thread.tid
                if thread.segment is not None and thread.segment.remaining > 0:
                    # Resuming a preempted compute: reattach, rates fixed in
                    # the caller's reconfigure pass.  The switch cost extends
                    # the segment but is tracked as debt, not work, so
                    # counter attribution stays exact.
                    seg = thread.segment
                    seg.last_update = self.clock.now
                    seg.remaining += switch_cost
                    seg.switch_debt += switch_cost
                    if self.inv.enabled:
                        # Resume-switch cost is real busy time the kernel
                        # will account; count it as cycles-in so the
                        # conservation check stays an equality.
                        self._inv_cycles_in += switch_cost
                    seg.rate_epoch = -1
                    self._fresh_segs.append(seg)
                    if seg.demand_bytes_per_sec > 0.0:
                        self._demand_transition(thread, +1)
                else:
                    thread.switch_debt = switch_cost
                    self._step(thread, thread.pending_value)
            if not assigned:
                self._ensure_quanta()
                return

    def _ensure_quanta(self) -> None:
        """Lazily arm quantum expiry events for busy cores with waiters.

        Called after every dispatch fixed point (the only place waiters can
        appear).  Boundaries skipped while a core ran uncontended advance
        from the dispatch anchor by :func:`next_boundary`, so a preemption
        lands on the boundary a per-slice timer would have reached, bit for
        bit.
        """
        if not self._quanta_dirty:
            return
        sched = self.scheduler
        if not sched.ready:
            return
        q = self.config.timeslice_cycles
        now = self.clock.now
        armed = self._q_armed
        q_next = self._q_next
        for core, thread in enumerate(sched.running):
            if thread is None or armed[core]:
                continue
            if not sched.has_waiter_for(core):
                continue
            q_next[core] = nxt = next_boundary(q_next[core], now, q)
            armed[core] = True
            self._quantum_arm[core] += 1
            self._push(nxt, "quantum", (core, self._quantum_arm[core]))
        if sched._unpinned_ready:
            # Every busy core is now armed; stay clean until a dispatch or
            # an expiry unarms one (pinned-only waiters stay conservative).
            self._quanta_dirty = False

    def _quantum_expired(self, core: int) -> None:
        self._q_armed[core] = False
        self._quanta_dirty = True
        thread = self.scheduler.running[core]
        if thread is None:
            return
        if not self.scheduler.has_waiter_for(core):
            # Keep the boundary phase; re-arm happens lazily if a waiter
            # ever appears.
            self._q_next[core] = self.clock.now + self.config.timeslice_cycles
            return
        # Preempt: bank compute progress, requeue at the tail.
        if thread.segment is not None:
            self._advance_segment(thread.segment)
            # A detached segment is invisible to _reconfigure, so its pending
            # completion event must be invalidated here.
            self._epoch += 1
            thread.segment.rate_epoch = self._epoch
            if thread.segment.demand_bytes_per_sec > 0.0:
                self._demand_transition(thread, -1)
        self.scheduler.unassign(thread)
        self.preemptions += 1
        self._trace("preempt", thread)
        self.scheduler.make_ready(thread)
        self._dispatch_and_reconfigure()

    def _complete_segment(self, thread: SimThread) -> None:
        seg = thread.segment
        if self.inv.enabled:
            self.inv.check_segment_complete(seg)
        if seg.demand_bytes_per_sec > 0.0:
            self._demand_transition(thread, -1)
        thread.segment = None
        # Retire the object for reuse by the thread's next attach: stale
        # heap events still referencing it die on the epoch check (epochs
        # are globally monotone and never reissued).
        thread.seg_cache = seg
        self._step(thread, None)
        self._dispatch()
        self._reconfigure()

    # -- request handling ---------------------------------------------------------

    def _step(self, thread: SimThread, send_value: Any) -> None:
        """Drive ``thread`` until it computes, blocks, or finishes.

        The thread must be RUNNING on a core.  Zero-time requests are handled
        inline in a loop; requests dispatch through a type-keyed handler
        table (one dict hit instead of an isinstance chain).  A handler
        returns ``_SUSPEND`` when the thread stops being runnable here,
        otherwise the value to send into the generator next.
        """
        if thread.state is not ThreadState.RUNNING:
            raise SimulationError(f"stepping non-running thread {thread!r}")
        thread.pending_value = None
        handlers = self._HANDLERS
        while True:
            try:
                req = thread.gen.send(send_value)
            except StopIteration as stop:
                self._finish(thread, stop.value)
                return
            handler = handlers.get(req.__class__)
            if handler is None:
                raise SimulationError(f"unknown request {req!r} from {thread!r}")
            send_value = handler(self, thread, req)
            if send_value is _SUSPEND:
                return

    # Request handlers: one per request type, keyed by exact class in
    # ``_HANDLERS``.  Each returns the generator's next send value or
    # ``_SUSPEND`` when the thread computed, blocked, or yielded.

    def _h_compute(self, thread: SimThread, req: Compute):
        if req.cycles <= 0:
            self.counters.instructions += req.instructions
            self.counters.llc_misses += req.llc_misses
            return None
        self._attach_segment(thread, req)
        return _SUSPEND

    def _h_get_time(self, thread: SimThread, req: GetTime):
        return self.clock.now

    def _h_get_current(self, thread: SimThread, req: GetCurrentThread):
        return thread

    def _h_spawn(self, thread: SimThread, req: Spawn):
        return self.spawn(req.gen, name=req.name, affinity=req.affinity)

    def _h_acquire(self, thread: SimThread, req: Acquire):
        return None if self._acquire(thread, req.mutex) else _SUSPEND

    def _h_release(self, thread: SimThread, req: Release):
        self._release(thread, req.mutex)
        return None

    def _h_join(self, thread: SimThread, req: Join):
        target = req.thread
        if target.state is ThreadState.FINISHED:
            return target.result
        target.joiners.append(thread)
        self._block(thread)
        return _SUSPEND

    def _h_barrier(self, thread: SimThread, req: BarrierWait):
        return None if self._barrier_wait(thread, req.barrier) else _SUSPEND

    def _h_event_wait(self, thread: SimThread, req: EventWait):
        if req.event.is_set:
            return None
        req.event.waiters.append(thread)
        self._block(thread)
        return _SUSPEND

    def _h_event_set(self, thread: SimThread, req: EventSet):
        self._event_set(req.event, req.wake)
        return None

    def _h_event_clear(self, thread: SimThread, req: EventClear):
        req.event.is_set = False
        return None

    def _h_yield(self, thread: SimThread, req: YieldCpu):
        self.scheduler.unassign(thread)
        self._trace("yield", thread)
        self.scheduler.make_ready(thread)
        return _SUSPEND

    _HANDLERS = {
        Compute: _h_compute,
        GetTime: _h_get_time,
        GetCurrentThread: _h_get_current,
        Spawn: _h_spawn,
        Acquire: _h_acquire,
        Release: _h_release,
        Join: _h_join,
        BarrierWait: _h_barrier,
        EventWait: _h_event_wait,
        EventSet: _h_event_set,
        EventClear: _h_event_clear,
        YieldCpu: _h_yield,
    }

    def _attach_segment(self, thread: SimThread, req: Compute) -> None:
        cfg = self.config
        # Outstanding context-switch debt is paid as pure compute prepended
        # to the first segment after the switch.
        debt = thread.switch_debt
        if debt:
            thread.switch_debt = 0.0
        cycles = req.cycles + debt
        if req.llc_misses == 0.0:
            # Demand-free segment (fake delays, dispatch overhead, pure
            # compute): skip the stall/bandwidth math entirely.
            mem_fraction = 0.0
            demand = 0.0
        else:
            miss_stall = req.llc_misses * cfg.base_miss_stall
            if cycles > 0:
                mem_fraction = min(1.0, miss_stall / cycles)
            else:
                mem_fraction = 0.0
            seconds = cfg.cycles_to_seconds(cycles) if cycles > 0 else 0.0
            demand = (req.llc_misses * cfg.line_size / seconds) if seconds > 0 else 0.0
        seg = thread.seg_cache
        if seg is not None:
            thread.seg_cache = None
            seg.total = cycles
            seg.remaining = cycles
            seg.instructions = req.instructions
            seg.llc_misses = req.llc_misses
            seg.mem_fraction = mem_fraction
            seg.demand_bytes_per_sec = demand
            seg.last_update = self.clock.now
            seg.slowdown = 1.0
            seg.rate_epoch = -1
            seg.wall_consumed = 0.0
            seg.switch_debt = 0.0
            seg.anchor_time = self.clock.now
            seg.anchor_remaining = cycles
            seg.t_complete = 0.0
            seg.inv_frac = -1.0
            thread.segment = seg
        else:
            thread.segment = seg = ComputeSegment(
                thread=thread,
                total=cycles,
                remaining=cycles,
                instructions=req.instructions,
                llc_misses=req.llc_misses,
                mem_fraction=mem_fraction,
                demand_bytes_per_sec=demand,
                last_update=self.clock.now,
                rate_epoch=-1,
                anchor_time=self.clock.now,
                anchor_remaining=cycles,
            )
        if self.inv.enabled:
            seg.inv_frac = 0.0
            self._inv_cycles_in += cycles
            if demand > 0.0:
                self._inv_any_demand = True
        self._fresh_segs.append(seg)
        if demand > 0.0:
            self._demand_transition(thread, +1)

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.result = result
        thread.state = ThreadState.FINISHED
        if thread.core is not None:
            self.scheduler.unassign(thread)
        self._live -= 1
        self._blocked.pop(thread.tid, None)
        self._trace("finish", thread)
        for joiner in thread.joiners:
            joiner.pending_value = result  # type: ignore[attr-defined]
            self.scheduler.make_ready(joiner)
        thread.joiners.clear()

    def _block(self, thread: SimThread) -> None:
        self.scheduler.unassign(thread)
        thread.state = ThreadState.BLOCKED
        self._blocked[thread.tid] = thread
        self._trace("block", thread)

    # -- sync primitives ------------------------------------------------------------

    def _acquire(self, thread: SimThread, mutex: SimMutex) -> bool:
        """Returns True if acquired immediately, False if the thread blocked."""
        mutex.acquires += 1
        self.lock_acquires += 1
        if mutex.owner is None:
            mutex.owner = thread
            return True
        if mutex.owner is thread:
            raise SimulationError(f"{thread!r} recursively acquiring {mutex!r}")
        mutex.contended_acquires += 1
        if self.obs.enabled:
            self.obs.instant(
                "lock_contended",
                ts=self._obs_now(),
                track=f"thread:{thread.name or f't{thread.tid}'}",
                cat="lock",
                args={"lock": mutex.name, "owner": mutex.owner.name},
            )
        self.lock_contended += 1
        mutex.waiters.append(thread)
        self._block(thread)
        return False

    def _release(self, thread: SimThread, mutex: SimMutex) -> None:
        if mutex.owner is not thread:
            raise SimulationError(
                f"{thread!r} releasing {mutex!r} owned by {mutex.owner!r}"
            )
        if mutex.waiters:
            # Direct handoff: the selected waiter owns the lock while it
            # waits for a core, modelling lock-convoy behaviour.  The
            # handoff policy decides *which* waiter.
            next_owner = mutex.pop_waiter(self.handoff, self._handoff_rng)
            mutex.owner = next_owner
            next_owner.pending_value = None  # type: ignore[attr-defined]
            self.scheduler.make_ready(next_owner, front=True)
        else:
            mutex.owner = None

    def _barrier_wait(self, thread: SimThread, barrier: SimBarrier) -> bool:
        """Returns True if the barrier released immediately (last arrival)."""
        barrier.arrived.append(thread)
        if len(barrier.arrived) < barrier.parties:
            self._block(thread)
            return False
        barrier.generations += 1
        for waiter in barrier.arrived:
            if waiter is not thread:
                waiter.pending_value = None  # type: ignore[attr-defined]
                self.scheduler.make_ready(waiter)
        barrier.arrived.clear()
        return True

    def _event_set(self, event: SimEvent, wake: str) -> None:
        event.is_set = True
        if wake == "one":
            if event.waiters:
                waiter = event.waiters.popleft()
                waiter.pending_value = None  # type: ignore[attr-defined]
                self.scheduler.make_ready(waiter)
        elif wake == "all":
            while event.waiters:
                waiter = event.waiters.popleft()
                waiter.pending_value = None  # type: ignore[attr-defined]
                self.scheduler.make_ready(waiter)
        else:
            raise SimulationError(f"unknown wake mode {wake!r}")
