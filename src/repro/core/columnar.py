"""Columnar sweep engine: the numpy-vectorized analytic grid-point evaluator.

The FF heap walk over lock-free leaf sections, the coalesced RLE replay,
and the DRAM contention solve are all *analytic* — each grid point of a
sweep is a closed-form function of the program's RLE runs, the
schedule's ownership map, and the machine constants.  The eager path nevertheless re-derives that function one grid
point at a time through scalar Python (and, for SYN/REAL, through the DES
kernel's fork/join machinery).  This module lowers a workload's program
tree **once** into flat numpy arrays and then evaluates grid points
against those arrays:

- per-run iteration counts become prefix-sum ``bounds``; static and
  static-chunk ownership is a clipped-interval intersection evaluated for
  all team members at once (``_ownership``);
- per-iteration FAKE/REAL cycle columns broadcast against the ownership
  matrix give every member's aggregated share in one reduction;
- the fork / thread-start / barrier / join skeleton of
  ``OpenMPRuntime.parallel_aggregated`` collapses to a closed form over
  the member totals (``_gross``);
- memory-demanding REAL sections are replayed by a miniature event walk
  whose DRAM solves are *batched*: every walk in flight yields its
  (mem-fraction, demand) multiset, and one
  :meth:`~repro.simhw.dram.DramModel.solve_batch` call bisects all of
  them with a shared convergence loop and per-lane early-exit masks.

The eager paths remain the parity oracles: the FF closed form is checked
against the FF heap walk (``ffemu`` keeps no scalar copy of it), and every
other closed form mirrors the corresponding eager code path
(``executor._coalesce_shares`` / ``_coalesced_member_body``,
``openmp.parallel_aggregated``, ``simos.kernel``'s segment rating); all
are property-tested to agree within 1e-9 relative.  Sections the analytic
model cannot represent exactly — locks, nested sections, pipelines,
nowait chains, dynamic-family schedules, oversubscribed teams, mixed
demand signatures — make the engine return ``None`` so callers fall back
per-point to the exact executor.  The ``columnar.hits`` /
``columnar.fallbacks`` counters record each decision.

Determinism: results are pure functions of (profile, schedule, t) — only
elementwise ops and per-row reductions are used (no BLAS), so a grid
point's value never depends on which other points share its batch.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Optional

try:  # numpy is a declared dependency, but stay importable without it
    import numpy as np
except ImportError:  # pragma: no cover - exercised via _np_missing tests
    np = None

from repro.core.ffemu import FFSectionResult
from repro.core.report import SpeedupEstimate
from repro.core.tree import Node, NodeKind, ProgramTree, group_nowait_chains
from repro.obs import get_metrics
from repro.runtime.overhead import RuntimeOverheads
from repro.runtime.tasks import Schedule, ScheduleKind
from repro.simhw.dram import DramModel, _quantize
from repro.simhw.machine import MachineConfig
from repro.validate.invariants import get_checker

#: Per-node traversal cost of the FAKE replay (mirrors executor's value).
from repro.core.executor import OVERHEAD_ACCESS_NODE


class _SecCols:
    """One top-level section lowered to flat per-run columns."""

    __slots__ = (
        "node", "name", "repeat", "serial", "n_runs", "n_iters",
        "counts", "bounds", "unit", "oh", "rc", "rm",
        "rc_list", "rm_list", "total_misses", "real_ok", "sig_ok",
    )

    def __init__(self, node: Node, machine: MachineConfig) -> None:
        self.node = node
        self.name = node.name
        self.repeat = node.repeat
        self.serial = node.subtree_length()
        stall = machine.base_miss_stall
        counts: list[int] = []
        unit: list[float] = []
        oh: list[float] = []
        rc: list[float] = []
        rm: list[float] = []
        sigs: set = set()
        total_misses = 0.0
        real_ok = True
        for task in node.children:
            c_f = 0.0
            c_r = m_r = 0.0
            n_leaves = 0
            for leaf in task.children:
                # Leaf-only eligibility is checked by the caller.
                c_f += leaf.length * leaf.repeat
                n_leaves += 1
                cc = (leaf.cpu_cycles + leaf.llc_misses * stall) * leaf.repeat
                mm = leaf.llc_misses * leaf.repeat
                if mm > 0.0 and cc <= 0.0:
                    # Instant misses have no demand in the expanded
                    # lowering; fusing them would invent some (same rule
                    # as executor._coalesce_shares).
                    real_ok = False
                else:
                    c_r += cc
                    m_r += mm
                    if cc > 0.0:
                        sigs.add(_demand_sig(machine, cc, mm) if mm > 0.0 else None)
            counts.append(task.repeat)
            unit.append(c_f)
            oh.append(OVERHEAD_ACCESS_NODE * n_leaves)
            rc.append(c_r)
            rm.append(m_r)
            total_misses += m_r * task.repeat
        self.n_runs = len(counts)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.bounds = np.concatenate(
            ([0], np.cumsum(self.counts))
        ).astype(np.int64)
        self.n_iters = int(self.bounds[-1])
        self.unit = np.asarray(unit, dtype=np.float64)
        self.oh = np.asarray(oh, dtype=np.float64)
        self.rc = np.asarray(rc, dtype=np.float64)
        self.rm = np.asarray(rm, dtype=np.float64)
        #: Plain-float copies for the bit-exact missy share accumulation.
        self.rc_list = rc
        self.rm_list = rm
        self.total_misses = total_misses
        self.real_ok = real_ok
        self.sig_ok = len(sigs) == 1 and None not in sigs


def _demand_sig(machine: MachineConfig, cycles: float, misses: float):
    """Quantized (mem-fraction, demand) — executor._demand_sig's formulas."""
    f = min(1.0, misses * machine.base_miss_stall / cycles)
    seconds = machine.cycles_to_seconds(cycles)
    d = misses * machine.line_size / seconds if seconds > 0 else 0.0
    return (float(f"{f:.12g}"), float(f"{d:.12g}"))


def _lane_fd(machine: MachineConfig, wc: float, wm: float) -> tuple[float, float]:
    """Raw (mem-fraction, demand) of one fused missy segment — the exact
    formulas of ``SimKernel._attach_segment`` (zero switch debt)."""
    miss_stall = wm * machine.base_miss_stall
    f = min(1.0, miss_stall / wc) if wc > 0 else 0.0
    seconds = machine.cycles_to_seconds(wc) if wc > 0 else 0.0
    d = (wm * machine.line_size / seconds) if seconds > 0 else 0.0
    return f, d


class ColumnarEngine:
    """Analytic evaluator for one profile's sweep grid points.

    Construct once per (profile, overheads) and consult per grid point:
    :meth:`ff_point`, :meth:`syn_point`, :meth:`real_point` each return a
    result or ``None`` (meaning: use the eager path).  The lowering and
    the per-(schedule, t) ownership matrices are cached on the engine, so
    a whole sweep column shares one tree walk.
    """

    def __init__(self, profile, overheads: RuntimeOverheads) -> None:
        self.profile = profile
        self.machine: MachineConfig = profile.machine
        self.overheads = overheads
        self._lowered = False
        #: Program as floats (serial U cycles) and _SecCols, in tree order;
        #: None when the tree is outside the analytic model.
        self._items: Optional[list] = None
        self._secs: list[_SecCols] = []
        self._serial = 0.0
        self._serial_by_name: dict[str, float] = {}
        self._own_cache: dict[tuple, tuple] = {}
        self._point_cache: dict[tuple, float] = {}

    def cache_info(self) -> dict[str, int]:
        """Sizes of this engine's per-point caches (serve-layer stats)."""
        return {
            "lowered": int(self._lowered),
            "ownership": len(self._own_cache),
            "points": len(self._point_cache),
        }

    # ------------------------------------------------------------- lowering

    def _lowering(self) -> Optional[list]:
        if self._lowered:
            return self._items
        self._lowered = True
        if np is None:
            return None
        tree: ProgramTree = self.profile.tree
        items: list = []
        secs: list[_SecCols] = []
        for item in group_nowait_chains(tree.root.children):
            if isinstance(item, list):  # nowait chain: exact path only
                return None
            if item.kind is NodeKind.U:
                items.append(item.length * item.repeat)
                continue
            if item.kind is not NodeKind.SEC or item.pipeline:
                return None
            for task in item.children:
                if task.kind is not NodeKind.TASK:
                    return None
                for leaf in task.children:
                    if leaf.kind is not NodeKind.U:
                        return None  # locks / nested sections
            sc = _SecCols(item, self.machine)
            items.append(sc)
            secs.append(sc)
        self._items = items
        self._secs = secs
        self._serial = tree.serial_cycles()
        by_name: dict[str, float] = {}
        for sec in tree.top_level_sections():
            by_name[sec.name] = by_name.get(sec.name, 0.0) + sec.subtree_length()
        self._serial_by_name = by_name
        return items

    def _ownership(self, sc: _SecCols, schedule: Schedule, t: int):
        """(K, owned, n_disp): iteration-ownership matrix of shape (t, runs),
        per-member owned-iteration counts, and per-member dispatch counts.
        Mirrors ``executor._owned_in`` / the dispatch-count rules of
        ``_coalesce_shares``; cached per (section, schedule, t)."""
        key = (id(sc), schedule.kind, schedule.chunk, t)
        cached = self._own_cache.get(key)
        if cached is not None:
            return cached
        b_lo = sc.bounds[:-1]
        b_hi = sc.bounds[1:]
        n = sc.n_iters
        if t == 1:
            K = sc.counts[None, :].astype(np.float64)
            owned = np.asarray([n], dtype=np.int64)
            # The degenerate inline team dispatches per iteration.
            n_disp = np.asarray([float(n)])
        elif schedule.kind is ScheduleKind.STATIC:
            base, extra = divmod(n, t)
            tids = np.arange(t, dtype=np.int64)
            s = tids * base + np.minimum(tids, extra)
            e = s + base + (tids < extra)
            K = np.clip(
                np.minimum(b_hi[None, :], e[:, None])
                - np.maximum(b_lo[None, :], s[:, None]),
                0,
                None,
            )
            owned = K.sum(axis=1)
            n_disp = (owned > 0).astype(np.float64)
            K = K.astype(np.float64)
        else:  # STATIC_CHUNK: chunks of c dealt round-robin
            c = schedule.chunk
            p = t * c
            tids = np.arange(t, dtype=np.int64)[:, None]

            def below(x):
                return (x // p) * c + np.clip(x % p - tids * c, 0, c)

            K = below(b_hi[None, :]) - below(b_lo[None, :])
            owned = K.sum(axis=1)
            n_disp = ((owned + c - 1) // c).astype(np.float64)
            K = K.astype(np.float64)
        result = (K, owned, n_disp)
        self._own_cache[key] = result
        return result

    # --------------------------------------------------------- fork/join form

    def _gross(self, totals, t: int, fork: float, ts: float, jb: float) -> float:
        """Closed form of ``parallel_aggregated``: master attaches its body
        at ``fork``, worker ``w`` at ``fork + thread_start``; the barrier
        releases at the latest arrival and the master then pays the join
        barrier.  A one-member team runs inline (no barrier, no join)."""
        if t == 1:
            return fork + float(totals[0])
        b = fork + float(totals[0])
        w = float(((fork + ts) + totals[1:]).max())
        if w > b:
            b = w
        return b + jb

    # -------------------------------------------------------------- FF point

    def ff_point(
        self, schedule: Schedule, t: int, burdens: dict
    ) -> Optional[tuple[float, list[FFSectionResult]]]:
        """Whole-program FF prediction, or None for the eager emulator.

        With only unlocked leaf tasks under a static-family schedule, the
        heap walk in ``FastForwardEmulator.emulate_section`` has no
        cross-walker interaction, so each CPU finishes at
        ``fork + (#dispatches)·dispatch + owned work``; this evaluates that
        per compressed run, plus the ``emulate_profile`` assembly
        (per-section repeat scaling, result records, invariant checks)."""
        m = get_metrics()
        if self._lowering() is None or schedule.is_dynamic_family:
            m.inc("columnar.fallbacks")
            return None
        m.inc("columnar.hits")
        oh = self.overheads
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        jb = oh.omp_join_barrier
        disp = oh.omp_static_dispatch
        inv = get_checker()
        total = 0.0
        results: list[FFSectionResult] = []
        for item in self._items:
            if isinstance(item, float):
                total += item
                continue
            sc = item
            beta = burdens.get(sc.name, 1.0)
            key = ("ff", id(sc), schedule.kind, schedule.chunk, t, beta)
            cycles = self._point_cache.get(key)
            if cycles is None:
                if sc.n_iters == 0:
                    cycles = fork + jb
                else:
                    K, owned, n_disp = self._ownership(sc, schedule, t)
                    if t == 1:
                        # The FF abstract machine applies the schedule's
                        # dispatch formula even to a one-member team (unlike
                        # the replay's per-iteration inline team): one
                        # dispatch for static, one per chunk for static,N.
                        if schedule.kind is ScheduleKind.STATIC:
                            n_disp = (owned > 0).astype(np.float64)
                        else:
                            c = schedule.chunk
                            n_disp = ((owned + c - 1) // c).astype(np.float64)
                    work = (K * (sc.unit * beta)).sum(axis=1)
                    finishes = (fork + n_disp * disp) + work
                    end = float(finishes.max())
                    if fork > end:
                        end = fork
                    cycles = end + jb
                self._point_cache[key] = cycles
            total += cycles * sc.repeat
            results.append(
                FFSectionResult(
                    name=sc.name,
                    parallel_cycles=cycles * sc.repeat,
                    serial_cycles=sc.serial,
                )
            )
            if inv.enabled:
                inv.check_speedup(
                    "ff",
                    results[-1].speedup,
                    t,
                    t,
                    nested=False,
                    where=f"ff:{sc.name}",
                )
        return total, results

    # ------------------------------------------------------------- SYN point

    def _team_ok(self, schedule: Schedule, t: int, paradigm: str) -> bool:
        """Shared replay eligibility: an OpenMP static-family team that the
        DES kernel would run without preemption or core migration."""
        return (
            paradigm == "omp"
            and not schedule.is_dynamic_family
            and t <= self.machine.n_cores
            and (t == 1 or self.machine.context_switch_cycles == 0.0)
        )

    def syn_point(
        self, schedule: Schedule, t: int, memory_model: bool, paradigm: str
    ) -> Optional[SpeedupEstimate]:
        """Synthesizer (FAKE replay) estimate, or None for the eager path."""
        m = get_metrics()
        if self._lowering() is None or not self._team_ok(schedule, t, paradigm):
            m.inc("columnar.fallbacks")
            return None
        m.inc("syn.replays")
        m.inc("columnar.hits")
        profile = self.profile
        oh = self.overheads
        burdens = (
            {name: profile.burden_for(name, t) for name in profile.sections}
            if memory_model
            else {}
        )
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        ts = oh.omp_thread_start
        jb = oh.omp_join_barrier
        disp = oh.omp_static_dispatch
        total = 0.0
        net_by_name: dict[str, float] = {}
        for item in self._items:
            if isinstance(item, float):
                total += item
                continue
            sc = item
            beta = burdens.get(sc.name, 1.0)
            key = ("syn", id(sc), schedule.kind, schedule.chunk, t, beta)
            net = self._point_cache.get(key)
            if net is None:
                K, owned, n_disp = self._ownership(sc, schedule, t)
                wc = (K * (sc.unit * beta)).sum(axis=1)
                woh = (K * sc.oh).sum(axis=1)
                totals = (n_disp * disp + wc) + woh
                gross = self._gross(totals, t, fork, ts, jb)
                # Fig. 8 line 26: subtract the longest per-worker traversal.
                net = gross - float(woh.max())
                if net < 0.0:
                    net = 0.0
                self._point_cache[key] = net
            total += net * sc.repeat
            net_by_name[sc.name] = net_by_name.get(sc.name, 0.0) + net * sc.repeat
        speedup = self._serial / total if total > 0 else 1.0
        sections = {
            name: (self._serial_by_name.get(name, 0.0) / net if net else 0.0)
            for name, net in net_by_name.items()
        }
        return SpeedupEstimate(
            method="syn",
            paradigm=paradigm,
            schedule=schedule.label,
            n_threads=t,
            speedup=speedup,
            with_memory_model=memory_model,
            sections=sections,
        )

    # ------------------------------------------------------------ REAL point

    def real_point(
        self, schedule: Schedule, t: int, paradigm: str
    ) -> Optional[SpeedupEstimate]:
        """Ground-truth (REAL replay) estimate, or None for the eager path.

        Demand-free sections collapse to the same closed form as SYN
        (with hardware-derived cycle columns); memory-demanding sections
        run the miniature event walk with batched DRAM solves."""
        m = get_metrics()
        ok = self._lowering() is not None and self._team_ok(schedule, t, paradigm)
        if ok:
            for sc in self._secs:
                if not sc.real_ok:
                    ok = False
                    break
                if sc.total_misses > 0.0 and (
                    schedule.kind is not ScheduleKind.STATIC
                    or not sc.sig_ok
                    or self.machine.n_sockets != 1
                ):
                    ok = False
                    break
        if not ok:
            m.inc("columnar.fallbacks")
            return None
        m.inc("columnar.hits")
        oh = self.overheads
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        ts = oh.omp_thread_start
        jb = oh.omp_join_barrier
        disp = oh.omp_static_dispatch

        # Resolve every uncached missy section first so their walks share
        # one lockstep driver (batched DRAM bisection).
        walks = []
        walk_keys = []
        for sc in self._secs:
            if sc.total_misses <= 0.0:
                continue
            key = ("real", id(sc), schedule.kind, schedule.chunk, t)
            if key in self._point_cache:
                continue
            shares = self._member_shares(sc, schedule, t)
            walks.append(_missy_walk(self.machine, shares, fork, ts, jb, disp, t))
            walk_keys.append(key)
        if walks:
            for key, gross in zip(walk_keys, _drive_walks(walks, self.machine)):
                self._point_cache[key] = gross  # net == gross (no traversal)

        total = 0.0
        for item in self._items:
            if isinstance(item, float):
                total += item
                continue
            sc = item
            key = ("real", id(sc), schedule.kind, schedule.chunk, t)
            net = self._point_cache.get(key)
            if net is None:
                K, owned, n_disp = self._ownership(sc, schedule, t)
                wc = (K * sc.rc).sum(axis=1)
                totals = n_disp * disp + wc
                net = self._gross(totals, t, fork, ts, jb)
                self._point_cache[key] = net
            total += net * sc.repeat
        speedup = self._serial / total if total > 0 else 1.0
        return SpeedupEstimate(
            method="real",
            paradigm=paradigm,
            schedule=schedule.label,
            n_threads=t,
            speedup=speedup,
        )

    def _member_shares(
        self, sc: _SecCols, schedule: Schedule, t: int
    ) -> list[tuple[float, float, float]]:
        """Per-member (work_cycles, work_misses, n_dispatches) for a missy
        section, accumulated run by run in the exact float order of
        ``executor._coalesce_shares`` — the fused segment's (f, d) must be
        bitwise what the eager kernel attaches."""
        K, owned, n_disp = self._ownership(sc, schedule, t)
        shares = []
        for w in range(t):
            wc = wm = 0.0
            row = K[w]
            for r in range(sc.n_runs):
                k = int(row[r])
                if k:
                    wc += k * sc.rc_list[r]
                    wm += k * sc.rm_list[r]
            shares.append((wc, wm, float(n_disp[w])))
        return shares


# ----------------------------------------------------------- missy event walk


def _missy_walk(machine, shares, fork, ts, jb, disp, t):
    """Replay one memory-demanding section as a miniature event walk.

    A generator that yields the running missy multiset ``[(f, d), ...]``
    (tid order) whenever the eager kernel would re-solve DRAM contention,
    receives the solved stall multiplier ``k``, and finally returns the
    section's gross cycles.  Mirrors the kernel's semantics exactly:
    demand-free segments (fork, thread start, dispatch, zero-miss bodies)
    never trigger a solve; a missy attach or completion re-rates every
    running lane via the absolute-form anchor math of
    ``_advance_segment`` / ``_rerate_socket``.
    """
    chains: dict[int, list] = {}
    for tid in range(t):
        wc, wm, n_dispatch = shares[tid]
        dispatch = n_dispatch * disp
        ops: list = []
        if tid > 0 and ts > 0.0:
            ops.append(ts)
        if wm > 0.0:
            # Dispatch is kept out of the missy segment so its
            # mem-fraction matches the certified per-iteration signature.
            if dispatch > 0.0:
                ops.append(dispatch)
            f, d = _lane_fd(machine, wc, wm)
            ops.append(("lane", wc, f, d))
        else:
            tot = dispatch + wc
            if tot > 0.0:
                ops.append(tot)
        chains[tid] = ops

    arrival = [0.0] * t
    #: tid -> [anchor_time, anchor_remaining, slowdown|None, f, d, epoch]
    lanes: dict[int, list] = {}
    heap: list = []

    def attach(tid: int, now: float) -> bool:
        """Advance thread ``tid`` to its next blocking segment; True when
        a missy lane attached (a demand transition)."""
        if chains[tid]:
            op = chains[tid].pop(0)
            if isinstance(op, tuple):
                _, wc, f, d = op
                lanes[tid] = [now, wc, None, f, d, 0]
                return True
            heapq.heappush(heap, (now + op, tid, "cf", 0))
            return False
        arrival[tid] = now
        return False

    def pairs():
        return [(lanes[tid][3], lanes[tid][4]) for tid in sorted(lanes)]

    def rerate(now: float, k: float) -> None:
        for tid in sorted(lanes):
            lane = lanes[tid]
            anchor_t, anchor_rem, s_old, f, d, epoch = lane
            s_new = 1.0 - f + f * k
            if s_old is None:
                # Fresh segment: rate and schedule its completion.
                lane[0] = now
                lane[2] = s_new
                heapq.heappush(heap, (now + anchor_rem * s_new, tid, "lane", epoch))
            elif s_new != s_old:
                # Rate change: advance in absolute form, re-anchor.
                rem = anchor_rem - (now - anchor_t) / s_old
                if rem < 0.0:
                    rem = 0.0
                epoch += 1
                lane[0] = now
                lane[1] = rem
                lane[2] = s_new
                lane[5] = epoch
                heapq.heappush(heap, (now + rem * s_new, tid, "lane", epoch))
            # Unchanged rate: the in-heap completion event stays valid.

    if fork > 0.0:
        heapq.heappush(heap, (fork, 0, "spawn", 0))
    else:
        changed = attach(0, 0.0)
        for w in range(1, t):
            changed = attach(w, 0.0) or changed
        if changed and lanes:
            k = yield pairs()
            rerate(0.0, k)

    while heap:
        now, tid, kind, epoch = heapq.heappop(heap)
        if kind == "lane":
            lane = lanes.get(tid)
            if lane is None or lane[5] != epoch:
                continue  # stale event from a superseded rating
            del lanes[tid]
            arrival[tid] = now  # a lane is always a chain's last segment
            if lanes:
                k = yield pairs()
                rerate(now, k)
            continue
        if kind == "spawn":
            changed = attach(0, now)
            for w in range(1, t):
                changed = attach(w, now) or changed
        else:  # demand-free segment completion
            changed = attach(tid, now)
        if changed and lanes:
            k = yield pairs()
            rerate(now, k)

    if t == 1:
        # An inline team: no barrier, no join barrier.
        return arrival[0]
    return max(arrival) + jb


class _WalkState:
    __slots__ = ("gen", "memo", "result", "hits", "misses")

    def __init__(self, gen) -> None:
        self.gen = gen
        self.memo: OrderedDict = OrderedDict()
        self.result = None
        self.hits = 0
        self.misses = 0


_START = object()


def _drive_walks(walks, machine: MachineConfig) -> list[float]:
    """Run missy walks in lockstep, batching their DRAM solves.

    Each walk keeps its own LRU memo (one eager kernel — hence one DRAM
    pool — per section replay); every round, all walks blocked on an
    unmemoised solve are answered by a single
    :meth:`DramModel.solve_batch` call."""
    dram = DramModel(
        machine,
        peak_bytes_per_sec=machine.dram_peak_bytes_per_sec_per_socket,
    )
    cap = machine.dram_solve_cache
    states = [_WalkState(gen) for gen in walks]

    def advance(st: _WalkState, value):
        """Returns the next solve request, or None when the walk finished."""
        try:
            if value is _START:
                return next(st.gen)
            return st.gen.send(value)
        except StopIteration as stop:
            st.result = stop.value
            return None

    runnable: list[tuple[_WalkState, object]] = [(st, _START) for st in states]
    blocked: list[tuple[_WalkState, Optional[tuple], list]] = []
    while runnable or blocked:
        while runnable:
            st, value = runnable.pop()
            prs = advance(st, value)
            if prs is None:
                continue
            total = sum(d for _, d in prs)
            if total <= 0.0:
                runnable.append((st, 1.0))
                continue
            key = None
            if cap > 0:
                key = tuple(
                    sorted(
                        (_quantize(f), _quantize(d)) for f, d in prs if d > 0.0
                    )
                )
                k = st.memo.get(key)
                if k is not None:
                    st.hits += 1
                    st.memo.move_to_end(key)
                    runnable.append((st, k))
                    continue
            st.misses += 1
            blocked.append((st, key, prs))
        if not blocked:
            break
        width = max(len(prs) for _, _, prs in blocked)
        fr = np.zeros((len(blocked), width))
        dm = np.zeros((len(blocked), width))
        for i, (st, _, prs) in enumerate(blocked):
            for j, (f, d) in enumerate(prs):
                fr[i, j] = f
                dm[i, j] = d
        ks = dram.solve_batch(fr, dm)
        for i, (st, key, _) in enumerate(blocked):
            k = float(ks[i])
            if key is not None:
                st.memo[key] = k
                while len(st.memo) > cap:
                    st.memo.popitem(last=False)
            runnable.append((st, k))
        blocked = []
    m = get_metrics()
    hits = sum(st.hits for st in states)
    misses = sum(st.misses for st in states)
    if hits:
        m.inc("dram.solve.hits", float(hits))
    if misses:
        m.inc("dram.solve.misses", float(misses))
    return [st.result for st in states]


# --------------------------------------------------------------- verification


def verify_points(
    prophet,
    profile,
    threads,
    schedules=("static",),
    methods=("ff", "syn"),
    rel_tol: float = 1e-9,
) -> tuple[int, int, list[str]]:
    """Sampled columnar-vs-eager re-verification (``repro check --quick``).

    Evaluates every (method, schedule, t) grid point — ``methods`` any of
    ``"ff"``, ``"syn"`` and ``"real"`` — through the columnar engine and
    through the *uncached* eager path (fresh emulator / synthesizer /
    REAL-replay executor, section memo cleared), returning ``(checked,
    skipped, mismatches)``.  A point the engine declines counts as skipped
    — the fallback contract makes it eager by construction."""
    from repro.core.executor import (
        ParallelExecutor,
        ReplayMode,
        clear_section_memo,
    )
    from repro.core.ffemu import FastForwardEmulator
    from repro.core.synthesizer import Synthesizer

    engine = ColumnarEngine(profile, prophet.overheads)
    serial = profile.serial_cycles()
    checked = skipped = 0
    mismatches: list[str] = []
    for sched in schedules:
        schedule = sched if isinstance(sched, Schedule) else Schedule.parse(sched)
        for t in threads:
            burdens = {
                name: profile.burden_for(name, t) for name in profile.sections
            } if profile.burdens else {}
            memory_model = bool(profile.burdens)
            for method in methods:
                if method == "ff":
                    col = engine.ff_point(schedule, t, burdens)
                    if col is None:
                        skipped += 1
                        continue
                    predicted, _ = col
                    col_speedup = serial / predicted if predicted > 0 else 1.0
                    ff = FastForwardEmulator(prophet.overheads)
                    eager_time, _ = ff.emulate_profile(
                        profile.tree, t, schedule, burdens
                    )
                    eager_speedup = (
                        serial / eager_time if eager_time > 0 else 1.0
                    )
                elif method == "syn":
                    est = engine.syn_point(schedule, t, memory_model, "omp")
                    if est is None:
                        skipped += 1
                        continue
                    col_speedup = est.speedup
                    clear_section_memo()
                    syn = Synthesizer(
                        schedule=schedule, overheads=prophet.overheads
                    )
                    eager_speedup = syn.predict(
                        profile, t, use_memory_model=memory_model
                    ).estimate.speedup
                else:
                    est = engine.real_point(schedule, t, "omp")
                    if est is None:
                        skipped += 1
                        continue
                    col_speedup = est.speedup
                    clear_section_memo()
                    executor = ParallelExecutor(
                        machine=profile.machine,
                        schedule=schedule,
                        overheads=prophet.overheads,
                    )
                    eager_speedup = executor.execute_profile(
                        profile.tree, t, ReplayMode.REAL
                    ).speedup
                checked += 1
                ref = max(abs(eager_speedup), 1e-30)
                if abs(col_speedup - eager_speedup) / ref > rel_tol:
                    mismatches.append(
                        f"columnar {method}/{schedule.label}/t={t}: "
                        f"{col_speedup!r} vs eager {eager_speedup!r}"
                    )
    return checked, skipped, mismatches
