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
- everything the closed forms cannot express exactly — memory-demanding
  REAL sections, ``static,N`` interleaving with demand, and every
  dynamic/guided section — replays one OpenMP team in ``_team_walk``, a
  lean event walk over per-member op streams (demand-free segments and
  missy lanes).  A member's ops come from a chain built once from the RLE
  runs (the fused lane of a coalesced ``static`` member, or the expanded
  per-chunk dispatch + per-leaf stream of ``OmpRuntime._member_work``) or
  from a shared ``Schedule.chunks`` cursor for the dynamic family.  The
  walks' DRAM solves are *batched*: every walk in flight yields its
  (mem-fraction, demand) multiset, and one
  :meth:`~repro.simhw.dram.DramModel.solve_batch` call bisects all of
  them with a shared convergence loop and per-lane early-exit masks.

The eager paths remain the parity oracles: the FF closed form is checked
against the FF heap walk (``ffemu`` keeps no scalar copy of it), the closed
forms mirror the corresponding eager code paths
(``executor._coalesce_shares`` / ``_coalesced_member_body``,
``openmp.parallel_aggregated``) within 1e-9 relative, and the team walk
reproduces the DES kernel's arithmetic bit for bit (``simos.kernel``'s
absolute-form segment rating, its demand-signature cache and its
``(time, core)`` event order).  Sections the engine cannot represent
exactly — locks, nested sections, pipelines, nowait chains, oversubscribed
teams, mixed demand signatures, several DRAM sockets, FF under a
dynamic-family schedule — make it return ``None`` so callers fall back
per-point to the exact executor.  The ``columnar.hits`` /
``columnar.fallbacks`` counters record each decision, and
``columnar.declines.<reason>`` says why each fallback happened.

Determinism: results are pure functions of (profile, schedule, t) — only
elementwise ops and per-row reductions are used (no BLAS), so a grid
point's value never depends on which other points share its batch.
"""

from __future__ import annotations

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
        "rc_list", "rm_list", "real_ops", "total_misses", "real_ok", "sig_ok",
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
        #: Per-run REAL ops of one iteration for the team walk.
        real_ops: list[tuple] = []
        sigs: set = set()
        total_misses = 0.0
        real_ok = True
        for task in node.children:
            c_f = 0.0
            c_r = m_r = 0.0
            n_leaves = 0
            ops = []
            for leaf in task.children:
                # Leaf-only eligibility is checked by the caller.
                c_f += leaf.length * leaf.repeat
                n_leaves += 1
                cc = (leaf.cpu_cycles + leaf.llc_misses * stall) * leaf.repeat
                mm = leaf.llc_misses * leaf.repeat
                if cc > 0.0:  # executor._leaf_compute × repeat; else instant
                    ops.append(_lane(machine, cc, mm) if mm else float(cc))
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
            real_ops.append(tuple(ops))
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
        self.real_ops = real_ops
        self.total_misses = total_misses
        self.real_ok = real_ok
        self.sig_ok = len(sigs) == 1 and None not in sigs


def _demand_sig(machine: MachineConfig, cycles: float, misses: float):
    """Quantized (mem-fraction, demand) — executor._demand_sig's formulas."""
    f = min(1.0, misses * machine.base_miss_stall / cycles)
    seconds = machine.cycles_to_seconds(cycles)
    d = misses * machine.line_size / seconds if seconds > 0 else 0.0
    return (float(f"{f:.12g}"), float(f"{d:.12g}"))


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
        if self._lowering() is None:
            return _decline("numpy" if np is None else "lowering")
        if schedule.is_dynamic_family:
            return _decline("dynamic")
        get_metrics().inc("columnar.hits")
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

    def _team_reason(self, t: int, paradigm: str) -> Optional[str]:
        """Why a SYN/REAL replay at ``t`` is declined, or None: the engine
        replays an OpenMP team that the DES kernel would run without
        preemption or core migration, so member ``w`` stays on core ``w``."""
        if self._lowering() is None:
            return "numpy" if np is None else "lowering"
        if paradigm != "omp":
            return "paradigm"
        if t > self.machine.n_cores:
            return "oversubscribed"
        if t > 1 and self.machine.context_switch_cycles != 0.0:
            return "context_switch"
        return None

    def syn_point(
        self, schedule: Schedule, t: int, memory_model: bool, paradigm: str
    ) -> Optional[SpeedupEstimate]:
        """Synthesizer (FAKE replay) estimate, or None for the eager path.

        Static-family sections use the closed form; dynamic-family ones
        replay through the team walk, which also tracks each member's
        traversal overhead for the Fig. 8 net."""
        reason = self._team_reason(t, paradigm)
        if reason is not None:
            return _decline(reason)
        m = get_metrics()
        m.inc("syn.replays")
        m.inc("columnar.hits")
        profile = self.profile
        oh = self.overheads
        burdens = (
            {name: profile.burden_for(name, t) for name in profile.sections}
            if memory_model
            else {}
        )
        dynamic = schedule.is_dynamic_family
        if dynamic:
            walks, walk_keys = [], []
            for sc in self._secs:
                beta = burdens.get(sc.name, 1.0)
                key = ("syn", id(sc), schedule.kind, schedule.chunk, t, beta)
                if key not in self._point_cache:
                    walks.append(self._walk(sc, schedule, t, beta))
                    walk_keys.append(key)
            for key, (gross, trav) in zip(
                walk_keys, _drive_walks(walks, self.machine)
            ):
                self._point_cache[key] = max(0.0, gross - trav)
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
            acc = net_by_name.get(sc.name, 0.0)
            if dynamic:
                # The synthesizer adds one replay per activation.
                for _ in range(sc.repeat):
                    acc += net
            else:
                acc += net * sc.repeat
            net_by_name[sc.name] = acc
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

        Demand-free sections under a static-family schedule collapse to the
        same closed form as SYN (with hardware-derived cycle columns);
        memory-demanding sections and every dynamic-family section replay
        through the team walk, whose DRAM solves are batched."""
        reason = self._team_reason(t, paradigm)
        if reason is None:
            for sc in self._secs:
                if sc.total_misses > 0.0:
                    if not sc.sig_ok:
                        reason = "mixed_signature"
                        break
                    if self.machine.n_sockets != 1:
                        reason = "sockets"
                        break
        if reason is not None:
            return _decline(reason)
        get_metrics().inc("columnar.hits")
        oh = self.overheads
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        ts = oh.omp_thread_start
        jb = oh.omp_join_barrier
        disp = oh.omp_static_dispatch
        dynamic = schedule.is_dynamic_family

        # Resolve every uncached walked section first so the walks share
        # one lockstep driver (batched DRAM bisection).
        walks = []
        walk_keys = []
        for sc in self._secs:
            if sc.total_misses <= 0.0 and not dynamic:
                continue
            key = ("real", id(sc), schedule.kind, schedule.chunk, t)
            if key not in self._point_cache:
                walks.append(self._walk(sc, schedule, t, None))
                walk_keys.append(key)
        for key, (gross, _) in zip(walk_keys, _drive_walks(walks, self.machine)):
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

    # ------------------------------------------------------------ team walks

    def _walk(self, sc: _SecCols, schedule: Schedule, t: int, beta):
        """The team walk of ``sc`` at (schedule, t): the REAL replay when
        ``beta`` is None, else the FAKE replay at burden ``beta``.

        Op streams follow the eager lowering: a coalesced plain-``static``
        REAL member is one fused lane (``_coalesced_member_body``); any
        other member runs ``OmpRuntime._member_work``'s expanded stream —
        a dispatch per chunk (per iteration in a one-member team) followed
        by the iterations' leaf ops — from a chain, or from a shared chunk
        cursor under a dynamic-family schedule."""
        oh = self.overheads
        machine = self.machine
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        start = float(fork) if fork > 0.0 else 0.0
        jb = oh.omp_join_barrier
        cap = machine.dram_solve_cache
        prefix = [float(oh.omp_thread_start)] if oh.omp_thread_start > 0.0 else []
        trav = [0.0] * t
        if beta is None and schedule.kind is ScheduleKind.STATIC and sc.real_ok:
            disp = oh.omp_static_dispatch
            chains = []
            for w, (wc, wm, n_dispatch) in enumerate(
                self._member_shares(sc, schedule, t)
            ):
                dispatch = n_dispatch * disp
                ops = list(prefix) if w else []
                if wm > 0.0:
                    # Dispatch is kept out of the missy segment so its
                    # mem-fraction matches the certified signature.
                    if dispatch > 0.0:
                        ops.append(float(dispatch))
                    ops.append(_lane(machine, wc, wm))
                elif dispatch + wc > 0.0:
                    ops.append(float(dispatch + wc))
                chains.append(ops)
            return _team_walk(t, start, jb, chains, trav, cap)

        dynamic = schedule.is_dynamic_family
        disp = float(
            oh.omp_dynamic_dispatch if dynamic else oh.omp_static_dispatch
        )
        head = [disp] if disp > 0.0 else []
        iters: list = []
        iter_trav: list = []
        for r, count in enumerate(sc.counts.tolist()):
            if beta is None:
                ops, oh_run = sc.real_ops[r], 0.0
            else:
                # The synthesizer's FakeDelay: a traversal-overhead segment,
                # then (length*beta)*repeat cycles, per leaf.
                ops = []
                leaves = sc.node.children[r].children
                for leaf in leaves:
                    if OVERHEAD_ACCESS_NODE > 0.0:
                        ops.append(OVERHEAD_ACCESS_NODE)
                    cycles = float((leaf.length * beta) * leaf.repeat)
                    if cycles > 0.0:
                        ops.append(cycles)
                oh_run = OVERHEAD_ACCESS_NODE * len(leaves)
            iters += [ops] * count
            iter_trav += [oh_run] * count

        n = sc.n_iters
        if dynamic and t > 1:
            chunk_ops = []
            chunk_trav = []
            for chunk in schedule.chunks(n, t):
                if len(chunk) == 1:  # share the iteration's ops, no copy
                    chunk_ops.append(iters[chunk[0]])
                    chunk_trav.append(iter_trav[chunk[0]])
                    continue
                ops = []
                tr = 0.0
                for i in chunk:
                    ops += iters[i]
                    tr += iter_trav[i]
                chunk_ops.append(ops)
                chunk_trav.append(tr)
            chains = [[]] + [prefix] * (t - 1)
            return _team_walk(
                t, start, jb, chains, trav, cap, (chunk_ops, chunk_trav, disp)
            )

        if t == 1:
            owned, c = [range(n)], 1  # the inline team dispatches per iteration
        else:
            owned = schedule.static_assignment(n, t)
            c = schedule.chunk if schedule.kind is ScheduleKind.STATIC_CHUNK else n
        chains = []
        for w in range(t):
            ops = list(prefix) if w else []
            for p, i in enumerate(owned[w]):
                if p % c == 0:
                    ops += head
                ops += iters[i]
                trav[w] += iter_trav[i]
            chains.append(ops)
        return _team_walk(t, start, jb, chains, trav, cap)

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


#: Decline reasons, counted as ``columnar.declines.<reason>`` beside
#: ``columnar.fallbacks`` (they sum to it).
DECLINE_REASONS = (
    "numpy",
    "lowering",
    "paradigm",
    "oversubscribed",
    "context_switch",
    "dynamic",
    "mixed_signature",
    "sockets",
)


def _decline(reason: str) -> None:
    """Count one declined grid point and its reason; returns None."""
    m = get_metrics()
    m.inc("columnar.fallbacks")
    m.inc(f"columnar.declines.{reason}")
    return None


def _lane(machine: MachineConfig, cycles: float, misses: float) -> tuple:
    """A missy lane op: ``(cycles, (f, d), memo key)``.  ``(f, d)`` are the
    exact formulas of ``SimKernel._attach_segment`` (zero switch debt); the
    key is quantized once here rather than per DRAM solve."""
    f = min(1.0, misses * machine.base_miss_stall / cycles) if cycles > 0 else 0.0
    seconds = machine.cycles_to_seconds(cycles) if cycles > 0 else 0.0
    d = (misses * machine.line_size / seconds) if seconds > 0 else 0.0
    return (float(cycles), (f, d), (_quantize(f), _quantize(d)))


# ------------------------------------------------------------- the team walk


_NEVER = float("inf")


def _team_walk(t, start, jb, chains, trav, cap, cursor=None):
    """Replay one OpenMP team over per-member op streams.

    A generator that yields the running missy multiset ``[(f, d), ...]``
    in member order when the DES kernel would solve DRAM contention and
    the walk's own LRU memo (``cap`` entries, keyed like the kernel pool's
    by the quantized multiset) misses; it receives the stall multiplier
    ``k`` and finally returns ``(gross cycles, longest per-member
    traversal overhead, memo hits, memo misses)``.

    ``chains[w]`` are member ``w``'s ops: a float is a demand-free segment,
    a tuple a missy lane (``_lane``).  With ``cursor = (chunk_ops,
    chunk_trav, dispatch)`` a member whose ops run out pays ``dispatch``
    and then grabs the next chunk; the grab happens when that dispatch
    completes, and the last, failed grab still pays it.  The team forks at
    ``start``; the barrier releases at the last arrival and the master then
    pays ``jb`` (a one-member team runs inline).

    Mirrors the kernel's arithmetic bit for bit: a segment completes at
    ``now + remaining * s``; demand-free segments (``s == 1``) never
    interact, so a run of them is summed in order without events; a lane
    attach or completion re-checks the running multiset against the
    cached signature and re-solves only when it changed; a continuing lane
    re-anchors in absolute form only when its ``s`` changes.  Each member
    has at most one pending event, and same-time events go by ``(time,
    member)`` — the kernel's ``(time, core)``, since member ``w`` runs on
    core ``w``.
    """
    if cursor is None:
        chunk_ops, chunk_trav, disp = (), (), 0.0
    else:
        chunk_ops, chunk_trav, disp = cursor
    n_chunks = len(chunk_ops)
    nxt = 0
    ops = list(chains)
    pos = [0] * t
    grab = [False] * t
    #: Each member's pending event time (a lane completion, or the end of
    #: a run of demand-free segments).
    times = [_NEVER] * t
    arrival = [0.0] * t
    #: member -> [anchor_time, anchor_remaining, slowdown|None, f, lane op]
    lanes: dict[int, list] = {}
    fresh: list[int] = []
    #: The running multiset, kept as counts: exact (f, d) pairs for the
    #: kernel's signature check, quantized pairs for the memo key.
    exact: dict = {}
    quant: dict = {}
    memo: OrderedDict = OrderedDict()
    hits = misses = 0

    def step(w: int, now: float) -> bool:
        """Advance member ``w`` from ``now`` to its next blocking point;
        True when it attached a missy lane."""
        nonlocal nxt
        while True:
            if grab[w]:
                grab[w] = False
                if nxt == n_chunks:
                    arrival[w] = now
                    return False
                ops[w] = chunk_ops[nxt]
                trav[w] += chunk_trav[nxt]
                nxt += 1
                pos[w] = 0
            o = ops[w]
            p = pos[w]
            n = len(o)
            end = now
            timed = False
            while p < n:
                op = o[p]
                if op.__class__ is float:
                    end += op
                    timed = True
                    p += 1
                elif timed:
                    break  # the lane attaches when the segments end
                else:
                    pos[w] = p + 1
                    fd = op[1]
                    lanes[w] = [now, op[0], None, fd[0], op]
                    exact[fd] = exact.get(fd, 0) + 1
                    quant[op[2]] = quant.get(op[2], 0) + 1
                    fresh.append(w)
                    return True
            pos[w] = p
            if p < n or cursor is not None:
                if p == n:
                    if disp > 0.0:
                        end += disp
                        timed = True
                    grab[w] = True
                if timed:
                    times[w] = end
                    return False
                continue  # a zero-cost dispatch grabs at once
            arrival[w] = end
            return False

    dirty = False
    for w in range(t):
        dirty = step(w, start) or dirty
    now = start
    sig: dict = {}
    k = 1.0
    while True:
        if lanes:
            if dirty:
                dirty = False
                if exact != sig:
                    sig = dict(exact)
                    key = frozenset(quant.items())
                    k = memo.get(key) if cap > 0 else None
                    if k is not None:
                        hits += 1
                        memo.move_to_end(key)
                    else:
                        misses += 1
                        k = yield [lanes[m][4][1] for m in sorted(lanes)]
                        if cap > 0:
                            memo[key] = k
                            if len(memo) > cap:
                                memo.popitem(last=False)
                    for m, lane in lanes.items():
                        f = lane[3]
                        s = 1.0 - f + f * k
                        s_old = lane[2]
                        if s_old is None:
                            lane[0] = now
                            lane[2] = s
                            times[m] = now + lane[1] * s
                        elif s != s_old:
                            # Rate change: advance in absolute form.
                            rem = lane[1] - (now - lane[0]) / s_old
                            if rem < 0.0:
                                rem = 0.0
                            lane[0] = now
                            lane[1] = rem
                            lane[2] = s
                            times[m] = now + rem * s
                    fresh.clear()
            if fresh:
                # Unchanged multiset: rate only the new lanes.
                for m in fresh:
                    lane = lanes[m]
                    f = lane[3]
                    s = 1.0 - f + f * k
                    lane[2] = s
                    times[m] = now + lane[1] * s
                fresh.clear()
        now = min(times)
        if now == _NEVER:
            break
        w = times.index(now)
        times[w] = _NEVER
        lane = lanes.pop(w, None)
        if lane is not None:
            op = lane[4]
            for counts, x in ((exact, op[1]), (quant, op[2])):
                if counts[x] == 1:
                    del counts[x]
                else:
                    counts[x] -= 1
            dirty = True
        dirty = step(w, now) or dirty
    gross = arrival[0] if t == 1 else max(arrival) + jb
    return gross, max(trav), hits, misses


_START = object()


def _drive_walks(walks, machine: MachineConfig) -> list:
    """Run team walks in lockstep, batching their DRAM solves.

    Each walk keeps its own LRU memo (one eager kernel — hence one DRAM
    pool — per section replay); every round, all walks blocked on an
    unmemoised solve are answered by a single
    :meth:`DramModel.solve_batch` call.  Returns each walk's
    ``(gross, traversal)``."""
    dram = DramModel(
        machine,
        peak_bytes_per_sec=machine.dram_peak_bytes_per_sec_per_socket,
    )
    results: list = [None] * len(walks)
    runnable: list = [(i, _START) for i in range(len(walks))]
    while runnable:
        blocked: list = []
        for i, value in runnable:
            gen = walks[i]
            try:
                pairs = next(gen) if value is _START else gen.send(value)
            except StopIteration as stop:
                results[i] = stop.value
                continue
            blocked.append((i, pairs))
        runnable = []
        if not blocked:
            break
        width = max(len(pairs) for _, pairs in blocked)
        fr = np.zeros((len(blocked), width))
        dm = np.zeros((len(blocked), width))
        for row, (_, pairs) in enumerate(blocked):
            for j, (f, d) in enumerate(pairs):
                fr[row, j] = f
                dm[row, j] = d
        ks = dram.solve_batch(fr, dm)
        runnable = [(i, float(ks[row])) for row, (i, _) in enumerate(blocked)]
    hits = sum(r[2] for r in results)
    misses = sum(r[3] for r in results)
    m = get_metrics()
    if hits:
        m.inc("dram.solve.hits", float(hits))
    if misses:
        m.inc("dram.solve.misses", float(misses))
    return [r[:2] for r in results]


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
