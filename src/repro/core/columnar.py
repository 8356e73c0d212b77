"""Columnar sweep engine: the numpy-vectorized grid-point evaluator.

The paper's emulators replay a program one top-level parallel section at a
time (Fig. 8, ``EmulTopLevelParSec``), and each section's result depends
on that section alone.  The eager path nevertheless re-derives every grid
point through scalar Python and the DES kernel's fork/join machinery.
This module lowers a workload's program tree **once**, section by
section, and evaluates grid points against the lowering:

- per-run iteration counts become prefix-sum ``bounds``; static and
  static-chunk ownership is a clipped-interval intersection evaluated for
  all team members at once (``_ownership``);
- per-iteration FAKE/REAL cycle columns broadcast against the ownership
  matrix give every member's share in one reduction;
- the fork / thread-start / barrier / join skeleton of
  ``OmpRuntime.parallel_for`` collapses to a closed form over the member
  totals (``_gross``) for demand-free static-family sections;
- memory-demanding REAL sections and every dynamic/guided section replay
  one OpenMP team in ``_team_walk``, a lean event walk over per-member op
  streams (demand-free segments and missy lanes).  A member's ops are
  ``OmpRuntime._member_work``'s expanded stream — a dispatch per chunk
  (per iteration in a one-member team), then the iterations' leaf ops —
  from a chain built once from the RLE runs, or from a shared
  ``Schedule.chunks`` cursor for the dynamic family.  The walks' DRAM
  solves are *batched*: every walk in flight yields its (mem-fraction,
  demand) multiset, and one :meth:`~repro.simhw.dram.DramModel.solve_batch`
  call bisects all of them with a shared convergence loop and per-lane
  early-exit masks.

FF needs no team walk: a lowered section has no cross-CPU interaction in
the FF's abstract machine, so static-family ownership gives each CPU's
finish in closed form, and a ``dynamic``/``guided`` section is a greedy
walk that hands each ``Schedule.chunks`` chunk to the earliest-free CPU
(``_ff_greedy``).

Sections outside that model — lock-bearing, nested and pipeline sections,
nowait chains, and memory-demanding REAL sections on a multi-socket
machine — are *delegated*: FF runs each of them on the heap walk
(``FastForwardEmulator.emulate_section`` / ``emulate_chain``), and one
:class:`~repro.core.executor.ParallelExecutor` replays each of them for
SYN/REAL (``execute_section`` / ``execute_chain``, through the section
memo) with the point's lock-handoff policy.  The point's totals and
per-section speedups are summed exactly as ``emulate_profile``,
``execute_profile`` and ``Synthesizer.predict`` sum them.  Only
``SimMutex`` consults the handoff policy, so lowered sections cannot
observe it: their cached results serve every explored handoff variant.

The eager paths remain the parity oracles: the FF closed form is checked
against the FF heap walk (``ffemu`` keeps no scalar copy of it) within
1e-9 relative and the greedy walk equals it, the SYN/REAL closed forms
match the expanded kernel replay within 1e-9 relative, and the team walk
reproduces the DES kernel's arithmetic bit for bit (``simos.kernel``'s
absolute-form segment rating, its demand-signature cache and its ``(time,
core)`` event order).  FF never declines.  A SYN/REAL grid point is
declined — the engine returns ``None`` and the caller runs the eager
emulators — only when the paradigm is not OpenMP, the team
oversubscribes the machine or context switches cost cycles.  The
``columnar.hits`` / ``columnar.fallbacks`` counters record each decision,
and ``columnar.declines.<reason>`` says why each fallback happened.

Determinism: results are pure functions of (profile, schedule, t, handoff)
— only elementwise ops and per-row reductions are used (no BLAS), so a
grid point's value never depends on which other points share its batch.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Literal, Optional

import numpy as np

from repro.core.executor import (
    OVERHEAD_ACCESS_NODE,
    ParallelExecutor,
    ReplayMode,
)
from repro.core.ffemu import FastForwardEmulator, FFSectionResult
from repro.core.report import SpeedupEstimate
from repro.core.tree import Node, NodeKind, ProgramTree, group_nowait_chains
from repro.obs import get_metrics
from repro.runtime.overhead import RuntimeOverheads
from repro.runtime.tasks import Schedule, ScheduleKind
from repro.simhw.dram import DRAM_SOLVE_CACHE, DramModel, _quantize
from repro.simhw.machine import MachineConfig
from repro.validate.invariants import get_checker


class _SecCols:
    """One top-level section lowered to flat per-run columns."""

    __slots__ = (
        "node", "name", "repeat", "serial", "n_iters",
        "counts", "bounds", "unit", "oh", "rc", "real_ops", "missy",
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
        #: Per-run REAL ops of one iteration for the team walk.
        real_ops: list[tuple] = []
        missy = False
        for task in node.children:
            c_f = c_r = 0.0
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
                    c_r += cc
                    missy = missy or bool(mm)
            real_ops.append(tuple(ops))
            counts.append(task.repeat)
            unit.append(c_f)
            oh.append(OVERHEAD_ACCESS_NODE * n_leaves)
            rc.append(c_r)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.bounds = np.concatenate(
            ([0], np.cumsum(self.counts))
        ).astype(np.int64)
        self.n_iters = int(self.bounds[-1])
        self.unit = np.asarray(unit, dtype=np.float64)
        self.oh = np.asarray(oh, dtype=np.float64)
        self.rc = np.asarray(rc, dtype=np.float64)
        self.real_ops = real_ops
        #: Whether a timed compute demands memory (REAL replays walk it).
        self.missy = missy


def _lowerable(item: Node) -> bool:
    """A plain leaf-only section: SEC -> TASK -> U, no pipeline."""
    return (
        item.kind is NodeKind.SEC
        and not item.pipeline
        and all(
            task.kind is NodeKind.TASK
            and all(leaf.kind is NodeKind.U for leaf in task.children)
            for task in item.children
        )
    )


class ColumnarEngine:
    """Section-by-section evaluator for one profile's sweep grid points.

    Construct once per (profile, overheads) and consult per grid point:
    :meth:`ff_point` always returns a result; :meth:`syn_point` and
    :meth:`real_point` return one or ``None`` (meaning: use the eager
    path).  The program is
    lowered once, at construction; the per-(schedule, t) ownership matrices
    and every section's per-point result are cached on the engine, so a
    whole sweep column shares one tree walk and a section replays once
    across handoff variants.  Serve worker threads may share an engine:
    its caches only gain entries, and a point two threads race on is
    computed twice to the same value.
    """

    def __init__(self, profile, overheads: RuntimeOverheads) -> None:
        self.profile = profile
        self.machine: MachineConfig = profile.machine
        self.overheads = overheads
        #: Program in tree order: floats (serial U cycles), _SecCols, and
        #: delegated items (a section Node or a nowait chain list).
        self._items: list = []
        self._secs: list[_SecCols] = []
        #: Serial cycles of each delegated item, by id (FF result records).
        self._serial_of: dict[int, float] = {}
        tree: ProgramTree = profile.tree
        for item in group_nowait_chains(tree.root.children):
            if isinstance(item, Node) and item.kind is NodeKind.U:
                self._items.append(item.length * item.repeat)
            elif isinstance(item, Node) and _lowerable(item):
                sc = _SecCols(item, self.machine)
                self._items.append(sc)
                self._secs.append(sc)
            else:
                # Locks, nesting, pipelines, nowait chains: exact replay.
                self._items.append(item)
                self._serial_of[id(item)] = (
                    sum(sec.subtree_length() for sec in item)
                    if isinstance(item, list)
                    else item.subtree_length()
                )
        self._serial = tree.serial_cycles()
        self._serial_by_name: dict[str, float] = {}
        for sec in tree.top_level_sections():
            self._serial_by_name[sec.name] = (
                self._serial_by_name.get(sec.name, 0.0) + sec.subtree_length()
            )
        self._own_cache: dict[tuple, tuple] = {}
        self._point_cache: dict[tuple, object] = {}

    def cache_info(self) -> dict[str, int]:
        """Sizes of this engine's per-point caches (serve-layer stats)."""
        return {
            "ownership": len(self._own_cache),
            "points": len(self._point_cache),
        }

    # ------------------------------------------------------------- lowering

    def _ownership(self, sc: _SecCols, schedule: Schedule, t: int):
        """(K, owned, n_disp): iteration-ownership matrix of shape (t, runs),
        per-member owned-iteration counts, and per-member dispatch counts.
        Mirrors ``Schedule.static_assignment`` and the dispatch rules of
        ``OmpRuntime._member_work``; cached per (section, schedule, t)."""
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
        """Closed form of ``parallel_for`` over member totals: the master
        starts its share at ``fork``, worker ``w`` at ``fork +
        thread_start``; the barrier releases at the latest arrival and the
        master then pays the join barrier.  A one-member team runs inline
        (no barrier, no join)."""
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
    ) -> tuple[float, list[FFSectionResult]]:
        """Whole-program FF prediction, assembled item by item as
        ``FastForwardEmulator.emulate_profile`` assembles it (per-section
        repeat scaling, result records, invariant checks); never declines.

        The heap walk has no cross-walker interaction inside a lowered
        section.  Under a static-family schedule each CPU finishes at
        ``fork + (#dispatches)·dispatch + owned work``, evaluated per
        compressed run; under ``dynamic``/``guided`` the chunks go to the
        earliest-free CPU (``_ff_greedy``).  Delegated items run on the
        heap walk itself.  Every item's cycles are cached per (item,
        schedule, t, β)."""
        get_metrics().inc("columnar.hits")
        inv = get_checker()
        total = 0.0
        results: list[FFSectionResult] = []
        for item in self._items:
            if isinstance(item, float):
                total += item
                continue
            if isinstance(item, _SecCols):
                name = item.name
                cycles = self._ff_section(
                    item, schedule, t, burdens.get(name, 1.0)
                )
                serial = item.serial
            else:
                # FF ignores the lock-handoff policy; fifo keys its cache.
                name, cycles = self._delegate(
                    item, schedule, t, _FF, burdens, "fifo", 0
                )
                serial = self._serial_of[id(item)]
            if not isinstance(item, list):
                cycles *= item.repeat
            total += cycles
            results.append(
                FFSectionResult(
                    name=name, parallel_cycles=cycles, serial_cycles=serial
                )
            )
            if inv.enabled:
                inv.check_speedup(
                    "ff",
                    results[-1].speedup,
                    t,
                    t,
                    nested=False,
                    where=f"ff:{name}",
                )
        return total, results

    def ff_exact(self, schedule: Schedule) -> bool:
        """Whether FF points under ``schedule`` are ``==`` the heap walk:
        no static-family closed form answers one of their sections."""
        return schedule.is_dynamic_family or not self._secs

    def _ff_section(
        self, sc: _SecCols, schedule: Schedule, t: int, beta: float
    ) -> float:
        """FF cycles of one activation of a lowered section, cached."""
        key = ("ff", id(sc), schedule.kind, schedule.chunk, t, beta)
        cycles = self._point_cache.get(key)
        if cycles is not None:
            return cycles
        oh = self.overheads
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        if schedule.is_dynamic_family:
            iters: list = []
            for task, count in zip(sc.node.children, sc.counts.tolist()):
                # The heap walk's per-leaf step: (length*β)*repeat.
                iters += [[(u.length * beta) * u.repeat for u in task.children]] * count
            chunks = [
                [x for i in chunk for x in iters[i]]
                for chunk in schedule.chunks(sc.n_iters, t)
            ]
            end = _ff_greedy(t, fork, oh.omp_dynamic_dispatch, chunks)
        elif sc.n_iters == 0:
            end = fork
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
            finishes = (fork + n_disp * oh.omp_static_dispatch) + work
            end = float(finishes.max())
            if fork > end:
                end = fork
        cycles = end + oh.omp_join_barrier
        self._point_cache[key] = cycles
        return cycles

    # ------------------------------------------------------- SYN/REAL points

    def _team_reason(self, t: int, paradigm: str) -> Optional[str]:
        """Why a SYN/REAL replay at ``t`` is declined, or None: the engine
        replays an OpenMP team that the DES kernel would run without
        preemption or core migration, so member ``w`` stays on core ``w``."""
        if paradigm != "omp":
            return "paradigm"
        if t > self.machine.n_cores:
            return "oversubscribed"
        if t > 1 and self.machine.context_switch_cycles != 0.0:
            return "context_switch"
        return None

    def _delegate(
        self,
        item,
        schedule: Schedule,
        t: int,
        mode: ReplayMode | Literal["ff"],
        burdens: dict,
        handoff: str,
        handoff_seed: int,
    ) -> tuple[str, float]:
        """``(name, net cycles)`` of one delegated section or nowait chain,
        cached on the engine per point.  ``mode`` ``_FF`` runs it on the FF
        heap walk as ``emulate_profile`` does; a :class:`ReplayMode`
        replays it exactly as ``ParallelExecutor.execute_profile`` does
        (section memo included)."""
        chain = isinstance(item, list)
        if chain:
            beta = tuple(burdens.get(sec.name, 1.0) for sec in item)
        else:
            beta = burdens.get(item.name, 1.0)
        key = (mode, id(item), schedule.kind, schedule.chunk, t, beta,
               handoff, handoff_seed)
        cached = self._point_cache.get(key)
        if cached is not None:
            return cached
        if mode is _FF:
            # One emulator per walk: its nodes_visited is scratch state,
            # and serve worker threads share this engine.
            ff = FastForwardEmulator(self.overheads)
            if chain:
                name = "+".join(sec.name for sec in item)
                cycles = ff.emulate_chain(item, t, schedule, burdens)
            else:
                name = item.name
                cycles = ff.emulate_section(item, t, schedule, beta)
            get_metrics().inc("ff.nodes_visited", ff.nodes_visited)
            result = (name, cycles)
        else:
            executor = ParallelExecutor(
                machine=self.machine,
                schedule=schedule,
                overheads=self.overheads,
                handoff=handoff,
                handoff_seed=handoff_seed,
            )
            if chain:
                run = executor.execute_chain(item, t, mode, burdens)
            else:
                run = executor.execute_section(item, t, mode, burden=beta)
            result = (run.name, run.net_cycles)
        self._point_cache[key] = result
        return result

    def syn_point(
        self,
        schedule: Schedule,
        t: int,
        memory_model: bool,
        paradigm: str,
        handoff: str = "fifo",
        handoff_seed: int = 0,
    ) -> Optional[SpeedupEstimate]:
        """Synthesizer (FAKE replay) estimate, or None for the eager path.

        Static-family sections use the closed form; dynamic-family ones
        replay through the team walk, which also tracks each member's
        traversal overhead for the Fig. 8 net.  Delegated sections replay
        through the executor under ``handoff``."""
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
        if schedule.is_dynamic_family:
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
            if not isinstance(item, _SecCols):
                name, net = self._delegate(
                    item, schedule, t, ReplayMode.FAKE, burdens,
                    handoff, handoff_seed,
                )
                repeat = 1 if isinstance(item, list) else item.repeat
            else:
                sc = item
                name, repeat = sc.name, sc.repeat
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
            total += net * repeat
            # The synthesizer adds one replay per activation.
            acc = net_by_name.get(name, 0.0)
            for _ in range(repeat):
                acc += net
            net_by_name[name] = acc
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

    def real_point(
        self,
        schedule: Schedule,
        t: int,
        paradigm: str,
        handoff: str = "fifo",
        handoff_seed: int = 0,
    ) -> Optional[SpeedupEstimate]:
        """Ground-truth (REAL replay) estimate, or None for the eager path.

        Demand-free sections under a static-family schedule collapse to the
        same closed form as SYN (with hardware-derived cycle columns);
        memory-demanding sections and every dynamic-family section replay
        through the team walk, whose DRAM solves are batched.  Delegated
        sections — and memory-demanding ones on a multi-socket machine,
        whose DRAM pools the walk does not model — replay through the
        executor under ``handoff``."""
        reason = self._team_reason(t, paradigm)
        if reason is not None:
            return _decline(reason)
        get_metrics().inc("columnar.hits")
        oh = self.overheads
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        ts = oh.omp_thread_start
        jb = oh.omp_join_barrier
        disp = oh.omp_static_dispatch
        dynamic = schedule.is_dynamic_family
        multi_socket = self.machine.n_sockets != 1

        # Resolve every uncached walked section first so the walks share
        # one lockstep driver (batched DRAM bisection).
        walks = []
        walk_keys = []
        for sc in self._secs:
            if (sc.missy and multi_socket) or not (sc.missy or dynamic):
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
            if not isinstance(item, _SecCols) or (item.missy and multi_socket):
                node = item.node if isinstance(item, _SecCols) else item
                _, net = self._delegate(
                    node, schedule, t, ReplayMode.REAL, {}, handoff, handoff_seed
                )
                total += net if isinstance(node, list) else net * node.repeat
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

        Op streams follow ``OmpRuntime._member_work``'s expanded lowering:
        a dispatch per chunk (per iteration in a one-member team) followed
        by the iterations' leaf ops, from a chain, or from a shared chunk
        cursor under a dynamic-family schedule."""
        oh = self.overheads
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        start = float(fork) if fork > 0.0 else 0.0
        jb = oh.omp_join_barrier
        prefix = [float(oh.omp_thread_start)] if oh.omp_thread_start > 0.0 else []
        trav = [0.0] * t
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
                t, start, jb, chains, trav, (chunk_ops, chunk_trav, disp)
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
        return _team_walk(t, start, jb, chains, trav)


#: ``_delegate``'s mode for the FF heap walk (beside the ReplayModes).
_FF: Literal["ff"] = "ff"

#: Decline reasons, counted as ``columnar.declines.<reason>`` beside
#: ``columnar.fallbacks`` (they sum to it).
DECLINE_REASONS = ("paradigm", "oversubscribed", "context_switch")


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


def _ff_greedy(t: int, start: float, disp: float, chunks) -> float:
    """The FF heap walk of a lowered section under a dynamic-family
    schedule: ``t`` CPUs free at ``start``; each chunk (its leaf steps, in
    order) goes to the earliest-free CPU, which pays ``disp`` and then the
    steps.  Returns the latest finish (``start`` at least).  The heap walk
    pops chunk finishes in time order and its CPUs are interchangeable, so
    ties cannot change the result."""
    free = [start] * t
    end = start
    for steps in chunks:
        c = free[0] + disp
        for x in steps:
            c += x
        heapq.heapreplace(free, c)
        if c > end:
            end = c
    return end


# ------------------------------------------------------------- the team walk


_NEVER = float("inf")


def _team_walk(t, start, jb, chains, trav, cursor=None):
    """Replay one OpenMP team over per-member op streams.

    A generator that yields the running missy multiset ``[(f, d), ...]``
    in member order when the DES kernel would solve DRAM contention and
    the walk's own LRU memo (``DRAM_SOLVE_CACHE`` entries, keyed like the
    kernel pool's by the quantized multiset) misses; it receives the stall multiplier
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
                    k = memo.get(key)
                    if k is not None:
                        hits += 1
                        memo.move_to_end(key)
                    else:
                        misses += 1
                        k = yield [lanes[m][4][1] for m in sorted(lanes)]
                        memo[key] = k
                        if len(memo) > DRAM_SOLVE_CACHE:
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
    skipped, mismatches)``.  Points agree within ``rel_tol``, and FF points
    that ``ColumnarEngine.ff_exact`` names must be ``==``.  A point the
    engine declines counts as skipped — the fallback contract makes it
    eager by construction."""
    from repro.core.executor import clear_section_memo
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
                exact = False
                if method == "ff":
                    predicted, _ = engine.ff_point(schedule, t, burdens)
                    exact = engine.ff_exact(schedule)
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
                if (
                    col_speedup != eager_speedup
                    if exact
                    else abs(col_speedup - eager_speedup) / ref > rel_tol
                ):
                    mismatches.append(
                        f"columnar {method}/{schedule.label}/t={t}: "
                        f"{col_speedup!r} vs eager {eager_speedup!r}"
                    )
    return checked, skipped, mismatches
