"""Columnar sweep engine: the section-by-section grid-point evaluator.

The paper's emulators replay a program one top-level parallel section at a
time (Fig. 8, ``EmulTopLevelParSec``), and each section's result depends
on that section alone.  The eager path nevertheless re-derives every grid
point through the FF heap walk, the DES kernel's fork/join machinery and a
fresh tree traversal.  This module lowers a workload's program tree
**once**, section by section, and evaluates grid points against the
lowering.  A lowered section (flat: tasks of ``U`` and ``L`` leaves, no
nesting, no pipeline) has exactly one evaluator per method:

- FF walks the heap walk's per-CPU arithmetic without the heap when the
  section is lock-free: it then has no cross-CPU interaction in the FF's
  abstract machine, so under a static-family schedule each CPU runs its
  ``Schedule.static_chunks`` in order (``_ff_static``), and
  under ``dynamic``/``guided`` each ``Schedule.chunks`` chunk goes to the
  earliest-free CPU (``_ff_greedy``).  Both add the dispatch and then each
  leaf's ``(length*β)*repeat`` step in the heap walk's order.  FF of a
  lock-bearing section stays on the heap walk.
- SYN and REAL replay one OpenMP team in ``_team_walk``, a lean event walk
  over per-member op streams (demand-free segments, missy lanes, lock
  acquires and releases).  A member's ops are ``OmpRuntime._member_work``'s
  expanded stream — a dispatch per chunk (per iteration in a one-member
  team), then the iterations' leaf ops, an ``L`` leaf expanded as
  ``ParallelExecutor._task_body`` lowers it — from a chain built from the
  RLE runs, or from a shared ``Schedule.chunks`` cursor for the dynamic
  family.  Locks follow the kernel's direct handoff under the point's
  ``fifo``, ``lifo`` or ``random`` policy; a woken member moves to the
  lowest idle core, as the kernel dispatches it.  Each walk keeps its own
  DRAM-solve memo, as the executor runs one kernel (hence one DRAM pool)
  per section replay, and on a miss runs the pools' scalar bisection,
  :meth:`~repro.simhw.dram.DramModel.solve`.

Sections outside that model are *delegated*: nested and pipeline
sections, nowait chains, lock-bearing sections under the ``adversarial``
handoff (it ranks waiters by progress only the kernel tracks), and
memory-demanding REAL sections on a multi-socket machine — and, for
SYN/REAL, every section of a point whose team the walk does not model (a
Cilk or ``omp_task`` paradigm, ``t > n_cores``, or a context-switch cost
with ``t > 1``).  FF runs each of them, and every lock-bearing section,
on the heap walk (``FastForwardEmulator.emulate_section`` /
``emulate_chain``), and one :class:`~repro.core.executor.ParallelExecutor`
replays each of them for SYN/REAL (``execute_section`` /
``execute_chain``, through the section memo) under the point's paradigm,
schedule and lock-handoff policy; the task-pool paradigms replay a nowait
chain's sections one at a time, as the executor does.  The point's totals
and per-section speedups are summed exactly as ``emulate_profile``,
``execute_profile`` and ``Synthesizer.predict`` sum them.

Every result is cached on the engine under a key of the inputs its
evaluation reads.  Only ``SimMutex`` consults the handoff policy, so the
policy and its seed key only an item whose subtree holds an ``L`` node
(a walked one keys the seed only under ``random``): lock-free sections
serve every explored handoff variant from one evaluation.  The schedule
keys the FF walks, the team walks and an OpenMP worksharing replay
(paradigm ``omp``, a non-pipeline section or a nowait chain); the task
pools (``CilkPool``, ``OmpTaskPool``) and ``replay_pipeline_section``
never read it, so such a replay serves every schedule of its (paradigm,
t, burden) column.  ``replay_pipeline_section`` reads no paradigm either,
so a pipeline section's replay serves every paradigm of its (t, burden)
column.  Both flags are computed once per item when the profile is
lowered.

The engine serves every grid point, and the eager paths remain the parity
oracles: every served point is ``==`` its oracle.  The FF walks add the
heap walk's terms in its order, and the team walk reproduces the DES
kernel's arithmetic bit for bit (``simos.kernel``'s absolute-form segment
rating, its demand-signature cache, its ``(time, core)`` event order, and
``simos.sync``'s handoff policies).  ``columnar.hits`` counts the served
points.

Determinism: results are pure functions of (profile, paradigm, schedule,
t, handoff);
a grid point's value never depends on which other points share its batch.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import OrderedDict, deque
from typing import Literal

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
from repro.runtime.tasks import Schedule
from repro.simhw.dram import (
    DRAM_SOLVE_CACHE,
    DramModel,
    SegmentDemand,
    _quantize,
)
from repro.simhw.machine import MachineConfig
from repro.simos import normalize_handoff
from repro.validate.invariants import get_checker


class _SecCols:
    """One top-level section lowered to per-run iteration counts and ops."""

    __slots__ = (
        "node", "name", "repeat", "n_iters", "counts", "real_ops", "missy",
        "lock_ids",
    )

    def __init__(
        self, node: Node, machine: MachineConfig, overheads: RuntimeOverheads
    ) -> None:
        self.node = node
        self.name = node.name
        self.repeat = node.repeat
        stall = machine.base_miss_stall
        #: Dense index of each lock id, in order of first use (the walk's
        #: acquire and release ops carry it).
        lock_ids: dict[int, int] = {}
        #: Per-run REAL ops of one iteration for the team walk.
        real_ops: list[tuple] = []
        missy = False
        for task in node.children:
            ops: list = []
            for leaf in task.children:
                # Leaf-only eligibility is checked by the caller.
                locked = leaf.kind is NodeKind.L
                # executor._leaf_compute, times the repeat for a U leaf.
                reps = 1 if locked else leaf.repeat
                cc = (leaf.cpu_cycles + leaf.llc_misses * stall) * reps
                mm = leaf.llc_misses * reps
                body = None
                if cc > 0.0:  # else instant
                    body = _lane(machine, cc, mm) if mm else float(cc)
                    missy = missy or bool(mm)
                if locked:
                    ix = lock_ids.setdefault(leaf.lock_id, len(lock_ids))
                    ops += _critical(overheads, ix, body) * leaf.repeat
                elif body is not None:
                    ops.append(body)
            real_ops.append(tuple(ops))
        #: Iterations per run (the runs' TASK repeats).
        self.counts = [task.repeat for task in node.children]
        self.n_iters = sum(self.counts)
        self.real_ops = real_ops
        #: Whether a timed compute demands memory (REAL replays walk it).
        self.missy = missy
        self.lock_ids = lock_ids


def _locked(item: Node) -> bool:
    """Whether ``item``'s subtree holds an ``L`` node: only then can a
    replay of it consult the lock-handoff policy."""
    return any(node.kind is NodeKind.L for node in item.walk())


def _lowerable(item: Node) -> bool:
    """A flat leaf-only section: SEC -> TASK -> U or L leaves, no nesting,
    no pipeline.  Its SYN/REAL replay under an OpenMP team is a team walk
    (locks included, except under the ``adversarial`` handoff); FF walks
    only a lock-free one and runs a lock-bearing one on the heap walk."""
    return (
        item.kind is NodeKind.SEC
        and not item.pipeline
        and all(
            task.kind is NodeKind.TASK
            and all(leaf.is_leaf for leaf in task.children)
            for task in item.children
        )
    )


class ColumnarEngine:
    """Section-by-section evaluator for one profile's sweep grid points.

    Construct once per (profile, overheads) and consult per grid point
    through :meth:`ff_point`, :meth:`syn_point` and :meth:`real_point`,
    which serve every point.  The program is lowered once, at
    construction; every section's per-point result is cached on the
    engine under the inputs it reads, so a whole sweep column shares one
    lowering, a lock-free section replays once across handoff variants,
    a task-pool or pipeline section once across schedules, and a pipeline
    section once across paradigms.  Serve
    worker threads may share an engine: its cache only gains entries, and
    a point two threads race on is computed twice to the same value.
    """

    def __init__(self, profile, overheads: RuntimeOverheads) -> None:
        self.profile = profile
        self.machine: MachineConfig = profile.machine
        self.overheads = overheads
        #: Program in tree order: floats (serial U cycles), _SecCols, and
        #: delegated items (a section Node or a nowait chain list).
        self._items: list = []
        self._secs: list[_SecCols] = []
        #: Serial cycles of each section item, by id (FF result records).
        self._serial_of: dict[int, float] = {}
        #: What each delegated item's replay reads, by id (a nowait
        #: chain's sections too): ``(pipeline, locked)`` flags, see
        #: :meth:`_delegate`.
        self._reads: dict[int, tuple[bool, bool]] = {}
        #: The team walks' DRAM solver: one socket's pool, as a walked
        #: section's replay kernel solves it (stateless; walks keep their
        #: own memos).
        self._dram = DramModel(
            self.machine,
            peak_bytes_per_sec=self.machine.dram_peak_bytes_per_sec_per_socket,
        )
        tree: ProgramTree = profile.tree
        # One tree walk per top-level node; the sums below add these
        # lengths in the order ``serial_cycles`` and the emulators do.
        top = tree.root.children
        length = {id(node): node.subtree_length() for node in top}
        #: One lowering per section node: compression shares the node of
        #: identical sections, so their walks share cache entries too.
        lowered: dict[int, _SecCols] = {}
        for item in group_nowait_chains(top):
            if isinstance(item, list):  # a nowait chain: delegated
                serial = sum(length[id(sec)] for sec in item)
                for sec in item:  # task pools replay them one at a time
                    self._reads[id(sec)] = (sec.pipeline, _locked(sec))
                self._reads[id(item)] = (
                    False, any(self._reads[id(sec)][1] for sec in item)
                )
            elif item.kind is NodeKind.U:
                self._items.append(item.length * item.repeat)
                continue
            else:
                serial = length[id(item)]
                # A lowered section is delegated when its point's team is
                # not walked.
                self._reads[id(item)] = (item.pipeline, _locked(item))
                if id(item) in lowered:
                    item = lowered[id(item)]
                elif _lowerable(item):
                    item = lowered[id(item)] = _SecCols(
                        item, self.machine, overheads
                    )
                    self._secs.append(item)
                # else nesting or a pipeline: delegated
            self._serial_of[id(item)] = serial
            self._items.append(item)
        self._serial = sum(length[id(node)] for node in top)
        self._serial_by_name: dict[str, float] = {}
        for sec in tree.top_level_sections():
            self._serial_by_name[sec.name] = (
                self._serial_by_name.get(sec.name, 0.0) + length[id(sec)]
            )
        self._point_cache: dict[tuple, object] = {}

    def cache_info(self) -> dict[str, int]:
        """Size of this engine's per-point cache (serve-layer stats)."""
        return {"points": len(self._point_cache)}

    # -------------------------------------------------------------- FF point

    def ff_point(
        self, schedule: Schedule, t: int, burdens: dict
    ) -> tuple[float, list[FFSectionResult]]:
        """Whole-program FF prediction, assembled item by item as
        ``FastForwardEmulator.emulate_profile`` assembles it (per-section
        repeat scaling, result records, invariant checks); never declines.

        Lock-free lowered sections take the heap-free walks of
        ``_ff_section``; lock-bearing and delegated items run on the heap
        walk itself.  Every item's cycles
        are cached per (item, schedule, t, β)."""
        get_metrics().inc("columnar.hits")
        inv = get_checker()
        total = 0.0
        results: list[FFSectionResult] = []
        for item in self._items:
            if isinstance(item, float):
                total += item
                continue
            if isinstance(item, _SecCols) and not item.lock_ids:
                name = item.name
                cycles = self._ff_section(
                    item, schedule, t, burdens.get(name, 1.0)
                )
            else:
                # FF ignores the paradigm and the lock-handoff policy;
                # omp and fifo key its cache.
                name, cycles = self._delegate(
                    item.node if isinstance(item, _SecCols) else item,
                    schedule, t, _FF, "omp", burdens, "fifo", 0,
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

    def _ff_section(
        self, sc: _SecCols, schedule: Schedule, t: int, beta: float
    ) -> float:
        """FF cycles of one activation of a lowered section, cached: the
        heap walk's arithmetic (``_Engine.run``) without the heap."""
        key = ("ff", id(sc), schedule.kind, schedule.chunk, t, beta)
        cycles = self._point_cache.get(key)
        if cycles is not None:
            return cycles
        oh = self.overheads
        fork = oh.fork_cost(t)
        disp = oh.dispatch_cost(schedule)
        iters: list = []
        for task, count in zip(sc.node.children, sc.counts):
            # The heap walk's per-leaf step: (length*β)*repeat.
            iters += [[(u.length * beta) * u.repeat for u in task.children]] * count
        n = sc.n_iters
        if schedule.is_dynamic_family:
            chunks = [range(c[0], c[-1] + 1) for c in schedule.chunks(n, t)]
            end = _ff_greedy(t, fork, disp, chunks, iters)
        else:
            end = _ff_static(fork, disp, schedule.static_chunks(n, t), iters)
        cycles = end + oh.omp_join_barrier
        self._point_cache[key] = cycles
        return cycles

    # ------------------------------------------------------- SYN/REAL points

    def _delegate(
        self,
        item,
        schedule: Schedule,
        t: int,
        mode: ReplayMode | Literal["ff"],
        paradigm: str,
        burdens: dict,
        handoff: str,
        handoff_seed: int,
    ) -> tuple[str, float]:
        """``(name, net cycles)`` of one delegated section or nowait chain,
        cached on the engine per point.  ``mode`` ``_FF`` runs it on the FF
        heap walk as ``emulate_profile`` does; a :class:`ReplayMode`
        replays it under ``paradigm`` exactly as
        ``ParallelExecutor.execute_profile`` does (section memo included).

        The cache key holds only the inputs the evaluation reads.  The
        schedule is read by the FF walk and by an OpenMP worksharing
        replay (paradigm ``omp``, a non-pipeline section or a nowait
        chain); the task pools and ``replay_pipeline_section`` never read
        it, so one replay serves every schedule of the point's column.
        ``replay_pipeline_section`` reads no paradigm either, so a pipeline
        section keys none.  The handoff policy and seed are read only by
        ``SimMutex``, so they key an item only when its subtree holds an
        ``L`` node.  Both flags were computed when the profile was
        lowered."""
        chain = isinstance(item, list)
        if chain:
            beta = tuple(burdens.get(sec.name, 1.0) for sec in item)
        else:
            beta = burdens.get(item.name, 1.0)
        iid = id(item)
        pipeline, locked = self._reads[iid]
        if mode is _FF or (paradigm == "omp" and not pipeline):
            kind, chunk = schedule.kind, schedule.chunk
        else:
            kind = chunk = None
        reader = None if pipeline else paradigm
        if locked:
            key = (mode, reader, iid, kind, chunk, t, beta, handoff,
                   handoff_seed)
        else:
            key = (mode, reader, iid, kind, chunk, t, beta)
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
                paradigm=paradigm,
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

    def _replay(
        self,
        mode: ReplayMode,
        schedule: Schedule,
        t: int,
        paradigm: str,
        burdens: dict,
        handoff: str,
        handoff_seed: int,
    ) -> tuple[float, list[tuple[str, float, int]]]:
        """One SYN (``FAKE``) or REAL point, assembled item by item as
        ``ParallelExecutor.execute_profile`` assembles it: ``(total cycles,
        [(name, net cycles, activations)] per section replay)``.

        A lowered section takes the team walk when the walk models its
        replay: an OpenMP team the DES kernel runs one member per core,
        with no preemption and no switch cost, and — for REAL — one DRAM
        pool or no memory demand; a lock-bearing one also needs a handoff
        other than ``adversarial``.  Its ``(gross, traversal)`` is cached
        per (section, schedule, t, β), plus the handoff (and a ``random``
        one's seed) for a lock-bearing section.  Every other section is
        delegated to the executor under the point's paradigm, schedule
        and ``handoff``; the task-pool paradigms replay a nowait chain's
        sections one at a time, as the executor groups them."""
        machine = self.machine
        omp = paradigm == "omp"
        team = omp and t <= machine.n_cores and (
            t == 1 or machine.context_switch_cycles == 0.0
        )
        fake = mode is ReplayMode.FAKE
        one_pool = machine.n_sockets == 1
        # The walk's policy for lock-bearing sections; ``adversarial``
        # ranks waiters by progress, which only the kernel tracks.
        policy = handoff if handoff == "fifo" else normalize_handoff(handoff)
        walk_locks = policy != "adversarial"
        cache = self._point_cache
        total = 0.0
        runs: list[tuple[str, float, int]] = []
        for item in self._items:
            if isinstance(item, float):
                total += item
                continue
            if (
                team
                and isinstance(item, _SecCols)
                and (fake or one_pool or not item.missy)
                and (walk_locks or not item.lock_ids)
            ):
                beta = burdens.get(item.name, 1.0) if fake else None
                if not item.lock_ids:
                    key = (mode, id(item), schedule.kind, schedule.chunk, t, beta)
                    locking = None
                elif policy == "random":
                    key = (mode, id(item), schedule.kind, schedule.chunk, t,
                           beta, policy, handoff_seed)
                    locking = (len(item.lock_ids), policy, handoff_seed)
                else:
                    key = (mode, id(item), schedule.kind, schedule.chunk, t,
                           beta, policy)
                    locking = (len(item.lock_ids), policy, 0)
                walked = cache.get(key)
                if walked is None:
                    walked = self._walk(item, schedule, t, beta, locking)
                    cache[key] = walked
                gross, trav = walked
                # Fig. 8 line 26: subtract the longest per-member traversal
                # (zero in a REAL walk, so its net is its gross).
                name, net, repeat = item.name, max(0.0, gross - trav), item.repeat
                total += net * repeat
                runs.append((name, net, repeat))
                continue
            node = item.node if isinstance(item, _SecCols) else item
            chain = isinstance(node, list)
            for sec in node if chain and not omp else (node,):
                name, net = self._delegate(
                    sec, schedule, t, mode, paradigm, burdens,
                    handoff, handoff_seed,
                )
                repeat = 1 if isinstance(sec, list) else sec.repeat
                total += net * repeat
                runs.append((name, net, repeat))
        return total, runs

    def syn_point(
        self,
        schedule: Schedule,
        t: int,
        memory_model: bool,
        paradigm: str,
        handoff: str = "fifo",
        handoff_seed: int = 0,
    ) -> SpeedupEstimate:
        """Synthesizer (FAKE replay) estimate, as ``Synthesizer.predict``
        computes it.  The team walk also tracks each member's traversal
        overhead for the Fig. 8 net."""
        m = get_metrics()
        m.inc("syn.replays")
        m.inc("columnar.hits")
        profile = self.profile
        burdens = (
            {name: profile.burden_for(name, t) for name in profile.sections}
            if memory_model
            else {}
        )
        total, runs = self._replay(
            ReplayMode.FAKE, schedule, t, paradigm, burdens, handoff, handoff_seed
        )
        net_by_name: dict[str, float] = {}
        for name, net, repeat in runs:
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
    ) -> SpeedupEstimate:
        """Ground-truth (REAL replay) estimate, as
        ``ParallelExecutor.execute_profile`` computes it."""
        get_metrics().inc("columnar.hits")
        total, _ = self._replay(
            ReplayMode.REAL, schedule, t, paradigm, {}, handoff, handoff_seed
        )
        speedup = self._serial / total if total > 0 else 1.0
        return SpeedupEstimate(
            method="real",
            paradigm=paradigm,
            schedule=schedule.label,
            n_threads=t,
            speedup=speedup,
        )

    # ------------------------------------------------------------ team walks

    def _walk(self, sc: _SecCols, schedule: Schedule, t: int, beta,
              locking=None):
        """``(gross, traversal)`` of the team walk of ``sc`` at (schedule,
        t): the REAL replay when ``beta`` is None, else the FAKE replay at
        burden ``beta``.  ``locking`` is ``_team_walk``'s ``(n_locks,
        handoff, seed)`` for a lock-bearing section.

        Op streams follow ``OmpRuntime._member_work``'s expanded lowering:
        a dispatch per chunk (per iteration in a one-member team) followed
        by the iterations' leaf ops, from a chain, or from a shared chunk
        cursor under a dynamic-family schedule.  An ``L`` leaf expands as
        ``ParallelExecutor._task_body`` lowers it (``_critical``)."""
        oh = self.overheads
        fork = oh.fork_cost(t)
        start = float(fork) if fork > 0.0 else 0.0
        jb = oh.omp_join_barrier
        prefix = [float(oh.omp_thread_start)] if oh.omp_thread_start > 0.0 else []
        trav = [0.0] * t
        dynamic = schedule.is_dynamic_family
        disp = float(oh.dispatch_cost(schedule))
        head = [disp] if disp > 0.0 else []
        iters: list = []
        iter_trav: list = []
        for r, count in enumerate(sc.counts):
            if beta is None:
                ops, oh_run = sc.real_ops[r], 0.0
            else:
                # The synthesizer's FakeDelay: a traversal-overhead segment,
                # then (length*beta)*repeat cycles per U leaf, or one
                # critical section of length*beta cycles per L leaf pass.
                ops = []
                leaves = sc.node.children[r].children
                for leaf in leaves:
                    if OVERHEAD_ACCESS_NODE > 0.0:
                        ops.append(OVERHEAD_ACCESS_NODE)
                    if leaf.kind is NodeKind.L:
                        body = float(leaf.length * beta)
                        ops += _critical(
                            oh, sc.lock_ids[leaf.lock_id],
                            body if body > 0.0 else None,
                        ) * leaf.repeat
                        continue
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
                lo, hi = chunk[0], chunk[-1] + 1
                chunk_ops.append(list(_flat(iters[lo:hi])))
                tr = 0.0
                for x in iter_trav[lo:hi]:
                    tr += x
                chunk_trav.append(tr)
            chains = [[]] + [prefix] * (t - 1)
            return _team_walk(
                self._dram, t, start, jb, chains, trav,
                (chunk_ops, chunk_trav, disp), locking,
            )

        if t == 1:
            # The inline team dispatches per iteration.
            owned = [[range(i, i + 1) for i in range(n)]]
        else:
            owned = schedule.static_chunks(n, t)
        chains = []
        for w, mine in enumerate(owned):
            ops = list(prefix) if w else []
            tr = 0.0
            for r in mine:
                ops += head
                ops.extend(_flat(iters[r.start:r.stop]))
                for x in iter_trav[r.start:r.stop]:
                    tr += x
            trav[w] = tr
            chains.append(ops)
        return _team_walk(
            self._dram, t, start, jb, chains, trav, None, locking
        )


#: ``_delegate``'s mode for the FF heap walk (beside the ReplayModes).
_FF: Literal["ff"] = "ff"

def _lane(machine: MachineConfig, cycles: float, misses: float) -> tuple:
    """A missy lane op: ``(cycles, (f, d), memo key)``.  ``(f, d)`` are the
    exact formulas of ``SimKernel._attach_segment`` (zero switch debt); the
    key is quantized once here rather than per DRAM solve."""
    f = min(1.0, misses * machine.base_miss_stall / cycles) if cycles > 0 else 0.0
    seconds = machine.cycles_to_seconds(cycles) if cycles > 0 else 0.0
    d = (misses * machine.line_size / seconds) if seconds > 0 else 0.0
    return (float(cycles), (f, d), (_quantize(f), _quantize(d)))


def _critical(oh: RuntimeOverheads, ix: int, body) -> list:
    """The ops of one pass through an ``L`` leaf under an OpenMP team, as
    ``ParallelExecutor._task_body`` yields them: the ``omp_lock_acquire``
    segment, the acquire of lock ``ix`` (an int ``>= 0``), the ``body``
    op (None when instant), the release (``~ix``) and the
    ``omp_lock_release`` segment.  A zero-cycle segment is instant, as in
    ``SimKernel._h_compute``."""
    ops: list = [float(oh.omp_lock_acquire)] if oh.omp_lock_acquire > 0.0 else []
    ops.append(ix)
    if body is not None:
        ops.append(body)
    ops.append(~ix)
    if oh.omp_lock_release > 0.0:
        ops.append(float(oh.omp_lock_release))
    return ops


#: Concatenation of iterations' op or step lists, in order.
_flat = itertools.chain.from_iterable


def _ff_static(start: float, disp: float, owned, iters) -> float:
    """The FF heap walk of a lowered section under a static-family
    schedule: CPU ``w`` starts at ``start`` and runs its chunks
    ``owned[w]`` (``Schedule.static_chunks`` ranges) in order, paying
    ``disp`` and then the chunk's leaf steps ``iters[chunk]``.  Returns
    the latest finish (``start`` at least)."""
    end = start
    for mine in owned:
        f = start
        for r in mine:
            f += disp
            for x in _flat(iters[r.start:r.stop]):
                f += x
        if f > end:
            end = f
    return end


def _ff_greedy(t: int, start: float, disp: float, chunks, iters) -> float:
    """The FF heap walk of a lowered section under a dynamic-family
    schedule: ``t`` CPUs free at ``start``; each chunk (a range) goes to
    the earliest-free CPU, which pays ``disp`` and then the chunk's leaf
    steps ``iters[chunk]`` in order.  Returns the latest finish
    (``start`` at least).  The heap walk pops chunk finishes in time order
    and its CPUs are interchangeable, so ties cannot change the result."""
    free = [start] * t
    end = start
    for r in chunks:
        c = free[0] + disp
        for x in _flat(iters[r.start:r.stop]):
            c += x
        heapq.heapreplace(free, c)
        if c > end:
            end = c
    return end


# ------------------------------------------------------------- the team walk


_NEVER = float("inf")


def _team_walk(dram: DramModel, t, start, jb, chains, trav, cursor=None,
               locking=None):
    """Replay one OpenMP team over per-member op streams: returns ``(gross
    cycles, longest per-member traversal overhead)``.

    When the DES kernel would solve DRAM contention, the walk looks the
    running missy multiset up in its own LRU memo (``DRAM_SOLVE_CACHE``
    entries, keyed like the kernel pool's by the quantized multiset); on a
    miss it solves the multiset, in core order, with ``dram.solve`` —
    the bisection a kernel pool runs on its misses.  The memo's hits and
    misses are added to the ``dram.solve.*`` counters.

    ``chains[w]`` are member ``w``'s ops: a float is a demand-free segment,
    a tuple a missy lane (``_lane``), an int ``ix >= 0`` the acquire of
    lock ``ix`` and ``~ix`` its release (``_critical``).  With ``cursor =
    (chunk_ops, chunk_trav, dispatch)`` a member whose ops run out pays
    ``dispatch`` and then grabs the next chunk; the grab happens when that
    dispatch completes, and the last, failed grab still pays it.  The team
    forks at ``start``; the barrier releases at the last arrival and the
    master then pays ``jb`` (a one-member team runs inline).
    ``locking = (n_locks, handoff, seed)`` walks a lock-bearing section.

    Mirrors the kernel's arithmetic bit for bit: a segment completes at
    ``now + remaining * s``; demand-free segments (``s == 1``) never
    interact, so a run of them is summed in order without events, up to
    the next lane, lock op or barrier arrival of a lock-bearing section; a
    lane attach or completion re-checks the running multiset against the
    cached signature and re-solves only when it changed; a continuing lane
    re-anchors in absolute form only when its ``s`` changes.  Each core
    has at most one pending event, and same-time events go by ``(time,
    core)``, the kernel's heap order.

    Locks follow ``SimKernel._acquire``/``_release`` and ``SimMutex``: a
    contended acquire queues the member and frees its core; a release
    with waiters hands the lock to the one ``SimMutex.pop_waiter`` picks
    (``fifo`` the head, ``lifo`` the tail, ``random`` a ``randrange``
    draw from one ``random.Random(seed)`` per walk) and puts it at the
    front of the ready queue.  Ready members are dispatched as
    ``SimKernel._dispatch`` does: each round snapshots the idle cores in
    order and hands each the head of the queue, so a woken member runs on
    the lowest idle core, not its own, and steps at once.  A member
    arriving at the barrier frees its core too.
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
    #: Each core's pending event time (a lane completion, the end of a run
    #: of demand-free segments, or a timed barrier arrival).
    times = [_NEVER] * t
    #: The member on each core; -1 while the core is idle.
    on = [-1] * t
    arrival = [0.0] * t
    #: core -> [anchor_time, anchor_remaining, slowdown|None, f, lane op]
    lanes: dict[int, list] = {}
    fresh: list[int] = []
    #: The running multiset, kept as counts: exact (f, d) pairs for the
    #: kernel's signature check, quantized pairs for the memo key.
    exact: dict = {}
    quant: dict = {}
    memo: OrderedDict = OrderedDict()
    hits = misses = 0
    locked = locking is not None
    if locked:
        n_locks, policy, seed = locking
        owner = [-1] * n_locks
        waiters: list[list[int]] = [[] for _ in range(n_locks)]
        rng = random.Random(seed) if policy == "random" else None
    ready: deque = deque()

    def step(w: int, c: int, now: float) -> bool:
        """Advance member ``w``, on core ``c``, from ``now`` to its next
        blocking point; True when it attached a missy lane."""
        nonlocal nxt
        while True:
            if grab[w]:
                grab[w] = False
                if nxt == n_chunks:
                    arrival[w] = now
                    on[c] = -1
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
                    break  # the lane or lock op waits for the segments
                elif op.__class__ is tuple:
                    pos[w] = p + 1
                    fd = op[1]
                    lanes[c] = [now, op[0], None, fd[0], op]
                    exact[fd] = exact.get(fd, 0) + 1
                    quant[op[2]] = quant.get(op[2], 0) + 1
                    fresh.append(c)
                    return True
                elif op >= 0:  # acquire
                    p += 1
                    if owner[op] < 0:
                        owner[op] = w
                    else:
                        waiters[op].append(w)
                        pos[w] = p
                        on[c] = -1
                        return False
                else:  # release, with direct handoff
                    p += 1
                    queue = waiters[~op]
                    if not queue:
                        owner[~op] = -1
                        continue
                    if policy == "fifo":
                        heir = queue.pop(0)
                    elif policy == "lifo":
                        heir = queue.pop()
                    else:
                        heir = queue.pop(rng.randrange(len(queue)))
                    owner[~op] = heir
                    ready.appendleft(heir)
            pos[w] = p
            if p < n or cursor is not None:
                if p == n:
                    if disp > 0.0:
                        end += disp
                        timed = True
                    grab[w] = True
                if timed:
                    times[c] = end
                    return False
                continue  # a zero-cost dispatch grabs at once
            if timed and locked:
                times[c] = end  # the core frees when the member arrives
                return False
            arrival[w] = end
            if not timed:
                on[c] = -1
            return False

    n_cores = dram.config.n_cores

    def dispatch(now: float) -> bool:
        """Place ready members on idle cores and step them; True when one
        attached a missy lane."""
        dirty = False
        while ready:
            idle = [c for c, w in enumerate(on) if w < 0]
            idle.extend(range(len(on), n_cores))
            for c in idle:
                if not ready:
                    break
                if c == len(on):  # a core no member has run on yet
                    on.append(-1)
                    times.append(_NEVER)
                w = ready.popleft()
                on[c] = w
                dirty = step(w, c, now) or dirty
        return dirty

    # The fork: with a fork cost the master steps when its fork segment
    # completes and the spawned members are dispatched after it; without
    # one all of them start in the kernel's first dispatch round.
    dirty = False
    if start > 0.0:
        on[0] = 0
        dirty = step(0, 0, start)
        ready.extend(range(1, t))
    else:
        ready.extend(range(t))
    dirty = dispatch(start) or dirty
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
                        segs = [
                            SegmentDemand(*lanes[m][4][1]) for m in sorted(lanes)
                        ]
                        k = dram.solve(
                            segs, sum(sd.demand_bytes_per_sec for sd in segs)
                        )
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
        c = times.index(now)
        times[c] = _NEVER
        lane = lanes.pop(c, None)
        if lane is not None:
            op = lane[4]
            for counts, x in ((exact, op[1]), (quant, op[2])):
                if counts[x] == 1:
                    del counts[x]
                else:
                    counts[x] -= 1
            dirty = True
        dirty = step(on[c], c, now) or dirty
        if ready:
            dirty = dispatch(now) or dirty
    m = get_metrics()
    if hits:
        m.inc("dram.solve.hits", float(hits))
    if misses:
        m.inc("dram.solve.misses", float(misses))
    gross = arrival[0] if t == 1 else max(arrival) + jb
    return gross, max(trav)


# --------------------------------------------------------------- verification


def verify_points(
    prophet,
    profile,
    threads,
    schedules=("static",),
    methods=("ff", "syn"),
    paradigm: str = "omp",
    handoff: str = "fifo",
    handoff_seed: int = 0,
) -> tuple[int, list[str]]:
    """Columnar-vs-eager re-verification (``repro check --quick``).

    Evaluates every (method, schedule, t) grid point — ``methods`` any of
    ``"ff"``, ``"syn"`` and ``"real"``, under ``paradigm`` and the lock
    ``handoff`` policy (``ff`` only under ``fifo``) — through
    ``batch._predict_point`` with a fresh columnar engine and without one
    (the eager emulators), clearing the section memo before each, and
    returns ``(checked, mismatches)``.  Every point must be ``==`` its
    eager oracle."""
    from repro.core.batch import SweepTask, _predict_point
    from repro.core.executor import clear_section_memo

    engine = ColumnarEngine(profile, prophet.overheads)
    ff = FastForwardEmulator(prophet.overheads)
    memory_model = bool(profile.burdens)
    checked = 0
    mismatches: list[str] = []
    for label in schedules:
        for t in threads:
            for method in methods:
                task = SweepTask(
                    "verify", label, t, (method,), paradigm=paradigm,
                    memory_model=memory_model, handoff=handoff,
                    handoff_seed=handoff_seed,
                )
                clear_section_memo()
                (served,) = _predict_point(
                    profile, prophet.overheads, task, ff, engine
                )
                clear_section_memo()
                (eager,) = _predict_point(
                    profile, prophet.overheads, task, ff, engine=None
                )
                checked += 1
                if served != eager:
                    mismatches.append(
                        f"columnar {method}/{served.schedule}/t={t}"
                        f"/{task.handoff}:{task.handoff_seed}: "
                        f"{served.speedup!r} vs eager {eager.speedup!r}"
                    )
    return checked, mismatches
