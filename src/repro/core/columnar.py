"""Columnar sweep engine: the section-by-section grid-point evaluator.

The paper's emulators replay a program one top-level parallel section at a
time (Fig. 8, ``EmulTopLevelParSec``), and each section's result depends
on that section alone.  The eager path nevertheless re-derives every grid
point through the FF heap walk, the DES kernel's fork/join machinery and a
fresh tree traversal.  This module evaluates grid points section by
section against one lowering of each section (:mod:`repro.core.lower`),
cached on the engine per (section, β, team or pool) and shared with the
executors of its delegated replays.  A walkable section (tasks of ``U``
and ``L`` leaves and nested sections of the same shape, no pipeline) has
exactly one evaluator per method:

- FF walks the heap walk's per-CPU arithmetic without the heap when the
  section is flat and lock-free: it then has no cross-CPU interaction in
  the FF's
  abstract machine, so under a static-family schedule each CPU runs its
  ``Schedule.static_chunks`` in order (``_ff_static``), and
  under ``dynamic``/``guided`` each ``Schedule.chunks`` chunk goes to the
  earliest-free CPU (``_ff_greedy``).  Both add the dispatch and then each
  leaf's ``(length*β)*repeat`` step in the heap walk's order.  FF of a
  lock-bearing or nested section stays on the heap walk.
- SYN and REAL of a flat lock-free OpenMP section are *summed*
  (``ColumnarEngine._sum``) when no member can interact with another: a
  FAKE replay, whose fake delays touch no memory, or a REAL one without
  memory demand, at most one member per core.  No member then blocks,
  shares a DRAM rate or waits for a core, so the team walk's answer is
  the same per-member arithmetic as FF's, run by ``_ff_static`` and
  ``_ff_greedy`` over the walk's op streams (its lead-in, dispatch and
  join costs, and its ``(time, member)`` order of same-time grabs).
- SYN and REAL of every other walkable section replay one OpenMP team,
  and the nested teams its members
  fork, in ``_team_walk``, a lean event walk over per-thread op streams
  (demand-free segments, missy lanes, lock acquires and releases, chunk
  grabs, forks, barriers and joins).  A member's ops are
  ``OmpRuntime._member_work``'s expanded stream — a dispatch per chunk
  (per iteration in a one-member team), then the iterations' ops from
  the section's team lowering, a nested section as one fork per
  activation — from a chain built from the RLE runs, or from the team's
  shared ``Schedule.chunks`` cursor for the dynamic family.  A fork does
  what ``OmpRuntime.parallel_loops`` does: the forking thread pays the
  fork cost, spawns ``t - 1`` inner workers and becomes the inner team's
  member 0; the team passes its barrier and member 0 joins the workers
  in spawn order and pays the join barrier.  Threads beyond the cores
  wait in the kernel's one FIFO ready queue.  Locks follow the kernel's
  direct handoff under the point's ``fifo``, ``lifo`` or ``random``
  policy; a woken thread moves to the lowest idle core, as the kernel
  dispatches it.  The walk does not model preemption: it mirrors the
  kernel's lazy quanta and hands the section back
  (``columnar.declined.quantum``) when one would preempt a thread.  Each
  walk keeps its own DRAM-solve memo, as the executor runs one kernel
  (hence one DRAM pool) per section replay.  On a miss it looks the
  exact running set up in the engine's solve cache, shared by all its
  team and pool walks, and solves only a set the engine has not seen
  with the pools' scalar bisection,
  :meth:`~repro.simhw.dram.DramModel.solve`.
- Under the Cilk and ``omp_task`` paradigms SYN and REAL replay the
  section on ``runtime/taskpool.py``'s task machine in the same walk:
  the replaying master runs ``TaskPool.run`` as a one-member team whose
  start spawns the other workers, and the section's pool lowering is
  planned into task bodies (``cilk_for``'s binary range splitting or a
  taskloop's task per body, spawns, help-first syncs, a nested section
  as an inline loop of the current task).  One walker serves both queue
  disciplines: ``CilkPool``'s per-worker deques (own bottom first, else
  the top of the first non-empty victim round-robin) and
  ``OmpTaskPool``'s shared FIFO.

Sections outside that model are *delegated*: pipeline sections, nowait
chains, lock-bearing sections under the ``adversarial`` handoff (it ranks
waiters by progress only the kernel tracks), sections a walk declines,
and memory-demanding REAL sections on a multi-socket machine — and, for
SYN/REAL, every section of a point whose team or pool the walk does not
model (``t > n_cores``, or a context-switch cost with ``t > 1``).  FF
runs each of them, and every lock-bearing or nested section, on the heap
walk (``FastForwardEmulator.emulate_section`` / ``emulate_chain``), and
one :class:`~repro.core.executor.ParallelExecutor` replays each of them
for SYN/REAL (``execute_section`` / ``execute_chain``, through the
section memo) under the point's paradigm, schedule and lock-handoff
policy; the task-pool paradigms replay a nowait chain's sections one at
a time, as the executor does.  The point's totals and per-section
speedups are summed exactly as ``emulate_profile``, ``execute_profile``
and ``Synthesizer.predict`` sum them.

Every result is cached on the engine under a key of the inputs its
evaluation reads.  Only ``SimMutex`` consults the handoff policy, so the
policy and its seed key only an item whose subtree holds an ``L`` node
(a walked one keys the seed only under ``random``): lock-free sections
serve every explored handoff variant from one evaluation.  The schedule
keys the FF walks, the team walks and an OpenMP worksharing replay
(paradigm ``omp``, a non-pipeline section or a nowait chain); the task
pools (``CilkPool``, ``OmpTaskPool``), their walks and
``replay_pipeline_section`` never read it, so such a walk or replay
serves every schedule of its (paradigm, t, burden) column.
``replay_pipeline_section`` reads no paradigm either, so a pipeline
section's replay serves every paradigm of its (t, burden) column.  Both
flags are computed once per item when the profile is lowered.

The engine serves every grid point, and the eager paths remain the parity
oracles: every served point is ``==`` its oracle.  The FF walks add the
heap walk's terms in its order, a summed team adds the team walk's, and
the team walk reproduces the DES kernel's arithmetic bit for bit (``simos.kernel``'s absolute-form segment
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
import math
import random
from collections import OrderedDict, deque
from functools import reduce
from operator import add
from typing import Literal

from repro.core.executor import ParallelExecutor, ReplayMode
from repro.core.ffemu import FastForwardEmulator, FFSectionResult
from repro.core.lower import Section, lower
from repro.core.lru import LRUCache
from repro.core.report import SpeedupEstimate
from repro.core.tree import Node, NodeKind, ProgramTree, group_nowait_chains
from repro.obs import get_metrics
from repro.runtime.overhead import RuntimeOverheads
from repro.runtime.tasks import Schedule, ScheduleKind
from repro.simhw.dram import DRAM_SOLVE_CACHE, DramModel, SegmentDemand
from repro.simhw.machine import MachineConfig
from repro.simos import normalize_handoff
from repro.validate.invariants import get_checker


def _locked(item: Node) -> bool:
    """Whether ``item``'s subtree holds an ``L`` node: only then can a
    replay of it consult the lock-handoff policy."""
    return any(node.kind is NodeKind.L for node in item.walk())


def _lowerable(item: Node) -> bool:
    """A section of SEC -> TASK -> (U or L leaves, nested SECs of the same
    shape) with no pipeline anywhere.  Its SYN/REAL replay under an OpenMP
    team is a team walk (locks included, except under the ``adversarial``
    handoff; a nested section forks a nested team of the same size and
    schedule, as the executor's replay does), and under a Cilk or
    ``omp_task`` pool a pool walk (a nested section is an inline loop of
    the task running it, as the replay hands it to ``TaskPool.loop``);
    both walk the section's lowering (:mod:`repro.core.lower`).  FF walks
    only a flat lock-free one and runs the others on the heap walk."""
    return (
        item.kind is NodeKind.SEC
        and not item.pipeline
        and all(
            task.kind is NodeKind.TASK
            and all(
                child.is_leaf or _lowerable(child) for child in task.children
            )
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
        #: Program in tree order: floats (serial U cycles), walkable
        #: sections (each one's REAL team lowering, a :class:`Section`),
        #: and delegated items (a section Node or a nowait chain list).
        self._items: list = []
        self._secs: list[Section] = []
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
        #: The solver's answers by exact running set, as the walks pass it
        #: (core-ordered ``(f, d)`` pairs): shared by every team and pool
        #: walk of this engine behind their own quantized memos.  Exact
        #: keys make it a pure cache, so no answer depends on which points
        #: ran first.
        self._solves = LRUCache("columnar.solves", ENGINE_SOLVE_CACHE)
        tree: ProgramTree = profile.tree
        # One tree walk per top-level node; the sums below add these
        # lengths in the order ``serial_cycles`` and the emulators do.
        top = tree.root.children
        length = {id(node): node.subtree_length() for node in top}
        #: Each section lowered once per (node, β, team or pool)
        #: (:func:`~repro.core.lower.lower`); compression shares the node
        #: of identical sections, so their walks share cache entries too.
        #: The executors of delegated replays read it as well.
        self._lowered: dict[tuple, Section] = {}
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
                if _lowerable(item):
                    item = lower(self._lowered, item, self.machine, overheads,
                                 None, True)
                    if item not in self._secs:
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

        Flat lock-free lowered sections take the heap-free walks of
        ``_ff_section``; lock-bearing, nested and delegated items run on
        the heap walk itself.  Every item's cycles
        are cached per (item, schedule, t, β)."""
        get_metrics().inc("columnar.hits")
        inv = get_checker()
        total = 0.0
        results: list[FFSectionResult] = []
        for item in self._items:
            if isinstance(item, float):
                total += item
                continue
            if (
                isinstance(item, Section)
                and not item.lock_ids
                and not item.nested
            ):
                name = item.name
                cycles = self._ff_section(
                    item, schedule, t, burdens.get(name, 1.0)
                )
            else:
                # FF ignores the paradigm and the lock-handoff policy;
                # omp and fifo key its cache.
                name, cycles = self._delegate(
                    item.node if isinstance(item, Section) else item,
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
        self, sc: Section, schedule: Schedule, t: int, beta: float
    ) -> float:
        """FF cycles of one activation of a lowered section, cached: the
        heap walk's arithmetic (``_Engine.run``) without the heap.  Every
        CPU starts at the fork cost; the result is the latest chunk
        finish plus the join barrier."""
        key = ("ff", id(sc), schedule.kind, schedule.chunk, t, beta)
        cycles = self._point_cache.get(key)
        if cycles is not None:
            return cycles
        oh = self.overheads
        fork = oh.fork_cost(t)
        disp = oh.dispatch_cost(schedule)
        iters: list = []
        for task in sc.node.children:
            # The heap walk's per-leaf step: (length*β)*repeat.
            steps = [(u.length * beta) * u.repeat for u in task.children]
            iters += [steps] * task.repeat
        n = sc.n_iters
        run = _ff_greedy if schedule.is_dynamic_family else _ff_static
        spans = _spans(schedule, n, t)
        ends, _ = run(fork, [()] * t, disp, spans, iters)
        cycles = max(ends) + oh.omp_join_barrier
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
            executor.lowered = self._lowered
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

        A lowered section is replayed here when the walk models its
        replay: an OpenMP team (the team walk) or a Cilk or ``omp_task``
        pool (the pool walk) of at most one thread per core (nested teams
        may oversubscribe the cores), with no switch cost, and — for REAL
        — one DRAM pool or no memory demand; a lock-bearing one also
        needs a handoff other than ``adversarial``.  Of those, an OpenMP
        team that is flat and lock-free, replayed FAKE or without memory
        demand, is summed per member (:meth:`_sum`, counted by
        ``columnar.summed``): its members never interact.  The others are
        walked.  The ``(gross, traversal)`` is cached under a flat key:
        (section, schedule, t, β) for a team, (section, paradigm, t, β)
        for a pool walk, plus the handoff (and a ``random`` one's seed)
        for a lock-bearing section.  A team walk that finds a quantum
        could fire hands the section back (``columnar.declined.quantum``;
        the decline is cached too); a pool walk never does, as its
        threads never outnumber the cores.  Every other section is
        delegated to the executor under the point's paradigm, schedule
        and ``handoff``; the task-pool paradigms replay a nowait chain's
        sections one at a time, as the executor groups them."""
        machine = self.machine
        omp = paradigm == "omp"
        walked = t <= machine.n_cores and (
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
                walked
                and isinstance(item, Section)
                and (fake or one_pool or not item.missy)
                and (walk_locks or not item.lock_ids)
            ):
                beta = burdens.get(item.name, 1.0) if fake else None
                # A team walk reads the schedule, a pool walk the paradigm
                # instead (the pools never read the schedule).
                if omp:
                    key = (mode, id(item), schedule.kind, schedule.chunk, t,
                           beta)
                else:
                    key = (mode, id(item), paradigm, t, beta)
                locking = None
                if item.lock_ids:
                    seed = handoff_seed if policy == "random" else 0
                    locking = (len(item.lock_ids), policy, seed)
                    key += (policy, seed) if policy == "random" else (policy,)
                got = cache.get(key)
                if got is None:
                    if omp and not (
                        item.lock_ids or item.nested or (item.missy and not fake)
                    ):
                        # No member ever waits on another or shares a
                        # DRAM rate: its replay is per-member arithmetic.
                        get_metrics().inc("columnar.summed")
                        got = self._sum(item, schedule, t, beta)
                    elif omp:
                        got = self._walk(item, schedule, t, beta, locking)
                    else:
                        got = self._pool_walk(
                            item, t, beta, locking, paradigm == "cilk"
                        )
                    if got is None:
                        # A quantum could fire: the kernel replays it.
                        get_metrics().inc("columnar.declined.quantum")
                        got = _DECLINED
                    cache[key] = got
                if got is not _DECLINED:
                    gross, trav = got
                    # Fig. 8 line 26: subtract the longest per-thread
                    # traversal (zero in a REAL walk: net is gross).
                    name, net, repeat = (
                        item.name, max(0.0, gross - trav), item.repeat
                    )
                    total += net * repeat
                    runs.append((name, net, repeat))
                    continue
            node = item.node if isinstance(item, Section) else item
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

    def _sum(self, sc: Section, schedule: Schedule, t: int, beta) -> tuple:
        """``(gross, traversal)`` of the team replay of ``sc`` at (schedule,
        t) when its members never interact: a flat lock-free section whose
        team lowering holds no missy lane (every FAKE one, a demand-free
        REAL one), at most one member per core.  No member blocks, none
        shares a DRAM rate and none waits for a core, so no quantum is
        armed and ``_team_walk``'s answer is the FF walks' per-member
        arithmetic (:func:`_ff_static`, :func:`_ff_greedy`) over the
        walk's streams: each member starts at the fork cost (a worker
        after its ``omp_thread_start``) and adds each chunk's dispatch and
        then its iterations' ops in order.

        A one-member team dispatches per iteration and its gross is its
        finish.  A larger team's is its last arrival plus
        ``omp_join_barrier``; under ``dynamic``/``guided`` a member
        arrives when its last, failed grab has paid its dispatch.  The
        traversal is the largest per-member sum."""
        oh = self.overheads
        low = lower(self._lowered, sc.node, self.machine, oh, beta, True)
        iters, trav = _iters(low)
        if beta is None:
            trav = None  # the REAL replay visits no node
        fork = oh.fork_cost(t)
        start = float(fork) if fork > 0.0 else 0.0
        disp = float(oh.dispatch_cost(schedule))
        n = low.n_iters
        if t == 1:
            ends, travs = _ff_static(
                start, [()], disp, [((i, i + 1) for i in range(n))], iters, trav
            )
            return ends[0], travs[0]
        lead = (float(oh.omp_thread_start),) if oh.omp_thread_start > 0.0 else ()
        leads = [()] + [lead] * (t - 1)
        spans = _spans(schedule, n, t)
        if schedule.is_dynamic_family:
            ends, travs = _ff_greedy(start, leads, disp, spans, iters, trav)
            end = max(ends) + disp
        else:
            ends, travs = _ff_static(start, leads, disp, spans, iters, trav)
            end = max(ends)
        return end + oh.omp_join_barrier, max(travs)

    def _walk(self, sc: Section, schedule: Schedule, t: int, beta,
              locking=None):
        """``(gross, traversal)`` of the team walk of ``sc`` at (schedule,
        t): the REAL replay when ``beta`` is None, else the FAKE replay at
        burden ``beta``; None when the walk finds that a quantum could
        fire.  ``locking`` is ``_team_walk``'s ``(n_locks, handoff,
        seed)`` for a lock-bearing section.

        The top-level team's plan comes from :meth:`_plan` over the
        section's team lowering; a nested section's plan (the same ``t``
        and schedule, as the executor's replay forks it) is built the
        first time the walk forks it, with the inner team's exit appended:
        one barrier pass, then member 0 joins the workers in spawn order
        and pays ``omp_join_barrier``."""
        oh = self.overheads
        jb = oh.omp_join_barrier
        low = lower(self._lowered, sc.node, self.machine, oh, beta, True)
        plan = None
        if low.nested:
            master_tail = [_BAR, _JOIN] + ([float(jb)] if jb > 0.0 else [])
            tails = (master_tail, [_BAR])
            plans: dict = {}

            def plan(sub: Section) -> tuple:
                got = plans.get(sub)
                if got is None:
                    got = plans[sub] = self._plan(sub, schedule, t, tails)
                return got

        return _team_walk(
            self._dram, self._solves, t, oh.fork_cost(t), jb,
            float(oh.dispatch_cost(schedule)),
            self._plan(low, schedule, t, ([], [])), locking, plan,
        )

    def _plan(self, low: Section, schedule: Schedule, t: int,
              tails: tuple[list, list]) -> tuple:
        """One team's ``(chains, traversal, cursor)`` over the lowered
        section ``low``.

        ``chains[w]`` is member ``w``'s op stream as
        ``OmpRuntime._member_work`` expands it: a worker's
        ``omp_thread_start``, then a dispatch per chunk (per iteration in
        a one-member team, which runs inline) followed by the iterations'
        ops, and then ``tails`` (master's, worker's) in a team of ``t >
        1``.  Under a dynamic-family schedule the chunks come from the
        team's shared ``cursor = (chunk ops, chunk traversal)`` through a
        grab op instead.  ``traversal[w]`` is member ``w``'s FAKE
        traversal overhead of its static chunks."""
        oh = self.overheads
        iters, iter_trav = _iters(low)
        prefix = [float(oh.omp_thread_start)] if oh.omp_thread_start > 0.0 else []
        master_tail, worker_tail = tails
        n = low.n_iters
        if schedule.is_dynamic_family and t > 1:
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
            chains = [[_GRAB] + master_tail]
            chains += [prefix + [_GRAB] + worker_tail] * (t - 1)
            return chains, [0.0] * t, (chunk_ops, chunk_trav)

        disp = float(oh.dispatch_cost(schedule))
        head = [disp] if disp > 0.0 else []
        if t == 1:
            # The inline team dispatches per iteration.
            owned = [[range(i, i + 1) for i in range(n)]]
        else:
            owned = schedule.static_chunks(n, t)
        chains = []
        trav = []
        for w, mine in enumerate(owned):
            ops = list(prefix) if w else []
            tr = 0.0
            for r in mine:
                ops += head
                ops.extend(_flat(iters[r.start:r.stop]))
                for x in iter_trav[r.start:r.stop]:
                    tr += x
            if t > 1:
                ops += worker_tail if w else master_tail
            trav.append(tr)
            chains.append(ops)
        return chains, trav, None

    # ------------------------------------------------------------ pool walks

    def _pool_walk(self, sc: Section, t: int, beta, locking, cilk: bool):
        """``(gross, traversal)`` of ``sc``'s replay on a ``t``-worker
        task pool (:class:`~repro.runtime.taskpool.CilkPool` when ``cilk``,
        else :class:`~repro.runtime.taskpool.OmpTaskPool`): the REAL replay
        when ``beta`` is None, else the FAKE replay at burden ``beta``.

        The section's pool lowering is planned into task bodies as the
        executor's replay hands them to the pool, at the pool's own
        costs, and walked by ``_team_walk`` as a one-member team: the
        replaying master thread, whose ``_START`` op spawns the pool's
        other workers as inner threads (:meth:`_pool_plan`)."""
        low = lower(self._lowered, sc.node, self.machine, self.overheads,
                    beta, False)
        top, pool = self._pool_plan(low, t, cilk)
        return _team_walk(self._dram, self._solves, 1, 0.0, 0.0, 0.0, top,
                          locking, pool=pool)

    def _pool_plan(self, low: Section, t: int, cilk: bool) -> tuple:
        """The master's plan and ``_team_walk``'s pool of the lowered
        section ``low`` on ``t`` workers.

        A loop over a section's bodies (one per iteration) runs as the
        pool's ``loop`` runs it from the current task: ``cilk_for``'s
        ``_for_range`` — while more than ``grain = ceil(n / (8·t))``
        bodies are left, a spawn of the upper half as a range task, then
        the remaining bodies inline and a ``sync`` — or a taskloop, one
        spawned task per body and a ``sync``.  A spawn is the spawn-cost
        segment followed by the child's :class:`_PoolTask`; a task ends
        in ``_END`` (its implicit sync, then its completion).  A body is
        its lowered task's ops with each fork replaced by an inline loop
        over the nested section.  Each body, loop and range task is
        planned once per walk.

        The master runs ``TaskPool.run``: ``_START`` pushes the root task
        (the top-level loop) and spawns the workers, ``_RUN`` runs tasks
        until the root is done and then stops the pool, and ``_JOIN``
        joins the workers in spawn order; ``OmpTaskPool`` adds the fork
        before and the join barrier after.  A worker pays its start cost
        and then runs ``_WORK``, the worker loop."""
        oh = self.overheads
        spawn = float(oh.cilk_spawn if cilk else oh.omp_task_create)
        spawn_ops = [spawn] if spawn > 0.0 else []
        bodies: dict[int, tuple[list, float]] = {}
        loops: dict[int, tuple[list, float]] = {}
        tasks: dict[int, _PoolTask] = {}

        def body(task_ops: tuple, trav: float) -> tuple[list, float]:
            """One iteration's ops and FAKE traversal overhead."""
            got = bodies.get(id(task_ops))
            if got is not None:
                return got
            ops: list = []
            for op in task_ops:
                if op.__class__ is Section:
                    sub, sub_trav = loop(op)
                    ops += sub
                    trav += sub_trav
                else:
                    ops.append(op)
            got = bodies[id(task_ops)] = (ops, trav)
            return got

        def pool_task(ops: list, trav: float) -> _PoolTask:
            return _PoolTask(ops + [_END], trav)

        def cilk_range(its: list, lo: int, hi: int,
                       grain: int) -> tuple[list, float]:
            """``CilkPool._for_range`` over bodies ``its[lo:hi]``."""
            ops: list = []
            while hi - lo > grain:
                mid = (lo + hi) // 2
                ops += spawn_ops
                ops.append(pool_task(*cilk_range(its, mid, hi, grain)))
                hi = mid
            trav = 0.0
            for i in range(lo, hi):
                sub, sub_trav = body(*its[i])
                ops += sub
                trav += sub_trav
            ops.append(_SYNC)
            return ops, trav

        def loop(sec: Section) -> tuple[list, float]:
            """The pool's ``loop`` over ``sec``'s bodies, run inline by the
            current task."""
            got = loops.get(id(sec))
            if got is not None:
                return got
            if cilk:
                its = [
                    (ops, trav)
                    for task, ops, trav in zip(sec.node.children, sec.ops, sec.trav)
                    for _ in range(task.repeat)
                ]
                n = len(its)
                got = ([], 0.0) if n == 0 else cilk_range(
                    its, 0, n, max(1, math.ceil(n / (8 * t)))
                )
            else:
                ops: list = []
                for task, task_ops, trav in zip(sec.node.children, sec.ops,
                                                sec.trav):
                    child = tasks.get(id(task_ops))
                    if child is None:
                        child = tasks[id(task_ops)] = pool_task(
                            *body(task_ops, trav)
                        )
                    ops += (spawn_ops + [child]) * task.repeat
                ops.append(_SYNC)
                got = (ops, 0.0)
            loops[id(sec)] = got
            return got

        root = pool_task(*loop(low))
        if cilk:
            start, fork, jb = oh.cilk_pool_start_per_worker, 0.0, 0.0
            task_run = float(oh.cilk_task_run)
            own = (task_run,) if task_run > 0.0 else ()
            steal = (float(oh.cilk_steal),) if oh.cilk_steal > 0.0 else ()
            stolen = steal + own
        else:
            start, fork, jb = (
                oh.omp_thread_start, oh.fork_cost(t), oh.omp_join_barrier
            )
            disp = float(oh.omp_task_dispatch)
            own = (disp,) if disp > 0.0 else ()
            stolen = None
        master = [float(fork)] if fork > 0.0 else []
        master += [_START, _RUN, _JOIN]
        if jb > 0.0:
            master.append(float(jb))
        worker = [float(start)] if start > 0.0 else []
        worker.append(_WORK)
        return ([master], [0.0], None), _Pool(t, root, worker, own, stolen)


#: ``_delegate``'s mode for the FF heap walk (beside the ReplayModes).
_FF: Literal["ff"] = "ff"

#: Bound of each engine's exact DRAM-solve cache (entries).  A Fig. 12
#: engine sees at most a few hundred distinct running sets.
ENGINE_SOLVE_CACHE = 1024

#: Concatenation of iterations' op or step lists, in order.
_flat = itertools.chain.from_iterable


def _iters(low: Section) -> tuple[list, list]:
    """Each iteration's ops and FAKE traversal overhead in the lowered
    section ``low``, in iteration order (a task's repeats share its
    ops)."""
    iters: list = []
    trav: list = []
    for task, ops, tr in zip(low.node.children, low.ops, low.trav):
        iters += [ops] * task.repeat
        trav += [tr] * task.repeat
    return iters, trav


def _spans(schedule: Schedule, n: int, t: int):
    """The chunks of ``n`` iterations on ``t`` members as ``(lo, hi)``
    spans, computed as they are read rather than stored: under a
    static-family schedule each member's, as ``Schedule.static_chunks``
    deals them; under ``dynamic``/``guided`` the team's one sequence, as
    ``Schedule.chunks`` cuts it."""
    c = schedule.chunk
    if schedule.kind is ScheduleKind.STATIC:
        base, extra = divmod(n, t)
        owned = []
        lo = 0
        for w in range(t):
            hi = lo + base + (1 if w < extra else 0)
            owned.append(((lo, hi),) if hi > lo else ())
            lo = hi
        return owned
    if schedule.kind is ScheduleKind.STATIC_CHUNK:
        return [
            ((lo, min(lo + c, n)) for lo in range(w * c, n, t * c))
            for w in range(t)
        ]
    if schedule.kind is ScheduleKind.DYNAMIC:
        return ((lo, min(lo + c, n)) for lo in range(0, n, c))
    return _guided_spans(c, n, t)


def _guided_spans(c: int, n: int, t: int):
    """``Schedule.chunks``' guided cut: ``max(c, ceil(remaining / t))``."""
    lo = 0
    while lo < n:
        hi = lo + max(c, -(-(n - lo) // t))
        yield lo, min(hi, n)
        lo = hi


def _ff_static(start, leads, disp, owned, iters, trav=None) -> tuple:
    """A team whose members never interact under a static-family
    schedule: member ``w`` starts at ``start``, adds its lead-in ops
    ``leads[w]``, then runs its chunks ``owned[w]`` (``(lo, hi)`` spans)
    in order, paying ``disp`` and then adding the chunk's ops
    ``iters[lo:hi]`` one by one (``functools.reduce``: the same float
    additions in the same order as a loop).  Returns each member's finish
    and its sum of the iterations' traversal overheads ``trav`` (zero
    when None).

    The FF heap walk of a flat lock-free section is this with no lead-in
    and the heap walk's leaf steps, and ``ColumnarEngine._sum`` replays a
    team with the walk's op streams."""
    ends = []
    travs = []
    for lead, mine in zip(leads, owned):
        f = reduce(add, lead, start)
        tr = 0.0
        for lo, hi in mine:
            one = hi - lo == 1  # the common case: no slice, no chain
            f = reduce(add, iters[lo] if one else _flat(iters[lo:hi]), f + disp)
            if trav is not None:
                tr = tr + trav[lo] if one else reduce(add, trav[lo:hi], tr)
        ends.append(f)
        travs.append(tr)
    return ends, travs


def _ff_greedy(start, leads, disp, spans, iters, trav=None) -> tuple:
    """A team whose members never interact under a dynamic-family
    schedule.  Member ``w`` starts at ``start`` and adds its lead-in ops
    ``leads[w]``; from then on each of its grabs costs ``disp``.  The
    chunk spans ``(lo, hi)`` go in turn to the member whose next grab
    ends first, which adds the chunk's ops ``iters[lo:hi]`` one by one
    from there.  Returns each member's last finish (its start if it ran
    no chunk) and its traversal sum, as :func:`_ff_static` does.

    Same-time grabs go by member, as ``_team_walk`` takes same-time
    events by core (member ``w`` runs on core ``w``).  A member that pays
    nothing before its first grab (no lead-in, no ``disp``) takes it in
    the fork's dispatch round, before any event, and keeps grabbing there
    while its chunks hold no op.  The FF heap walk's CPUs are
    interchangeable, so neither order changes its latest finish."""
    ends = []
    heap = []
    for w, lead in enumerate(leads):
        f = reduce(add, lead, start)
        ends.append(f)
        heap.append((f + disp, 1 if lead or disp else 0, w))
    heapq.heapify(heap)
    travs = [0.0] * len(leads)
    for lo, hi in spans:
        now, late, w = heap[0]
        one = hi - lo == 1
        f = ends[w] = reduce(add, iters[lo] if one else _flat(iters[lo:hi]), now)
        if trav is not None:
            tr = travs[w]
            travs[w] = tr + trav[lo] if one else reduce(add, trav[lo:hi], tr)
        if not late and any(iters[lo:hi]):
            late = 1  # its next grab is an event
        heapq.heapreplace(heap, (f + disp, late, w))
    return ends, travs


# ------------------------------------------------------------- the team walk


_NEVER = float("inf")


class _Op:
    """A structural op of a thread's stream (``_team_walk``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: Pay the dispatch, then grab the next chunk from the team's cursor.
_GRAB = _Op("grab")
#: Wait at the team's barrier.
_BAR = _Op("barrier")
#: Join the team's workers, in spawn order.
_JOIN = _Op("join")

#: ``_replay``'s cache value for a walk that handed its section back.
_DECLINED = object()


class _PoolOp(_Op):
    """A task-pool op of a thread's stream (``_team_walk``)."""

    __slots__ = ()


#: Push the root task and spawn the pool's workers (``TaskPool.run``).
_START = _PoolOp("start")
#: Run tasks until the root is done, then stop the pool (the master loop).
_RUN = _PoolOp("run")
#: Run tasks until the pool stops (the worker loop).
_WORK = _PoolOp("work")
#: Run tasks until the current task's children are done (help-first sync).
_SYNC = _PoolOp("sync")
#: The current task's implicit sync, then its completion.
_END = _PoolOp("end")


class _PoolTask:
    """A lowered pool task body: its ops, ending in ``_END``, and the FAKE
    traversal overhead of the ops it runs inline.  In a thread's stream it
    is a spawn of a child task running it."""

    __slots__ = ("ops", "trav")

    def __init__(self, ops: list, trav: float) -> None:
        self.ops = ops
        self.trav = trav


class _Pool:
    """The task pool of one pool walk: ``TaskPool``'s state over lowered
    task bodies (``ColumnarEngine._pool_plan``).

    ``stolen_costs`` None makes it ``OmpTaskPool``'s one shared FIFO
    queue, else ``CilkPool``'s per-worker deques."""

    __slots__ = (
        "n_workers", "root_body", "worker_ops", "own_costs", "stolen_costs",
        "deques", "parked", "cur", "root", "stopping",
    )

    def __init__(self, n_workers: int, root_body: "_PoolTask",
                 worker_ops: list, own_costs: tuple,
                 stolen_costs: "tuple | None") -> None:
        self.n_workers = n_workers
        self.root_body = root_body
        self.worker_ops = worker_ops
        self.own_costs = own_costs
        self.stolen_costs = stolen_costs
        self.deques = (
            [deque() for _ in range(n_workers)] if stolen_costs is not None
            else [deque()] * n_workers
        )
        #: Threads parked on the pool's event, in park order.
        self.parked: list[int] = []
        #: Each thread's current task (None in the master and worker loops).
        self.cur: list = [None]
        self.root: "_Task | None" = None
        self.stopping = False

    def take(self, w: int):
        """``TaskPool._take``: the next task for worker ``w`` and the costs
        it pays first, or None."""
        own = self.deques[w]
        if self.stolen_costs is None:
            return (own.popleft(), self.own_costs) if own else None
        if own:
            return own.pop(), self.own_costs
        n = self.n_workers
        for offset in range(1, n):
            victim = self.deques[(w + offset) % n]
            if victim:
                return victim.popleft(), self.stolen_costs
        return None

    def notify(self, ready: deque) -> None:
        """``TaskPool._notify``: wake every parked thread to the ready
        queue's tail, in park order."""
        if self.parked:
            ready.extend(self.parked)
            self.parked.clear()


class _Task:
    """A spawned task of a pool walk (``taskpool.Task``); ``ret`` is the
    ``(ops, pos, task)`` its worker returns to when it completes."""

    __slots__ = ("body", "parent", "pending", "waiting", "done", "ret")

    def __init__(self, body: _PoolTask, parent: "_Task | None") -> None:
        self.body = body
        self.parent = parent
        self.pending = 0
        self.waiting = False
        self.done = False
        self.ret = None


def _team_walk(dram: DramModel, solves: LRUCache, t, fork, jb, disp, top,
               locking=None, plan=None, pool=None):
    """Replay one OpenMP team, and the nested teams its members fork, or
    one task pool, over per-thread op streams: returns ``(gross cycles,
    longest per-thread traversal overhead)``, or None when a quantum could
    fire.

    ``top = (chains, traversal, cursor)`` is the top-level team's plan
    (``ColumnarEngine._plan``).  A thread's stream holds the ops of
    :mod:`repro.core.lower` — a float is a demand-free segment, a tuple a
    missy lane, an int ``ix >= 0`` the acquire of lock ``ix`` and ``~ix``
    its release, and a :class:`~repro.core.lower.Section` a fork of a
    nested team over that section, whose plan ``plan(section)`` returns —
    and ``_GRAB``, a dispatch of ``disp`` cycles and then a chunk grab
    from the team's ``cursor = (chunk ops, chunk traversal)`` (the last,
    failed grab still pays the dispatch).

    The top-level team forks at ``fork`` (its master's fork segment,
    dispatched at 0).  A fork op does what ``OmpRuntime.parallel_loops``
    does: the forking thread pays ``fork``, spawns the ``t - 1`` inner
    workers onto the tail of the ready queue in order (each pays
    ``omp_thread_start`` first) and becomes the inner team's member 0;
    the inner team passes its own barrier once (``_BAR``: ``parallel_for``
    runs its loop ``nowait``, so only the region's implicit barrier is
    left), and member 0 then joins each worker in spawn order (``_JOIN``), pays ``jb`` and
    returns to its own stream.  A one-member team runs inline.  The
    top-level team's barrier releases at its last arrival and its master
    then pays ``jb`` (a one-member team runs inline).  Each thread's
    FAKE traversal overhead is its own sum, inner workers included.

    A :class:`_Pool` ``pool`` walks a task pool
    (``ColumnarEngine._pool_plan``; ``t`` is then 1, the replaying
    master).  Its ops replay ``TaskPool``'s one task machine: ``_START``
    pushes the root task onto the master's queue and spawns the other
    workers (ready-queue tail, in order; each runs the pool's worker ops,
    a start cost and ``_WORK``); a
    :class:`_PoolTask` op spawns a child of the running task onto the
    spawning worker's queue and wakes every parked thread to the
    ready-queue tail in park order; ``_SYNC``, ``_END`` (a task's
    implicit sync, then its completion, which notifies when its parent
    waits on it or it is the root), ``_RUN`` (until the root is done;
    then the pool stops and notifies) and ``_WORK`` (until the pool
    stops) run taken tasks — each pays its take's costs, then runs its
    body and returns to the op that took it — and park on the pool's
    event when nothing can be taken (a sync marks its task waiting, as
    ``_sync_loop`` does).  A take is ``TaskPool._take``'s
    (:meth:`_Pool.take`).  Every pool op is an event point.  A pool never has more threads than
    cores, so no quantum fires.

    When the DES kernel would solve DRAM contention, the walk looks the
    running missy multiset up in its own LRU memo (``DRAM_SOLVE_CACHE``
    entries, keyed like the kernel pool's by the quantized multiset, so a
    walk's answers are the first-answer-wins ones of one kernel pool); on
    a miss it takes the solve of the exact running set, in core order,
    from ``solves`` (the engine's, keyed by the ``(f, d)`` pairs), and
    only on a miss there runs ``dram.solve`` — the bisection a kernel
    pool runs on its misses.  The memo's hits and misses are added to the
    ``dram.solve.*`` counters, the engine cache's to
    ``columnar.solves.*``.

    Mirrors the kernel's arithmetic bit for bit: a segment completes at
    ``now + remaining * s``; demand-free segments (``s == 1``) never
    interact, so a run of them (fork and dispatch costs included) is
    summed in order without events, up to the next lane, lock, barrier,
    join or pool op, fork, chunk grab, or the thread's end; a lane attach or
    completion re-checks the running multiset against the cached
    signature and re-solves only when it changed; a continuing lane
    re-anchors in absolute form only when its ``s`` changes.  Each core
    has at most one pending event, and same-time events go by ``(time,
    core)``, the kernel's heap order.

    Threads wait in one FIFO ready queue, as ``CpuScheduler`` keeps it:
    spawns and barrier and join wake-ups go to its tail, and a lock
    handoff to its front.  Locks follow ``SimKernel._acquire``/
    ``_release`` and ``SimMutex``: a contended acquire queues the thread
    and frees its core; a release with waiters hands the lock to the one
    ``SimMutex.pop_waiter`` picks (``fifo`` the head, ``lifo`` the tail,
    ``random`` a ``randrange`` draw from one ``random.Random(seed)`` per
    walk).  Ready threads are dispatched as ``SimKernel._dispatch`` does:
    each round snapshots the idle cores in order and hands each the head
    of the queue, so a woken thread runs on the lowest idle core, not its
    own, and steps at once.  A thread that blocks, finishes or (in a
    lock-bearing or nested section) arrives at the top-level barrier
    frees its core.

    The walk does not model preemption; it proves none happens by
    mirroring the kernel's lazy quanta.  A dispatch anchors the core's
    boundary at ``now + timeslice_cycles`` (the kernel's own float
    expression).  When an event's dispatch round ends with threads still
    queued, every busy core without an armed expiry gets one at its first
    boundary after ``now``, advanced by repeated ``+= timeslice_cycles``
    as ``SimKernel._ensure_quanta`` advances it.  Expiries go before
    same-time completions; a dispatch makes the core's pending one stale,
    one on an idle core does nothing, one that finds the queue empty
    re-anchors the boundary, and one
    that finds a waiter would preempt: the walk stops and returns None.
    With no thread queued no quantum is armed, so a team of at most one
    member per core never declines.
    """
    chains, trav, cursor = top
    n_cores = dram.config.n_cores
    ts = dram.config.timeslice_cycles
    fork = float(fork) if fork > 0.0 else 0.0
    # Per-thread state; threads 0..t-1 are the top-level team's members,
    # inner workers are appended as they are spawned.
    ops = list(chains)
    pos = [0] * t
    trav = list(trav)
    #: Saved ``(ops, pos, team, grab)`` frames: a nested team's member 0
    #: and a member done grabbing chunks return to them.
    stack: list = [None] * t
    #: A team: [next chunk, cursor, barrier arrivals, workers, joined].
    team = [[0, cursor, None, None, 0]] * t
    #: Whether a thread grabs its team's chunks when its ops run out, and
    #: whether it has paid the dispatch or fork cost it is about to act on.
    grab = [False] * t
    pend = [False] * t
    done = [False] * t
    joiner = [-1] * t
    #: Each core's pending event time (a lane completion, the end of a run
    #: of demand-free segments, or a timed event op).
    times = [_NEVER] * t
    #: The thread on each core; -1 while the core is idle.
    on = [-1] * t
    #: Each core's next round-robin boundary (``SimKernel._q_next``) and
    #: its armed quantum expiry (``_NEVER`` while unarmed).
    q_next = [ts] * t
    q_at = [_NEVER] * t
    armed = 0
    arrival = [0.0] * t
    #: core -> [anchor_time, anchor_remaining, slowdown|None, f, lane op]
    lanes: dict[int, list] = {}
    fresh: list[int] = []
    #: The running multiset, kept as counts: exact (f, d) pairs for the
    #: kernel's signature check, quantized pairs for the memo key.
    exact: dict = {}
    quant: dict = {}
    memo: OrderedDict = OrderedDict()
    hits = misses = solved = 0
    locked = locking is not None
    # Top-level arrivals free their cores only when another thread could
    # take them: a lock waiter, or a nested team's thread.
    shared = locked or plan is not None
    if locked:
        n_locks, policy, seed = locking
        owner = [-1] * n_locks
        waiters: list[list[int]] = [[] for _ in range(n_locks)]
        rng = random.Random(seed) if policy == "random" else None
    ready: deque = deque()
    def step(w: int, c: int, now: float) -> bool:
        """Advance thread ``w``, on core ``c``, from ``now`` to its next
        blocking point; True when it attached a missy lane."""
        o = ops[w]
        p = pos[w]
        n = len(o)
        end = now
        timed = False
        while True:
            while p < n:
                op = o[p]
                cls = op.__class__
                if cls is float:
                    end += op
                    timed = True
                    p += 1
                    continue
                if cls is tuple:
                    if timed:
                        break  # the lane waits for the segments
                    pos[w] = p + 1
                    fd = op[1]
                    lanes[c] = [now, op[0], None, fd[0], op]
                    exact[fd] = exact.get(fd, 0) + 1
                    quant[op[2]] = quant.get(op[2], 0) + 1
                    fresh.append(c)
                    return True
                if cls is int:
                    if timed:
                        break  # a lock op is an event point
                    p += 1
                    if op >= 0:  # acquire
                        if owner[op] < 0:
                            owner[op] = w
                            continue
                        waiters[op].append(w)
                        pos[w] = p
                        on[c] = -1
                        return False
                    # release, with direct handoff
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
                    continue
                if op is _GRAB:
                    # Grab chunks until none is left, then go on with the
                    # ops after this one.
                    if p + 1 < n:
                        frames = stack[w]
                        if frames is None:
                            frames = stack[w] = []
                        frames.append((o, p + 1, team[w], False))
                    grab[w] = True
                    o = ops[w] = ()
                    p = n = 0
                    continue
                if cls is Section:  # fork a nested team
                    if not pend[w] and fork > 0.0:
                        # The fork cost joins the run; the fork happens
                        # when it completes.
                        end += fork
                        timed = True
                        pend[w] = True
                        break
                    if timed:
                        break
                    pend[w] = False
                    sub_chains, sub_trav, sub_cursor = plan(op)
                    frames = stack[w]
                    if frames is None:
                        frames = stack[w] = []
                    frames.append((o, p + 1, team[w], grab[w]))
                    grab[w] = False
                    trav[w] += sub_trav[0]
                    if t > 1:
                        tm = [0, sub_cursor, [], [], 0]
                        workers = tm[3]
                        for i in range(1, t):
                            k = len(ops)
                            ops.append(sub_chains[i])
                            pos.append(0)
                            trav.append(sub_trav[i])
                            stack.append(None)
                            team.append(tm)
                            grab.append(False)
                            pend.append(False)
                            done.append(False)
                            joiner.append(-1)
                            workers.append(k)
                            ready.append(k)
                        team[w] = tm
                    o = ops[w] = sub_chains[0]
                    p = 0
                    n = len(o)
                    continue
                if timed:
                    break  # a barrier, join or pool op is an event point
                if cls is _PoolTask:  # spawn a child of the current task
                    task = pool.cur[w]
                    task.pending += 1
                    pool.deques[w].append(_Task(op, task))
                    pool.notify(ready)
                    p += 1
                    continue
                if cls is _PoolOp:
                    task = pool.cur[w]
                    if op is _SYNC or op is _END:
                        task.waiting = False
                        if not task.pending:
                            if op is _SYNC:
                                p += 1
                                continue
                            # The task completes: its parent's count
                            # drops, and a parent waiting on it (or the
                            # root's end) notifies the pool.
                            task.done = True
                            parent = task.parent
                            if parent is None:
                                pool.notify(ready)
                            else:
                                parent.pending -= 1
                                if not parent.pending and parent.waiting:
                                    pool.notify(ready)
                            o, p, pool.cur[w] = task.ret
                            ops[w] = o
                            n = len(o)
                            continue
                    elif op is _RUN and pool.root.done:
                        pool.stopping = True
                        pool.notify(ready)
                        p += 1
                        continue
                    elif op is _START:
                        # Push the root; spawn the workers, whom the master
                        # joins in spawn order.
                        pool.root = _Task(pool.root_body, None)
                        pool.deques[w].append(pool.root)
                        tm = team[w] = [0, None, None, [], 0]
                        for _ in range(1, pool.n_workers):
                            k = len(ops)
                            ops.append(pool.worker_ops)
                            pos.append(0)
                            trav.append(0.0)
                            stack.append(None)
                            team.append(tm)
                            grab.append(False)
                            pend.append(False)
                            done.append(False)
                            joiner.append(-1)
                            pool.cur.append(None)
                            tm[3].append(k)
                            ready.append(k)
                        p += 1
                        continue
                    taken = pool.take(w)
                    if taken is None:
                        if op is _WORK and pool.stopping:
                            p += 1
                            continue
                        # Park on the pool's event.
                        if task is not None:
                            task.waiting = True
                        pool.parked.append(w)
                        pos[w] = p
                        on[c] = -1
                        return False
                    child, costs = taken
                    # Run the child, then come back to this op.
                    child.ret = (o, p, task)
                    pool.cur[w] = child
                    for x in costs:
                        end += x
                        timed = True
                    trav[w] += child.body.trav
                    o = ops[w] = child.body.ops
                    p = 0
                    n = len(o)
                    continue
                tm = team[w]
                if op is _BAR:
                    arrived = tm[2]
                    arrived.append(w)
                    if len(arrived) < t:
                        pos[w] = p + 1
                        on[c] = -1
                        return False
                    for x in arrived:
                        if x != w:
                            ready.append(x)
                    arrived.clear()
                    p += 1
                    continue
                # _JOIN: the workers in spawn order
                workers = tm[3]
                j = tm[4]
                while j < len(workers) and done[workers[j]]:
                    j += 1
                tm[4] = j
                if j < len(workers):
                    joiner[workers[j]] = w
                    pos[w] = p
                    on[c] = -1
                    return False
                p += 1
            if p < n:
                pos[w] = p
                times[c] = end
                return False
            if grab[w]:  # between chunks of a dynamic-family schedule
                if not pend[w] and disp > 0.0:
                    end += disp  # the grab happens when it completes
                    timed = True
                    pend[w] = True
                if timed:
                    pos[w] = p
                    times[c] = end
                    return False
                pend[w] = False
                tm = team[w]
                k = tm[0]
                chunk_ops, chunk_trav = tm[1]
                if k < len(chunk_ops):
                    tm[0] = k + 1
                    trav[w] += chunk_trav[k]
                    o = ops[w] = chunk_ops[k]
                    p = 0
                    n = len(o)
                    continue
                grab[w] = False  # the last, failed grab
            frames = stack[w]
            if frames:
                o, p, team[w], grab[w] = frames.pop()
                ops[w] = o
                n = len(o)
                continue
            pos[w] = p
            if w >= t:  # an inner worker finishes
                if timed:
                    times[c] = end
                    return False
                done[w] = True
                if joiner[w] >= 0:
                    ready.append(joiner[w])
                on[c] = -1
                return False
            # A top-level member arrives at the barrier.
            if not shared:
                arrival[w] = end
                if not timed:
                    on[c] = -1
                return False
            if timed:
                times[c] = end  # the core frees when the member arrives
                return False
            arrival[w] = now
            on[c] = -1
            return False

    def dispatch(now: float) -> bool:
        """Place ready threads on idle cores and step them; True when one
        attached a missy lane."""
        nonlocal armed
        dirty = False
        while ready:
            if -1 not in on:
                if len(on) == n_cores:
                    break  # every core is busy
                idle = []
            else:
                idle = [c for c, w in enumerate(on) if w < 0]
            idle.extend(range(len(on), n_cores))
            for c in idle:
                if not ready:
                    break
                if c == len(on):  # a core no thread has run on yet
                    on.append(-1)
                    times.append(_NEVER)
                    q_next.append(0.0)
                    q_at.append(_NEVER)
                w = ready.popleft()
                on[c] = w
                # Re-anchor the boundary; a pending expiry goes stale.
                q_next[c] = now + ts
                if q_at[c] != _NEVER:
                    q_at[c] = _NEVER
                    armed -= 1
                dirty = step(w, c, now) or dirty
        return dirty

    # The fork: with a fork cost the master steps when its fork segment
    # completes and the spawned members are dispatched after it;
    # without one all of them start in the kernel's first dispatch
    # round.
    dirty = False
    start = fork
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
                        running = tuple(lanes[m][4][1] for m in sorted(lanes))
                        k = solves.get(running)
                        if k is None:
                            solved += 1
                            segs = [SegmentDemand(*fd) for fd in running]
                            k = dram.solve(
                                segs,
                                sum(sd.demand_bytes_per_sec for sd in segs),
                            )
                            solves.put(running, k)
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
        if armed:
            q = min(q_at)
            if q <= now:  # expiries go before same-time completions
                c = q_at.index(q)
                q_at[c] = _NEVER
                armed -= 1
                if on[c] >= 0:
                    if ready:
                        return None  # a preemption
                    q_next[c] = q + ts
                continue
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
            if ready:
                # Every core is busy and a thread waits: the kernel
                # arms each unarmed core's quantum at its first
                # boundary after ``now`` (``_ensure_quanta``).
                for c in range(n_cores):
                    if q_at[c] == _NEVER:
                        nxt = q_next[c]
                        while nxt <= now:
                            nxt += ts
                        q_next[c] = q_at[c] = nxt
                        armed += 1
    m = get_metrics()
    if hits:
        m.inc("dram.solve.hits", float(hits))
    if misses:
        m.inc("dram.solve.misses", float(misses))
        m.inc("columnar.solves.hits", float(misses - solved))
    if solved:
        m.inc("columnar.solves.misses", float(solved))
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
