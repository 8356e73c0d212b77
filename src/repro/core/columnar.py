"""Columnar sweep engine: the section-by-section grid-point evaluator.

The paper's emulators replay a program one top-level parallel section at a
time (Fig. 8, ``EmulTopLevelParSec``), and each section's result depends
on that section alone.  The eager path nevertheless re-derives every grid
point through the FF heap walk, the DES kernel's fork/join machinery and a
fresh tree traversal.  This module lowers a workload's program tree
**once**, section by section, and evaluates grid points against the
lowering.  A lowered section (leaf-only and lock-free) has exactly one
evaluator per method:

- FF walks the heap walk's per-CPU arithmetic without the heap: a lowered
  section has no cross-CPU interaction in the FF's abstract machine, so
  under a static-family schedule each CPU runs its
  ``Schedule.static_chunks`` in order (``_ff_static``), and
  under ``dynamic``/``guided`` each ``Schedule.chunks`` chunk goes to the
  earliest-free CPU (``_ff_greedy``).  Both add the dispatch and then each
  leaf's ``(length*β)*repeat`` step in the heap walk's order.
- SYN and REAL replay one OpenMP team in ``_team_walk``, a lean event walk
  over per-member op streams (demand-free segments and missy lanes).  A
  member's ops are ``OmpRuntime._member_work``'s expanded stream — a
  dispatch per chunk (per iteration in a one-member team), then the
  iterations' leaf ops — from a chain built from the RLE runs, or from a
  shared ``Schedule.chunks`` cursor for the dynamic family.  The walks'
  DRAM solves are *batched*: every walk in flight yields its
  (mem-fraction, demand) multiset, and one
  :meth:`~repro.simhw.dram.DramModel.solve_batch` call bisects all of them
  with a shared convergence loop and per-lane early-exit masks.

Sections outside that model are *delegated*: lock-bearing, nested and
pipeline sections, nowait chains, and memory-demanding REAL sections on a
multi-socket machine — and, for SYN/REAL, every section of a point whose
team the walk does not model (a Cilk or ``omp_task`` paradigm, ``t >
n_cores``, or a context-switch cost with ``t > 1``).  FF runs each of
them on the heap walk (``FastForwardEmulator.emulate_section`` /
``emulate_chain``), and one :class:`~repro.core.executor.ParallelExecutor`
replays each of them for SYN/REAL (``execute_section`` /
``execute_chain``, through the section memo) under the point's paradigm,
schedule and lock-handoff policy; the task-pool paradigms replay a nowait
chain's sections one at a time, as the executor does.  The point's totals
and per-section speedups are summed exactly as ``emulate_profile``,
``execute_profile`` and ``Synthesizer.predict`` sum them.

Every result is cached on the engine under a key of the inputs its
evaluation reads.  Only ``SimMutex`` consults the handoff policy, so the
policy and its seed key only a delegated item whose subtree holds an
``L`` node: walked and lock-free sections serve every explored handoff
variant from one evaluation.  The schedule keys the FF walks, the team
walks and an OpenMP worksharing replay (paradigm ``omp``, a non-pipeline
section or a nowait chain); the task pools (``CilkPool``,
``OmpTaskPool``) and ``replay_pipeline_section`` never read it, so such a
replay serves every schedule of its (paradigm, t, burden) column.  Both
flags are computed once per item when the profile is lowered.

The engine serves every grid point, and the eager paths remain the parity
oracles: every served point is ``==`` its oracle.  The FF walks add the
heap walk's terms in its order, and the team walk reproduces the DES
kernel's arithmetic bit for bit (``simos.kernel``'s absolute-form segment
rating, its demand-signature cache and its ``(time, core)`` event order).
``columnar.hits`` counts the served points.

Determinism: results are pure functions of (profile, paradigm, schedule,
t, handoff);
a grid point's value never depends on which other points share its batch.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from typing import Literal

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
from repro.runtime.tasks import Schedule
from repro.simhw.dram import DRAM_SOLVE_CACHE, DramModel, _quantize
from repro.simhw.machine import MachineConfig
from repro.validate.invariants import get_checker


class _SecCols:
    """One top-level section lowered to per-run iteration counts and ops."""

    __slots__ = (
        "node", "name", "repeat", "n_iters", "counts", "real_ops", "missy",
    )

    def __init__(self, node: Node, machine: MachineConfig) -> None:
        self.node = node
        self.name = node.name
        self.repeat = node.repeat
        stall = machine.base_miss_stall
        #: Per-run REAL ops of one iteration for the team walk.
        real_ops: list[tuple] = []
        missy = False
        for task in node.children:
            ops = []
            for leaf in task.children:
                # Leaf-only eligibility is checked by the caller.
                cc = (leaf.cpu_cycles + leaf.llc_misses * stall) * leaf.repeat
                mm = leaf.llc_misses * leaf.repeat
                if cc > 0.0:  # executor._leaf_compute × repeat; else instant
                    ops.append(_lane(machine, cc, mm) if mm else float(cc))
                    missy = missy or bool(mm)
            real_ops.append(tuple(ops))
        #: Iterations per run (the runs' TASK repeats).
        self.counts = [task.repeat for task in node.children]
        self.n_iters = sum(self.counts)
        self.real_ops = real_ops
        #: Whether a timed compute demands memory (REAL replays walk it).
        self.missy = missy


def _locked(item: Node) -> bool:
    """Whether ``item``'s subtree holds an ``L`` node: only then can a
    replay of it consult the lock-handoff policy."""
    return any(node.kind is NodeKind.L for node in item.walk())


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

    Construct once per (profile, overheads) and consult per grid point
    through :meth:`ff_point`, :meth:`syn_point` and :meth:`real_point`,
    which serve every point.  The program is lowered once, at
    construction; every section's per-point result is cached on the
    engine under the inputs it reads, so a whole sweep column shares one
    lowering, a lock-free section replays once across handoff variants,
    and a task-pool or pipeline section once across schedules.  Serve
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
        #: chain's sections too): ``(schedule, handoff)`` flags, see
        #: :meth:`_delegate`.
        self._reads: dict[int, tuple[bool, bool]] = {}
        tree: ProgramTree = profile.tree
        # One tree walk per top-level node; the sums below add these
        # lengths in the order ``serial_cycles`` and the emulators do.
        top = tree.root.children
        length = {id(node): node.subtree_length() for node in top}
        for item in group_nowait_chains(top):
            if isinstance(item, list):  # a nowait chain: delegated
                serial = sum(length[id(sec)] for sec in item)
                for sec in item:  # task pools replay them one at a time
                    self._reads[id(sec)] = (True, _locked(sec))
                self._reads[id(item)] = (
                    True, any(self._reads[id(sec)][1] for sec in item)
                )
            elif item.kind is NodeKind.U:
                self._items.append(item.length * item.repeat)
                continue
            else:
                serial = length[id(item)]
                # A lowered section is delegated when its point's team is
                # not walked.
                self._reads[id(item)] = (not item.pipeline, _locked(item))
                if _lowerable(item):
                    item = _SecCols(item, self.machine)
                    self._secs.append(item)
                # else locks, nesting or a pipeline: delegated
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

        Lowered sections take the heap-free walks of ``_ff_section``;
        delegated items run on the heap walk itself.  Every item's cycles
        are cached per (item, schedule, t, β)."""
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
            else:
                # FF ignores the paradigm and the lock-handoff policy;
                # omp and fifo key its cache.
                name, cycles = self._delegate(
                    item, schedule, t, _FF, "omp", burdens, "fifo", 0
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
        fork = oh.omp_fork_base + oh.omp_fork_per_thread * (t - 1)
        iters: list = []
        for task, count in zip(sc.node.children, sc.counts):
            # The heap walk's per-leaf step: (length*β)*repeat.
            iters += [[(u.length * beta) * u.repeat for u in task.children]] * count
        n = sc.n_iters
        if schedule.is_dynamic_family:
            chunks = [range(c[0], c[-1] + 1) for c in schedule.chunks(n, t)]
            end = _ff_greedy(t, fork, oh.omp_dynamic_dispatch, chunks, iters)
        else:
            end = _ff_static(
                fork, oh.omp_static_dispatch, schedule.static_chunks(n, t), iters
            )
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
        it, so one replay serves every schedule of the point's column.  The
        handoff policy and seed are read only by ``SimMutex``, so they key
        an item only when its subtree holds an ``L`` node.  Both flags were
        computed when the profile was lowered."""
        chain = isinstance(item, list)
        if chain:
            beta = tuple(burdens.get(sec.name, 1.0) for sec in item)
        else:
            beta = burdens.get(item.name, 1.0)
        iid = id(item)
        worksharing, locked = self._reads[iid]
        if mode is _FF or (worksharing and paradigm == "omp"):
            kind, chunk = schedule.kind, schedule.chunk
        else:
            kind = chunk = None
        if locked:
            key = (mode, paradigm, iid, kind, chunk, t, beta, handoff,
                   handoff_seed)
        else:
            key = (mode, paradigm, iid, kind, chunk, t, beta)
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

    def _walk_sections(
        self, walked: list[tuple], schedule: Schedule, t: int
    ) -> list[tuple]:
        """Each ``(key, section, beta)``'s team-walk ``(gross, traversal)``,
        in order, cached under its key.  The uncached walks run in one
        lockstep driver (batched DRAM bisection)."""
        cache = self._point_cache
        walks, keys = [], []
        for key, sc, beta in walked:
            if key not in cache:
                walks.append(self._walk(sc, schedule, t, beta))
                keys.append(key)
        if walks:
            for key, result in zip(keys, _drive_walks(walks, self.machine)):
                cache[key] = result
        return [cache[key] for key, _, _ in walked]

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
        pool or no memory demand.  Every other section is delegated to the
        executor under the point's paradigm, schedule and ``handoff``; the
        task-pool paradigms replay a nowait chain's sections one at a
        time, as the executor groups them."""
        machine = self.machine
        omp = paradigm == "omp"
        team = omp and t <= machine.n_cores and (
            t == 1 or machine.context_switch_cycles == 0.0
        )
        fake = mode is ReplayMode.FAKE
        one_pool = machine.n_sockets == 1

        def walked(item) -> bool:
            return (
                team
                and isinstance(item, _SecCols)
                and (fake or one_pool or not item.missy)
            )

        walks = []
        for sc in self._secs:
            if walked(sc):
                beta = burdens.get(sc.name, 1.0) if fake else None
                key = (mode, id(sc), schedule.kind, schedule.chunk, t, beta)
                walks.append((key, sc, beta))
        results = iter(self._walk_sections(walks, schedule, t))
        total = 0.0
        runs: list[tuple[str, float, int]] = []
        for item in self._items:
            if isinstance(item, float):
                total += item
                continue
            if walked(item):
                gross, trav = next(results)
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
        ``ParallelExecutor.execute_profile`` computes it.  The team walks'
        DRAM solves are batched."""
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
        for r, count in enumerate(sc.counts):
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
                lo, hi = chunk[0], chunk[-1] + 1
                chunk_ops.append(list(_flat(iters[lo:hi])))
                tr = 0.0
                for x in iter_trav[lo:hi]:
                    tr += x
                chunk_trav.append(tr)
            chains = [[]] + [prefix] * (t - 1)
            return _team_walk(
                t, start, jb, chains, trav, (chunk_ops, chunk_trav, disp)
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
        return _team_walk(t, start, jb, chains, trav)


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

    Each walk keeps its own LRU memo (as the executor runs one kernel —
    hence one DRAM pool — per section replay); every round, all walks blocked on an
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
    paradigm: str = "omp",
) -> tuple[int, list[str]]:
    """Columnar-vs-eager re-verification (``repro check --quick``).

    Evaluates every (method, schedule, t) grid point — ``methods`` any of
    ``"ff"``, ``"syn"`` and ``"real"``, under ``paradigm`` — through
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
                    memory_model=memory_model,
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
                        f"columnar {method}/{served.schedule}/t={t}: "
                        f"{served.speedup!r} vs eager {eager.speedup!r}"
                    )
    return checked, mismatches
