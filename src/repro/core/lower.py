"""One lowering of a section's task bodies, read by every replay of it.

The paper's synthesizer (Section IV-E) generates one fake-delay program
from the program tree.  Here a section is lowered once per ``(β, OpenMP
team or task pool)`` — β None for the REAL replay, which re-runs each
leaf's measured work — and the columnar team walk, the pool walk and
:class:`~repro.core.executor.ParallelExecutor`'s kernel replay all read
the result.  Per leaf of a task the stream holds, in order:

- in the synthesizer's program, the traversal visit of the node,
  ``OVERHEAD_ACCESS_NODE`` cycles plus ``OVERHEAD_RECURSIVE_CALL`` for a
  nested section;
- a ``U`` leaf's work times its repeat: REAL ``cpu_cycles +
  llc_misses·base_miss_stall`` cycles with its instructions and misses,
  FAKE a ``length·β`` delay;
- per repeat of an ``L`` leaf: under a team the ``omp_lock_acquire``
  call, the acquire of its lock, one pass of its work, the release and
  under a team the ``omp_lock_release`` call;
- per activation of a nested section, a fork of it.

Nested sections lower with their parent at the same β and share its
dense lock index, as a replay shares one mutex per lock id across the
nesting levels.  Visit costs are multiples of 50 cycles, so traversal
sums are exact in any order.
"""

from __future__ import annotations

from typing import Optional

from repro.core.tree import Node, NodeKind
from repro.errors import EmulationError
from repro.runtime.overhead import RuntimeOverheads
from repro.simhw.dram import _quantize
from repro.simhw.machine import MachineConfig
from repro.simos import Compute

#: Synthesizer per-node traversal costs (paper Section IV-E: "these two units
#: of overhead on our machine are both approximately 50 cycles").
OVERHEAD_ACCESS_NODE = 50.0
OVERHEAD_RECURSIVE_CALL = 50.0


class Section:
    """A section lowered for one ``(β, team or pool)``.

    ``ops[i]`` is its ``i``-th task node's stream as ``walk.team_walk``
    reads it: a float is a demand-free segment or a visit of that many
    cycles, a tuple a missy lane (:func:`_lane`), an int ``ix >= 0`` the
    acquire of the section's lock ``ix`` and ``~ix`` its release, and a
    :class:`Section` a fork; instant segments are left out.  ``trav[i]``
    sums the task's visits.  ``lock_ids`` maps each lock id to its dense
    index; ``missy`` tells whether a segment, nested ones included,
    demands memory, and ``nested`` whether a task forks.  A section holds
    no reference back to its parent, so a dropped lowering is freed at
    once."""

    __slots__ = (
        "node", "name", "repeat", "ops", "trav", "n_iters", "lock_ids",
        "missy", "nested", "_spec", "_reqs",
    )

    def __init__(self, node: Node, spec: tuple, lock_ids: dict[int, int]) -> None:
        self.node = node
        self.name = node.name
        self.repeat = node.repeat
        self.ops: list[tuple] = []
        self.trav: list[float] = []
        self.n_iters = sum(task.repeat for task in node.children)
        self.lock_ids = lock_ids
        self.missy = False
        self.nested = False
        #: ``(machine, β, lock-call cycles)``: what :meth:`_leaf` reads.
        self._spec = spec
        self._reqs: Optional[list] = None

    def _add(self, task: Node, section) -> None:
        """Rate ``task`` for the walk into ``ops`` and ``trav``;
        ``section(node)`` lowers a nested section."""
        ops: list = []
        trav = 0.0
        leaf_stream = self._leaf
        for leaf in task.children:
            visit, body, times = leaf_stream(leaf, section, False)
            if visit is not None:
                ops.append(visit)
                trav += visit
            ops += body if times == 1 else body * times
        self.ops.append(tuple(ops))
        self.trav.append(trav)

    def requests(self, i: int) -> list:
        """The kernel's form of task ``i``'s stream: a ``Compute`` per
        segment (instant ones too, with the instructions and misses they
        count), a float per visit, and the lock ops and forks of
        ``ops[i]``.  Only a kernel replay asks for it, so a walked section
        never builds it; it is kept once built."""
        if self._reqs is None:
            self._reqs = [None] * len(self.ops)
        got = self._reqs[i]
        if got is None:
            forks = {id(op.node): op for op in self.ops[i]
                     if op.__class__ is Section}
            got = []
            for leaf in self.node.children[i].children:
                visit, body, times = self._leaf(
                    leaf, lambda n: forks[id(n)], True
                )
                if visit is not None:
                    got.append(visit)
                got += body * times
            # Published whole: serve threads may share the lowering.
            self._reqs[i] = got
        return got

    def _leaf(self, leaf: Node, section, kernel: bool):
        """``leaf``'s traversal visit (None in the REAL replay), the stream
        of one pass through it, for the walk or, with ``kernel``, for the
        kernel, and its number of passes; ``section(node)`` gives a nested
        section's lowering."""
        machine, beta, calls = self._spec
        kind = leaf.kind
        visit = None
        if beta is not None:
            visit = OVERHEAD_ACCESS_NODE
            if kind is NodeKind.SEC:
                visit += OVERHEAD_RECURSIVE_CALL
        if kind is NodeKind.SEC:
            sub = section(leaf)
            self.missy = self.missy or sub.missy
            self.nested = True
            return visit, [sub], leaf.repeat
        if kind is NodeKind.L:
            reps, times = 1, leaf.repeat
        elif kind is NodeKind.U:
            reps, times = leaf.repeat, 1
        else:  # pragma: no cover - validated trees
            raise EmulationError(f"bad node inside task: {leaf!r}")
        instructions = misses = 0.0
        if beta is None:
            base = leaf.cpu_cycles + leaf.llc_misses * machine.base_miss_stall
            cycles = base * reps
            instructions = leaf.instructions * reps
            misses = leaf.llc_misses * reps
        else:
            # FakeDelay(length * β): spins without touching memory.
            cycles = (leaf.length * beta) * reps
        seg = self._segment(kernel, cycles, instructions, misses)
        if kind is NodeKind.U:
            return visit, seg, times
        ix = self.lock_ids.setdefault(leaf.lock_id, len(self.lock_ids))
        crit = [ix, *seg, ~ix]
        if calls is not None:
            crit = (self._segment(kernel, calls[0]) + crit
                    + self._segment(kernel, calls[1]))
        return visit, crit, times

    def _segment(self, kernel: bool, cycles, instructions=0.0,
                 misses=0.0) -> list:
        """A segment: for the kernel its ``Compute``; for the walk its
        cycles, a missy lane when it misses, or nothing when it is instant
        (a zero-cycle ``Compute`` is, in ``SimKernel._h_compute``)."""
        if kernel:
            return [Compute(cycles, instructions, misses)]
        if cycles <= 0.0:
            return []
        if misses:
            self.missy = True
            return [_lane(self._spec[0], cycles, misses)]
        return [float(cycles)]


def lower(
    cache: dict,
    node: Node,
    machine: MachineConfig,
    overheads: RuntimeOverheads,
    beta: Optional[float],
    team: bool,
) -> Section:
    """The section ``node`` (SEC -> TASK -> ``U``/``L`` leaves and nested
    sections) lowered for the REAL replay (``beta`` None) or the
    synthesizer's program at burden ``beta``, under an OpenMP team
    (``team``) or a task pool: from ``cache``, or lowered into it.

    ``cache`` keys a lowering by ``(id(node), beta, team)``, so it holds
    one machine's and one overheads' lowerings only.  Each entry keeps its
    node alive, so the id is not reused while the entry stands."""
    key = (id(node), beta, team)
    got = cache.get(key)
    if got is not None:
        return got
    calls = None
    if team:
        calls = (overheads.omp_lock_acquire, overheads.omp_lock_release)
    spec = (machine, beta, calls)
    lock_ids: dict[int, int] = {}
    subs: dict[int, Section] = {}

    def section(node: Node) -> Section:
        sec = subs.get(id(node))
        if sec is None:
            sec = subs[id(node)] = Section(node, spec, lock_ids)
            for task in node.children:
                sec._add(task, section)
        return sec

    got = cache[key] = section(node)
    return got


def _lane(machine: MachineConfig, cycles: float, misses: float) -> tuple:
    """A missy lane op: ``(cycles, (f, d), memo key)``.  ``(f, d)`` are the
    exact formulas of ``SimKernel._attach_segment`` (zero switch debt); the
    key is quantized once here rather than per DRAM solve."""
    f = min(1.0, misses * machine.base_miss_stall / cycles) if cycles > 0 else 0.0
    seconds = machine.cycles_to_seconds(cycles) if cycles > 0 else 0.0
    d = (misses * machine.line_size / seconds) if seconds > 0 else 0.0
    return (float(cycles), (f, d), (_quantize(f), _quantize(d)))
