"""The program tree (paper Section IV-B, Fig. 4).

Interval profiling records the dynamic execution of an annotated serial
program as a tree of five node kinds:

- ``ROOT`` — holds top-level parallel sections and top-level serial
  computation;
- ``SEC`` — a parallel section (a loop or task group whose children may run
  concurrently);
- ``TASK`` — one parallel task (loop iteration); children execute
  sequentially within the task;
- ``U`` — computation outside any lock;
- ``L`` — computation inside a critical section, labelled with its lock id.

Each node carries the **measured net length** in cycles (profiling overhead
already excluded) plus — for ground-truth replay only — the work composition
(pure-CPU cycles, instructions, LLC misses).  Emulators are restricted to
``length`` and per-section counters, mirroring what the paper's tool can
actually observe; the replay fields correspond to re-running the real
computation, which is what "measure the actual parallelized code" does.

``repeat`` supports the compressed representation of Section VI-B: a node
with ``repeat = n`` stands for ``n`` consecutive identical siblings.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Optional

from repro.errors import ConfigurationError


class NodeKind(enum.Enum):
    """The five node kinds of a program tree (paper Fig. 4) + STAGE."""

    ROOT = "root"
    SEC = "sec"
    TASK = "task"
    U = "U"
    L = "L"
    #: Pipeline stage (extension, paper Section VII-E / [23]): tasks of a
    #: pipeline section consist of consecutive STAGE nodes; stage *s* of
    #: task *j* must follow stage *s* of task *j−1*.
    STAGE = "stage"


#: Approximate per-node memory cost used for compression reporting, matching
#: the order of magnitude of the paper's C++ node records (Section VI-B).
NODE_BYTES = 96


class Node:
    """One node of a program tree."""

    __slots__ = (
        "kind",
        "name",
        "length",
        "children",
        "lock_id",
        "repeat",
        "cpu_cycles",
        "instructions",
        "llc_misses",
        "nowait",
        "pipeline",
    )

    def __init__(
        self,
        kind: NodeKind,
        name: str = "",
        length: float = 0.0,
        lock_id: Optional[int] = None,
        repeat: int = 1,
        cpu_cycles: float = 0.0,
        instructions: float = 0.0,
        llc_misses: float = 0.0,
        nowait: bool = False,
    ) -> None:
        if length < 0:
            raise ConfigurationError(f"node length must be >= 0, got {length!r}")
        if repeat < 1:
            raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
        if kind is NodeKind.L and lock_id is None:
            raise ConfigurationError("L nodes require a lock_id")
        if kind is not NodeKind.L and lock_id is not None:
            raise ConfigurationError(f"{kind} nodes must not carry a lock_id")
        self.kind = kind
        self.name = name
        #: Measured net cycles of ONE instance (excluding repeats).
        self.length = length
        self.children: list[Node] = []
        self.lock_id = lock_id
        self.repeat = repeat
        #: Ground-truth work composition of one instance (leaves only).
        self.cpu_cycles = cpu_cycles
        self.instructions = instructions
        self.llc_misses = llc_misses
        #: SEC only: True if the section's implicit end barrier is waived.
        self.nowait = nowait
        #: SEC only: True if this section is a pipeline (tasks are ordered
        #: streams of STAGE nodes with cross-task stage serialisation).
        self.pipeline = False

    # -- structure -----------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.kind in (NodeKind.U, NodeKind.L)

    def add(self, child: "Node") -> "Node":
        """Append ``child`` and return it (builder sugar)."""
        self.children.append(child)
        return child

    def walk(self) -> Iterator["Node"]:
        """Depth-first pre-order iteration over *unique* nodes (repeats not
        expanded; a shared node comes once per parent), on an explicit stack
        rather than a generator per ancestor."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def fingerprint(self) -> tuple:
        """Structural identity of a subtree (all timing-relevant fields).

        Two nodes with equal fingerprints replay identically on equal
        machine/runtime configurations, which is what makes the cross-grid
        section memo sound: the simulation is deterministic in these inputs.
        """
        return (
            self.kind.value,
            self.name,
            self.length,
            self.lock_id,
            self.repeat,
            self.cpu_cycles,
            self.instructions,
            self.llc_misses,
            self.nowait,
            self.pipeline,
            tuple(c.fingerprint() for c in self.children),
        )

    def subtree_length(self) -> float:
        """Total serial cycles of this subtree, expanding repeats."""
        if self.is_leaf:
            return self.length * self.repeat
        return self.repeat * sum(c.subtree_length() for c in self.children)

    def logical_nodes(self) -> int:
        """Node count with repeats expanded (pre-compression size)."""
        own = 1
        if self.is_leaf:
            return self.repeat
        return self.repeat * (own + sum(c.logical_nodes() for c in self.children))

    def unique_nodes(self) -> int:
        """Distinct node objects reachable (post-compression size)."""
        seen: set[int] = set()
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            count += 1
            stack.extend(node.children)
        return count

    def copy_shallow(self) -> "Node":
        """A copy of this node sharing no children list (children refs kept)."""
        n = Node(
            self.kind,
            self.name,
            self.length,
            self.lock_id,
            self.repeat,
            self.cpu_cycles,
            self.instructions,
            self.llc_misses,
            self.nowait,
        )
        n.pipeline = self.pipeline
        n.children = list(self.children)
        return n

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ConfigurationError`.

        - ROOT children are SEC or U;
        - SEC children are TASK;
        - TASK children are U, L, or SEC;
        - leaves have no children.
        """
        allowed: dict[NodeKind, tuple[NodeKind, ...]] = {
            NodeKind.ROOT: (NodeKind.SEC, NodeKind.U),
            NodeKind.SEC: (NodeKind.TASK,),
            NodeKind.TASK: (NodeKind.U, NodeKind.L, NodeKind.SEC, NodeKind.STAGE),
            NodeKind.STAGE: (NodeKind.U, NodeKind.L),
            NodeKind.U: (),
            NodeKind.L: (),
        }
        for node in self.walk():
            kinds = allowed[node.kind]
            for child in node.children:
                if child.kind not in kinds:
                    raise ConfigurationError(
                        f"{node.kind.value} node {node.name!r} may not contain "
                        f"{child.kind.value} child {child.name!r}"
                    )
            if node.is_leaf and node.children:
                raise ConfigurationError(
                    f"leaf node {node.name!r} has children"
                )
            if node.kind is NodeKind.SEC and node.pipeline:
                stage_counts = {
                    sum(c.repeat for c in t.children if c.kind is NodeKind.STAGE)
                    for t in node.children
                }
                mixed = any(
                    c.kind is not NodeKind.STAGE
                    for t in node.children
                    for c in t.children
                )
                if mixed:
                    raise ConfigurationError(
                        f"pipeline section {node.name!r} tasks must contain "
                        "only STAGE nodes"
                    )
                if len(stage_counts) > 1:
                    raise ConfigurationError(
                        f"pipeline section {node.name!r} tasks disagree on "
                        f"stage count: {sorted(stage_counts)}"
                    )

    def pretty(self, indent: int = 0, max_depth: int = 12) -> str:
        """Human-readable rendering in the style of the paper's Fig. 4."""
        pad = "  " * indent
        label = self.kind.value if self.kind is not NodeKind.SEC else "Sec"
        rep = f" x{self.repeat}" if self.repeat > 1 else ""
        lock = f" lock={self.lock_id}" if self.lock_id is not None else ""
        name = f" {self.name!r}" if self.name else ""
        line = f"{pad}{label}{name}{lock} len={self.length:.0f}{rep}"
        if indent >= max_depth or not self.children:
            more = " ..." if self.children else ""
            return line + more
        return "\n".join(
            [line] + [c.pretty(indent + 1, max_depth) for c in self.children]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Node({self.kind.value}, {self.name!r}, len={self.length:.0f}, "
            f"children={len(self.children)}, repeat={self.repeat})"
        )


class ProgramTree:
    """The root of a recorded program plus derived whole-program metrics."""

    def __init__(self, root: Node) -> None:
        if root.kind is not NodeKind.ROOT:
            raise ConfigurationError("ProgramTree root must be a ROOT node")
        root.validate()
        self.root = root

    # -- structural queries -------------------------------------------------

    def top_level_sections(self) -> list[Node]:
        """SEC nodes directly under the root, in program order."""
        return [c for c in self.root.children if c.kind is NodeKind.SEC]

    def top_level_serial(self) -> list[Node]:
        """Serial U nodes directly under the root."""
        return [c for c in self.root.children if c.kind is NodeKind.U]

    def serial_cycles(self) -> float:
        """Total serial execution time recorded for the program."""
        return sum(c.subtree_length() * 1 for c in self.root.children)

    def section_cycles(self) -> float:
        """Total serial time spent inside parallel sections."""
        return sum(s.subtree_length() for s in self.top_level_sections())

    def serial_fraction(self) -> float:
        """Fraction of time outside any parallel section (Amdahl's s)."""
        total = self.serial_cycles()
        if total <= 0:
            return 0.0
        return 1.0 - self.section_cycles() / total

    def logical_nodes(self) -> int:
        """Node count with compression repeats expanded."""
        return self.root.logical_nodes()

    def unique_nodes(self) -> int:
        """Distinct stored node objects (post-compression size)."""
        return self.root.unique_nodes()

    def estimated_bytes(self, compressed: bool = True) -> int:
        """Approximate memory footprint of the stored tree."""
        n = self.unique_nodes() if compressed else self.logical_nodes()
        return n * NODE_BYTES

    def max_depth(self) -> int:
        """Depth of the deepest chain, counting the root."""
        def depth(node: Node) -> int:
            if not node.children:
                return 1
            return 1 + max(depth(c) for c in node.children)

        return depth(self.root)

    def map_leaves(self, fn: Callable[[Node], None]) -> None:
        """Apply ``fn`` to every unique leaf (used to apply burden factors)."""
        for node in self.root.walk():
            if node.is_leaf:
                fn(node)

    def pretty(self, max_depth: int = 12) -> str:
        """Fig. 4-style rendering of the whole tree."""
        return self.root.pretty(max_depth=max_depth)


def group_nowait_chains(children: list[Node]) -> list:
    """Group consecutive top-level SEC nodes joined by ``nowait`` into
    chains (lists of SEC nodes) to be executed by a single OpenMP team.

    Chainable nodes are plain sections executed once (``repeat == 1``, not
    pipelines); everything else passes through unchanged.  The returned list
    mixes :class:`Node` items and ``list[Node]`` chains.
    """

    def chainable(node: Node) -> bool:
        return node.kind is NodeKind.SEC and not node.pipeline and node.repeat == 1

    out: list = []
    i = 0
    while i < len(children):
        node = children[i]
        if chainable(node) and node.nowait and i + 1 < len(children):
            chain = [node]
            j = i + 1
            while j < len(children) and chainable(children[j]) and chain[-1].nowait:
                chain.append(children[j])
                j += 1
            if len(chain) > 1:
                out.append(chain)
                i = j
                continue
        out.append(node)
        i += 1
    return out


# -- similarity (used by compression and tests) ------------------------------


def nodes_similar(a: Node, b: Node, tolerance: float) -> bool:
    """Structural similarity with relative length tolerance (Section VI-B:
    "we allow 5 % of variation to be considered as the same length")."""
    if a.kind is not b.kind or a.lock_id != b.lock_id or a.nowait != b.nowait:
        return False
    if a.pipeline != b.pipeline:
        return False
    if a.kind is NodeKind.SEC and a.name != b.name:
        # Section names carry identity (burden factors key on them).
        return False
    if len(a.children) != len(b.children) or a.repeat != b.repeat:
        return False
    if a.is_leaf:
        if not _lengths_close(a.length, b.length, tolerance):
            return False
    return all(
        nodes_similar(ca, cb, tolerance) for ca, cb in zip(a.children, b.children)
    )


def _lengths_close(x: float, y: float, tolerance: float) -> bool:
    hi = max(abs(x), abs(y))
    if hi == 0:
        return True
    return abs(x - y) <= tolerance * hi
