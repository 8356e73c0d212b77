"""Program-tree compression (paper Section VI-B).

A program tree records every loop iteration as a separate node, so trees can
be huge (the paper reports 10 GB for NPB-IS, and 13.5 GB → 950 MB, a 93 %
reduction, for NPB-CG).  Two lossless-within-tolerance passes fix this:

1. **Run-length encoding**: consecutive sibling subtrees that are similar —
   identical structure with leaf lengths within a relative ``tolerance``
   (the paper allows 5 % variation) — collapse into one node whose
   ``repeat`` is the run length and whose leaf lengths are the
   repeat-weighted averages.
2. **Dictionary sharing**: *exactly* identical subtrees anywhere in the
   tree are replaced by references to one canonical instance (subtree
   hash-consing), so repeated call patterns cost one copy.  After the RLE
   pass has averaged near-identical runs, repeated sections usually become
   exactly identical, which is what makes this pass effective.

The profiler never builds the full tree: its tracer folds each closing node
into its parent's pending run (:func:`fold_child`, :func:`flush_run`) while
the program runs, and :func:`compress_folded` then shares subtrees of the
short tree.  The batch passes, :func:`compress_tree` and
:func:`compress_tree_lossy`, fold runs with the same two helpers; they serve
loaded and hand-built trees and the lossy mode.  Both routes give the same
tree.

The total tree length is preserved exactly at any tolerance: RLE replaces
each run by its repeat-weighted average (sum-preserving) and dictionary
sharing only merges exact duplicates.

When iteration lengths are "extremely hard to compress in a lossless way"
(the paper's NPB-IS case: random per-iteration work), §VI-B allows lossy
compression "as a last resort".  :func:`compress_tree_lossy` implements it:
leaf lengths are quantised onto a relative log-scale grid of width
``lossy_tolerance`` *before* the lossless passes, so arbitrary same-shape
iterations collapse.  Each individual leaf moves by at most the tolerance;
totals drift by at most the same relative bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.tree import NODE_BYTES, Node, NodeKind, ProgramTree, nodes_similar
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CompressionStats:
    """Before/after sizes of a compression run."""

    logical_nodes: int
    nodes_before: int
    nodes_after: int
    #: True when leaf lengths were quantised (lossy mode).
    lossy: bool = False

    @property
    def bytes_before(self) -> int:
        return self.nodes_before * NODE_BYTES

    @property
    def bytes_after(self) -> int:
        return self.nodes_after * NODE_BYTES

    @property
    def reduction(self) -> float:
        """Fraction of node storage eliminated (the paper's '93 %')."""
        if self.nodes_before == 0:
            return 0.0
        return 1.0 - self.nodes_after / self.nodes_before


def check_tolerance(tolerance: float, name: str = "tolerance") -> float:
    """``tolerance`` if it is a finite number >= 0; else
    :class:`ConfigurationError` (a NaN tolerance would merge nothing)."""
    try:
        ok = math.isfinite(tolerance) and tolerance >= 0
    except TypeError:
        ok = False
    if not ok:
        raise ConfigurationError(
            f"{name} must be a finite number >= 0, got {tolerance!r}"
        )
    return tolerance


def compress_tree(tree: ProgramTree, tolerance: float = 0.05) -> CompressionStats:
    """Compress ``tree`` in place; returns statistics."""
    check_tolerance(tolerance)
    logical = tree.logical_nodes()
    before = tree.unique_nodes()
    _rle(tree.root, tolerance)
    _dictionary(tree.root)
    after = tree.unique_nodes()
    return CompressionStats(
        logical_nodes=logical, nodes_before=before, nodes_after=after
    )


def compress_folded(tree: ProgramTree, traced_nodes: int) -> CompressionStats:
    """Finish compressing a tree whose runs the tracer folded while tracing
    ``traced_nodes`` nodes (each with ``repeat`` 1): share its subtrees."""
    _dictionary(tree.root)
    return CompressionStats(
        logical_nodes=traced_nodes,
        nodes_before=traced_nodes,
        nodes_after=tree.unique_nodes(),
    )


def compress_tree_lossy(
    tree: ProgramTree, lossy_tolerance: float = 0.20
) -> CompressionStats:
    """Lossy compression (paper §VI-B's "last resort").

    Quantises every leaf length onto a relative grid of width
    ``lossy_tolerance`` (geometric buckets), then runs the lossless passes.
    Each leaf length moves by at most ``lossy_tolerance`` relative; work
    composition fields are scaled along so REAL replays stay consistent.
    """
    check_tolerance(lossy_tolerance, "lossy_tolerance")
    if lossy_tolerance == 0:
        raise ConfigurationError(
            f"lossy_tolerance must be > 0, got {lossy_tolerance!r}"
        )
    logical = tree.logical_nodes()
    before = tree.unique_nodes()
    _quantize_leaves(tree.root, lossy_tolerance)
    _rle(tree.root, tolerance=0.0)
    _dictionary(tree.root)
    after = tree.unique_nodes()
    return CompressionStats(
        logical_nodes=logical,
        nodes_before=before,
        nodes_after=after,
        lossy=True,
    )


def _quantize_leaves(node: Node, tolerance: float) -> None:
    log_step = math.log1p(tolerance)

    def grid(value: float) -> float:
        if value <= 0:
            return 0.0
        return math.exp(round(math.log(value) / log_step) * log_step)

    for n in node.walk():
        if not n.is_leaf or n.length <= 0:
            continue
        length_q = grid(n.length)
        # Quantise the work-composition *rates* on the same grid so leaves
        # with near-identical profiles become exactly identical (and thus
        # dictionary-sharable), each field moving <= ~2x the tolerance.
        n.cpu_cycles = grid(n.cpu_cycles / n.length) * length_q
        n.instructions = grid(n.instructions / n.length) * length_q
        n.llc_misses = grid(n.llc_misses / n.length) * length_q
        n.length = length_q
    _refresh_internal_lengths(node)


def _refresh_internal_lengths(node: Node) -> float:
    """Recompute internal node lengths from (quantised) children so that
    structurally identical subtrees also carry identical lengths — otherwise
    stale measured interval lengths defeat dictionary sharing."""
    if node.is_leaf:
        return node.length
    per_instance = sum(
        _refresh_internal_lengths(c) * c.repeat for c in node.children
    )
    node.length = per_instance
    return per_instance


# ---------------------------------------------------------------- RLE pass


def fold_child(
    children: list[Node], run: list[Node], child: Node, tolerance: float
) -> None:
    """Offer an already-folded ``child`` to its parent's pending ``run``.

    The child joins the run when it is mergeable with the run's first
    member; otherwise the run is flushed into ``children`` and the child
    starts a new one.
    """
    if run and not _mergeable(run[0], child, tolerance):
        children.append(_merge_run(run))
        run.clear()
    run.append(child)


def flush_run(children: list[Node], run: list[Node]) -> None:
    """Flush the pending ``run`` (if any) into ``children``."""
    if run:
        children.append(_merge_run(run))
        run.clear()


def _rle(node: Node, tolerance: float) -> None:
    for child in node.children:
        _rle(child, tolerance)
    if len(node.children) < 2:
        return
    children: list[Node] = []
    run: list[Node] = []
    for child in node.children:
        fold_child(children, run, child, tolerance)
    flush_run(children, run)
    node.children = children


def _mergeable(a: Node, b: Node, tolerance: float) -> bool:
    """Similarity for run merging: like nodes_similar but top-level repeat
    counts may differ (they are summed by the merge)."""
    if a.kind is not b.kind or a.lock_id != b.lock_id or a.nowait != b.nowait:
        return False
    if a.pipeline != b.pipeline:
        return False
    if a.kind is NodeKind.SEC and a.name != b.name:
        return False
    if len(a.children) != len(b.children):
        return False
    if a.is_leaf and not _close(a.length, b.length, tolerance):
        return False
    return all(
        nodes_similar(ca, cb, tolerance) for ca, cb in zip(a.children, b.children)
    )


def _close(x: float, y: float, tolerance: float) -> bool:
    hi = max(abs(x), abs(y))
    return hi == 0 or abs(x - y) <= tolerance * hi


def _merge_run(run: list[Node]) -> Node:
    if len(run) == 1:
        return run[0]
    total_repeat = sum(n.repeat for n in run)
    merged = _weighted_copy(run)
    merged.repeat = total_repeat
    return merged


def _weighted_copy(run: list[Node]) -> Node:
    """A copy of run[0] whose leaf values are repeat-weighted averages over
    the run, preserving each run's total length exactly."""
    first = run[0]
    weights = [n.repeat for n in run]
    total = sum(weights)
    node = Node(
        first.kind,
        first.name,
        length=sum(n.length * w for n, w in zip(run, weights)) / total,
        lock_id=first.lock_id,
        repeat=first.repeat,
        cpu_cycles=sum(n.cpu_cycles * w for n, w in zip(run, weights)) / total,
        instructions=sum(n.instructions * w for n, w in zip(run, weights)) / total,
        llc_misses=sum(n.llc_misses * w for n, w in zip(run, weights)) / total,
        nowait=first.nowait,
    )
    node.pipeline = first.pipeline
    for i in range(len(first.children)):
        node.children.append(_weighted_copy([n.children[i] for n in run]))
    return node


# ---------------------------------------------------------- dictionary pass


def _dictionary(root: Node) -> None:
    # A node's signature holds its children's ids, not their signatures:
    # children are made canonical first, so equal subtrees have equal
    # signatures and no lookup rehashes a whole subtree.
    table: dict[tuple, Node] = {}
    sec = NodeKind.SEC

    def dedup(node: Node) -> None:
        children = node.children
        for i, child in enumerate(children):
            dedup(child)
            kind = child.kind
            sig = (
                kind,
                # Section names carry identity (burden factors and
                # per-section reports key on them); merging same-shape
                # sections of different names would silently rename one.
                child.name if kind is sec else "",
                child.lock_id,
                child.nowait,
                child.pipeline,
                child.repeat,
                child.length,
                child.cpu_cycles,
                child.instructions,
                child.llc_misses,
                tuple(map(id, child.children)),
            )
            canonical = table.setdefault(sig, child)
            if canonical is not child:
                children[i] = canonical

    dedup(root)
