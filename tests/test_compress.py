"""Tests for RLE + dictionary tree compression (paper Section VI-B)."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compress import compress_tree
from repro.core.profiler import IntervalProfiler
from repro.core.serialize import tree_to_dict
from repro.core.tree import Node, NodeKind, ProgramTree
from repro.errors import ConfigurationError
from repro.simhw import MachineConfig
from repro.simhw.memtrace import AccessPattern, MemSpec


def uniform_loop_tree(n_tasks=100, length=1000.0) -> ProgramTree:
    root = Node(NodeKind.ROOT)
    sec = root.add(Node(NodeKind.SEC, name="loop"))
    for _ in range(n_tasks):
        task = sec.add(Node(NodeKind.TASK))
        task.add(Node(NodeKind.U, length=length))
    return ProgramTree(root)


def jittered_loop_tree(n_tasks=100, base=1000.0, jitter=0.02) -> ProgramTree:
    root = Node(NodeKind.ROOT)
    sec = root.add(Node(NodeKind.SEC, name="loop"))
    for i in range(n_tasks):
        task = sec.add(Node(NodeKind.TASK))
        task.add(Node(NodeKind.U, length=base * (1 + jitter * ((i % 3) - 1))))
    return ProgramTree(root)


class TestRLE:
    def test_uniform_loop_collapses(self):
        tree = uniform_loop_tree(100)
        stats = compress_tree(tree, tolerance=0.0)
        # 100 identical tasks collapse to one with repeat=100.
        sec = tree.top_level_sections()[0]
        assert len(sec.children) == 1
        assert sec.children[0].repeat == 100
        assert stats.nodes_after < stats.nodes_before

    def test_total_length_preserved_exactly(self):
        tree = jittered_loop_tree(99, jitter=0.02)
        before = tree.serial_cycles()
        compress_tree(tree, tolerance=0.05)
        assert tree.serial_cycles() == pytest.approx(before, rel=1e-12)

    def test_zero_tolerance_is_lossless(self):
        tree = jittered_loop_tree(60, jitter=0.04)
        lengths_before = sorted(
            round(n.length, 6) for n in tree.root.walk() if n.is_leaf
        )
        compress_tree(tree, tolerance=0.0)
        # Distinct lengths survive; only exact duplicates merged.
        lengths_after = set()
        for n in tree.root.walk():
            if n.is_leaf:
                lengths_after.add(round(n.length, 6))
        assert lengths_after == set(lengths_before)

    def test_alternating_pattern_not_merged_at_zero_tolerance(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        for i in range(10):
            task = sec.add(Node(NodeKind.TASK))
            task.add(Node(NodeKind.U, length=100.0 if i % 2 == 0 else 500.0))
        tree = ProgramTree(root)
        compress_tree(tree, tolerance=0.0)
        sec = tree.top_level_sections()[0]
        assert len(sec.children) == 10  # nothing adjacent is similar

    def test_tolerance_merges_jitter(self):
        tree = jittered_loop_tree(90, jitter=0.02)
        compress_tree(tree, tolerance=0.05)
        sec = tree.top_level_sections()[0]
        assert len(sec.children) == 1
        assert sec.children[0].repeat == 90

    def test_run_compares_with_its_first_member(self):
        # 104 is within 5 % of 100 and 107 of 104, but 107 is not of 100.
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        for length in (100.0, 104.0, 107.0):
            sec.add(Node(NodeKind.TASK)).add(Node(NodeKind.U, length=length))
        tree = ProgramTree(root)
        compress_tree(tree, tolerance=0.05)
        tasks = tree.top_level_sections()[0].children
        assert [t.repeat for t in tasks] == [2, 1]
        assert [t.children[0].length for t in tasks] == [102.0, 107.0]

    def test_lock_nodes_not_merged_across_ids(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        for lock in (1, 2):
            task = sec.add(Node(NodeKind.TASK))
            task.add(Node(NodeKind.L, length=100, lock_id=lock))
        tree = ProgramTree(root)
        compress_tree(tree, tolerance=0.5)
        assert len(tree.top_level_sections()[0].children) == 2


class TestDictionary:
    def test_identical_sections_shared(self):
        root = Node(NodeKind.ROOT)
        for _ in range(5):
            sec = root.add(Node(NodeKind.SEC, name="x"))
            task = sec.add(Node(NodeKind.TASK))
            task.add(Node(NodeKind.U, length=100))
        tree = ProgramTree(root)
        compress_tree(tree, tolerance=0.0)
        # All five sections now reference one canonical instance.
        assert len({id(c) for c in tree.root.children}) == 1
        assert tree.logical_nodes() > tree.unique_nodes()

    def test_cg_like_reduction_exceeds_90_percent(self):
        """The paper's CG example: repeated identical iterations compress by
        93 %.  Repeated sections of uniform tasks must do at least as well."""
        root = Node(NodeKind.ROOT)
        for _it in range(50):
            for name in ("matvec", "reduce", "axpy"):
                sec = root.add(Node(NodeKind.SEC, name=name))
                for _ in range(64):
                    task = sec.add(Node(NodeKind.TASK))
                    task.add(Node(NodeKind.U, length=1000))
        tree = ProgramTree(root)
        stats = compress_tree(tree, tolerance=0.05)
        assert stats.reduction > 0.90

    def test_reduction_metric(self):
        tree = uniform_loop_tree(50)
        stats = compress_tree(tree)
        assert 0.0 <= stats.reduction < 1.0
        assert stats.bytes_after < stats.bytes_before


class TestEdgeCases:
    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigurationError):
            compress_tree(uniform_loop_tree(5), tolerance=-0.1)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ConfigurationError, match="finite"):
            compress_tree(uniform_loop_tree(5), tolerance=tolerance)

    def test_nan_tolerance_does_not_merge_silently(self):
        # A 100/101/102-cycle loop: 8 nodes raw, which a NaN tolerance
        # used to keep while claiming to have compressed.
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC, name="loop"))
        for length in (100.0, 101.0, 102.0):
            sec.add(Node(NodeKind.TASK)).add(Node(NodeKind.U, length=length))
        tree = ProgramTree(root)
        with pytest.raises(ConfigurationError):
            compress_tree(tree, tolerance=math.nan)
        assert tree.unique_nodes() == 8
        assert compress_tree(tree, tolerance=0.05).nodes_after == 4

    def test_empty_tree(self):
        tree = ProgramTree(Node(NodeKind.ROOT))
        stats = compress_tree(tree)
        assert stats.nodes_after == 1

    def test_single_task(self):
        tree = uniform_loop_tree(1)
        compress_tree(tree)
        assert tree.serial_cycles() == pytest.approx(1000.0)

    def test_nested_sections_compress(self):
        root = Node(NodeKind.ROOT)
        outer = root.add(Node(NodeKind.SEC, name="outer"))
        for _ in range(10):
            task = outer.add(Node(NodeKind.TASK))
            inner = task.add(Node(NodeKind.SEC, name="inner"))
            for _ in range(10):
                it = inner.add(Node(NodeKind.TASK))
                it.add(Node(NodeKind.U, length=42))
        tree = ProgramTree(root)
        before = tree.serial_cycles()
        stats = compress_tree(tree, tolerance=0.05)
        assert tree.serial_cycles() == pytest.approx(before)
        assert stats.nodes_after <= 6

    def test_compressed_tree_still_validates(self):
        tree = jittered_loop_tree(40)
        compress_tree(tree, tolerance=0.05)
        tree.root.validate()

    def test_work_composition_preserved(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        for _ in range(10):
            task = sec.add(Node(NodeKind.TASK))
            task.add(
                Node(
                    NodeKind.U,
                    length=100,
                    cpu_cycles=80,
                    instructions=90,
                    llc_misses=2,
                )
            )
        tree = ProgramTree(root)
        compress_tree(tree, tolerance=0.0)
        merged = tree.top_level_sections()[0].children[0].children[0]
        assert merged.cpu_cycles == pytest.approx(80)
        assert merged.instructions == pytest.approx(90)
        assert merged.llc_misses == pytest.approx(2)


class TestLossyCompression:
    """Paper §VI-B: lossy compression as a last resort for IS-like trees."""

    def _is_like_tree(self, n=200, seed=3):
        import numpy as np

        rng = np.random.default_rng(seed)
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC, name="rank"))
        for cost in 1000.0 * rng.lognormal(0.0, 0.7, size=n):
            task = sec.add(Node(NodeKind.TASK))
            task.add(Node(NodeKind.U, length=float(cost)))
        return ProgramTree(root)

    def test_lossless_fails_on_random_lengths(self):
        from repro.core.compress import compress_tree

        tree = self._is_like_tree()
        stats = compress_tree(tree, tolerance=0.05)
        assert stats.reduction < 0.30  # RLE finds almost nothing

    def test_lossy_compresses_hard(self):
        from repro.core.compress import compress_tree_lossy

        tree = self._is_like_tree()
        stats = compress_tree_lossy(tree, lossy_tolerance=0.20)
        assert stats.lossy
        assert stats.reduction > 0.70

    def test_lossy_error_bounded(self):
        from repro.core.compress import compress_tree_lossy

        tree = self._is_like_tree()
        lengths_before = [
            n.length for n in tree.root.walk() if n.is_leaf
        ]
        total_before = tree.serial_cycles()
        compress_tree_lossy(tree, lossy_tolerance=0.20)
        # Totals drift by at most the relative tolerance.
        assert abs(tree.serial_cycles() - total_before) / total_before < 0.20

    def test_lossy_per_leaf_bound(self):
        from repro.core.compress import _quantize_leaves

        tree = self._is_like_tree(n=50)
        before = {
            id(n): n.length for n in tree.root.walk() if n.is_leaf
        }
        _quantize_leaves(tree.root, 0.10)
        for n in tree.root.walk():
            if n.is_leaf:
                rel = abs(n.length - before[id(n)]) / before[id(n)]
                assert rel <= 0.10 + 1e-9

    def test_lossy_scales_work_composition(self):
        from repro.core.compress import compress_tree_lossy

        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        task = sec.add(Node(NodeKind.TASK))
        task.add(
            Node(NodeKind.U, length=1037.0, cpu_cycles=800.0, llc_misses=4.0)
        )
        tree = ProgramTree(root)
        compress_tree_lossy(tree, lossy_tolerance=0.2)
        leaf = tree.root.children[0].children[0].children[0]
        # Composition rates are quantised on the same grid: the cpu/length
        # ratio drifts by at most ~the tolerance (not preserved exactly —
        # that's what makes leaves dictionary-sharable).
        assert leaf.cpu_cycles / leaf.length == pytest.approx(
            800.0 / 1037.0, rel=0.25
        )
        assert leaf.cpu_cycles <= leaf.length

    def test_invalid_tolerance(self):
        from repro.core.compress import compress_tree_lossy

        with pytest.raises(ConfigurationError):
            compress_tree_lossy(self._is_like_tree(), lossy_tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [-0.2, math.nan, math.inf])
    def test_bad_tolerance_is_a_configuration_error(self, tolerance):
        from repro.core.compress import compress_tree_lossy

        with pytest.raises(ConfigurationError, match="lossy_tolerance"):
            compress_tree_lossy(self._is_like_tree(), lossy_tolerance=tolerance)


# ------------------------------------------- compression while tracing

M = MachineConfig(n_cores=4)
#: Nearby lengths merge at 5 % or 50 % but not at 0, and chains such as
#: 100/104/107 tell a run compared with its first member from one compared
#: with its last; the memory spec gives leaves non-zero miss counts.
CYCLES = st.sampled_from([0, 100, 101.5, 104, 107, 130, 180, 300])
MEM = MemSpec(AccessPattern.STREAMING, bytes_touched=64 * 500)


@st.composite
def leaves(draw):
    """("U", cycles, mem) or ("L", lock, cycles, mem)."""
    cycles, mem = draw(CYCLES), draw(st.booleans())
    if draw(st.booleans()):
        return ("U", cycles, mem)
    return ("L", draw(st.integers(1, 2)), cycles, mem)


@st.composite
def sections(draw, depth):
    """("SEC", name, nowait, runs, tasks): ``runs`` back-to-back copies."""
    name = draw(st.sampled_from(["a", "b"]))
    nowait = draw(st.booleans())
    runs = draw(st.integers(1, 3))
    n_tasks = draw(st.integers(1, 4))
    body = st.lists(
        leaves() | sections(depth - 1) if depth > 0 else leaves(),
        min_size=0,
        max_size=3,
    )
    tasks = [draw(body) for _ in range(n_tasks)]
    return ("SEC", name, nowait, runs, tasks)


@st.composite
def pipelines(draw, stage_counts=None):
    """("PIPE", name, tasks): each task a list of stages of leaves."""
    if stage_counts is None:
        n_tasks = draw(st.integers(1, 4))
        stage_counts = [draw(st.integers(1, 3))] * n_tasks
    stage = st.lists(leaves(), min_size=1, max_size=2)
    tasks = [[draw(stage) for _ in range(n)] for n in stage_counts]
    return ("PIPE", draw(st.sampled_from(["p", "q"])), tasks)


def programs(top=None):
    """Top-level serial leaves, sections (nested, nowait, repeated) and
    pipelines."""
    if top is None:
        top = st.tuples(st.just("U"), CYCLES, st.booleans()) | sections(2)
        top |= pipelines()
    return st.lists(top, min_size=0, max_size=5)


def _leaf(tr, item):
    if item[0] == "U":
        _, cycles, mem = item
        tr.compute(cycles, mem=MEM if mem else None)
    else:
        _, lock, cycles, mem = item
        with tr.lock(lock):
            tr.compute(cycles, mem=MEM if mem else None)


def _run(tr, item):
    if item[0] == "SEC":
        _, name, nowait, runs, tasks = item
        for _ in range(runs):
            with tr.section(name, barrier=not nowait):
                for body in tasks:
                    with tr.task():
                        for sub in body:
                            _run(tr, sub)
    elif item[0] == "PIPE":
        _, name, tasks = item
        with tr.section(name, pipeline=True):
            for stages in tasks:
                with tr.task():
                    for stage in stages:
                        with tr.stage():
                            for sub in stage:
                                _leaf(tr, sub)
    else:
        _leaf(tr, item)


def _program(items):
    def program(tr):
        for item in items:
            _run(tr, item)

    return program


def _serialized(tree):
    return json.dumps(tree_to_dict(tree), sort_keys=True)


class TestFoldWhileTracing:
    """The profiler's fold while tracing equals the batch pass over the raw
    tree: same stored tree, same counts, bit-equal net cycles."""

    @given(
        programs(),
        st.sampled_from([0.0, 0.05, 0.5]),
        st.sampled_from([1.0, 0.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_fold_equals_batch_pass(self, items, tolerance, accuracy):
        # At accuracy < 1 a node's measured length keeps some tracer
        # overhead, so it differs from the sum of its children's lengths.
        program = _program(items)
        folded = IntervalProfiler(
            M, tolerance=tolerance, overhead_subtraction_accuracy=accuracy
        ).profile(program)
        raw = IntervalProfiler(
            M, compress=False, overhead_subtraction_accuracy=accuracy
        ).profile(program)
        net_raw = raw.tree.serial_cycles()
        stats = compress_tree(raw.tree, tolerance=tolerance)
        assert _serialized(folded.tree) == _serialized(raw.tree)
        assert folded.compression == stats
        assert repr(folded.stats.net_program_cycles) == repr(net_raw)

    @given(
        programs(sections(1) | pipelines()),
        st.lists(st.integers(1, 3), min_size=2, max_size=5).filter(
            lambda counts: len(set(counts)) > 1
        ),
        st.data(),
        st.sampled_from([0.0, 0.05, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_stage_count_error_is_the_same(self, items, counts, data, tolerance):
        bad = data.draw(pipelines(stage_counts=counts))
        at = data.draw(st.integers(0, len(items)))
        program = _program(items[:at] + [bad] + items[at:])
        with pytest.raises(ConfigurationError) as folded:
            IntervalProfiler(M, tolerance=tolerance).profile(program)
        with pytest.raises(ConfigurationError) as raw:
            IntervalProfiler(M, compress=False).profile(program)
        assert "disagree on stage count" in str(raw.value)
        assert str(folded.value) == str(raw.value)
