"""Tests for program-tree structure, metrics, and validation."""

import pytest

from repro.core.tree import Node, NodeKind, ProgramTree, nodes_similar
from repro.errors import ConfigurationError


def leaf(length, lock_id=None, repeat=1):
    kind = NodeKind.L if lock_id is not None else NodeKind.U
    return Node(kind, length=length, lock_id=lock_id, repeat=repeat)


def simple_tree() -> ProgramTree:
    root = Node(NodeKind.ROOT)
    sec = root.add(Node(NodeKind.SEC, name="loop"))
    for i in range(3):
        task = sec.add(Node(NodeKind.TASK, name=f"t{i}"))
        task.add(leaf(100.0 * (i + 1)))
    root.add(Node(NodeKind.U, length=50.0))
    return ProgramTree(root)


class TestNodeConstruction:
    def test_l_requires_lock(self):
        with pytest.raises(ConfigurationError):
            Node(NodeKind.L, length=10)

    def test_u_rejects_lock(self):
        with pytest.raises(ConfigurationError):
            Node(NodeKind.U, length=10, lock_id=1)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            Node(NodeKind.U, length=-1)

    def test_zero_repeat_rejected(self):
        with pytest.raises(ConfigurationError):
            Node(NodeKind.U, length=1, repeat=0)


class TestStructureValidation:
    def test_valid_tree(self):
        simple_tree()  # no raise

    def test_task_under_root_rejected(self):
        root = Node(NodeKind.ROOT)
        root.add(Node(NodeKind.TASK))
        with pytest.raises(ConfigurationError):
            ProgramTree(root)

    def test_u_under_sec_rejected(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        sec.add(leaf(10))
        with pytest.raises(ConfigurationError):
            ProgramTree(root)

    def test_non_root_rejected(self):
        with pytest.raises(ConfigurationError):
            ProgramTree(Node(NodeKind.SEC))

    def test_leaf_with_children_rejected(self):
        root = Node(NodeKind.ROOT)
        u = root.add(Node(NodeKind.U, length=1))
        u.children.append(Node(NodeKind.U, length=1))
        with pytest.raises(ConfigurationError):
            ProgramTree(root)


class TestMetrics:
    def test_subtree_length(self):
        tree = simple_tree()
        assert tree.serial_cycles() == pytest.approx(100 + 200 + 300 + 50)

    def test_repeat_expands_length(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        task = sec.add(Node(NodeKind.TASK, repeat=4))
        task.add(leaf(100, repeat=3))
        tree = ProgramTree(root)
        assert tree.serial_cycles() == pytest.approx(4 * 3 * 100)

    def test_logical_vs_unique_nodes(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        task = sec.add(Node(NodeKind.TASK, repeat=10))
        task.add(leaf(100))
        tree = ProgramTree(root)
        assert tree.unique_nodes() == 4
        assert tree.logical_nodes() == 1 + 1 + 10 * 2

    def test_shared_nodes_counted_once(self):
        root = Node(NodeKind.ROOT)
        sec = root.add(Node(NodeKind.SEC))
        shared_task = Node(NodeKind.TASK)
        shared_task.add(leaf(5))
        sec.children.extend([shared_task, shared_task])
        tree = ProgramTree(root)
        assert tree.unique_nodes() == 4  # root, sec, task, leaf

    def test_serial_fraction(self):
        tree = simple_tree()
        assert tree.serial_fraction() == pytest.approx(50 / 650)

    def test_serial_fraction_empty(self):
        tree = ProgramTree(Node(NodeKind.ROOT))
        assert tree.serial_fraction() == 0.0

    def test_max_depth(self):
        tree = simple_tree()
        assert tree.max_depth() == 4  # root -> sec -> task -> leaf

    def test_top_level_queries(self):
        tree = simple_tree()
        assert len(tree.top_level_sections()) == 1
        assert len(tree.top_level_serial()) == 1

    def test_estimated_bytes(self):
        tree = simple_tree()
        assert tree.estimated_bytes(compressed=False) >= tree.estimated_bytes()

    def test_pretty_renders(self):
        text = simple_tree().pretty()
        assert "Sec" in text and "task" in text and "U" in text


class TestSimilarity:
    def test_identical_similar(self):
        a, b = leaf(100), leaf(100)
        assert nodes_similar(a, b, 0.0)

    def test_within_tolerance(self):
        assert nodes_similar(leaf(100), leaf(104), 0.05)
        assert not nodes_similar(leaf(100), leaf(110), 0.05)

    def test_different_kind(self):
        assert not nodes_similar(leaf(100), leaf(100, lock_id=1), 0.5)

    def test_different_lock_id(self):
        assert not nodes_similar(leaf(100, lock_id=1), leaf(100, lock_id=2), 0.5)

    def test_recursive_comparison(self):
        def task(lengths):
            t = Node(NodeKind.TASK)
            for ln in lengths:
                t.add(leaf(ln))
            return t

        assert nodes_similar(task([100, 200]), task([101, 199]), 0.05)
        assert not nodes_similar(task([100, 200]), task([100, 300]), 0.05)
        assert not nodes_similar(task([100]), task([100, 100]), 0.05)

    def test_zero_lengths_similar(self):
        assert nodes_similar(leaf(0), leaf(0), 0.0)


class TestWalk:
    def test_walk_visits_all_unique(self):
        tree = simple_tree()
        assert len(list(tree.root.walk())) == tree.unique_nodes()

    def test_map_leaves(self):
        tree = simple_tree()
        seen = []
        tree.map_leaves(lambda n: seen.append(n.length))
        assert sorted(seen) == [50.0, 100.0, 200.0, 300.0]

    def test_walk_preorder_with_shared_children(self):
        """The iterative walk yields the recursive definition's pre-order on
        a nested tree whose dictionary-compressed subtrees are shared: a
        shared node, and its whole subtree, once per parent."""

        def recursive(node):
            yield node
            for child in node.children:
                yield from recursive(child)

        shared_leaf = leaf(7.0, repeat=3)
        inner = Node(NodeKind.SEC, name="inner", repeat=2)
        for length in (1.0, 2.0):
            inner.add(Node(NodeKind.TASK)).add(leaf(length))
        inner.children[1].add(shared_leaf)
        root = Node(NodeKind.ROOT)
        for name in ("a", "b"):
            sec = root.add(Node(NodeKind.SEC, name=name))
            for _ in range(2):
                task = sec.add(Node(NodeKind.TASK))
                task.add(shared_leaf)
                task.add(inner)
                task.add(leaf(5.0, lock_id=1))
        root.add(leaf(9.0))
        tree = ProgramTree(root)
        order = [id(node) for node in tree.root.walk()]
        assert order == [id(node) for node in recursive(tree.root)]
        assert order.count(id(inner)) == 4
        assert order.count(id(shared_leaf)) == 8
        assert len(set(order)) == tree.unique_nodes() < len(order)
