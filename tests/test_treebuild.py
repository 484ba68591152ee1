import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_DEPTHS, REFERENCE_K
from splittree.errors import InputError, LimitError
from splittree.signature import canonicalize, omega
from splittree.solver import decide
from splittree.treebuild import (
    SplitTree,
    TreeNode,
    child_edge_lengths,
    export_tree,
    parse_tree,
    reconstruct,
    relabel,
    validate,
)


def reference_tree() -> SplitTree:
    """Hand-built tree realizing the reference instance at k = 6.

    Leaf depths are 5, 7, 7, 8, 8, 9; sibling edge lengths sum to 6
    everywhere.
    """
    n9 = TreeNode(9, 8, leaf_label=8)
    n10 = TreeNode(10, 8, leaf_label=8)
    n8 = TreeNode(8, 5, children=[(3, n9), (3, n10)])
    n7 = TreeNode(7, 7, leaf_label=7)
    n6 = TreeNode(6, 3, children=[(4, n7), (2, n8)])
    n5 = TreeNode(5, 7, leaf_label=7)
    n4 = TreeNode(4, 2, children=[(5, n5), (1, n6)])
    n2 = TreeNode(2, 5, leaf_label=5)
    n3 = TreeNode(3, 9, leaf_label=9)
    n1 = TreeNode(1, 4, children=[(1, n2), (5, n3)])
    return SplitTree(6, TreeNode(0, 0, children=[(2, n4), (4, n1)]))


class TestChildEdgeLengths:
    def test_known_splits(self):
        assert child_edge_lengths(6, 4, 7, 7) == (3, 3)
        assert child_edge_lengths(6, 0, 5, 9) == (5, 1)
        for d in range(1, 8):
            assert child_edge_lengths(2, d - 1, d, d) == (1, 1)

    def test_rejects_too_deep_parent(self):
        with pytest.raises(InputError):
            child_edge_lengths(6, 5, 7, 7)
        with pytest.raises(InputError):
            child_edge_lengths(6, 0, 9, 5)

    def test_postconditions_exhaustive(self):
        for k in range(2, 9):
            for d_lo in range(0, 21):
                for d_hi in range(d_lo, 21):
                    top = omega(k, d_lo, d_hi)
                    for p in range(0, top + 1):
                        a, b = child_edge_lengths(k, p, d_lo, d_hi)
                        assert 1 <= a <= k - 1 and 1 <= b <= k - 1
                        assert a + b == k
                        assert p + a <= d_lo and p + b <= d_hi


def caterpillar(levels: int) -> SplitTree:
    """Unlabeled k = 2 tree: a spine of ``levels`` internal vertices, each
    with one leaf child, so leaf depths 1, 2, ..., levels and levels."""
    root = node = TreeNode(0, 0)
    for depth in range(1, levels + 1):
        spine = TreeNode(2 * depth, depth)
        node.children = [(1, TreeNode(2 * depth - 1, depth)), (1, spine)]
        node = spine
    return SplitTree(2, root)


def caterpillar_json(levels: int) -> str:
    """``export_tree(caterpillar(levels), "json")`` up to whitespace, written
    inside out without recursion, so also for trees the writer cannot take."""
    def node(node_id: int, depth: int, children: str = "") -> str:
        return (f'{{"id": {node_id}, "depth": {depth}, "leaf_label": null, '
                f'"children": [{children}]}}')

    text = node(2 * levels, levels)
    for depth in range(levels, 0, -1):
        leaf = node(2 * depth - 1, depth)
        edges = f'{{"edge_length": 1, "node": {leaf}}}, {{"edge_length": 1, "node": {text}}}'
        text = node(2 * depth - 2, depth - 1, edges)
    return f'{{"k": 2, "root": {text}}}'


@contextmanager
def recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def reference_json(tree: SplitTree) -> str:
    """The JSON layout as ``json.dumps(..., indent=2)`` writes it from nested
    dicts, built recursively under a raised recursion limit."""
    def as_dict(node: TreeNode) -> dict:
        return {
            "id": node.node_id,
            "depth": node.depth,
            "leaf_label": node.leaf_label,
            "children": [{"edge_length": e, "node": as_dict(c)} for e, c in node.children],
        }

    with recursion_limit(10_000):
        return json.dumps({"k": tree.k, "root": as_dict(tree.root)}, indent=2)


def reads_back(text: str, tree: SplitTree) -> bool:
    """``parse_tree(text) == tree`` with room for 330 levels below any test
    runner's frames: the reader and ``==`` both recurse, and the reader's
    depth bound counts the caller's stack."""
    with recursion_limit(10_000):
        return parse_tree(text) == tree


def at_stack_depth(frames: int, call):
    """``call()`` made from ``frames`` extra stack frames."""
    return call() if frames == 0 else at_stack_depth(frames - 1, call)


def witness_trees(count: int, seed: int):
    """Reconstructed witnesses of random realizable instances, k 2-8."""
    rng = random.Random(seed)
    while count:
        k, n = rng.randint(2, 8), rng.randint(1, 12)
        depths = [rng.randint(0, (k - 1) * (n - 1)) for _ in range(n)]
        decision = decide(k, depths)
        if decision.realizable:
            count -= 1
            yield reconstruct(k, depths, decision.witness_chain)


ints = st.integers(-(10**30), 10**30) | st.integers(-3, 12)
nodes = st.recursive(
    st.builds(TreeNode, ints, ints, st.none() | ints),
    lambda kids: st.builds(TreeNode, ints, ints, st.none() | ints,
                           st.lists(st.tuples(ints, kids), max_size=2)),
    max_leaves=24,
)


def cyclic_tree() -> SplitTree:
    root = TreeNode(0, 0)
    root.children = [(1, TreeNode(1, 1)), (1, root)]
    return SplitTree(2, root)


class TestValidate:
    def test_reference_tree_is_valid(self):
        report = validate(REFERENCE_K, reference_tree(), REFERENCE_DEPTHS)
        assert report.valid, report.violations
        assert report.leaf_depths == [5, 7, 7, 8, 8, 9]

    def test_reference_tree_fits_looser_bounds(self):
        tree = reference_tree()
        for loose in ([7, 7, 7, 9, 9, 9], [9, 9, 9, 9, 9, 9]):
            report = validate(REFERENCE_K, relabel(tree, loose), loose)
            assert report.valid, (loose, report.violations)

    def test_bad_edge_sum_flagged(self):
        left = TreeNode(1, 2, leaf_label=5)
        right = TreeNode(2, 3, leaf_label=5)
        tree = SplitTree(6, TreeNode(0, 0, children=[(2, left), (3, right)]))
        report = validate(6, tree, [5, 5])
        assert not report.valid
        assert any(rule == "edge-sum" for _, rule, _ in report.violations)

    def test_depth_bookkeeping_flagged(self):
        child = TreeNode(1, 3, leaf_label=5)  # depth should be 1
        sib = TreeNode(2, 1, leaf_label=5)
        tree = SplitTree(2, TreeNode(0, 0, children=[(1, child), (1, sib)]))
        assert not validate(2, tree, [5, 5]).valid

    def test_bound_violation_fails_signature_check(self):
        tree = reference_tree()
        report = validate(REFERENCE_K, tree, [5, 7, 7, 8, 8, 8])
        assert not report.signature_check
        assert not report.valid

    def test_wrong_leaf_count(self):
        report = validate(REFERENCE_K, reference_tree(), [5, 7, 7, 8, 8, 9, 9])
        assert not report.valid

    def test_relabel_deep_caterpillar(self):
        tree = caterpillar(299)
        bounds = [leaf.depth for leaf in tree.leaves()]
        copy = relabel(tree, bounds)
        assert validate(2, copy, bounds).valid
        assert [leaf.depth for leaf in copy.leaves()] == bounds
        assert copy.root is not tree.root
        assert all(leaf.leaf_label is None for leaf in tree.leaves())

    def test_cyclic_tree_raises(self):
        # the walk stops at the first node it reaches again, naming it
        with pytest.raises(InputError, match="node 0 "):
            validate(2, cyclic_tree(), [1, 1])
        with pytest.raises(InputError, match="node 0 "):
            relabel(cyclic_tree(), [1, 1])
        with pytest.raises(InputError, match="node 0 "):
            cyclic_tree().leaves()
        # so does the repr, for a failing test's message
        assert repr(cyclic_tree().root).endswith("children=[])), (1, ...)])")

    def test_relabel_refuses_too_tight_bounds(self):
        with pytest.raises(InputError):
            relabel(reference_tree(), [4, 7, 7, 8, 8, 9])


class TestReconstruct:
    def test_two_unit_leaves(self):
        decision = decide(2, [1, 1])
        tree = reconstruct(2, [1, 1], decision.witness_chain)
        assert [e for e, _ in tree.root.children] == [1, 1]
        assert validate(2, tree, [1, 1]).valid

    def test_single_leaf(self):
        tree = reconstruct(2, [0], [])
        assert tree.root.is_leaf() and tree.root.depth == 0
        assert validate(2, tree, [0]).valid

    def test_tight_unit_instance(self):
        decision = decide(2, [1, 2, 2])
        tree = reconstruct(2, [1, 2, 2], decision.witness_chain)
        report = validate(2, tree, [1, 2, 2])
        assert report.valid
        assert report.leaf_depths == [1, 2, 2]

    def test_reference_instance(self):
        decision = decide(REFERENCE_K, REFERENCE_DEPTHS)
        tree = reconstruct(REFERENCE_K, REFERENCE_DEPTHS, decision.witness_chain)
        report = validate(REFERENCE_K, tree, REFERENCE_DEPTHS)
        assert report.valid, report.violations
        assert sorted(leaf.leaf_label for leaf in tree.leaves()) == REFERENCE_DEPTHS

    def test_leaf_count_is_chain_length_plus_one(self):
        for k, depths in [(6, REFERENCE_DEPTHS), (2, [1, 2, 3, 3]), (4, [3, 5, 7])]:
            decision = decide(k, depths)
            if decision.realizable:
                tree = reconstruct(k, depths, decision.witness_chain)
                assert len(tree.leaves()) == len(decision.witness_chain) + 1

    def test_every_realizable_small_instance_builds_valid_tree(self):
        for k in (2, 3, 5):
            for n in range(1, 5):
                for depths in itertools.combinations_with_replacement(range(0, 8, 2), n):
                    decision = decide(k, depths)
                    if decision.realizable:
                        tree = reconstruct(k, depths, decision.witness_chain)
                        assert validate(k, tree, depths).valid, (k, depths)

    def test_rejects_mismatched_chain(self):
        chain = decide(REFERENCE_K, REFERENCE_DEPTHS).witness_chain
        with pytest.raises(ValueError):
            reconstruct(REFERENCE_K, REFERENCE_DEPTHS, chain[1:])
        with pytest.raises(ValueError):
            reconstruct(REFERENCE_K, REFERENCE_DEPTHS, list(reversed(chain)))

    def test_rejects_chain_for_wrong_input(self):
        chain = decide(2, [2, 2, 2, 2]).witness_chain
        with pytest.raises(ValueError):
            reconstruct(2, [1, 2, 2], chain)

    def test_rejects_label_drop_under_optimize(self):
        # a forged chain that passes every structural check but would lower
        # a leaf label below the leaf's depth; the check must survive -O
        script = (
            "from splittree.solver import MergeRecord\n"
            "from splittree.treebuild import reconstruct\n"
            "chain = [MergeRecord((0, 2, 2), 2, 2, 1, 0, (1, 1), 0),\n"
            "         MergeRecord((1, 1), 1, 1, 0, 0, (0,), 0)]\n"
            "try:\n"
            "    reconstruct(2, [0, 2, 2], chain)\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ValueError:"), proc.stdout

    @pytest.mark.parametrize("forged, message", [
        ("omega=5", "witness record 0 inserts 5, which is on no leaf"),
        ("merged_hi=2", "witness record 0 merges 1 and 2, which are not both in its parent"),
    ], ids=["inserted-on-no-leaf", "merged-not-in-parent"])
    def test_names_forged_record_under_optimize(self, forged, message):
        # decide(2, [1, 1])'s one record with its inserted value on no leaf, or
        # with a merged value that is not in its parent
        script = (
            "from splittree.solver import decide\n"
            "from splittree.treebuild import reconstruct\n"
            "(rec,) = decide(2, [1, 1]).witness_chain\n"
            "try:\n"
            f"    reconstruct(2, [1, 1], [rec._replace({forged})])\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"ValueError: {message}\n"


class TestExport:
    def test_deep_tree_json_raises_limit_error(self):
        tree = caterpillar(400)
        assert validate(2, tree, [*range(1, 401), 400]).valid
        with pytest.raises(LimitError, match="--format dot"):
            export_tree(tree, "json")
        assert export_tree(tree, "dot").count(" -> ") == 2 * 400

    def test_dot_refuses_cyclic_tree(self):
        with pytest.raises(InputError, match="node 0 "):
            export_tree(cyclic_tree(), "dot")

    def test_json_refuses_what_dot_refuses(self):
        leaf = TreeNode(1, 1)
        shared = SplitTree(2, TreeNode(0, 0, children=[(1, leaf), (1, leaf)]))
        for tree, node in ((cyclic_tree(), 0), (shared, 1)):
            for format in ("json", "dot"):
                with pytest.raises(InputError, match=f"node {node} is reached twice"):
                    export_tree(tree, format)

    def test_single_vertex_json(self):
        tree = reconstruct(2, [0], [])
        data = json.loads(export_tree(tree, "json"))
        assert data["k"] == 2
        assert data["root"]["children"] == []
        assert data["root"]["leaf_label"] == 0

    def test_two_leaf_dot(self):
        tree = reconstruct(2, [1, 1], decide(2, [1, 1]).witness_chain)
        dot = export_tree(tree, "dot")
        assert dot.count('[label="1"]') == 2
        assert dot.startswith("digraph")

    def test_json_round_trip(self):
        for tree in (
            reference_tree(),
            reconstruct(REFERENCE_K, REFERENCE_DEPTHS, decide(REFERENCE_K, REFERENCE_DEPTHS).witness_chain),
            reconstruct(2, [0], []),
            caterpillar(100),
        ):
            assert parse_tree(export_tree(tree, "json")) == tree
        assert parse_tree(caterpillar_json(100)) == caterpillar(100)

    def test_tree_equality_sees_every_field(self):
        assert reference_tree() == reference_tree()
        for name, value in (("node_id", 7), ("depth", 4), ("leaf_label", 9),
                            ("children", [(1, TreeNode(1, 1))])):
            tree = reference_tree()
            setattr(tree.root.children[0][1], name, value)
            assert tree != reference_tree(), name
        assert TreeNode(0, 0) != (0, 0, None, [])

    @pytest.mark.parametrize(
        "text, error",
        [("[", InputError), ('{"k": 2}', InputError), ("null", InputError),
         (caterpillar_json(400), LimitError),
         ('{"k": "x", "root": {"id": 0, "depth": "a", "leaf_label": null, "children": []}}',
          InputError),
         (caterpillar_json(1).replace('"edge_length": 1', '"edge_length": "1"', 1), InputError),
         (caterpillar_json(1).replace('"k": 2', '"k": true'), InputError),
         (caterpillar_json(0).replace('"children": []', '"children": {}'), InputError)],
        ids=["truncated", "no-root", "null", "400-levels", "string-values", "string-edge",
             "bool-k", "children-object"],
    )
    def test_parse_rejects_with_library_errors(self, text, error):
        with pytest.raises(error):
            parse_tree(text)

    def test_deterministic(self):
        tree = reference_tree()
        assert export_tree(tree, "json") == export_tree(tree, "json")
        assert export_tree(tree, "dot") == export_tree(tree, "dot")

    def test_unknown_format_rejected(self):
        with pytest.raises(InputError):
            export_tree(reference_tree(), "yaml")

    def test_schema_shape(self):
        tree = reconstruct(2, [1, 1], decide(2, [1, 1]).witness_chain)
        data = json.loads(export_tree(tree, "json"))
        node = data["root"]
        assert set(node) == {"id", "depth", "leaf_label", "children"}
        assert len(node["children"]) == 2
        for entry in node["children"]:
            assert set(entry) == {"edge_length", "node"}

    @given(tree=st.builds(SplitTree, ints, nodes))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_json_matches_reference_on_any_shape(self, tree):
        text = export_tree(tree, "json")
        assert text == reference_json(tree)
        assert parse_tree(text) == tree

    def test_json_matches_reference_on_witnesses(self):
        for tree in witness_trees(150, seed=2014):
            text = export_tree(tree, "json")
            assert text == reference_json(tree)
            assert parse_tree(text) == tree

    def test_json_matches_reference_on_caterpillars(self):
        # byte for byte at a few heights (the reference costs depth x size);
        # at every height up to 330 the text matches once indents are removed
        for levels in (0, 1, 2, 3, 150, 330):
            tree = caterpillar(levels)
            assert export_tree(tree, "json") == reference_json(tree)
        for levels in range(331):
            text = export_tree(caterpillar(levels), "json")
            flat = "".join(map(str.lstrip, text.split("\n")))
            assert flat == caterpillar_json(levels).replace(", ", ",")
            assert reads_back(text, caterpillar(levels))

    def test_depth_bound_ignores_callers_stack(self):
        tree = caterpillar(300)
        assert at_stack_depth(150, lambda: export_tree(tree, "json")) == reference_json(tree)
        for levels in (331, 400):
            for frames in (0, 150, 600):
                with pytest.raises(LimitError, match="--format dot"):
                    at_stack_depth(frames, lambda: export_tree(caterpillar(levels), "json"))

    @pytest.mark.parametrize(
        "tree",
        [SplitTree(2, TreeNode("a", 0)),
         SplitTree(2, TreeNode(0, 0, leaf_label=True)),
         SplitTree(2, TreeNode(0, 1.5)),
         SplitTree(True, TreeNode(0, 0)),
         SplitTree(2, TreeNode(0, 0, children=[(1.0, TreeNode(1, 1)), (1, TreeNode(2, 1))]))],
        ids=["string-id", "bool-label", "float-depth", "bool-k", "float-edge"],
    )
    def test_json_rejects_what_parse_rejects(self, tree):
        with pytest.raises(InputError):
            export_tree(tree, "json")
