"""Witness-tree construction, validation, and serialization.

A split tree is a rooted strict binary tree whose two child edges under
every internal vertex carry positive integer lengths summing to the fixed
budget ``k``.  ``reconstruct`` replays a solver witness chain backwards,
growing the single surviving vertex back into a full tree whose leaf
depths respect the requested bounds.
"""

from __future__ import annotations

import reprlib
import sys
from typing import Iterator, NamedTuple

from .errors import InputError, LimitError
from .signature import canonicalize, omega, validate_k
from .solver import MergeRecord, _start_signature, _validate_instance


class TreeNode:
    """One vertex: a leaf carries ``leaf_label``, an internal vertex its
    ``(edge_length, child)`` pairs, left to right."""

    def __init__(self, node_id: int, depth: int, leaf_label: int | None = None,
                 children: list[tuple[int, TreeNode]] | None = None) -> None:
        self.node_id = node_id
        self.depth = depth
        self.leaf_label = leaf_label
        self.children = [] if children is None else children

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.node_id, self.depth, self.leaf_label, self.children) == (
                other.node_id, other.depth, other.leaf_label, other.children)
        return NotImplemented

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        return (f"TreeNode(node_id={self.node_id!r}, depth={self.depth!r}, "
                f"leaf_label={self.leaf_label!r}, children={self.children!r})")

    def is_leaf(self) -> bool:
        return not self.children


def _preorder(root: TreeNode) -> Iterator[TreeNode]:
    """Every node below ``root``: parents first, children left to right.
    A node reached twice (a cycle or a shared subtree) raises InputError."""
    stack = [root]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            raise InputError(f"node {node.node_id} is reached twice: not a tree")
        seen.add(id(node))
        yield node
        stack.extend(child for _, child in reversed(node.children))


class SplitTree(NamedTuple):
    k: int
    root: TreeNode

    def leaves(self) -> list[TreeNode]:
        return [node for node in _preorder(self.root) if node.is_leaf()]

    def leaf_depths(self) -> list[int]:
        return sorted(leaf.depth for leaf in self.leaves())


class ValidationReport(NamedTuple):
    valid: bool
    violations: list[tuple[int, str, str]]
    leaf_depths: list[int]
    signature_check: bool


def child_edge_lengths(k: int, p: int, d_lo: int, d_hi: int) -> tuple[int, int]:
    """Edge lengths for expanding a leaf at depth ``p`` into two leaves
    with bounds ``d_lo`` <= ``d_hi``.

    Returns (a, b) with a = min(k-1, d_lo - p) and b = k - a, so that both
    lengths lie in 1..k-1 and the new depths p+a, p+b stay within the
    bounds.  Requires p <= omega(k, d_lo, d_hi).
    """
    validate_k(k)
    if d_lo > d_hi:
        raise InputError(f"expected d_lo <= d_hi, got {d_lo} > {d_hi}")
    if p > omega(k, d_lo, d_hi):
        raise InputError(
            f"leaf depth {p} too deep to split towards bounds ({d_lo}, {d_hi})"
        )
    a = min(k - 1, d_lo - p)
    b = k - a
    assert 1 <= a <= k - 1 and 1 <= b <= k - 1
    assert p + a <= d_lo and p + b <= d_hi
    return a, b


def reconstruct(k: int, d, chain: list[MergeRecord]) -> SplitTree:
    """Build a witness tree for bounds ``d`` from a decide() witness chain.

    The chain is replayed in reverse: the final singleton becomes the root,
    and each record expands the leaf carrying its inserted value into the
    two bounds it merged.  Remaining leaves are relabeled step by step from
    the child signature back to the parent signature (labels only grow, so
    every leaf keeps depth <= label).  The result carries the original
    bounds of ``d`` as leaf labels and passes ``validate``.
    """
    sig = _validate_instance(k, d)

    if not chain:
        if len(sig) != 1:
            raise ValueError("witness chain missing for a multi-leaf signature")
        return SplitTree(k, TreeNode(0, 0, leaf_label=sig[0]))

    singleton = chain[-1].child
    if len(singleton) != 1 or singleton[0] < 0:
        raise ValueError(f"witness chain must end in a non-negative singleton, got {singleton!r}")
    if len(chain) != len(sig) - 1 or canonicalize(chain[0].parent) != _start_signature(k, sig):
        raise ValueError("witness chain does not start at the given bounds")
    for earlier, later in zip(chain, chain[1:]):
        if earlier.child != later.parent:
            raise ValueError("witness chain records do not connect")

    root = TreeNode(0, 0, leaf_label=singleton[0])
    leaves = [root]
    next_id = 1
    for at, rec in reversed(list(enumerate(chain))):
        labels = sorted(leaf.leaf_label for leaf in leaves)
        if labels != list(rec.child):
            raise ValueError(
                f"leaf labels {labels} out of step with chain signature {list(rec.child)}"
            )
        grow = min(
            (leaf for leaf in leaves if leaf.leaf_label == rec.omega),
            key=lambda leaf: (leaf.depth, leaf.node_id), default=None,
        )
        if grow is None:
            raise ValueError(f"witness record {at} inserts {rec.omega}, which is on no leaf")
        a, b = child_edge_lengths(k, grow.depth, rec.merged_lo, rec.merged_hi)
        lo = TreeNode(next_id, grow.depth + a, leaf_label=rec.merged_lo)
        hi = TreeNode(next_id + 1, grow.depth + b, leaf_label=rec.merged_hi)
        next_id += 2
        grow.children = [(a, lo), (b, hi)]
        grow.leaf_label = None

        rest = [leaf for leaf in leaves if leaf is not grow]
        targets = list(rec.parent)
        try:
            targets.remove(rec.merged_lo)
            targets.remove(rec.merged_hi)
        except ValueError:
            raise ValueError(f"witness record {at} merges {rec.merged_lo} and {rec.merged_hi}, "
                             "which are not both in its parent") from None
        rest.sort(key=lambda leaf: (leaf.leaf_label, leaf.node_id))
        for leaf, label in zip(rest, sorted(targets)):
            if leaf.leaf_label > label:  # labels only grow, even under -O
                raise ValueError(f"leaf label {leaf.leaf_label} cannot drop to {label}")
            leaf.leaf_label = label
        leaves = rest + [lo, hi]

    # the chain starts from the truncated input; lift labels to the
    # caller's original bounds
    final = sorted(leaves, key=lambda leaf: (leaf.leaf_label, leaf.node_id))
    for leaf, label in zip(final, sig):
        if leaf.leaf_label > label:
            raise ValueError(f"leaf label {leaf.leaf_label} over its bound {label}")
        leaf.leaf_label = label
    for leaf in leaves:
        if leaf.depth > leaf.leaf_label:
            raise ValueError(f"leaf at depth {leaf.depth} over its bound {leaf.leaf_label}")
    return SplitTree(k, root)


def validate(k: int, tree: SplitTree, d) -> ValidationReport:
    """Check the structural rules and that the tree realizes bounds ``d``."""
    violations: list[tuple[int, str, str]] = []
    bounds = sorted(d)
    if not isinstance(k, int) or k < 2:
        violations.append((-1, "k", f"edge-length sum must be >= 2, got {k!r}"))
    if tree.root.depth != 0:
        violations.append((tree.root.node_id, "root-depth", f"root depth {tree.root.depth} != 0"))

    leaves: list[TreeNode] = []
    for node in _preorder(tree.root):
        if node.is_leaf():
            leaves.append(node)
            if node.leaf_label is not None and node.depth > node.leaf_label:
                violations.append(
                    (node.node_id, "leaf-depth", f"depth {node.depth} over label {node.leaf_label}")
                )
            continue
        if len(node.children) != 2:
            violations.append(
                (node.node_id, "arity", f"{len(node.children)} children, expected 0 or 2")
            )
        lengths = [e for e, _ in node.children]
        if len(node.children) == 2 and sum(lengths) != k:
            violations.append((node.node_id, "edge-sum", f"edge lengths {lengths} do not sum to {k}"))
        for e, child in node.children:
            if not isinstance(e, int) or not 1 <= e <= k - 1:
                violations.append((node.node_id, "edge-range", f"edge length {e} outside 1..{k - 1}"))
            if child.depth != node.depth + e:
                violations.append(
                    (child.node_id, "depth", f"depth {child.depth} != {node.depth} + {e}")
                )

    leaf_depths = sorted(leaf.depth for leaf in leaves)
    if len(leaves) != len(bounds):
        violations.append((-1, "leaf-count", f"{len(leaves)} leaves for {len(bounds)} bounds"))
        signature_check = False
    else:
        signature_check = all(dep <= bound for dep, bound in zip(leaf_depths, bounds))
    labels = [leaf.leaf_label for leaf in leaves]
    if all(lab is not None for lab in labels) and sorted(labels) != bounds:
        violations.append((-1, "leaf-labels", f"labels {sorted(labels)} differ from bounds {bounds}"))
    return ValidationReport(
        valid=not violations and signature_check,
        violations=violations,
        leaf_depths=leaf_depths,
        signature_check=signature_check,
    )


def relabel(tree: SplitTree, d) -> SplitTree:
    """Copy of ``tree`` with its leaves labeled by the bounds ``d``.

    The shallowest leaf gets the smallest bound and so on; possible
    exactly when the sorted leaf depths are bounded by sorted ``d``.
    """
    nodes = list(_preorder(tree.root))
    twin = {id(node): TreeNode(node.node_id, node.depth, node.leaf_label) for node in nodes}
    for node in nodes:
        twin[id(node)].children = [(e, twin[id(child)]) for e, child in node.children]
    new_tree = SplitTree(tree.k, twin[id(tree.root)])
    leaves = sorted(new_tree.leaves(), key=lambda leaf: (leaf.depth, leaf.node_id))
    bounds = sorted(d)
    if len(bounds) != len(leaves):
        raise InputError(f"{len(leaves)} leaves cannot take {len(bounds)} labels")
    for leaf, label in zip(leaves, bounds):
        if leaf.depth > label:
            raise InputError(f"leaf at depth {leaf.depth} cannot take bound {label}")
        leaf.leaf_label = label
    return new_tree


def _integer(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def _scalar(value, name: str) -> str:
    """``value`` as ``json.dumps`` writes it, if ``parse_tree`` reads it back."""
    return int.__repr__(_integer(value, name))


def _json_text(tree: SplitTree) -> str:
    """``json.dumps`` of the nested dict layout with ``indent=2``, from one
    stack of text pieces and ``(node, nesting level)`` entries."""
    out = ['{\n  "k": ', _scalar(tree.k, "k"), ',\n  "root": ']
    stack: list = [(tree.root, 1)]
    seen: set[int] = set()
    deepest = sys.getrecursionlimit() - 8
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        if id(node) in seen:
            raise InputError(f"node {node.node_id} is reached twice: not a tree")
        seen.add(id(node))
        if level > deepest:
            raise LimitError("tree too deep for JSON export; use --format dot")
        pad, pad1, pad2, pad3 = ("\n" + "  " * (level + i) for i in range(4))
        label = "null" if node.leaf_label is None else _scalar(node.leaf_label, "leaf_label")
        out += ["{", pad1, '"id": ', _scalar(node.node_id, "id"), ",", pad1, '"depth": ',
                _scalar(node.depth, "depth"), ",", pad1, '"leaf_label": ', label, ",", pad1,
                '"children": ']
        if not node.children:
            out += ["[]", pad, "}"]
            continue
        pieces: list = []
        for e, child in node.children:
            pieces += [",", pad2, "{", pad3, '"edge_length": ', _scalar(e, "edge_length"), ",",
                       pad3, '"node": ', (child, level + 3), pad2, "}"]
        pieces[0] = "["
        stack += reversed(pieces + [pad1, "]", pad, "}"])
    out.append("\n}")
    return "".join(out)


def _node_from_dict(data: dict) -> TreeNode:
    label = data["leaf_label"]
    if not isinstance(data["children"], list):
        raise TypeError(f"children must be a list, got {data['children']!r}")
    return TreeNode(
        node_id=_integer(data["id"], "id"),
        depth=_integer(data["depth"], "depth"),
        leaf_label=None if label is None else _integer(label, "leaf_label"),
        children=[
            (_integer(entry["edge_length"], "edge_length"), _node_from_dict(entry["node"]))
            for entry in data["children"]
        ],
    )


def export_tree(tree: SplitTree, format: str = "json") -> str:
    """Serialize the tree deterministically as JSON or Graphviz DOT.

    JSON nesting deeper than ``sys.getrecursionlimit() - 8`` (three levels per
    tree level: 330 tree levels at the default limit) raises LimitError
    wherever the call comes from; a field that ``parse_tree`` would not read
    back, or a node reached twice, raises InputError in either format.  The
    DOT writer has no depth limit.
    """
    if format == "json":
        return _json_text(tree)
    if format == "dot":
        lines = ["digraph splittree {"]
        order = list(_preorder(tree.root))
        for node in order:
            if node.is_leaf():
                bound = "" if node.leaf_label is None else f" <= {node.leaf_label}"
                lines.append(
                    f'  n{node.node_id} [label="{node.node_id} ({node.depth}){bound}" shape=box];'
                )
            else:
                lines.append(f'  n{node.node_id} [label="{node.node_id} ({node.depth})"];')
        for node in order:
            for e, child in node.children:
                lines.append(f'  n{node.node_id} -> n{child.node_id} [label="{e}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise InputError(f"unknown tree format {format!r}")


def parse_tree(text: str) -> SplitTree:
    """Inverse of export_tree(..., 'json').

    Text that is not such a tree, or whose ``k``, ids, depths, edge lengths
    or leaf labels are not integers (labels may be null), raises InputError.
    ``json.loads`` and the reader recurse once per nesting level, so a tree
    too deep for the recursion limit raises LimitError, and unlike in
    ``export_tree`` the frames already on the caller's stack count too.
    """
    import json  # only here: the writer is hand-rolled, so ``build`` never loads it
    try:
        data = json.loads(text)
        return SplitTree(k=_integer(data["k"], "k"), root=_node_from_dict(data["root"]))
    except RecursionError:
        raise LimitError("tree too deep for JSON import") from None
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"not a split tree in JSON: {exc!r}") from None
