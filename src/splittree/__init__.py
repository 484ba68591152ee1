"""Solver and builder for binary trees with choosable edge lengths.

Given a constant k >= 2 and a multiset of per-leaf depth bounds, decide
whether a rooted strict binary tree exists whose sibling edge lengths sum
to k everywhere and whose leaf depths stay within the bounds, and build a
witness tree when one exists.  k = 2 is the classical unit-edge case
solved by the power-of-two feasibility sum.

``import splittree`` loads no submodule.  Each public name and each
submodule (``splittree.oracle``, ...) is imported on first access
(PEP 562), so a process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module of every public name
_PUBLIC = {
    "errors": ("InputError", "LimitError"),
    "oracle": ("OracleConfig", "kraft_check", "oracle_enumerate_trees", "oracle_recursive",
               "run_oracle"),
    "signature": ("LeafSignature", "canonicalize", "is_dominated", "merge_reduce", "omega",
                  "truncate"),
    "solver": ("Decision", "LevelSet", "MergeRecord", "SolverConfig", "SolverStats", "decide",
               "generate_children_fast", "generate_children_naive", "prune_level",
               "trace_levels"),
    "treebuild": ("SplitTree", "TreeNode", "ValidationReport", "child_edge_lengths",
                  "export_tree", "parse_tree", "reconstruct", "relabel", "validate"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset(_PUBLIC) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
