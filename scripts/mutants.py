"""Re-run the recorded mutations that the tests must catch.

    python3 scripts/mutants.py

Each mutant replaces one piece of text, found exactly once, in a module of
``src/splittree``.  It is applied to a temporary copy of ``src/`` and
``tests/`` (with a read-only ``bench/pool.json`` for the tests that read the
pinned outputs), and its named tests run there in one pytest process;
mutants run one after another.  A mutant is killed when pytest reports a
failing test or its run takes longer than 15 minutes (a mutant may keep a
loop from ending).
First the named tests must pass on the unmutated copy.  The script prints
killed or survived per mutant and exits 1 if any mutant survives, 2 if the
unmutated tests fail or a mutant's text no longer occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "tests/test_solver.py::"
TREEBUILD = "tests/test_treebuild.py::TestExport::"
EXPAND_TEST = SOLVER + "TestGenerators::test_early_exit_keeps_counters_and_records"
RANK_TEST = SOLVER + "TestDominatedFilter::test_word_lanes_match_rank_lanes"
FUSED_TEST = SOLVER + "TestFusedLevels::test_masks_at_every_width_match_scans"
UNIT_EDGE_TEST = SOLVER + "TestUnitEdgeLevels::test_closed_form_matches_expand"
LEVEL_TEST = SOLVER + "TestDominators::test_matches_scan_and_brute_force"
PINNED_TEST = "tests/test_cli.py::test_pinned_stdout"
TYPE_TEST = SOLVER + "TestSignatureType::"

# (name, module, old text, new text, test ids)
MUTANTS = [
    # the JSON writer
    ("writer-indent", "treebuild.py", "pad3, '\"node\": '", "pad2, '\"node\": '",
     [TREEBUILD + "test_json_matches_reference_on_witnesses"]),
    ("writer-bracket", "treebuild.py", 'pieces[0] = "["', 'pieces[0] = ","',
     [TREEBUILD + "test_json_matches_reference_on_witnesses"]),
    ("writer-bound-deeper", "treebuild.py", "deepest = sys.getrecursionlimit() - 8",
     "deepest = sys.getrecursionlimit() - 5",
     [TREEBUILD + "test_depth_bound_ignores_callers_stack"]),
    ("writer-bound-shallower", "treebuild.py", "deepest = sys.getrecursionlimit() - 8",
     "deepest = sys.getrecursionlimit() - 11",
     [TREEBUILD + "test_json_matches_reference_on_caterpillars"]),
    ("writer-unchecked", "treebuild.py", "return int.__repr__(_integer(value, name))",
     "return json.dumps(value)", [TREEBUILD + "test_json_rejects_what_parse_rejects"]),
    # the inline reduction step in solver._expand
    ("expand-keep-partner", "solver.py", "if q > j:", "if q >= j:", [EXPAND_TEST]),
    ("expand-middle-slice", "solver.py", "a[j + 1 : q]", "a[j:q]", [EXPAND_TEST]),
    ("expand-tail-length", "solver.py", "(n - q - 1)", "(n - q)", [EXPAND_TEST]),
    ("expand-singleton-cap", "solver.py", "                w = min(w, cap)\n", "",
     [EXPAND_TEST]),
    ("expand-sort-in-assert", "solver.py", "    kept.sort()\n", "    assert not kept.sort()\n",
     [SOLVER + "TestDecide::test_same_outputs_under_optimize"]),
    # the packed domination scan
    ("packer-narrow-word", "solver.py", "if hi_bits < w[0]", "if hi_bits <= w[0]", [RANK_TEST]),
    ("packer-low-guard", "solver.py", "1 << (size - 1)", "1 << (size - 2)", [RANK_TEST]),
    ("ranks-descending", "solver.py", "sorted(set(chain.from_iterable(order)))",
     "sorted(set(chain.from_iterable(order)), reverse=True)",
     [SOLVER + "TestDecide::test_huge_k_matches_recursive_oracle", RANK_TEST]),
    # per-parent domination read off the level-wide masks
    ("fused-no-sibling-mask", "solver.py", "if not above[b] & mask]", "if not above[b]]",
     [FUSED_TEST]),
    ("fused-size-all-children", "solver.py", "some_kept.update(kept_bits)",
     "some_kept.update(at)", [FUSED_TEST]),
    ("fused-unpruned", "solver.py", "fused = prune and len(parents)", "fused = len(parents)",
     [FUSED_TEST]),
    ("dominators-lowest-only", "solver.py", "above.append(dominators)",
     "above.append(dominators & -dominators)", [FUSED_TEST]),
    # the level-wide masks built from byte strings, and the kept lists' order
    ("masks-threshold-off-by-one", "solver.py", 'b"0" * r + b"1" * (256 - r)',
     'b"0" * (r + 1) + b"1" * (255 - r)', [LEVEL_TEST]),
    ("masks-bit-order-reversed", "solver.py", "rank.__getitem__, reversed(lane)",
     "rank.__getitem__, lane", [LEVEL_TEST]),
    ("masks-ranks-descending", "solver.py", "zip(values, count())", "zip(values[::-1], count())",
     [LEVEL_TEST]),
    ("masks-rank-past-255", "solver.py", "len(values) > 256", "len(values) > 257",
     [LEVEL_TEST]),
    ("masks-loop-bit-shifted", "solver.py", "ge[v] |= 1 << b", "ge[v] |= 2 << b", [LEVEL_TEST]),
    ("fused-kept-unsorted", "solver.py", "kept = sorted(c for c, up in zip(order, above)",
     "kept = list(c for c, up in zip(order, above)",
     [FUSED_TEST, SOLVER + "TestTraceLevels::test_public_replay_matches"]),
    # the scan as the level-wide pass of a level too narrow to fuse
    ("narrow-level-unfiltered", "solver.py", "_dominated_filter(merged, check_time) if prune",
     "list(merged) if prune", [FUSED_TEST]),
    # children stay plain tuples until a record is built
    ("record-plain-tuple", "solver.py", "    child = tuple.__new__(LeafSignature, child)\n", "",
     [TYPE_TEST + "test_levels_and_witnesses", TYPE_TEST + "test_generator_outputs"]),
    # the counts each level step returns, and their sums
    ("fused-drop-as-level-wide", "solver.py",
     "(pairs, negatives, dominated, len(some_kept) - len(kept))",
     "(pairs, negatives, 0, dominated + len(some_kept) - len(kept))", [FUSED_TEST]),
    ("levels-negatives-as-dominated", "solver.py",
     "dominated += dropped + dropped_level", "dominated += dropped + dropped_level + negative",
     [PINNED_TEST]),
    # the closed-form k = 2 level
    ("unit-edge-provenance-last", "solver.py", "(u, a[r + 1], w, cap)", "(u, a[n - 1], w, cap)",
     [UNIT_EDGE_TEST]),
    ("unit-edge-zeros-everywhere", "solver.py", "bisect_right(a, 0, 0, n - 1)",
     "bisect_right(a, 0)", [UNIT_EDGE_TEST]),
    ("unit-edge-dominated-all", "solver.py", "len(set(a[zeros : n - 1])) - 1",
     "len(set(a[zeros : n - 1]))", [UNIT_EDGE_TEST]),
    # the lazy package namespace and the CLI's per-command imports
    ("namespace-wrong-home", "__init__.py", '"run_oracle"),\n    "signature": ("LeafSignature",',
     '),\n    "signature": ("run_oracle", "LeafSignature",',
     ["tests/test_package.py::test_name_is_its_home_modules_object"]),
    ("cli-eager-treebuild", "cli.py", "trace_levels\n",
     "trace_levels\nfrom .treebuild import export_tree, reconstruct, validate\n",
     ["tests/test_package.py::test_modules_each_command_loads"]),
    # value types of a LevelSet
    ("levelset-any-values", "solver.py", "canonicalize(sig) == tuple(sig)",
     "list(sig) == sorted(sig)",
     [SOLVER + "TestPruneLevel::test_rejects_float_value",
      SOLVER + "TestPruneLevel::test_rejects_bool_value"]),
    # the value classes written without dataclasses
    ("levelset-unchecked", "solver.py", "        if any(\n            not (isinstance(sig",
     "        if False and any(\n            not (isinstance(sig",
     [SOLVER + "TestPruneLevel::test_rejects_str_value"]),
    ("levelset-writable", "solver.py",
     'raise AttributeError(f"LevelSet is read-only: cannot change {name!r}")',
     "vars(self)[name] = value", [SOLVER + "TestPruneLevel::test_level_is_read_only"]),
    ("stats-fields-swapped", "solver.py",
     "        self.pruned_negative = pruned_negative\n"
     "        self.pruned_dominated = pruned_dominated\n",
     "        self.pruned_dominated = pruned_dominated\n"
     "        self.pruned_negative = pruned_negative\n",
     [SOLVER + "TestDecide::test_stats_counters_fill_in", PINNED_TEST]),
    ("stats-eq-always", "solver.py", "return vars(self) == vars(other) if", "return True if",
     [SOLVER + "TestDecide::test_stats_counters_fill_in"]),
    ("treenode-eq-no-children", "treebuild.py",
     "self.leaf_label, self.children) == (\n"
     "                other.node_id, other.depth, other.leaf_label, other.children)",
     "self.leaf_label) == (\n                other.node_id, other.depth, other.leaf_label)",
     [TREEBUILD + "test_tree_equality_sees_every_field"]),
]


def run_tests(copy: Path, test_ids: list[str]) -> int:
    """pytest's exit code for ``test_ids`` in ``copy``: 0 passed, 1 failed
    (a run that times out counts as failed)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pyproject.toml puts its src/ on the path
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=900).returncode
    except subprocess.TimeoutExpired:
        return 1


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="splittree-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "bench").mkdir()
        pool = shutil.copy(ROOT / "bench" / "pool.json", copy / "bench")
        os.chmod(pool, 0o444)
        all_ids = list(dict.fromkeys(t for m in MUTANTS for t in m[4]))
        if run_tests(copy, all_ids) != 0:
            print("the named tests fail or time out on the unmutated sources")
            return 2

        survived = []
        for name, module, old, new, test_ids in MUTANTS:
            path = copy / "src" / "splittree" / module
            source = path.read_text()
            if source.count(old) != 1:
                print(f"{name}: {old!r} does not occur exactly once in {module}")
                return 2
            path.write_text(source.replace(old, new))
            try:
                code = run_tests(copy, test_ids)
            finally:
                path.write_text(source)
            if code not in (0, 1):
                print(f"{name}: pytest exited {code}")
                return 2
            print(f"{name}: {'killed' if code else 'survived'}")
            if not code:
                survived.append(name)

    print(f"{len(MUTANTS) - len(survived)} killed, {len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
