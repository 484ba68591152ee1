"""Re-run the recorded mutations that the tests must catch.

    python3 scripts/mutants.py

Each mutant replaces one piece of text, found exactly once, in a module of
``src/splittree``.  It is applied to a temporary copy of ``src/`` and
``tests/`` (with a read-only ``bench/pool.json`` for the tests that read the
pinned outputs), and its named tests run there in one pytest process;
mutants run one after another.  A mutant is killed when pytest reports a
failing test or its run takes longer than 15 minutes (a mutant may keep a
loop from ending).  Each run's address space is capped at 2 GiB, so that a
mutant that allocates without bound fails with MemoryError, and is killed,
instead of taking the machine's memory.
First the named tests must pass on the unmutated copy.  The script prints
killed or survived per mutant and exits 1 if any mutant survives, 2 if the
unmutated tests fail or a mutant's text no longer occurs exactly once.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "tests/test_solver.py::"
TREEBUILD = "tests/test_treebuild.py::TestExport::"
EXPAND_TEST = SOLVER + "TestGenerators::test_early_exit_keeps_counters_and_records"
RUN_TEST = SOLVER + "TestGenerators::test_run_rows_exhaustive"
WORD_TEST = SOLVER + "TestDominatedFilter::test_word_lanes_match_rank_lanes"
HUGE_K_TEST = SOLVER + "TestDecide::test_huge_k_matches_recursive_oracle"
FUSED_TEST = SOLVER + "TestFusedLevels::test_masks_at_every_width_match_scans"
CROWDED_TEST = SOLVER + "TestFusedLevels::test_crowded_lanes_match_scans"
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
     'return __import__("json").dumps(value)', [TREEBUILD + "test_json_rejects_what_parse_rejects"]),
    # the reduction step: the walk's merge value and class step, the survivors'
    # cap, solver._child's slices, and the derivation ints of _expand_level
    ("expand-keep-partner", "solver.py", "if q > j:", "if q >= j:", [EXPAND_TEST]),
    ("expand-middle-slice", "solver.py", "a[j + 1 : q]", "a[j:q]", [EXPAND_TEST]),
    ("expand-tail-length", "solver.py", "(n - q - 1)", "(n - q)", [EXPAND_TEST]),
    # one parent's singleton code is never compared: a level of several tells
    ("expand-singleton-cap", "solver.py", "                    w = 0\n",
     "                    pass\n", [FUSED_TEST]),
    ("expand-singleton-uncut", "solver.py", "cap = w + k - 1 if n > 2 else 0", "cap = w + k - 1",
     [EXPAND_TEST]),
    # k - 1 is equivalent: at a gap of k - 2 both branches give lo - 1
    ("omega-branch-early", "solver.py", "if gap >= k - 2:", "if gap >= k - 3:", [EXPAND_TEST]),
    ("walk-class-parity", "solver.py", "lo + gap + 2 - (k - gap) % 2", "lo + gap + 2",
     [EXPAND_TEST]),
    ("walk-rest-wrong-value", "solver.py", "n, code - unit[lo] if bits",
     "n, code - unit[a[0]] if bits", [EXPAND_TEST]),
    # a later row of a run: inside it (a[i + 1] equal too) it repeats the row
    # before; the last row drops (i - 1, i) and walks (i, i + 1) if of its class,
    # that is at k = 2 or at even k with a gap of 1, and the dropped pair is
    # negative where its merge value or a[0] is
    ("walk-run-skip-short-run", "solver.py", "elif lo == a[step]:", "elif lo == a[i - 1]:",
     [EXPAND_TEST]),
    ("walk-last-row-class-parity", "solver.py", "a[step] - lo >= 2 - k % 2",
     "a[step] - lo >= 2", [RUN_TEST]),
    ("walk-last-row-unit-edge", "solver.py", "end = 0 if k > 2 and a[step]", "end = 0 if a[step]",
     [RUN_TEST]),
    ("walk-last-row-negative", "solver.py", "min(lo - (k + 1) // 2, a[0]) < 0",
     "lo - (k + 1) // 2 < 0", [RUN_TEST]),
    ("walk-seen-flipped", "solver.py", "elif seen[s] != p:", "elif seen[s] == p:", [FUSED_TEST]),
    ("derivation-decode-off-by-one", "solver.py", "i, j = divmod(ij, n)",
     "i, j = divmod(ij + 1, n)", [EXPAND_TEST]),
    ("level-sort-in-assert", "solver.py", "    records.sort(key=",
     "    assert not records.sort(key=",
     [SOLVER + "TestDecide::test_same_outputs_under_optimize"]),
    # count codes: the child, the lanes and the dense/tuple choice
    ("codes-hi-as-lo", "solver.py", "rest - unit[hi]", "rest - unit[lo]", [EXPAND_TEST]),
    ("codes-no-cap-cut", "solver.py", "((rest - unit[hi]) & cut[cap if cap < last else last])",
     "(rest - unit[hi])", [EXPAND_TEST]),
    ("codes-guard-one-bit-down", "solver.py", "unit[top] << bits - 1",
     "unit[top] << bits - 2", [EXPAND_TEST, CROWDED_TEST]),
    ("codes-units-one-short", "solver.py", "while len(_UNIT_8) <= top:",
     "while len(_UNIT_8) < top:", [SOLVER + "TestGenerators::test_shared_8bit_units_stay_bounded"]),
    # the cap cuts: each entry of the shared 8-bit list one lane short, and the
    # wider lanes' cut memo dividing like the unit memo
    ("cut-list-one-lane-short", "solver.py", "_CUT_8.append((1 << 8 * len(_CUT_8)) - 1)",
     "_CUT_8.append((1 << 8 * len(_CUT_8)) - 1 >> 8)",
     [SOLVER + "TestGenerators::test_shared_8bit_units_stay_bounded"]),
    ("cut-memo-unit-divisor", "solver.py", "_Memo(bits, 1)", "_Memo(bits, (1 << bits) - 1)",
     [SOLVER + "TestGenerators::test_16bit_memos_hold_units_and_cuts"]),
    ("codes-lanes-widen-late", "solver.py", "n.bit_length() // 8", "(n - 1).bit_length() // 8",
     [SOLVER + "TestGenerators::test_shared_8bit_units_stay_bounded"]),
    ("codes-sum-one-short", "solver.py", "sum(map(unit.__getitem__, a))",
     "sum(map(unit.__getitem__, a[1:]))",
     [CROWDED_TEST, SOLVER + "TestTraceLevels::test_reference_levels_exact"]),
    # flipped, values past 2**63 ask for count codes, which the test refuses to build
    ("codes-dense-flipped", "solver.py", "if low < 0 or top * bits > 64 * n:",
     "if not (low < 0 or top * bits > 64 * n):", [HUGE_K_TEST]),
    # positional codes: a lane one size too narrow, a guard one bit low, and
    # positional codes read as byte lanes in the fused tail
    ("packer-narrow-word", "solver.py", "if top.bit_length() < 8 * s)",
     "if top.bit_length() <= 8 * s)", [WORD_TEST]),
    ("packer-low-guard", "solver.py", 'bytes(size - 1) + b"\\x80"', 'bytes(size - 1) + b"\\x40"',
     [WORD_TEST]),
    ("positional-byte-lanes", "solver.py", "if bits == 8", "if bits != 16",
     [SOLVER + "TestDecide::test_same_outputs_under_optimize"]),
    # per-parent domination read off the level-wide masks
    ("fused-no-sibling-mask", "solver.py", "if not above[s] & mask]", "if not above[s]]",
     [FUSED_TEST]),
    ("fused-size-all-children", "solver.py", "some_kept.update(kept_slots)",
     "some_kept.update(group)", [FUSED_TEST]),
    ("fused-unpruned", "solver.py", "fused = prune and len(parents)", "fused = len(parents)",
     [FUSED_TEST]),
    ("fused-16bit-byte-lanes", "solver.py", "[_child(*_decode(k, n, parents, d)) for d in first]",
     '[c.to_bytes(2 * top, "little") for c in slot]', [CROWDED_TEST]),
    # above is indexed like the input: every dominator's bit, never its own
    ("dominators-lowest-only", "solver.py", "return [up ^ 1 << s for s, up in enumerate(above)]",
     "return [(up ^ 1 << s) & -(up ^ 1 << s) for s, up in enumerate(above)]", [FUSED_TEST]),
    ("dominators-own-bit-kept", "solver.py", "return [up ^ 1 << s for s, up in enumerate(above)]",
     "return above", [FUSED_TEST, LEVEL_TEST]),
    # the AND runs lane by lane, only where a value differs from the lane before
    ("dominators-pick-equal", "solver.py", "map(ne, lane, previous)",
     "map(int.__eq__, lane, previous)", [LEVEL_TEST]),
    ("dominators-count-lanes-upward", "solver.py", "for t in reversed(range(width))",
     "for t in range(width)", [LEVEL_TEST]),
    ("dominators-first-lane-none", "solver.py", "changed = range(n)", "changed = ()",
     [LEVEL_TEST]),
    # the top byte lane starts below an all-zero lane, not an all-one one
    ("dominators-top-lane-ones", "solver.py", "for t in reversed(range(width))), 0",
     'for t in reversed(range(width))), int.from_bytes(b"\\1" * n, "big")', [LEVEL_TEST]),
    # the one mask step on tuple lanes' ranks, and the kept lists' order
    ("masks-threshold-off-by-one", "solver.py", 'b"0" * r + b"1" * (256 - r)',
     'b"0" * (r + 1) + b"1" * (255 - r)', [LEVEL_TEST]),
    ("masks-bit-order-reversed", "solver.py", "rank.__getitem__, reversed(lane)",
     "rank.__getitem__, lane", [LEVEL_TEST]),
    ("masks-ranks-descending", "solver.py", "zip(values, count())", "zip(values[::-1], count())",
     [LEVEL_TEST]),
    ("masks-rank-past-255", "solver.py", "len(values) > 256", "len(values) > 257",
     [LEVEL_TEST]),
    ("masks-loop-bit-shifted", "solver.py", "ge[v] |= 1 << b", "ge[v] |= 2 << b", [LEVEL_TEST]),
    # 8-bit count codes' lanes, read as strided slices of one byte matrix
    ("masks-bytes-threshold-off-by-one", "solver.py", "zip(values, values)",
     "zip(values, [v + 1 for v in values])", [LEVEL_TEST]),
    ("masks-bytes-not-reversed", "solver.py", "coded, ranks = lane[::-1]", "coded, ranks = lane",
     [LEVEL_TEST]),
    ("masks-matrix-stride", "solver.py", "matrix[t::width]", "matrix[t::width + 1]",
     [LEVEL_TEST]),
    ("undominated-unsorted", "solver.py", "kept = sorted(c for c, up in zip(sigs, above)",
     "kept = list(c for c, up in zip(sigs, above)",
     [LEVEL_TEST, SOLVER + "TestTraceLevels::test_public_replay_matches"]),
    # the scan as the level-wide pass of a level too narrow to fuse
    ("narrow-level-unfiltered", "solver.py",
     "kept = _scan(merged, guard, check_time) if prune else list(merged)",
     "kept = list(merged)", [FUSED_TEST]),
    # children stay plain tuples until a record is built; a record's l_value
    # is the least value inserted along its derivation
    ("record-plain-tuple", "solver.py", "tuple.__new__(LeafSignature, _child(a, i, j, w, cap))",
     "_child(a, i, j, w, cap)",
     [TYPE_TEST + "test_levels_and_witnesses", TYPE_TEST + "test_generator_outputs"]),
    ("derivation-l-value", "solver.py", "a[j], w, cap, child, min(parent_l, w)",
     "a[j], w, cap, child, parent_l", [PINNED_TEST, EXPAND_TEST]),
    # the counts each level step returns, and their sums
    ("fused-drop-as-level-wide", "solver.py", "dropped_level = len(some_kept) - len(kept)",
     "dropped_level, dominated = dominated + len(some_kept) - len(kept), 0", [FUSED_TEST]),
    ("levels-negatives-as-dominated", "solver.py",
     "dominated += dropped + dropped_level", "dominated += dropped + dropped_level + negative",
     [PINNED_TEST]),
    # the closed-form k = 2 level
    ("unit-edge-provenance-last", "solver.py", "r * n + r + 1", "r * n + n - 1", [UNIT_EDGE_TEST]),
    # _derivation's a[i] is u at k = 2, and so is a[j] but where i = n - 2
    ("unit-edge-merged-hi", "solver.py", "MergeRecord(a, a[i], a[j], w,",
     "MergeRecord(a, a[i], a[i], w,", [UNIT_EDGE_TEST]),
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


MEMORY_CAP = 2 << 30  # bytes of address space for each pytest run


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(copy: Path, test_ids: list[str]) -> int:
    """pytest's exit code for ``test_ids`` in ``copy``: 0 passed, 1 failed
    (a run that times out counts as failed)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pyproject.toml puts its src/ on the path
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *test_ids]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=900, preexec_fn=cap_memory).returncode
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
