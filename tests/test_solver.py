import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_DEPTHS, REFERENCE_K, REFERENCE_LEVELS
from splittree.errors import InputError, LimitError
from splittree.oracle import kraft_check, oracle_recursive
from splittree.signature import LeafSignature, _reduce, canonicalize, is_dominated, omega, truncate
from splittree.solver import (
    LevelSet,
    MergeRecord,
    SolverConfig,
    SolverStats,
    _FUSED_MIN_PARENTS,
    _dominators,
    _expand_level,
    _scan,
    _undominated,
    _unit_edge_level,
    _units,
    decide,
    generate_children_fast,
    generate_children_naive,
    prune_level,
    trace_levels,
)
from splittree.treebuild import reconstruct, validate


def children_set(generator, k, sig):
    return {rec.child for rec in generator(k, canonicalize(sig))}


def representative_pairs(k, sig):
    """One pair per ``(i, omega)`` class, its first partner, by brute force
    over the partners ``j`` of each ``i``.  The scan stops at the first value
    ``sig[i] - 1``: ``omega``'s formula is non-decreasing in the partner's
    bound and at most ``sig[i] - 1``, so no later partner opens a class."""
    pairs = []
    for i in range(len(sig) - 1):
        best_j = {}
        for j in range(i + 1, len(sig)):
            w = omega(k, sig[i], sig[j])
            best_j.setdefault(w, j)
            if w == sig[i] - 1:
                break
        pairs.extend((i, j) for j in best_j.values())
    return pairs


def per_pair_generate(k, sig, pairs, parent_l):
    """The records and counters of ``pairs``, each reduced on its own by
    ``signature._reduce``: the first record per distinct non-negative child,
    undominated, sorted by child."""
    stats = SolverStats(signatures_generated=len(pairs))
    cands = {}
    for i, j in pairs:
        inserted, cap, child = _reduce(k, sig, i, j)
        if child[0] < 0:
            stats.pruned_negative += 1
            continue
        l_value = min(parent_l, inserted)
        cands.setdefault(child, MergeRecord(sig, sig[i], sig[j], inserted, cap, child, l_value))
    kept = _undominated(cands, _dominators(list(cands)))
    stats.pruned_dominated = len(cands) - len(kept)
    return [cands[c] for c in sorted(kept)], stats


def search_digest():
    """sha256 over ``decide`` and ``trace_levels`` on the reference instance
    (with and without level-wide pruning), a ``k=2`` chain of 200 bounds, a
    narrow-window ``k=10`` instance whose levels reach the bit-mask filter, a
    ``k=48`` instance on positional codes of 2-byte lanes whose levels reach
    it too, with values on both sides of 256, and a ``k = 2**64 + 3``
    instance whose levels hold values past 2**63: verdicts, witness chains,
    counters without the wall time, and every level's signatures and records
    in order."""
    rng = random.Random(1)
    instances = [
        (REFERENCE_K, REFERENCE_DEPTHS, SolverConfig()),
        (REFERENCE_K, REFERENCE_DEPTHS, SolverConfig(prune_level_domination=False)),
        (2, [rng.randint(0, 199) for _ in range(200)], SolverConfig()),
        (10, [13, 16, 18, 18, 18, 12, 14, 12, 15, 18, 15, 15, 17, 15], SolverConfig()),
        (48, [235, 419, 287, 336, 303, 278, 331, 272, 250, 267], SolverConfig()),
        (2**64 + 3, [10039257264037515410, 53789687683843711396, 48435990406998233758,
                     11171339666664619993], SolverConfig()),
    ]
    digest = hashlib.sha256()
    for k, depths, config in instances:
        decision = decide(k, depths, config)
        stats = dict(vars(decision.stats))
        del stats["wall_time_s"]
        levels = [(level.z, level.sorted_signatures(), list(level.record_of.items()))
                  for level in trace_levels(k, depths, config)]
        outcome = (decision.realizable, decision.witness_chain, sorted(stats.items()), levels)
        digest.update(repr(outcome).encode())
    return digest.hexdigest()


class TestGenerators:
    def test_reference_children(self):
        expected = REFERENCE_LEVELS[5]
        assert children_set(generate_children_naive, REFERENCE_K, REFERENCE_DEPTHS) == expected
        assert children_set(generate_children_fast, REFERENCE_K, REFERENCE_DEPTHS) == expected

    def test_unit_edge_single_candidate(self):
        # merge value of (2,2) is 1, then normalized to 0 as a singleton
        assert children_set(generate_children_naive, 2, [2, 2]) == {(0,)}
        for sig in ([1, 2, 3], [4, 4, 4, 4], [0, 5, 9]):
            assert len(children_set(generate_children_naive, 2, sig)) <= 1

    def test_three_bounds_golden(self):
        # all three pairs of [1,2,3] at k=3, dominated candidates removed
        assert children_set(generate_children_naive, 3, [1, 2, 3]) == {(0, 2), (1, 1)}

    def test_fast_equals_naive_small_exhaustive(self):
        for n in range(2, 5):
            for sig in itertools.combinations_with_replacement(range(9), n):
                for k in (2, 3, 4, 5, 6):
                    assert children_set(generate_children_fast, k, sig) == children_set(
                        generate_children_naive, k, sig
                    ), (k, sig)

    def test_fast_equals_naive_wide_exhaustive(self):
        # the documented equivalence grid: |a| <= 6, values in [0,10], k in 2..6
        for n in (5, 6):
            for sig in itertools.combinations_with_replacement(range(11), n):
                for k in (2, 3, 4, 5, 6):
                    assert children_set(generate_children_fast, k, sig) == children_set(
                        generate_children_naive, k, sig
                    ), (k, sig)

    def test_candidate_count_bound(self):
        rng = random.Random(99)
        for _ in range(300):
            k = rng.randint(2, 8)
            n = rng.randint(2, 20)
            sig = canonicalize([rng.randint(0, 3 * k) for _ in range(n)])
            assert len(generate_children_fast(k, sig)) <= k * (n - 1)

    def test_rejects_singleton(self):
        for generate in (generate_children_naive, generate_children_fast):
            with pytest.raises(InputError):
                generate(2, canonicalize([4]))

    def test_candidates_are_sorted_and_negative_free(self):
        recs = generate_children_naive(6, canonicalize([0, 1, 5, 9]))
        children = [r.child for r in recs]
        assert children == sorted(children)
        assert all(c[0] >= 0 for c in children)
        # every pair gives a negative child, whatever parent_l
        for generate in (generate_children_naive, generate_children_fast):
            assert generate(3, canonicalize([0, 0, 10]), 0) == []

    def test_count_codes_of_long_deep_signatures_stay_small(self):
        # 3,000 bounds of 6,000 take 16-bit count codes of 6,000 lanes (12 kB
        # each); lane units are built only for the values that occur, never
        # as a table of every value up to 6,000, which grows with its square
        sig = canonicalize([6000] * 3000)
        assert _units(len(sig), sig[0], sig[-1])[0] == 16
        tracemalloc.start()
        try:
            recs = generate_children_fast(3, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.child for r in recs] == [(5998,) + (6000,) * 2998]
        assert peak < 2**22, peak

    def test_shared_8bit_units_stay_bounded(self):
        # 8-bit codes hold at most 127 values of up to 8 * 127 = 1016: the
        # units list that all of them share grows to the largest top and no
        # further (a decide here would take too long: equal deep bounds at
        # k = 10 make the levels blow up)
        recs = generate_children_fast(10, canonicalize([1016] * 127))
        assert [r.child for r in recs] == [(1011,) + (1016,) * 125]
        bits, unit, cut, _ = _units(127, 0, 1016)
        assert bits == 8 and unit is _units(2, 0, 0)[1] and cut is _units(2, 0, 0)[2]
        # a parent of 128 values counts up to 128 in a lane, past 8-bit codes
        # whatever its top: up to 1,024 it takes positional codes
        assert [r.child for r in generate_children_fast(10, canonicalize([1024] * 128))] == [
            (1019,) + (1024,) * 126]
        assert len(unit) == len(cut) == 1017  # of the 1,024 that values below 1024 could take
        assert all(u == ((1 << 8 * v) - 1) // 255 for v, u in enumerate(unit))
        assert all(c == (1 << 8 * v) - 1 for v, c in enumerate(cut))  # keeps lanes 1..v
        bits, _, cut, _ = _units(127, 0, 1017)
        assert (bits, cut) == (0, None)  # positional codes, cut by _child

    def test_16bit_memos_hold_units_and_cuts(self):
        # 16-bit codes build their units and cuts per level, only for the
        # values that are looked up; both give the same children as the
        # reference on a parent of 200 values
        bits, unit, cut, guard = _units(200, 0, 300)
        assert bits == 16 and guard == unit[300] << 15
        for v in (0, 1, 2, 7, 255, 256, 300):
            assert unit[v] == ((1 << 16 * v) - 1) // 65535, v
            assert cut[v] == (1 << 16 * v) - 1, v
        assert sorted(cut) == [0, 1, 2, 7, 255, 256, 300]
        rng = random.Random(43)
        for k in (3, 4, 7):
            sig = canonicalize(rng.randint(0, 300) for _ in range(200))
            assert _units(len(sig), sig[0], sig[-1])[0] == 16
            assert generate_children_fast(k, sig) == generate_children_naive(k, sig), k

    def test_run_rows_exhaustive(self):
        # every sorted signature of 3 to 6 values in 0..6, and each with its
        # least value moved to -1 (negative parents, positional codes), at every
        # k in 2..8: both parities and k = 2, with runs of equal values at the
        # start, middle and end, each run's last row in and out of the class of
        # its first pair
        sigs = {values for n in range(3, 7)
                for values in itertools.combinations_with_replacement(range(7), n)}
        sigs |= {(-1,) + values[1:] for values in sigs}
        for values in sorted(sigs):
            sig = canonicalize(values)
            for k in range(2, 9):
                expected = per_pair_generate(k, sig, representative_pairs(k, sig), math.inf)
                stats = SolverStats()
                records = generate_children_fast(k, sig, math.inf, stats)
                assert (records, stats) == expected, (k, sig)

    def test_early_exit_keeps_counters_and_records(self):
        # reference scan: every partner j of i, one pair per (i, omega) class
        rng = random.Random(2024)
        cases = [(2, [rng.randint(0, n - 1) for _ in range(n)]) for n in (2, 3, 50, 200)]
        for _ in range(120):
            k = rng.randint(2, 12)
            n = rng.choice([2, 3, 5, 8, 13, 30, 60, 200])
            cases.append((k, [rng.randint(0, rng.choice([k, 3 * k, n])) for _ in range(n)]))
        for _ in range(40):  # heavy repeats: most value pairs occur many times
            k, n = rng.randint(2, 12), rng.randint(30, 200)
            cases.append((k, [rng.randint(0, 2) for _ in range(n)]))
        for _ in range(40):  # small values, large k: mostly negative children
            k, n = rng.randint(6, 20), rng.randint(2, 40)
            cases.append((k, [rng.randint(0, 6) for _ in range(n)]))
        for k in (2**64 + 2, 2**64 + 3):  # values from 2**63 up
            for n in (2, 3, 5, 9, 16):
                cases.append((k, [rng.randint(2**63, 2**63 + 2 * k) for _ in range(n)]))
        for _ in range(20):  # a negative value: every child is negative
            k, n = rng.randint(2, 8), rng.randint(2, 12)
            cases.append((k, [-rng.randint(1, k)] + [rng.randint(-k, 3 * k) for _ in range(n - 1)]))
        # length 2: negative singletons, and non-negative ones cut to 0
        cases += [(2, [0, 0]), (2, [0, 1]), (6, [1, 2]), (7, [3, 4]), (2, [5, 5]), (7, [3, 9])]
        for _ in range(30):  # wide spread: partners at a gap >= k - 1 lie above the cap
            k, n = rng.randint(2, 6), rng.randint(3, 12)
            cases.append((k, [rng.randint(k, 12 * k) for _ in range(n)]))
        for _ in range(30):  # equal-value pairs, with partners on both sides of the cap
            k, n = rng.randint(2, 8), rng.randint(3, 14)
            base = rng.randint(k, 3 * k)
            cases.append((k, [rng.choice((base, base, base + 1, base + k - 1, base + 2 * k))
                              for _ in range(n)]))
        for k, values in cases:
            sig = canonicalize(values)
            parent_l = rng.choice([math.inf, sig[-1] - k + 1])  # max(a) <= l + k - 1
            expected, expected_stats = per_pair_generate(k, sig, representative_pairs(k, sig),
                                                         parent_l)
            stats = SolverStats()
            assert generate_children_fast(k, sig, parent_l, stats) == expected, (k, sig)
            assert stats == expected_stats, (k, sig)
            if sig[0] < 0:  # positional codes, which hold no negative child; every pair too
                assert _units(len(sig), sig[0], sig[-1])[0] == 0
                every = [(i, j) for i in range(len(sig) - 1) for j in range(i + 1, len(sig))]
                naive_stats = SolverStats()
                naive = generate_children_naive(k, sig, parent_l, naive_stats)
                assert per_pair_generate(k, sig, every, parent_l) == (naive, naive_stats)


class TestDominatedFilter:
    @staticmethod
    def maximal(sigs):
        kept = [c for c in sigs if not any(o != c and is_dominated(c, o) for o in sigs)]
        return sorted(kept, key=lambda s: (-sum(s), s))

    @staticmethod
    def seeded_sets():
        rng = random.Random(7)
        yield []
        yield [canonicalize([5])]
        yield [canonicalize([-3, 2**41])]
        for n in range(1, 13):
            for lo, hi in ((0, 9), (-30, 5), (-4, 4), (2**40, 2**40 + 20), (-(2**45), 2**43)):
                for size in (1, 2, 10, 60):
                    sigs = {canonicalize([rng.randint(lo, hi) for _ in range(n)])
                            for _ in range(size)}
                    yield sorted(sigs)
            # equal element sums: no two of these dominate each other
            total = 3 * n
            sigs = set()
            for _ in range(20):
                cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
                sigs.add(canonicalize(b - a for a, b in zip([0, *cuts], [*cuts, total])))
            yield sorted(sigs)
        # for count codes: M = 0, all values equal, values at M, and children
        # of 64, 127 or 128 values (lanes widen from 8 to 16 bits at parents of
        # 128); a signature from 1 up holds all of its values in lane 1
        for n in (1, 2, 5):
            yield [canonicalize([0] * n)]
            yield [canonicalize([v] * n) for v in range(4)]
        for n in (3, 64, 127, 128):
            for top in (1, 2, 9):
                for size in (2, 10, 40):
                    sigs = set()
                    for _ in range(size):
                        low, at_top = rng.randint(0, 1), rng.randint(0, n - 1)
                        sigs.add(canonicalize([top] * at_top + [rng.randint(low, top)
                                                                for _ in range(n - at_top)]))
                    yield sorted(sigs)

    @staticmethod
    def word_limit_sets():
        """Sets whose largest value sits just below or at the top bit of an
        8-, 16-, 32- or 64-bit word, the same sets moved down into negatives,
        one-lane sets, and sets of one and of no signature."""
        rng = random.Random(13)
        yield []
        for hi in (127, 128, 32767, 32768, 2**31 - 1, 2**31, 2**63 - 1, 2**63):
            near = ((0, 3), (hi // 2 - 2, hi // 2 + 2), (hi - 3, hi))
            for n in (1, 2, 3, 6):
                sigs = {canonicalize([*[0] * (n - 1), hi])}
                for _ in range(30):
                    sigs.add(canonicalize(rng.randint(*rng.choice(near)) for _ in range(n)))
                yield sorted(sigs)
                yield sorted(canonicalize(v - hi // 2 for v in s) for s in sigs)
                yield [max(sigs)]

    @staticmethod
    def scanned(sigs):
        """A non-empty, non-negative set as a level of children of its length,
        in the code that ``_units`` picks for that level (count or positional),
        through ``_scan``: the kept signatures, sum-descending."""
        top = max(s[-1] for s in sigs)
        bits, unit, _, guard = _units(len(sigs[0]) + 1, 0, top)
        if bits:
            sig_of = {sum(map(unit.__getitem__, s)): s for s in sigs}
        else:
            sig_of = {int.from_bytes(unit(*s), "little"): s for s in sigs}
        assert len(sig_of) == len(sigs), sigs
        calls = []
        kept = map(sig_of.__getitem__, _scan(sig_of, guard, lambda: calls.append(None)))
        kept = sorted(kept, key=lambda s: (-sum(s), s))
        assert len(calls) == len(sigs)
        return kept

    def test_matches_brute_force_maximal_set(self):
        # every non-empty, non-negative seeded set; no code holds a negative value
        for sigs in self.seeded_sets():
            if sigs and sigs[0][0] >= 0:
                assert self.scanned(sigs) == self.maximal(sigs), sigs

    def test_word_lanes_match_rank_lanes(self):
        # the word-limit sets on their values (lanes of 1 to 8 bytes or wider,
        # or count codes) and on their values' ranks, which keep domination
        for sigs in self.word_limit_sets():
            if not sigs or sigs[0][0] < 0:
                continue
            rank = {v: r for r, v in enumerate(sorted({v for s in sigs for v in s}))}
            ranked = [canonicalize(map(rank.__getitem__, s)) for s in sigs]
            kept = self.scanned(sigs)
            assert kept == self.maximal(sigs), sigs
            assert sorted(canonicalize(map(rank.__getitem__, s)) for s in kept) == sorted(
                self.scanned(ranked)), sigs


class TestDominators:
    @staticmethod
    def constant_lane_sets():
        # the lowest `low` and the highest `high` lanes hold one value throughout
        rng = random.Random(11)
        for n in range(1, 10):
            for low in range(n + 1):
                for high in sorted({0, min(1, n - low), n - low}):
                    mid = n - low - high
                    yield sorted({canonicalize([0] * low + [rng.randint(1, 6) for _ in range(mid)]
                                               + [7] * high) for _ in range(30)})

    @staticmethod
    def wide_lane_sets():
        # levels of 500 signatures or more whose first lane holds exactly 256
        # distinct values (the most one byte codes) or 257 and whose other
        # lanes hold fewer, all from 0 up or all from -2**63 up
        rng = random.Random(17)
        for distinct in (256, 257):
            for base in (0, -(2**63)):
                yield sorted({canonicalize([base + i,
                                            base + 2 * distinct + rng.randrange(distinct),
                                            base + 4 * distinct + rng.randrange(3)])
                              for i in range(distinct) for _ in range(2)})

    @staticmethod
    def crowded_lane_sets():
        # children of 100 or 126 values, most of them at the top, so that lane
        # counts reach 64 and more; lane 1 holds one value throughout when no
        # child holds a 0
        rng = random.Random(19)
        for n in (100, 126):
            for top in (1, 3, 9):
                for size in (2, 10, 60):
                    low = rng.randint(0, 1)
                    yield sorted({canonicalize([top] * (at := rng.randint(n // 2, n))
                                               + [rng.randint(low, top) for _ in range(n - at)])
                                  for _ in range(size)})

    @staticmethod
    def run_sets():
        # long runs of equal values, and lanes of one value throughout between
        # varying ones: three values in runs, then a middle block of 6s
        # (constant tuple lanes) between values up to 4 and values from 8
        # (count lanes 5 to 8 constant)
        rng = random.Random(29)
        for n in (6, 12, 40):
            for size in (10, 60, 200):
                runs = set()
                for _ in range(size):
                    i, j = sorted(rng.randint(0, n) for _ in range(2))
                    a, b, c = sorted(rng.sample(range(10), 3))
                    runs.add(canonicalize([a] * i + [b] * (j - i) + [c] * (n - j)))
                yield sorted(runs)
                low, mid = rng.randint(1, n // 2), rng.randint(1, n // 3)
                yield sorted({canonicalize([rng.randint(0, 4) for _ in range(low)] + [6] * mid
                                           + [rng.randint(8, 12) for _ in range(n - low - mid)])
                              for _ in range(size)})

    @staticmethod
    def brute_above(sigs):
        """``above`` from the definition: bit ``s'`` of ``above[s]`` is set iff
        ``sigs[s']`` dominates ``sigs[s]``."""
        return [sum(1 << i for i, o in enumerate(sigs)
                    if o != c and all(x <= y for x, y in zip(c, o))) for c in sigs]

    @staticmethod
    def count_coded(sigs):
        """The set's children as ``_expand_level`` hands them to ``_dominators``
        on 8-bit count codes, each code's ``to_bytes``; None where ``_units``
        picks another code."""
        if not sigs:
            return []
        if min(s[0] for s in sigs) < 0:
            return None
        top = max(s[-1] for s in sigs)
        bits, unit, _, _ = _units(len(sigs[0]) + 1, 0, top)
        if bits != 8:
            return None
        return [sum(map(unit.__getitem__, s)).to_bytes(top, "little") for s in sigs]

    def test_matches_scan_and_brute_force(self):
        sets = itertools.chain(TestDominatedFilter.seeded_sets(), self.constant_lane_sets(),
                               TestDominatedFilter.word_limit_sets(), self.wide_lane_sets(),
                               self.crowded_lane_sets(), self.run_sets())
        rng = random.Random(37)
        byte_sets = brute_sets = 0
        for sigs in sets:
            # each set as value tuples and, where they fit, as 8-bit count codes'
            # bytes, in three orders: reversed (sums and ties reach the masks
            # descending) and two shuffles.  above is indexed like the input, the
            # same for both lane kinds
            codes = self.count_coded(sigs)
            kinds = (sigs, codes) if codes is not None else (sigs,)
            for at in [range(len(sigs) - 1, -1, -1)] + [
                    rng.sample(range(len(sigs)), len(sigs)) for _ in range(2)]:
                ordered = [sigs[s] for s in at]
                results = []
                for lanes in kinds:
                    calls = []
                    above = _dominators([lanes[s] for s in at], lambda: calls.append(None))
                    assert _undominated(ordered, above) == TestDominatedFilter.maximal(sigs), sigs
                    if len(sigs) <= 200:
                        assert above == self.brute_above(ordered), sigs
                    columns = sum(len(set(lane)) > 1 for lane in zip(*lanes))
                    assert len(calls) == columns
                    results.append(above)
                assert results[0] == results[-1], sigs
            brute_sets += len(kinds) if len(sigs) <= 200 else 0
            byte_sets += len(kinds) - 1
        assert byte_sets > 200 and brute_sets > 800
        one = canonicalize([3, 5])
        assert _dominators([]) == []
        assert _dominators([one]) == [0]
        assert _dominators([b"\x02\x01"]) == [0]
        assert _dominators([(1, 2), (2, 3), (0, 5)]) == [0b010, 0, 0]

    def test_matches_scan_on_unpruned_levels(self):
        # prune_level reads the masks at every size; its records keep the order
        # of the brute-force maximal set
        rng = random.Random(23)
        no_prune = SolverConfig(prune_level_domination=False)
        for _ in range(12):
            k, n = rng.randint(2, 10), rng.randint(2, 10)
            depths = [rng.randint(0, 2 + n * k // 3) for _ in range(n)]
            for level in trace_levels(k, depths, no_prune):
                kept = TestDominatedFilter.maximal(level.signatures)
                pruned = prune_level(level)
                assert pruned.signatures == frozenset(kept)
                assert list(pruned.record_of) == [s for s in kept if s in level.record_of]


class TestFusedLevels:
    """Levels of ``_FUSED_MIN_PARENTS`` parents on take their per-parent
    domination from the level-wide masks: every output must be the one of
    per-parent scans followed by a level-wide scan, and so must every pruned
    level's step, the counts of each domination included."""

    @staticmethod
    def steps(k, levels):
        """``_expand_level`` from every level that has a next one, pruned: the
        record map's items, a list so that the level order counts, and the
        four counts."""
        steps = []
        for level in levels[:-1]:
            parents = [(a, level.record_of[a].l_value if level.record_of else math.inf)
                       for a in level.sorted_signatures()]
            record_of, counts = _expand_level(k, level.z - 1, parents, True, None)
            steps.append((list(record_of.items()), counts))
        return steps

    @classmethod
    def outputs(cls, k, depths, config):
        try:
            levels = trace_levels(k, depths, config)
            decision = decide(k, depths, config)
        except LimitError as exc:
            return str(exc)
        stats = dict(vars(decision.stats))
        del stats["wall_time_s"]
        flat = [(lv.z, lv.signatures, list(lv.record_of.items())) for lv in levels]
        steps = cls.steps(k, levels) if config.prune_level_domination else None
        return flat, decision.realizable, decision.witness_chain, stats, steps

    @staticmethod
    def instances():
        # level 6 of the first comes from 31 parents and holds 140 distinct
        # children: the scan filters it at the default width
        yield 10, [9, 8, 12, 10, 12, 10, 9, 13, 8], SolverConfig()
        rng = random.Random(41)
        for _ in range(100):
            k, n = rng.randint(2, 12), rng.randint(2, 14)
            lo = rng.randint(0, 2 * k)
            depths = [rng.randint(lo, lo + rng.choice([k // 2, k, 2 * k, n * k])) for _ in range(n)]
            yield k, depths, SolverConfig(
                prune_level_domination=n > 9 or rng.random() < 0.8,  # unpruned: never fused
                max_level_size=rng.choice([None, None, rng.randint(0, 60)]),
                max_seconds=rng.choice([None, None, 0.0, 1e9]),
            )
        # heavy repeats: two or three values, so that most pairs repeat a value
        # pair and most children come from several parents
        rng = random.Random(59)
        for _ in range(16):
            k, n = rng.randint(3, 10), rng.randint(6, 14)
            values = rng.sample(range(k, 3 * k), rng.randint(2, 3))
            yield k, [rng.choice(values) for _ in range(n)], SolverConfig(
                prune_level_domination=n > 9 or rng.random() < 0.5)

    def test_masks_at_every_width_match_scans(self, monkeypatch):
        for k, depths, config in self.instances():
            results = []
            # masks everywhere, scans everywhere, the default split
            for width in (0, 10**9, _FUSED_MIN_PARENTS):
                monkeypatch.setattr("splittree.solver._FUSED_MIN_PARENTS", width)
                results.append(self.outputs(k, depths, config))
            assert results[0] == results[1] == results[2], (k, depths, config)

    @pytest.mark.parametrize("n, bits", [(100, 8), (262, 16)])
    def test_crowded_lanes_match_scans(self, monkeypatch, n, bits):
        # a wide level of crowded parents: n values from a narrow window, a few
        # below it, so that lane counts straddle 64 (8-bit lanes: from 64 on a
        # count sets the bit just below the guard) or 256 (16-bit lanes: a code's
        # bytes are not its lanes); the instances the other tests solve reach no
        # fused level of 16-bit codes
        rng = random.Random(53)
        k, base = 4, 12
        parents = set()
        while len(parents) < _FUSED_MIN_PARENTS + 6:
            low = [rng.randint(0, base - 1) for _ in range(rng.randint(1, 8))]
            window = [rng.randint(base, base + 3) for _ in range(n - len(low))]
            parents.add(canonicalize(low + window))
        parents = [(a, math.inf) for a in sorted(parents)]
        assert _units(n, 0, max(a[-1] for a, _ in parents))[0] == bits
        results = []
        for width in (0, 10**9):  # masks, scans
            monkeypatch.setattr("splittree.solver._FUSED_MIN_PARENTS", width)
            record_of, counts = _expand_level(k, n - 1, parents, True, None)
            results.append((list(record_of.items()), counts))
        assert results[0] == results[1]


class TestSignatureType:
    """Inside the search children are plain tuples; every signature that
    leaves it, as a level key or in a record, must be a ``LeafSignature``."""

    @staticmethod
    def instances():
        rng = random.Random(43)
        yield REFERENCE_K, REFERENCE_DEPTHS
        yield 2, [rng.randint(0, 40) for _ in range(30)]
        yield 10, [13, 16, 18, 18, 18, 12, 14, 12, 15, 18, 15, 15, 17, 15]
        for _ in range(20):
            k, n = rng.randint(2, 8), rng.randint(2, 9)
            yield k, [rng.randint(0, k * n // 2) for _ in range(n)]

    @staticmethod
    def assert_leaf_signatures(records):
        for record in records:
            assert type(record.parent) is LeafSignature, record
            assert type(record.child) is LeafSignature, record

    @pytest.mark.parametrize("width", [0, 10**9])  # masks everywhere, scans everywhere
    def test_levels_and_witnesses(self, monkeypatch, width):
        monkeypatch.setattr("splittree.solver._FUSED_MIN_PARENTS", width)
        realizable = 0
        for k, depths in self.instances():
            # unpruned, the 14 bounds at k = 10 take seconds
            for prune in (True, False) if k == 2 or len(depths) < 10 else (True,):
                config = SolverConfig(prune_level_domination=prune)
                for level in trace_levels(k, depths, config):
                    assert all(type(sig) is LeafSignature for sig in level.signatures)
                    assert all(type(sig) is LeafSignature for sig in level.record_of)
                    self.assert_leaf_signatures(level.record_of.values())
                decision = decide(k, depths, config)
                self.assert_leaf_signatures(decision.witness_chain)
                realizable += bool(decision.witness_chain)
        assert realizable >= 10

    @pytest.mark.parametrize("width", [0, 10**9])  # masks everywhere, scans everywhere
    def test_search_levels_hold_what_the_check_guarded(self, monkeypatch, width):
        # the search builds its levels without the public constructor's check:
        # every level after the input is its record map's keys, each a sorted
        # LeafSignature of int values of the level's length, and read-only
        monkeypatch.setattr("splittree.solver._FUSED_MIN_PARENTS", width)
        levels = 0
        for k, depths in self.instances():
            for prune in (True, False) if k == 2 or len(depths) < 10 else (True,):
                config = SolverConfig(prune_level_domination=prune)
                for level in trace_levels(k, depths, config)[1:]:
                    assert level.signatures == level.record_of.keys()
                    for sig in level.record_of:
                        assert type(sig) is LeafSignature and len(sig) == level.z, sig
                        assert list(sig) == sorted(sig), sig
                        assert all(type(v) is int for v in sig), sig
                    for name in ("z", "signatures", "record_of"):
                        with pytest.raises(AttributeError):
                            setattr(level, name, None)
                        with pytest.raises(AttributeError):
                            delattr(level, name)
                    levels += 1
        assert levels > 100

    def test_generator_outputs(self):
        rng = random.Random(47)
        for _ in range(60):
            k, n = rng.randint(2, 8), rng.randint(2, 9)
            sig = canonicalize(rng.randint(0, k * n // 2) for _ in range(n))
            for generate in (generate_children_naive, generate_children_fast):
                self.assert_leaf_signatures(generate(k, sig))


class TestUnitEdgeLevels:
    def test_closed_form_matches_expand(self):
        # the k = 2 step must keep the child, provenance and counters of the
        # general step on the same parent
        rng = random.Random(1952)
        cases = [[0, 0], [0, 1], [5, 5], [1, 9], [0, 0, 0], [0, 0, 0, 1], [0, 0, 3, 3]]
        for _ in range(600):
            n = rng.randint(2, 200)
            zeros = rng.choice([0, 0, 1, rng.randint(0, n)])  # a run of zeros first
            top = rng.randint(1, 2 * n)
            rest = [rng.randint(0, rng.choice([1, 3, top])) for _ in range(n - zeros)]
            if rng.random() < 0.5 and n - zeros > 1:  # the top value repeated up to a[n-1]
                repeats = rng.randint(1, n - zeros - 1)
                last = rng.choice([top, top + rng.randint(1, 5)])
                rest[-repeats - 1 :] = [top] * repeats + [last]
            cases.append([0] * zeros + rest)
        for values in cases:
            a = canonicalize(values)
            pairs = representative_pairs(2, a)
            for parent_l in (math.inf, a[-1] - 1):
                expected, stats = per_pair_generate(2, a, pairs, parent_l)
                fast_stats = SolverStats()
                assert generate_children_fast(2, a, parent_l, fast_stats) == expected, values
                assert fast_stats == stats, values
                step = _unit_edge_level([(a, parent_l)], None)
                record_of, counts = step
                assert len(record_of) + counts[3] == len(record_of) == len(expected), values
                assert list(record_of.values()) == expected, (values, parent_l)
                assert counts == (len(pairs), stats.pruned_negative, stats.pruned_dominated, 0), (
                    values, parent_l)
                for prune in (True, False):
                    general = _expand_level(2, len(a) - 1, [(a, parent_l)], prune, None)
                    assert step == general, (values, parent_l, prune)


class TestPruneLevel:
    def _level(self, sigs):
        return LevelSet(
            z=len(sigs[0]),
            signatures=frozenset(canonicalize(s) for s in sigs),
            record_of={},
        )

    def test_removes_dominated(self):
        level = self._level([[4, 5, 7, 8, 9], [4, 5, 8, 8, 9]])
        assert prune_level(level).signatures == {(4, 5, 8, 8, 9)}

    def test_singleton_untouched(self):
        level = self._level([[3, 7]])
        assert prune_level(level).signatures == {(3, 7)}

    def test_equal_multisets_collapse(self):
        level = self._level([[1, 2], [2, 1]])
        assert prune_level(level).signatures == {(1, 2)}

    def test_incomparable_all_kept(self):
        level = self._level([[0, 9], [3, 5], [4, 4]])
        assert len(prune_level(level).signatures) == 3

    def test_level_is_read_only(self):
        level = self._level([[3, 7]])
        for name in ("z", "signatures", "record_of"):
            with pytest.raises(AttributeError):
                setattr(level, name, None)
            with pytest.raises(AttributeError):
                delattr(level, name)
        assert (level.z, level.signatures, level.record_of) == (2, {(3, 7)}, {})

    def test_rejects_unsorted_signature(self):
        # lanes compare by position, so the unsorted (4, 1) would hide that
        # (1, 3) is dominated by (1, 4)
        with pytest.raises(InputError):
            prune_level(LevelSet(2, frozenset({(4, 1), (1, 3)}), {}))
        assert prune_level(self._level([[4, 1], [1, 3]])).signatures == {(1, 4)}

    def test_rejects_float_value(self):
        # the packed scan cannot take a float: InputError, not struct.error
        with pytest.raises(InputError):
            prune_level(LevelSet(2, frozenset({(1.5, 2), (1, 3)}), {}))

    def test_rejects_bool_value(self):
        # a bool would be packed as 0/1 and (True, 2) dropped as dominated
        with pytest.raises(InputError):
            prune_level(LevelSet(2, frozenset({(True, 2), (1, 3)}), {}))

    def test_rejects_str_value(self):
        # InputError, not the TypeError of sorting "a" against 1
        with pytest.raises(InputError, match="'a'"):
            LevelSet(2, frozenset({("a", 1)}), {})

    def test_rejects_wrong_length_under_optimize(self):
        # a short signature must not be dropped silently when asserts are off
        script = (
            "import itertools\n"
            "from splittree.errors import InputError\n"
            "from splittree.signature import canonicalize\n"
            "from splittree.solver import LevelSet, prune_level\n"
            "sigs = list(itertools.combinations_with_replacement(range(11), 3))[:200]\n"
            "sigs = frozenset(map(canonicalize, [*sigs, [0]]))\n"
            "try:\n"
            "    print(prune_level(LevelSet(3, sigs, {})).signatures)\n"
            "except InputError as exc:\n"
            "    print('InputError:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("InputError:"), proc.stdout


class TestDecide:
    def test_reference_instance(self):
        decision = decide(REFERENCE_K, REFERENCE_DEPTHS)
        assert decision.realizable
        assert len(decision.witness_chain) == 5
        # scripts/pool_hash.py hashes the records in this form
        assert repr(decision.witness_chain[0]) == (
            "MergeRecord(parent=LeafSignature([5, 7, 7, 8, 8, 9]), merged_lo=5, merged_hi=9, "
            "omega=4, cap=9, child=LeafSignature([4, 7, 7, 8, 8]), l_value=4)")
        with pytest.raises(AttributeError):
            decision.witness_chain[0].omega = 5

    def test_same_outputs_under_optimize(self):
        # no output of the search may depend on asserts being on
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        script = "from test_solver import search_digest\nprint(__debug__, search_digest())\n"
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", search_digest()]
        # the outputs of commit 8a37f54, before positional codes
        assert search_digest() == "68c1d68de5c2ae8aef87e79e828dea796631213428cb6dfcd8c6bd53e4f16255"

    @pytest.mark.parametrize(
        "k,depths,expected",
        [
            (2, [0], True),
            (2, [0, 0], False),
            (3, [1, 2, 3], False),
            (2, [2, 2, 2, 2], True),
            (6, [5, 7], True),
            (4, [2, 2, 2], False),
            (2, [1, 2, 2], True),
        ],
    )
    def test_small_verdicts(self, k, depths, expected):
        assert decide(k, depths).realizable is expected

    def test_input_validation(self):
        with pytest.raises(InputError):
            decide(2, [])
        with pytest.raises(InputError):
            decide(2, [3, -1])
        with pytest.raises(InputError):
            decide(0, [3])

    def test_huge_k_matches_recursive_oracle(self, monkeypatch):
        # values past 2**63 are too large for count codes: the level step takes
        # positional codes, whose lanes grow past 8 bytes.  A count code of
        # them would not fit in memory, so being offered one fails here
        def units(n, low, top):
            picked = _units(n, low, top)
            assert picked[0] == 0, (n, low, top)
            return picked

        past = []  # per scan: the codes whose largest value is 2**63 or more

        def scan(codes, guard, check_time=None):
            codes = list(codes)
            width = (guard & -guard).bit_length()  # lane bits: the guard is the top one
            past.append(sum(c >> guard.bit_length() - width >= 2**63 for c in codes))
            return _scan(codes, guard, check_time)

        monkeypatch.setattr("splittree.solver._units", units)
        monkeypatch.setattr("splittree.solver._scan", scan)
        rng = random.Random(31)
        verdicts, crowded = set(), 0
        for _ in range(100):
            k, n = 2**64 + rng.randint(2, 6), rng.randint(2, 6)
            top = (k - 1) * (n - 1)
            depths = [rng.randint(0, top) for _ in range(n)]
            verdict = decide(k, depths).realizable
            assert verdict is oracle_recursive(k, depths), (k, depths)
            verdicts.add(verdict)
            for level in trace_levels(k, depths):
                sigs = sorted(level.signatures)
                assert sorted(TestDominatedFilter.maximal(sigs)) == sigs, (k, depths)
                crowded += sum(s[-1] >= 2**63 for s in sigs) >= 2
        assert verdicts == {True, False} and crowded and max(past) >= 2

    def test_witness_chain_links_up(self):
        decision = decide(REFERENCE_K, REFERENCE_DEPTHS)
        chain = decision.witness_chain
        top = truncate(canonicalize(REFERENCE_DEPTHS), (REFERENCE_K - 1) * 5)
        assert chain[0].parent == top
        for first, second in zip(chain, chain[1:]):
            assert first.child == second.parent
        assert len(chain[-1].child) == 1 and chain[-1].child[0] >= 0

    def test_spread_bound_on_records(self):
        for k, depths in [(6, REFERENCE_DEPTHS), (4, [3, 6, 6, 9, 9]), (5, [2, 8, 8, 8])]:
            for level in trace_levels(k, depths):
                for rec in level.record_of.values():
                    assert rec.child.max_value <= rec.l_value + k - 1

    def test_untouched_prefix_matches_input(self):
        # values below the smallest inserted merge value are original bounds
        for k, depths in [(6, REFERENCE_DEPTHS), (4, [1, 3, 6, 6, 9]), (3, [0, 2, 5, 7, 8])]:
            top = truncate(canonicalize(depths), (k - 1) * (len(depths) - 1))
            for level in trace_levels(k, depths):
                for sig, rec in level.record_of.items():
                    kept = [v for v in sig if v < rec.l_value]
                    assert list(sig[: len(kept)]) == list(top[: len(kept)])
                    assert len(kept) == sum(1 for v in top if v < rec.l_value)

    def test_pruning_does_not_change_verdict(self):
        no_prune = SolverConfig(prune_level_domination=False)
        for k in (2, 3, 5):
            for n in range(1, 5):
                for depths in itertools.combinations_with_replacement(range(0, 9, 2), n):
                    assert (
                        decide(k, depths).realizable
                        is decide(k, depths, no_prune).realizable
                    )

    def test_unpruned_levels_past_the_pruned_bound(self):
        # |level| <= z**k holds for pruned levels only
        rng = random.Random(12)
        no_prune = SolverConfig(prune_level_domination=False)
        cases = [(4, [7, 7, 9, 9, 12, 14, 14, 14]), (3, [6, 6, 7, 8, 9, 9, 10, 10, 11, 12])]
        while len(cases) < 12:  # narrow windows, where unpruned levels grow past it
            k, n = rng.randint(2, 8), rng.randint(3, 12)
            lo = rng.randint(0, n)
            depths = [rng.randint(lo, lo + k) for _ in range(n)]
            if any(len(lv.signatures) > lv.z**k for lv in trace_levels(k, depths, no_prune)):
                cases.append((k, depths))
        for k, depths in cases:
            assert decide(k, depths, no_prune).realizable is decide(k, depths).realizable

    @given(
        depths=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6),
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, depths, k, seed):
        shuffled = list(depths)
        random.Random(seed).shuffle(shuffled)
        assert decide(k, depths).realizable is decide(k, shuffled).realizable

    def test_scaling_preserves_realizability(self):
        for k in (2, 3):
            for n in range(1, 5):
                for depths in itertools.combinations_with_replacement(range(7), n):
                    if decide(k, depths).realizable:
                        for c in (2, 3):
                            scaled = [c * v for v in depths]
                            assert decide(c * k, scaled).realizable, (k, depths, c)

    def test_looser_bounds_stay_realizable(self):
        rng = random.Random(5)
        for _ in range(200):
            k = rng.randint(2, 6)
            n = rng.randint(1, 5)
            depths = [rng.randint(0, 8) for _ in range(n)]
            if decide(k, depths).realizable:
                looser = [v + rng.randint(0, 3) for v in depths]
                assert decide(k, looser).realizable

    def test_huge_k_level_size_bound_is_cheap(self):
        # the per-level size bound z**k must not be built as a bignum
        start = time.perf_counter()
        decide(10**7, [3, 3, 3, 3])
        assert time.perf_counter() - start < 0.1

    def test_single_leaf(self):
        decision = decide(5, [7])
        assert decision.realizable and decision.witness_chain == []

    def test_stats_counters_fill_in(self):
        stats = decide(REFERENCE_K, REFERENCE_DEPTHS).stats
        assert stats.signatures_generated > 0
        assert stats.peak_level_size == 6
        assert stats.wall_time_s >= 0
        # the dict form, in the order the CLI prints it
        assert list(vars(stats)) == ["signatures_generated", "pruned_negative",
                                     "pruned_dominated", "peak_level_size", "wall_time_s"]
        assert SolverStats(**vars(stats)) == stats
        for name, value in vars(stats).items():
            assert SolverStats(**{**vars(stats), name: value + 1}) != stats, name


class TestTraceLevels:
    def test_reference_levels_exact(self):
        levels = trace_levels(REFERENCE_K, REFERENCE_DEPTHS)
        assert len(levels) == 6
        for level in levels:
            assert set(level.signatures) == REFERENCE_LEVELS[level.z]

    def test_two_unit_leaves(self):
        levels = trace_levels(2, [1, 1])
        assert [set(lv.signatures) for lv in levels] == [{(1, 1)}, {(0,)}]

    def test_three_equal_bounds_golden(self):
        # verified against the exhaustive tree-enumeration oracle
        levels = trace_levels(4, [2, 2, 2])
        assert [set(lv.signatures) for lv in levels] == [{(2, 2, 2)}, {(0, 2)}, set()]
        assert not decide(4, [2, 2, 2]).realizable

    def test_unit_edge_levels_stay_single(self):
        for depths in ([3, 3, 3, 3], [1, 3, 3, 4, 5, 6]):
            for level in trace_levels(2, depths):
                assert len(level.signatures) == 1

    def test_deterministic(self):
        a = trace_levels(REFERENCE_K, REFERENCE_DEPTHS)
        b = trace_levels(REFERENCE_K, REFERENCE_DEPTHS)
        assert [lv.sorted_signatures() for lv in a] == [lv.sorted_signatures() for lv in b]
        ra = [lv.record_of[s] for lv in a for s in lv.sorted_signatures() if s in lv.record_of]
        rb = [lv.record_of[s] for lv in b for s in lv.sorted_signatures() if s in lv.record_of]
        assert ra == rb

    @pytest.mark.parametrize("prune", [True, False])
    def test_public_replay_matches(self, prune):
        # the level search rebuilt from generate_children_fast and prune_level,
        # as the benchmark's per-layer replay does, gives the same levels,
        # records (in the same order) and counters as the search itself
        rng = random.Random(17)
        config = SolverConfig(prune_level_domination=prune)
        for _ in range(40):
            k, n = rng.randint(2, 10), rng.randint(1, 14 if prune else 9)
            depths = [rng.randint(0, 2 + n * k // 3) for _ in range(n)]
            stats = SolverStats()
            top = truncate(canonicalize(depths), (k - 1) * (n - 1))
            replay = [LevelSet(n, frozenset({top}), {})]
            dominated_level = 0
            for z in range(n - 1, 0, -1):
                parents = replay[-1].record_of
                merged = {}
                for a in replay[-1].sorted_signatures():
                    parent_l = parents[a].l_value if parents else math.inf
                    for rec in generate_children_fast(k, a, parent_l, stats):
                        merged.setdefault(rec.child, rec)
                level = LevelSet(z, frozenset(merged), merged)
                if prune:
                    level = prune_level(level)
                    dominated_level += len(merged) - len(level.signatures)
                replay.append(level)
                if not merged:
                    break

            def flat(levels):
                return [(lv.z, lv.signatures, list(lv.record_of.items())) for lv in levels]

            assert flat(trace_levels(k, depths, config)) == flat(replay), (k, depths)
            counters = decide(k, depths, config).stats
            assert counters.signatures_generated == stats.signatures_generated
            assert counters.pruned_negative == stats.pruned_negative
            assert counters.pruned_dominated == stats.pruned_dominated + dominated_level
            assert counters.peak_level_size == max(len(lv.signatures) for lv in replay)


@st.composite
def wide_instances(draw, ks, max_n):
    """``(k, depths)`` with bounds spread over ``[0, (k-1)(n-1)]`` (larger
    ones are slack): thin levels, so n = 40 stays fast at k = 6, and both
    verdicts are common."""
    k = draw(ks)
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = (k - 1) * (n - 1)
    return k, draw(st.lists(st.integers(0, top), min_size=n, max_size=n))


class TestPastTheOracles:
    """Properties that need no oracle, checked at sizes the oracles cannot
    reach.  Derandomized, so that their share of the suite's time is fixed."""

    @given(data=st.data(), n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_unit_edges_match_kraft(self, data, n):
        # bounds near log2(n), where both verdicts occur
        lo = max(0, n.bit_length() - 2)
        depths = data.draw(st.lists(st.integers(lo, lo + 7), min_size=n, max_size=n))
        assert decide(2, depths).realizable is kraft_check(depths)

    @given(data=st.data(), instance=wide_instances(st.sampled_from((3, 4, 5, 6)), 40))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_permutation_invariance(self, data, instance):
        k, depths = instance
        shuffled = data.draw(st.permutations(depths))
        first, second = decide(k, depths), decide(k, shuffled)
        assert first.realizable is second.realizable
        assert first.witness_chain == second.witness_chain

    @given(data=st.data(), instance=wide_instances(st.sampled_from((2, 3, 4, 5, 6)), 30))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_raising_a_bound_keeps_realizable(self, data, instance):
        k, depths = instance
        if decide(k, depths).realizable:
            raised = list(depths)
            raised[data.draw(st.integers(0, len(depths) - 1))] += data.draw(st.integers(1, k))
            assert decide(k, raised).realizable

    @given(instance=wide_instances(st.sampled_from((2, 3, 4, 5, 6)), 30))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_removing_a_bound_keeps_realizable(self, instance):
        # cut that leaf from a witness tree and contract its parent: no
        # other leaf gets deeper
        k, depths = instance
        if len(depths) > 1 and decide(k, depths).realizable:
            for value in set(depths):
                removed = list(depths)
                removed.remove(value)
                assert decide(k, removed).realizable, (k, depths, value)

    @given(instance=wide_instances(st.sampled_from((2, 3, 4, 5, 6, 8)), 30))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_every_witness_builds_a_valid_tree(self, instance):
        k, depths = instance
        decision = decide(k, depths)
        if decision.realizable:
            tree = reconstruct(k, depths, decision.witness_chain)
            report = validate(k, tree, depths)
            assert report.valid, report.violations

    def test_long_unit_edge_chains(self):
        # k = 2 instances of 100-400 bounds: the leaf depths of a random tree
        # with some bounds raised (realizable) or one positive bound lowered
        # (not realizable, as its feasibility sum exceeds 1)
        rng = random.Random(331)
        verdicts = []
        for case in range(40):
            depths = [0]
            for _ in range(rng.randint(99, 399)):
                at = rng.randrange(len(depths)) if rng.random() < 0.7 else len(depths) - 1
                depths[at] += 1
                depths.append(depths[at])
            if case % 2:
                at = rng.choice([i for i, v in enumerate(depths) if v > 0])
                depths[at] -= 1
            else:
                for _ in range(rng.randint(0, 5)):
                    depths[rng.randrange(len(depths))] += rng.randint(1, 3)
            rng.shuffle(depths)
            decision = decide(2, depths)
            assert decision.realizable is kraft_check(depths), depths
            levels = trace_levels(2, depths)
            assert [len(lv.signatures) for lv in levels] == [1] * (len(levels) - 1) + [
                int(decision.realizable)
            ]
            if decision.realizable:
                tree = reconstruct(2, depths, decision.witness_chain)
                assert validate(2, tree, depths).valid
            verdicts.append(decision.realizable)
        assert verdicts.count(True) == verdicts.count(False) == 20


class TestLimits:
    def test_level_size_limit(self):
        with pytest.raises(LimitError):
            decide(6, [4, 5, 6, 7, 8, 9], SolverConfig(max_level_size=2))

    def test_time_limit(self):
        with pytest.raises(LimitError):
            decide(4, list(range(0, 60, 3)), SolverConfig(max_seconds=0.0))

    def test_time_limit_bounds_level_pruning(self):
        # the search on this instance runs for several times the limit, with
        # level-wide passes over thousands of signatures; the limit must stop
        # it, not just the next parent
        h10 = [22, 26, 24, 27, 27, 24, 25, 23, 28, 26, 25, 21, 31, 31, 22, 23]
        start = time.perf_counter()
        with pytest.raises(LimitError):
            decide(10, h10 + [24, 26, 25, 23, 27, 24], SolverConfig(max_seconds=2.0))
        assert 2.0 <= time.perf_counter() - start < 2.5

    def test_time_limit_fires_at_first_check_past_deadline(self, monkeypatch):
        # the same bound without the machine's speed: the solver's clock
        # reads 0 at the start and one more at every check, so a limit of L
        # seconds lets exactly L checks pass and the next one raise
        clock = itertools.count()
        monkeypatch.setattr("splittree.solver.time",
                            types.SimpleNamespace(perf_counter=lambda: next(clock)))
        k, depths = 10, [13, 16, 18, 18, 18, 12, 14, 12, 15, 18, 15, 15, 17, 15]
        full = decide(k, depths, SolverConfig(max_seconds=math.inf))
        checks = next(clock) - 2  # less the start and the wall-time readings
        assert checks > 1000 and full.stats.wall_time_s == checks + 1
        for limit in (0, 1, checks // 2, checks - 1):
            clock = itertools.count()
            with pytest.raises(LimitError):
                decide(k, depths, SolverConfig(max_seconds=limit))
            assert next(clock) == limit + 2, limit
        clock = itertools.count()
        assert decide(k, depths, SolverConfig(max_seconds=checks)) == full
        # one check per parent, per candidate of a level-wide scan and, in a
        # fused level, per mask column and per parent group: between two
        # checks lies at most one parent's, child's, column's or group's work
        counted = dict.fromkeys(("parents", "scanned", "columns", "groups"), 0)
        level = []

        def expand_level(k, z, parents, prune, check_time):
            counted["parents"] += len(parents)
            level[:] = [len(parents)]
            return _expand_level(k, z, parents, prune, check_time)

        def scan(codes, guard, check_time=None):
            codes = list(codes)
            counted["scanned"] += len(codes) if check_time else 0
            return _scan(codes, guard, check_time)

        def dominators(sigs, check_time=None):
            counted["columns"] += sum(len(set(lane)) > 1 for lane in zip(*sigs))
            counted["groups"] += level[0]
            return _dominators(sigs, check_time)

        for name, wrapper in (("_expand_level", expand_level), ("_scan", scan),
                              ("_dominators", dominators)):
            monkeypatch.setattr(f"splittree.solver.{name}", wrapper)
        clock = itertools.count()
        assert decide(k, depths, SolverConfig(max_seconds=math.inf)) == full
        assert next(clock) - 2 == checks == sum(counted.values()), counted
        assert all(counted.values()), counted  # scanned and fused levels both

    def test_zero_level_size_is_a_limit(self):
        with pytest.raises(LimitError):
            decide(2, [1, 1], SolverConfig(max_level_size=0))

    @pytest.mark.parametrize("field,value", [
        ("max_seconds", math.nan),
        ("max_seconds", -0.5),
        ("max_level_size", -1),
    ])
    def test_invalid_limit_rejected(self, field, value):
        with pytest.raises(InputError, match=field):
            SolverConfig(**{field: value})

    def test_limits_off_by_default(self):
        assert decide(6, [4, 5, 6, 7, 8, 9]).realizable in (True, False)
