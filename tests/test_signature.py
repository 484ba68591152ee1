import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splittree.errors import InputError
from splittree.signature import (
    LeafSignature,
    _reduce,
    canonicalize,
    is_dominated,
    merge_reduce,
    omega,
    truncate,
)

ints = st.integers(min_value=-20, max_value=20)
ks = st.integers(min_value=2, max_value=10)


class TestOmega:
    @pytest.mark.parametrize(
        "k,a1,a2,expected",
        [
            (6, 7, 7, 4),
            (6, 5, 9, 4),
            (6, 5, 7, 3),
            (6, 5, 8, 3),
            (6, 8, 9, 5),
            (2, 0, 0, -1),
        ],
    )
    def test_known_values(self, k, a1, a2, expected):
        assert omega(k, a1, a2) == expected

    def test_unit_edge_case_merges_to_one_less(self):
        for d in range(-5, 15):
            assert omega(2, d, d) == d - 1

    def test_rejects_small_k(self):
        with pytest.raises(InputError):
            omega(1, 3, 3)

    @given(k=ks, a=ints, b=ints)
    def test_symmetric(self, k, a, b):
        assert omega(k, a, b) == omega(k, b, a)

    @given(k=ks, a=ints, b=ints)
    def test_bounds(self, k, a, b):
        w = omega(k, a, b)
        assert min(a, b) - math.ceil(k / 2) <= w <= min(a, b) - 1

    def test_bounds_exhaustive_grid(self):
        for k in range(2, 11):
            for a in range(-20, 21):
                for b in range(a, 21):
                    w = omega(k, a, b)
                    assert a - math.ceil(k / 2) <= w <= a - 1

    def test_fixed_once_gap_reaches_k_minus_2(self):
        # the early exit of generate_children_fast relies on this
        for k in range(2, 13):
            for a in range(-5, 6):
                for b in range(a + max(k - 2, 0), a + 3 * k):
                    assert omega(k, a, b) == a - 1


class TestCanonicalize:
    def test_sorts(self):
        assert canonicalize([9, 5, 8, 7, 8, 7]) == (5, 7, 7, 8, 8, 9)

    def test_identity_cases(self):
        assert canonicalize([0]) == (0,)
        assert canonicalize([3, 3]) == (3, 3)

    def test_idempotent(self):
        sig = canonicalize([4, 1, 2])
        assert canonicalize(sig) is sig

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            canonicalize([])

    def test_rejects_non_integers(self):
        with pytest.raises(InputError):
            canonicalize([1.5, 2])
        with pytest.raises(InputError):
            canonicalize([True])

    def test_rejects_unorderable_values(self):
        # the types are checked before sorting: not a bare TypeError from sorted
        with pytest.raises(InputError, match="'a'"):
            LeafSignature(["a", 1])
        with pytest.raises(InputError, match="None"):
            LeafSignature([3, None])

    def test_signature_is_hashable_and_comparable(self):
        assert len({canonicalize([1, 2]), canonicalize([2, 1])}) == 1
        assert canonicalize([1, 3]) < canonicalize([2, 2])


class TestDomination:
    def test_known_pairs(self):
        assert is_dominated(canonicalize([4, 5, 7, 8, 9]), canonicalize([4, 5, 8, 8, 9]))
        assert is_dominated(canonicalize([5, 5, 7, 7, 8]), canonicalize([5, 5, 7, 7, 9]))
        assert not is_dominated(canonicalize([3, 7]), canonicalize([2, 9]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            is_dominated(canonicalize([1]), canonicalize([1, 2]))

    def test_unsorted_arguments_compare_as_multisets(self):
        assert is_dominated((2, 1), (1, 2))
        assert not is_dominated((9, 0), (1, 8))

    def test_partial_order_reflexive_antisymmetric(self):
        sigs = [
            canonicalize(c)
            for n in range(1, 5)
            for c in itertools.combinations_with_replacement(range(7), n)
        ]
        for a in sigs:
            assert is_dominated(a, a)
        by_len: dict[int, list[LeafSignature]] = {}
        for s in sigs:
            by_len.setdefault(len(s), []).append(s)
        for group in by_len.values():
            for a, b in itertools.combinations(group, 2):
                assert not (is_dominated(a, b) and is_dominated(b, a))

    def test_partial_order_transitive(self):
        sigs = [
            canonicalize(c) for c in itertools.combinations_with_replacement(range(7), 3)
        ]
        for a, b, c in itertools.product(sigs, repeat=3):
            if is_dominated(a, b) and is_dominated(b, c):
                assert is_dominated(a, c)


class TestTruncate:
    def test_cuts_large_values(self):
        assert truncate(canonicalize([3, 7, 8, 8, 9]), 8) == (3, 7, 8, 8, 8)

    def test_no_op_above_max(self):
        sig = canonicalize([5, 7, 7, 8, 8, 9])
        assert truncate(sig, 100) == sig

    def test_zero_identity(self):
        assert truncate(canonicalize([0]), 0) == (0,)

    def test_unsorted_input_is_sorted_and_cut(self):
        assert truncate([3, 1], 2) == (1, 2)
        assert truncate([3, 1], 5) == (1, 3)

    @given(
        vals_a=st.lists(ints, min_size=1, max_size=6),
        bumps=st.lists(st.integers(min_value=0, max_value=10), min_size=6, max_size=6),
        cap=ints,
    )
    @settings(max_examples=200)
    def test_monotone_under_domination(self, vals_a, bumps, cap):
        a = canonicalize(vals_a)
        b = canonicalize([v + bump for v, bump in zip(a, bumps)])
        assert is_dominated(a, b)
        assert is_dominated(truncate(a, cap), truncate(b, cap))


class TestMergeReduce:
    def test_known_reductions(self):
        a = canonicalize([5, 7, 7, 8, 8, 9])
        assert merge_reduce(6, a, 1, 2) == (4, 5, 8, 8, 9)
        assert merge_reduce(6, a, 0, 1) == (3, 7, 8, 8, 8)
        assert merge_reduce(2, canonicalize([2, 2, 2, 2]), 0, 1) == (1, 2, 2)

    def test_position_order_irrelevant(self):
        a = canonicalize([5, 7, 7, 8, 8, 9])
        assert merge_reduce(6, a, 2, 1) == merge_reduce(6, a, 1, 2)

    def test_rejects_bad_positions(self):
        a = canonicalize([1, 2, 3])
        for i, j in [(0, 0), (0, 3), (-4, 1)]:
            with pytest.raises(InputError):
                merge_reduce(2, a, i, j)
        with pytest.raises(InputError):
            merge_reduce(2, canonicalize([5]), 0, 1)

    def test_rejects_unsorted_signature(self):
        with pytest.raises(InputError):
            merge_reduce(4, (5, 3, 4), 0, 1)

    def test_fast_child_matches_plain_construction(self):
        rng = random.Random(11)
        cases = [(k, (a, b)) for k in (2, 3, 6) for a in range(-2, 6) for b in range(a, 8)]
        # a wide spread puts the cap below several values
        for _ in range(300):
            n = rng.randint(3, 12)
            cases.append((rng.randint(2, 10), [rng.randint(-3, 40) for _ in range(n)]))
        for k, values in cases:
            a = canonicalize(values)
            for i, j in itertools.permutations(range(len(a)), 2):
                w = omega(k, a[i], a[j])
                cap = w + k - 1 if len(a) > 2 else min(w + k - 1, 0)
                rest = [min(v, cap) for p, v in enumerate(a) if p not in (i, j)]
                plain = LeafSignature(sorted(rest + [min(w, cap)]))
                inserted, got_cap, child = _reduce(k, a, i, j)
                assert (inserted, got_cap, child) == (min(w, cap), cap, plain), (k, a, i, j)
                assert type(child) is LeafSignature

    def test_singleton_result_is_normalized_to_zero(self):
        # a lone leaf sits at the root, so any non-negative bound collapses
        assert merge_reduce(4, canonicalize([3, 3]), 0, 1) == (0,)
        assert merge_reduce(2, canonicalize([0, 0]), 0, 1) == (-1,)

    @given(
        k=st.integers(min_value=2, max_value=8),
        vals=st.lists(st.integers(min_value=0, max_value=15), min_size=2, max_size=7),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_dominated_by_untruncated_reduction(self, k, vals, data):
        a = canonicalize(vals)
        i = data.draw(st.integers(min_value=0, max_value=len(a) - 2))
        j = data.draw(st.integers(min_value=i + 1, max_value=len(a) - 1))
        reduced = merge_reduce(k, a, i, j)
        plain = canonicalize(
            [v for p, v in enumerate(a) if p not in (i, j)] + [omega(k, a[i], a[j])]
        )
        assert is_dominated(reduced, plain)
