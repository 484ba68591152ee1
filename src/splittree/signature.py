"""Leaf signatures and the checked public primitives on them.

A leaf signature is a multiset of integer depth bounds, kept in sorted
non-decreasing order.  The primitives here check their inputs: the merge
value ``omega``, domination, truncation, and the single reduction step
``merge_reduce``.  The solver's search builds its children inline
(``solver._expand_level``); ``_reduce``, the unchecked step behind
``merge_reduce``, is the reference the search is checked against.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Iterable

from .errors import InputError


class LeafSignature(tuple):
    """Canonical (sorted non-decreasing) tuple of integer depth bounds.

    Equality, hashing and ordering are inherited from ``tuple``, so two
    signatures are equal exactly when they are the same multiset.
    Negative values are representable (reduction steps can produce them)
    but mark a dead state: no tree can realize a negative bound.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int]) -> "LeafSignature":
        vals = list(values)
        if not vals:
            raise InputError("a leaf signature needs at least one value")
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"depth bounds must be integers, got {v!r}")
        vals.sort()
        return tuple.__new__(cls, vals)

    def __repr__(self) -> str:
        return f"LeafSignature({list(self)})"

    @property
    def max_value(self) -> int:
        return self[-1]

    @property
    def min_value(self) -> int:
        return self[0]


def canonicalize(values: Iterable[int]) -> LeafSignature:
    """Sorted copy of ``values`` as a LeafSignature. Idempotent."""
    if isinstance(values, LeafSignature):
        return values
    return LeafSignature(values)


def validate_k(k: int) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise InputError(f"edge-length sum k must be an integer >= 2, got {k!r}")
    return k


def omega(k: int, a1: int, a2: int) -> int:
    """Deepest permissible parent depth when merging two leaves with
    bounds ``a1`` and ``a2``: min(a1,a2) - max(1, ceil((k - |a1-a2|)/2)).

    Total on all integer inputs; the result always lies in
    [min(a1,a2) - ceil(k/2), min(a1,a2) - 1].
    """
    validate_k(k)
    gap = k - abs(a1 - a2)
    # (gap + 1) // 2 is ceil(gap / 2) for any integer gap
    return min(a1, a2) - max(1, (gap + 1) // 2)


def is_dominated(a: LeafSignature, b: LeafSignature) -> bool:
    """True iff every bound of ``a`` is <= the matching bound of ``b``.

    Matching sorted positions realizes the best possible pairing, so this
    is the multiset domination order.  Both are sorted first; requires equal
    lengths.
    """
    a, b = canonicalize(a), canonicalize(b)
    if len(a) != len(b):
        raise InputError(f"cannot compare signatures of lengths {len(a)} and {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def truncate(sig: LeafSignature, cap: int) -> LeafSignature:
    """Sorted copy of ``sig`` with every value above ``cap`` replaced by ``cap``."""
    sig = canonicalize(sig)
    if sig[-1] <= cap:
        return sig
    return LeafSignature(min(v, cap) for v in sig)


def _reduce(k: int, a: LeafSignature, i: int, j: int) -> tuple[int, int, LeafSignature]:
    """``merge_reduce`` without checks on ``a``, ``i`` and ``j``, as
    ``(inserted, cap, child)``.

    Values are cut to cap = w + k - 1 for merge value w (no leaf sits more
    than k-1 below the deepest internal vertex), and a singleton child to 0
    (its leaf is the root).  ``inserted`` is w cut to the cap.

    The search does not call this: ``solver._expand_level`` builds the same
    child inline.  This list-built step is the reference it is checked
    against, through ``solver.generate_children_naive`` and the tests.
    """
    w = omega(k, a[i], a[j])
    cap = w + k - 1 if len(a) > 2 else min(w + k - 1, 0)
    inserted = min(w, cap)
    rest = list(a)
    del rest[max(i, j)], rest[min(i, j)]
    # rest is sorted, so the values above the cap form its tail
    cut = bisect_right(rest, cap)
    rest[cut:] = [cap] * (len(rest) - cut)
    insort(rest, inserted)
    # sorted integers taken from a LeafSignature: skip the constructor's checks
    return inserted, cap, tuple.__new__(LeafSignature, rest)


def merge_reduce(k: int, a: LeafSignature, i: int, j: int) -> LeafSignature:
    """One reduction step: merge the bounds at positions ``i`` and ``j``.

    Removes a[i] and a[j], inserts omega(k, a[i], a[j]), and truncates the
    result as ``_reduce`` describes.  The output is canonical and one shorter.
    """
    validate_k(k)
    if canonicalize(a) != tuple(a):
        raise InputError("merge_reduce needs a sorted signature")
    n = len(a)
    if n < 2:
        raise InputError("merge_reduce needs a signature of length >= 2")
    if i == j or not (0 <= i < n) or not (0 <= j < n):
        raise InputError(f"invalid merge positions ({i}, {j}) for length {n}")
    return _reduce(k, a, i, j)[2]
