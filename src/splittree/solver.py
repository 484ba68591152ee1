"""Level-set decision procedure for realizability of a leaf signature.

Starting from the input signature, every level applies all single merge
steps to every surviving signature, discards candidates that are dominated
by a sibling candidate, and keeps one predecessor record per distinct
signature so a witness tree can be rebuilt afterwards.  A signature is
realizable iff a non-negative singleton survives down at length 1.  One level
is one step, ``_expand_level`` (``_unit_edge_level`` at ``k = 2``): from the
level's sorted ``(signature, l_value)`` pairs to the next level, a map from each
survivor to its ``MergeRecord``, and the counts ``(pairs, negatives, dominated
within a parent, dominated level-wide)``, which ``_run_levels`` alone sums.  Its one
walk over each parent's representative pairs, a run of equal values once, makes
every child one integer, in the code that ``_units`` picks once per level: its
count code, the sum of its values' lane units, cut to its cap by a looked-up mask
(at 8 bits both off shared lists), or, where a value is negative or ``M * bits > 64
* n``, its positional code, value ``i`` in lane ``i``.  Only survivors are built as
tuples.  A pass over a whole level's union reads ``_dominators``' masks, indexed
like its input (a fused level's slots), one mask step per lane of tuples or 8-bit
codes' bytes, ANDed where a value changes; every other pass scans.
"""

from __future__ import annotations

import math
import struct
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, count
from operator import attrgetter, ne, or_
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .errors import InputError, LimitError
from .signature import (
    LeafSignature,
    _reduce,
    canonicalize,
    truncate,
    validate_k,
)


class MergeRecord(NamedTuple):
    """Provenance of one reduction step.

    ``omega`` is the value actually inserted into the child (the raw merge
    value, cut to ``cap``).  ``l_value`` is the smallest value inserted
    anywhere along this child's derivation, so it is always an integer.
    Every record satisfies max(child) <= l_value + k - 1.
    """

    parent: LeafSignature
    merged_lo: int
    merged_hi: int
    omega: int
    cap: int
    child: LeafSignature
    l_value: int


class LevelSet:
    """Signatures of one length ``z`` surviving so far, with one record each.

    The input level has an empty record map.  Every signature must be
    sorted, of ``int`` values (no ``bool``) and have length ``z``
    (InputError otherwise).  ``|signatures| <= z**k`` is asserted by the
    solver when a pruned level is built; unpruned levels can exceed it.
    A level is read-only: assigning an attribute raises AttributeError.
    ``_built`` skips that check, for the levels the search builds (their
    ``signatures`` is ``record_of.keys()``, a read-only set view that compares
    equal to a ``frozenset`` but is not hashable) and ``prune_level``'s output.
    """

    def __init__(self, z: int, signatures: frozenset[LeafSignature],
                 record_of: dict[LeafSignature, MergeRecord]) -> None:
        if any(
            not (isinstance(sig, LeafSignature) or canonicalize(sig) == tuple(sig))
            or len(sig) != z
            for sig in signatures
        ):
            raise InputError(f"level {z} takes only sorted signatures of length {z}")
        vars(self).update(z=z, signatures=signatures, record_of=record_of)

    @classmethod
    def _built(cls, z: int, signatures: Collection[LeafSignature],
               record_of: dict[LeafSignature, MergeRecord]) -> LevelSet:
        level = object.__new__(cls)
        vars(level).update(z=z, signatures=signatures, record_of=record_of)
        return level

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"LevelSet is read-only: cannot change {name!r}")

    __delattr__ = __setattr__

    def sorted_signatures(self) -> list[LeafSignature]:
        return sorted(self.signatures)


class SolverStats:
    """Counters filled in while the level sets are computed.

    ``vars(stats)`` is their dict form, with the keys in this order."""

    def __init__(self, signatures_generated: int = 0, pruned_negative: int = 0,
                 pruned_dominated: int = 0, peak_level_size: int = 0,
                 wall_time_s: float = 0.0) -> None:
        self.signatures_generated = signatures_generated
        self.pruned_negative = pruned_negative
        self.pruned_dominated = pruned_dominated
        self.peak_level_size = peak_level_size
        self.wall_time_s = wall_time_s

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is SolverStats else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"SolverStats({fields})"


class Decision(NamedTuple):
    """Outcome of ``decide``: verdict, witness records, counters.

    ``witness_chain`` runs from the first merge applied to the input down
    to the final singleton; it is empty for unrealizable inputs and for
    single-leaf inputs.
    """

    realizable: bool
    witness_chain: list[MergeRecord]
    stats: SolverStats


class SolverConfig:
    """Knobs for ``decide``/``trace_levels``.

    ``prune_level_domination`` switches the optional cross-parent pruning
    of dominated signatures after each level (the verdict is the same
    either way; the level sets are smaller with it on).
    ``max_level_size``/``max_seconds`` abort with LimitError instead of
    ever returning a wrong verdict; both must be >= 0 (0 is a real limit).
    """

    def __init__(self, prune_level_domination: bool = True, max_level_size: int | None = None,
                 max_seconds: float | None = None) -> None:
        for name, value in (("max_level_size", max_level_size), ("max_seconds", max_seconds)):
            if value is not None and not value >= 0:  # NaN fails too
                raise InputError(f"{name} must be >= 0, got {value}")
        self.prune_level_domination = prune_level_domination
        self.max_level_size = max_level_size
        self.max_seconds = max_seconds


# a sorted signature: a LeafSignature, or a child built by ``_child``, not yet recorded
Signature = tuple[int, ...]


def _units(n: int, low: int, top: int) -> tuple[
        int, list[int] | _Memo | Callable, list[int] | _Memo | None, int]:
    """``(bits, unit, cut, guard)`` for the codes of the children of a signature of ``n``
    values in ``[low, top]``; ``guard`` holds the top bit of each lane.

    Count codes where ``low >= 0`` and ``top * bits <= 64 * n`` (a code over at most
    ``n`` words): lane ``t >= 1``, ``bits`` wide from bit ``bits * (t - 1)``, holds how
    many values are ``>= t``; ``unit[v]`` holds 1 in lanes ``1..v``, so a code is the
    sum of its values' units, and ``cut[c] = (1 << bits * c) - 1`` keeps lanes ``1..c``.
    ``bits`` is the least multiple of 8 above ``n``'s bit length: 8 below 128 values, 16
    below 32,768, 24 below 2**23.  ``unit`` and ``cut`` are two shared lists at 8 bits,
    else two ``_Memo``s.

    Positional codes elsewhere, with ``bits = 0`` and ``cut = None``: value ``i`` of a
    child sits in lane ``i``, and ``unit(*child)`` gives the code's bytes.  A lane is the
    least of 1, 2, 4 or 8 bytes whose top bit lies above ``top``, packed by one ``struct``
    call; past 2**63, the least size that holds ``top`` below its top bit."""
    bits = 8 * (n.bit_length() // 8 + 1)
    if low < 0 or top * bits > 64 * n:
        size = next(s for s in (1, 2, 4, 8, top.bit_length() // 8 + 1) if top.bit_length() < 8 * s)
        if size <= 8:
            pack = struct.Struct(f"<{n - 1}{'BHIQ'[size.bit_length() - 1]}").pack
        else:
            def pack(*child: int) -> bytes:
                return b"".join(v.to_bytes(size, "little") for v in child)
        return 0, pack, None, int.from_bytes((bytes(size - 1) + b"\x80") * (n - 1), "little")
    if bits > 8:
        unit, cut = _Memo(bits, (1 << bits) - 1), _Memo(bits, 1)
    else:
        while len(_UNIT_8) <= top:  # one list serves all 8-bit codes, grown to the largest top
            assert len(_UNIT_8) <= 8 * 127  # top <= 64 * n / 8 for n <= 127: at most 1,017 units
            _UNIT_8.append(((1 << 8 * len(_UNIT_8)) - 1) // 255)
            _CUT_8.append((1 << 8 * len(_CUT_8)) - 1)
        unit, cut = _UNIT_8, _CUT_8
    return bits, unit, cut, unit[top] << bits - 1


_UNIT_8: list[int] = []  # values up to 8 * 127 = 1016: 1,017 units, about 0.5 MB
_CUT_8: list[int] = []  # as long: 1,017 cuts, about 0.5 MB too


class _Memo(dict):
    """``((1 << bits * v) - 1) // divisor`` of the values ``v`` that occur, on first use:
    count codes' ``unit`` (divisor ``(1 << bits) - 1``) or ``cut`` (1) of ``bits``-bit lanes."""

    def __init__(self, bits: int, divisor: int) -> None:
        self.bits, self.divisor = bits, divisor

    def __missing__(self, v: int) -> int:
        memo = self[v] = ((1 << self.bits * v) - 1) // self.divisor
        return memo


def _scan(codes: Iterable[int], guard: int, check_time: Callable[[], None] | None = None):
    """Undominated codes, descending, one ``check_time`` each: ``o`` dominates ``c``
    iff ``(o | guard) - c`` keeps every guard bit, so its code is larger."""
    kept: list[int] = []
    fronts = []  # kept codes | guard
    for code in sorted(codes, reverse=True):
        if check_time is not None:
            check_time()
        for front in fronts:
            if (front - code) & guard == guard:
                break
        else:
            kept.append(code)
            fronts.append(code | guard)
    return kept


def _ge_masks(lane: bytes | tuple[int, ...], values: list[int]) -> dict[int, int]:
    """``{v: mask}`` for one lane of ``_dominators``' input, ``values`` its
    distinct values ascending: bit ``b`` of ``v``'s mask is set iff ``lane[b] >= v``.

    The one mask step codes the lane as one byte per signature, last bit first, as
    ``int(..., 2)`` reads the first character as the highest bit; one ``translate``
    per value turns the bytes ``>= r`` into that mask in C.  A byte lane is its own
    code, ``r = v``; a tuple lane of up to 256 values is coded by the rank ``r`` of
    ``v``.  Lanes of more values OR each bit into its value's mask, then OR the
    masks from the top value down.
    """
    if len(values) > 256:
        ge = dict.fromkeys(values, 0)
        for b, v in enumerate(lane):
            ge[v] |= 1 << b
        down = values[::-1]
        return dict(zip(down, accumulate(map(ge.__getitem__, down), or_)))
    if isinstance(lane, bytes):
        coded, ranks = lane[::-1], zip(values, values)
    else:
        rank = dict(zip(values, count()))
        coded, ranks = bytes(map(rank.__getitem__, reversed(lane))), rank.items()
    return {v: int(coded.translate(b"0" * r + b"1" * (256 - r)), 2) for v, r in ranks}


def _dominators(
    sigs: Sequence[Signature | bytes], check_time: Callable[[], None] | None = None
) -> list[int]:
    """``above`` for distinct signatures of one length, for calls that see a
    whole level's union of children (the scan serves all others), indexed like
    ``sigs``: bit ``s'`` of ``above[s]`` is set iff ``sigs[s']`` dominates
    ``sigs[s]``.  One ``check_time`` call per varying lane.

    Per varying lane, ``_ge_masks`` gives the mask of the signatures whose
    value there is ``>= v``.  The AND of these masks at ``c``'s values, from
    one shared all-ones start, holds ``c`` and its dominators, so ``above[s]``
    is that AND with its own bit cleared once at the end.  Lanes of one value
    throughout are skipped.  The AND runs lane by lane, only for the signatures
    whose value differs from the adjacent lane visited before it (skipped or not),
    where that lane's test does not imply this one's; the first tuple lane takes
    every one.  Tuple lanes come from ``zip``, each value at most the next; 8-bit
    count codes' bytes are joined once, in input order, and lane ``t`` is the
    strided slice of that matrix, visited top lane first, each count at least the
    one above it: the top lane starts below an all-zero lane, as a count of 0
    passes every mask.
    """
    n = len(sigs)
    above = [(1 << n) - 1] * n
    lanes, previous = zip(*sigs), None  # previous: the lane visited before, constant or not
    if sigs and isinstance(sigs[0], bytes):  # lane t: a strided slice of one matrix
        width, matrix = len(sigs[0]), b"".join(sigs)  # previous: an int, first the 0s on top
        lanes, previous = (matrix[t::width] for t in reversed(range(width))), 0
    for lane in lanes:
        values = sorted(set(lane))
        current = int.from_bytes(lane, "big") if isinstance(lane, bytes) else lane
        if len(values) > 1:
            if check_time is not None:
                check_time()
            ge = _ge_masks(lane, values)
            if previous is None:
                changed = range(n)
            elif isinstance(lane, bytes):  # the bytes where the two lanes differ are nonzero
                changed = compress(range(n), (current ^ previous).to_bytes(n, "big"))
            else:
                changed = compress(range(n), map(ne, lane, previous))
            for b in changed:
                above[b] &= ge[lane[b]]
        previous = current
    return [up ^ 1 << s for s, up in enumerate(above)]  # a signature passes its own masks


def _undominated(sigs: Iterable[Signature], above: list[int]) -> list[Signature]:
    """The undominated ones of the signatures that ``_dominators`` gave ``above``,
    by descending sum, ties ascending."""
    kept = sorted(c for c, up in zip(sigs, above) if not up)
    return sorted(kept, key=sum, reverse=True)  # stable: ties stay ascending


def _child(a: LeafSignature, i: int, j: int, w: int, cap: int) -> Signature:
    """``signature._reduce`` from slices of ``a``, for ``cap = w + k - 1``:
    - ``w <= a[i] - 1``, so ``w`` goes in before position ``i``, at
      ``p = bisect_right(a, w, 0, i)``;
    - ``a[i] <= w + ceil(k/2) <= cap``, so the values cut to ``cap`` start
      after ``i``, at ``q = bisect_right(a, cap, i)``;
    - with ``i < j``, ``a[j]`` leaves the kept middle if ``q > j`` and the
      cut tail, one ``cap`` shorter, otherwise.
    A length-2 parent gives ``(w,)``, ``w`` cut to ``cap = min(w + k - 1, 0)``.
    """
    n = len(a)
    if n == 2:
        return (w,)
    p = bisect_right(a, w, 0, i)
    q = bisect_right(a, cap, i)
    if q > j:
        return a[:p] + (w,) + a[p:i] + a[i + 1 : j] + a[j + 1 : q] + (cap,) * (n - q)
    return a[:p] + (w,) + a[p:i] + a[i + 1 : q] + (cap,) * (n - q - 1)


def generate_children_naive(k: int, a: LeafSignature, parent_l: float = math.inf,
                            stats: SolverStats | None = None) -> list[MergeRecord]:
    """``generate_children_fast``'s reference, sharing no search code: ``signature._reduce``
    on every position pair, the first record per non-negative child, dominated ones
    removed; sorted by child signature."""
    validate_k(k)
    a = canonicalize(a)
    n = len(a)
    if n < 2:
        raise InputError("child generation needs a signature of length >= 2")
    cands, negatives = {}, 0  # child -> its first record
    for i in range(n - 1):
        for j in range(i + 1, n):
            inserted, cap, child = _reduce(k, a, i, j)
            if child[0] < 0:
                negatives += 1
            elif child not in cands:
                l_value = min(parent_l, inserted)
                cands[child] = MergeRecord(a, a[i], a[j], inserted, cap, child, l_value)
    kept = _undominated(cands, _dominators(list(cands)))
    if stats is not None:
        stats.signatures_generated += n * (n - 1) // 2
        stats.pruned_negative += negatives
        stats.pruned_dominated += len(cands) - len(kept)
    return [cands[c] for c in sorted(kept)]


def generate_children_fast(k: int, a: LeafSignature, parent_l: float = math.inf,
                           stats: SolverStats | None = None) -> list[MergeRecord]:
    """Same result set as ``generate_children_naive`` without materializing
    every pair: ``_expand_level``'s walk, ``a`` a one-parent unpruned level.

    For a fixed smaller-side position i the merge value is non-decreasing
    in the partner's bound and takes at most ceil(k/2) distinct values.
    Among partners sharing a merge value, merging the smallest one leaves
    the largest leftover in the signature and therefore dominates the
    others, so only that representative pair per (i, value) class is
    expanded.  The value changes only where the gap a[j] - a[i] reaches
    some t in range(k - 2, 0, -2), so the representatives are i + 1 and
    the first partner at or past each such t, found by bisect; from a gap
    of k - 2 on the value stays a[i] - 1.  Repeats of a value pair each count
    as a pair; they give one child code, with the first one's record.  So row
    i, where a[i - 1] == a[i], has row i - 1's pairs less (i - 1, i), plus (i, i + 1)
    if of its class (k = 2, or even k, gap 1), a new pair only in a run's last row.
    """
    validate_k(k)
    a = canonicalize(a)
    if len(a) < 2:
        raise InputError("child generation needs a signature of length >= 2")
    record_of, (pairs, negatives, dominated, _) = _expand_level(
        k, len(a) - 1, [(a, parent_l)], False, None)
    if stats is not None:
        stats.signatures_generated += pairs
        stats.pruned_negative += negatives
        stats.pruned_dominated += dominated
    return list(record_of.values())


def prune_level(level: LevelSet) -> LevelSet:
    """Drop signatures dominated by another signature in the same level, by
    the ``_dominators`` masks at every size: a level is a whole union."""
    sigs = list(level.signatures)
    kept = _undominated(sigs, _dominators(sigs))
    record_of = {s: level.record_of[s] for s in kept if s in level.record_of}
    return LevelSet._built(level.z, frozenset(kept), record_of)


def _validate_instance(k: int, d: Iterable[int]) -> LeafSignature:
    validate_k(k)
    sig = canonicalize(d)
    if sig.min_value < 0:
        raise InputError(f"depth bounds must be >= 0, got {sig.min_value}")
    return sig


def _start_signature(k: int, sig: LeafSignature) -> LeafSignature:
    # a tree with n leaves has at most n-1 edges of length at most k-1 on
    # any root-leaf path, so larger bounds are slack
    return truncate(sig, (k - 1) * (len(sig) - 1))


# levels of this many parents on take their per-parent domination from the
# level-wide masks; narrower ones (all of long signatures) scan faster
_FUSED_MIN_PARENTS = 64


def _expand_level(
    k: int, z: int, parents: list[tuple[LeafSignature, float]], prune: bool,
    check_time: Callable[[], None] | None,
) -> tuple[dict[LeafSignature, MergeRecord], tuple[int, int, int, int]]:
    """``_run_levels``' step to length ``z``: every parent's children, in the
    one code that ``_units`` picks for the level, then, if ``prune``, the
    level-wide domination.  One walk visits each parent's representative pairs
    (see ``generate_children_fast``): row ``i``, ``j`` moving by bisect to each
    merge class.  A later row of a run of equal values derives its counts from row
    ``i - 1``'s and walks at most ``(i, i + 1)``, the one pair that can be new.  Each
    child's first derivation is the int ``(p * n + i) * n + j`` of its pair in
    ``parents[p]``.  A count code is ``((code - unit[lo] - unit[hi]) & cut[min(cap,
    a[-1])]) + unit[w]``, ``code - unit[lo]`` once per row (the cut clears the lanes
    past ``cap``); a positional code packs the non-negative ``_child``.

    From ``_FUSED_MIN_PARENTS`` parents on, a pruned level reads both
    dominations off one ``_dominators`` pass over all children (8-bit count
    codes' bytes, as one byte matrix, else tuples) in the order of the level's
    slot table, each listed once in its parent's group.  Narrower levels scan each
    parent's children, then the union of the kept ones, each with its first
    keeping parent's derivation.  A child is dominated within its parent iff
    a sibling dominates it.  What a parent drops has a dominator that it keeps,
    so all children and the kept ones have the same survivors; a survivor is
    kept by every parent generating it, so its first derivation is the one of
    the per-parent scans.  Returns the level's record map, child -> the
    ``MergeRecord`` that ``_derivation`` builds, by descending sum, ties
    ascending (unpruned: by parent, then ascending), and the four counts.
    """
    fused = prune and len(parents) >= _FUSED_MIN_PARENTS
    n = z + 1
    top = max(a[-1] for a, _ in parents)
    bits, unit, cut, guard = _units(n, min(a[0] for a, _ in parents), top)
    merged, slot = {}, {}  # child code -> first keeping derivation (scanned), -> slot (fused)
    first, seen, groups = [], [], []  # fused: per slot, per slot, per parent
    pairs = negatives = dominated = fresh = 0  # fresh: the next slot
    for p, (a, parent_l) in enumerate(parents):
        if check_time is not None:
            check_time()
        code, last = sum(map(unit.__getitem__, a)) if bits else 0, a[-1]
        cands, group = {}, []  # scanned: child code -> first derivation; fused: slots
        for i in range(n - 1):
            lo, step, row = a[i], i + 1, (p * n + i) * n
            if not i or lo != a[i - 1]:  # a run's first row: every representative pair
                row_pairs = row_negatives = 0
                end, rest = n, code - unit[lo] if bits else 0
            elif lo == a[step]:  # inside a run: row i - 1 again, (i, i + 1) for (i - 1, i)
                end = 0
            else:  # a run's last row: row i - 1 less (i - 1, i), plus (i, i + 1) if of its class
                row_pairs -= 1
                row_negatives -= min(lo - (k + 1) // 2, a[0]) < 0  # its w, or a[0], below 0
                end = 0 if k > 2 and a[step] - lo >= 2 - k % 2 else step + 1
            while step < end:
                j = step
                hi = a[j]
                gap = hi - lo  # w = signature.omega(k, lo, hi), as lo <= hi
                row_pairs += 1
                if gap >= k - 2:  # the merge value stays lo - 1 from here on
                    w, step = lo - 1, n
                else:  # the next class starts at the smallest gap t > gap with k - t even
                    w = lo - (k - gap + 1) // 2
                    step = bisect_left(a, lo + gap + 2 - (k - gap) % 2, j + 1)
                if w < 0:
                    row_negatives += 1
                    continue
                if n == 2:  # the singleton (w,) is cut to (0,): no other value is left
                    w = 0
                cap = w + k - 1
                if bits:
                    child = ((rest - unit[hi]) & cut[cap if cap < last else last]) + unit[w]
                    assert child.bit_length() <= bits * cap
                else:
                    child = _child(a, i, j, w, cap)
                    if child[0] < 0:  # a negative parent keeps its value or merges it lower
                        row_negatives += 1
                        continue
                    child = int.from_bytes(unit(*child), "little")
                if not fused:
                    cands.setdefault(child, row + j)
                    continue
                s = slot.setdefault(child, fresh)
                if s == fresh:  # a new child of the level
                    fresh += 1
                    seen.append(p)
                    first.append(row + j)
                    group.append(s)
                elif seen[s] != p:  # first met in this parent
                    seen[s] = p
                    group.append(s)
            pairs += row_pairs
            negatives += row_negatives
        if fused:
            groups.append(group)
            continue
        kept = _scan(cands, guard)
        assert len(kept) <= k * z
        dominated += len(cands) - len(kept)
        for c in kept:
            merged.setdefault(c, cands[c])
    if not fused:
        kept = _scan(merged, guard, check_time) if prune else list(merged)
        dropped_level = len(merged) - len(kept)
        kept = list(map(merged.__getitem__, kept))
    else:
        lanes = ([c.to_bytes(top, "little") for c in slot] if bits == 8
                 else [_child(*_decode(k, n, parents, d)) for d in first])
        above = _dominators(lanes, check_time)  # indexed by slot
        some_kept: set[int] = set()  # slots of children a parent keeps
        for group in groups:
            if check_time is not None:
                check_time()
            mask = sum(map((1).__lshift__, group))
            kept_slots = [s for s in group if not above[s] & mask]
            assert len(kept_slots) <= k * z
            dominated += len(group) - len(kept_slots)
            some_kept.update(kept_slots)
        kept = [d for d, up in zip(first, above) if not up]
        dropped_level = len(some_kept) - len(kept)
    records = sorted((_derivation(k, n, parents, d) for d in kept), key=attrgetter("child"))
    records.sort(key=(lambda r: sum(r.child)) if prune else attrgetter("parent"), reverse=prune)
    return {r.child: r for r in records}, (pairs, negatives, dominated, dropped_level)


def _decode(k: int, n: int, parents: list[tuple[LeafSignature, float]], d: int) -> tuple:
    """``(a, i, j, w, cap)`` of ``_expand_level``'s derivation ``d = (p * n + i) * n + j``:
    the pair ``(i, j)`` of ``a = parents[p][0]``, its merge value and cap."""
    p, ij = divmod(d, n * n)
    i, j = divmod(ij, n)
    a = parents[p][0]
    w = a[i] - max(1, (k - a[j] + a[i] + 1) // 2) if n > 2 else 0  # signature.omega, or (0,)
    cap = w + k - 1 if n > 2 else 0
    return a, i, j, w, cap


def _derivation(k: int, n: int, parents: list[tuple[LeafSignature, float]], d: int) -> MergeRecord:
    """The ``MergeRecord`` of ``_expand_level``'s derivation ``d``, a non-negative child."""
    a, i, j, w, cap = _decode(k, n, parents, d)
    parent_l = parents[d // (n * n)][1]
    child = tuple.__new__(LeafSignature, _child(a, i, j, w, cap))
    assert child[-1] <= parent_l + k - 1  # with <= cap: <= l_value + k - 1
    return MergeRecord(a, a[i], a[j], w, cap, child, min(parent_l, w))


def _unit_edge_level(
    parents: list[tuple[LeafSignature, float]], check_time: Callable[[], None] | None
) -> tuple[dict[LeafSignature, MergeRecord], tuple[int, int, int, int]]:
    """``_expand_level`` for ``k = 2``: the record map of the one kept child and
    the counts of its walk on the level's one non-negative signature ``a`` (pairs ``(i, i +
    1)``, as every gap is at least ``k - 2 = 0``), built without any sibling
    (Huffman's exchange argument).  With ``n = len(a)`` and ``u = a[n-2]``:
    - the pair ``(i, i+1)`` with ``a[i] = v`` merges to ``w = v-1``, ``cap =
      v`` and gives ``a[:r(v)] + (v-1,) + (v,) * (n-r(v)-2)``, ``r(v) =
      bisect_left(a, v)``: distinct children are distinct values, negative
      exactly for ``v = 0``;
    - the child of ``u`` holds one more value ``>= v`` than the child of any
      ``v < u`` and dominates it elementwise;
    - so only the child of ``u`` is kept, with ``_derivation``'s record of its
      first pair ``(r(u), r(u) + 1)``: a ``k = 2`` level never holds more than
      one signature and needs no level-wide filter, with or without pruning.
    A length-2 parent gives the singleton cut to ``(0,)``.
    """
    if check_time is not None:
        check_time()
    ((a, _),) = parents
    n = len(a)
    u = a[n - 2]
    zeros = bisect_right(a, 0, 0, n - 1)
    if u < 1:
        return {}, (n - 1, zeros, 0, 0)
    r = bisect_left(a, u)
    record = _derivation(2, n, parents, r * n + r + 1)
    return {record.child: record}, (n - 1, zeros, len(set(a[zeros : n - 1])) - 1, 0)


def _run_levels(
    k: int, d: Iterable[int], config: SolverConfig
) -> tuple[list[LevelSet], SolverStats]:
    sig = _validate_instance(k, d)
    start = time.perf_counter()
    check_time = None
    if config.max_seconds is not None:
        deadline = start + config.max_seconds

        def check_time() -> None:
            if time.perf_counter() > deadline:
                raise LimitError(f"time limit of {config.max_seconds}s exceeded at level {z}")

    prune = config.prune_level_domination
    first = _start_signature(k, sig)
    levels = [LevelSet(len(sig), frozenset({first}), {})]
    parents = [(first, math.inf)]
    generated = negatives = dominated = 0
    for z in range(len(sig) - 1, 0, -1):
        record_of, (pairs, negative, dropped, dropped_level) = (
            _unit_edge_level(parents, check_time) if k == 2
            else _expand_level(k, z, parents, prune, check_time))
        generated += pairs
        negatives += negative
        dominated += dropped + dropped_level
        size = len(record_of) + dropped_level
        # z >= 2 and size < 2**k imply size < z**k without building the bignum
        assert not prune or (z >= 2 and k >= size.bit_length()) or size <= z**k
        if config.max_level_size is not None and len(record_of) > config.max_level_size:
            raise LimitError(
                f"level {z} holds {len(record_of)} signatures, over the "
                f"limit of {config.max_level_size}"
            )
        levels.append(LevelSet._built(z, record_of.keys(), record_of))
        if not record_of:
            break
        parents = [(c, record_of[c].l_value) for c in sorted(record_of)]

    peak = max(len(level.signatures) for level in levels)
    return levels, SolverStats(generated, negatives, dominated, peak, time.perf_counter() - start)


def trace_levels(
    k: int, d: Iterable[int], config: SolverConfig | None = None
) -> list[LevelSet]:
    """Every computed level from the input length down to 1.

    If some level comes out empty the remaining (all empty) levels are
    omitted; the last returned level is the empty one.
    """
    levels, _ = _run_levels(k, d, config or SolverConfig())
    return levels


def decide(k: int, d: Iterable[int], config: SolverConfig | None = None) -> Decision:
    """Decide whether a tree exists for bounds ``d`` and edge-length sum ``k``.

    Returns the verdict together with a witness chain of merge records
    (to be replayed by the tree builder) and instrumentation counters.
    """
    config = config or SolverConfig()
    levels, stats = _run_levels(k, d, config)

    if levels[-1].z != 1 or not levels[-1].signatures:
        return Decision(realizable=False, witness_chain=[], stats=stats)

    sig = max(levels[-1].signatures)
    assert len(sig) == 1 and sig[0] >= 0
    chain: list[MergeRecord] = []
    for level in reversed(levels[1:]):
        chain.append(level.record_of[sig])
        sig = chain[-1].parent
    chain.reverse()
    return Decision(realizable=True, witness_chain=chain, stats=stats)
