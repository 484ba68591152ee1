"""Level-set decision procedure for realizability of a leaf signature.

Starting from the input signature, every level applies all single merge
steps to every surviving signature, discards candidates that are dominated
by a sibling candidate, and keeps one predecessor record per distinct
signature so a witness tree can be rebuilt afterwards.  A signature is
realizable iff a non-negative singleton survives down at length 1.  One level
is one step, ``_expand_level`` (``_unit_edge_level`` at ``k = 2``): from the
level's sorted ``(signature, l_value)`` pairs to the kept children, each
child's first derivation and the counts ``(pairs, negatives, dominated within
a parent, dominated level-wide)``, which ``_run_levels`` alone sums.  Where a
pass sees a whole level's union of children it reads ``_dominators``' masks;
every other pass runs ``_dominated_filter``'s scan.
"""

from __future__ import annotations

import math
import struct
import time
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, chain, count, repeat, starmap
from operator import itemgetter, or_
from typing import Callable, Collection, Iterable, NamedTuple

from .errors import InputError, LimitError
from .signature import (
    LeafSignature,
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


# a sorted signature: a LeafSignature, or a child of ``_expand`` not yet recorded
Signature = tuple[int, ...]


@lru_cache(maxsize=1024)
def _word_packer(lanes: int, hi_bits: int) -> tuple[Callable[..., bytes], int]:
    """``(pack, guard)`` for signatures of ``lanes`` values in
    ``[0, 2**hi_bits)``: ``pack`` writes each value into a little-endian word
    of the narrowest size whose top bit lies above them, ``guard`` is the
    packed integer holding just the top bit of every word."""
    size, code = next(w for w in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")) if hi_bits < w[0])
    pack = struct.Struct(f"<{lanes}{code}").pack
    return pack, int.from_bytes(pack(*[1 << (size - 1)] * lanes), "little")


def _dominated_filter(
    sigs: Iterable[Signature], check_time: Callable[[], None] | None = None
) -> list[Signature]:
    """Signatures of one length not dominated by another one in the collection.

    A dominator always has a strictly larger element sum (the input holds
    distinct signatures), so scanning in descending sum order lets every
    candidate be checked against the kept front only.  ``check_time``, if
    given, runs before each candidate is scanned.

    Each signature is packed into one integer of equal-width lanes whose top
    bit is a guard that no lane value reaches: lane by lane,
    ``(packed(o) | guard) - packed(c)`` keeps its guard bit iff ``c <= o``
    there, and no lane borrows from the next, so ``c`` is dominated by ``o``
    iff the difference still holds every guard bit.  The lanes are the 8-,
    16-, 32- or 64-bit machine words of the narrowest size whose top bit lies
    above the largest value, built in one ``struct`` call per signature.  A
    collection holding a value outside ``[0, 2**63)`` is packed by rank among
    its distinct values instead, which keeps every lane comparison.  Sets of
    0 or 1 signatures are returned unpacked.
    """
    order = sorted(sigs)
    if len(order) < 2:
        if order and check_time is not None:
            check_time()
        return order
    order.sort(key=sum, reverse=True)  # stable: ties stay in ascending order
    lanes = order
    hi = max(map(itemgetter(-1), order))
    if min(map(itemgetter(0), order)) < 0 or hi >= 1 << 63:
        rank = dict(zip(sorted(set(chain.from_iterable(order))), count()))
        lanes = [tuple(map(rank.__getitem__, c)) for c in order]
        hi = len(rank) - 1
    pack, guard = _word_packer(len(order[0]), hi.bit_length())
    packs = map(int.from_bytes, starmap(pack, lanes), repeat("little"))
    kept: list[Signature] = []
    fronts: list[int] = []
    for c, packed in zip(order, packs):
        if check_time is not None:
            check_time()
        for front in fronts:
            if (front - packed) & guard == guard:
                break
        else:
            kept.append(c)
            fronts.append(packed | guard)
    return kept


def _ge_masks(lane: tuple[int, ...], values: list[int]) -> dict[int, int]:
    """``{v: mask}`` for one lane of ``_dominators``' order, ``values`` its
    distinct values ascending: bit ``b`` of ``v``'s mask is set iff
    ``lane[b] >= v``.

    Up to 256 values, the lane is coded as one byte per signature, the rank
    of its value among ``values``, last bit first, as ``int(..., 2)`` reads
    the first character as the highest bit; ``translate`` turns the bytes
    into the mask of each rank ``r`` in C.  Lanes of more values OR each bit
    into its value's mask, then OR the masks from the top value down.
    """
    if len(values) > 256:
        ge = dict.fromkeys(values, 0)
        for b, v in enumerate(lane):
            ge[v] |= 1 << b
        down = values[::-1]
        return dict(zip(down, accumulate(map(ge.__getitem__, down), or_)))
    rank = dict(zip(values, count()))
    coded = bytes(map(rank.__getitem__, reversed(lane)))
    return {v: int(coded.translate(b"0" * r + b"1" * (256 - r)), 2) for v, r in rank.items()}


def _dominators(
    sigs: Collection[Signature], check_time: Callable[[], None] | None = None
) -> tuple[list[Signature], list[int]]:
    """``(order, above)`` for distinct signatures of one length, for calls
    that see a whole level's union of children (the scan serves all others):
    ``order`` holds them by descending sum, ties in input order, and bit
    ``b'`` of ``above[b]`` is set iff ``order[b']`` dominates ``order[b]``.
    One ``check_time`` call per mask column, then one per signature.

    Per varying lane, ``_ge_masks`` gives the mask of the signatures whose
    value there is ``>= v``.  The AND of these masks at ``c``'s values holds
    ``c`` and its dominators, whose strictly larger sums give lower bits, so
    ``above[b]`` is that AND below bit ``b``.  Lanes of one value throughout
    are skipped.
    """
    order = sorted(sigs, key=sum, reverse=True)
    columns = []  # per varying lane: the mask at every candidate's value, by bit
    for lane in zip(*order):
        values = sorted(set(lane))
        if len(values) > 1:
            if check_time is not None:
                check_time()
            columns.append(list(map(_ge_masks(lane, values).__getitem__, lane)))
    above = []
    for b in range(len(order)):
        if check_time is not None:
            check_time()
        dominators = (1 << b) - 1
        for column in columns:
            dominators &= column[b]
            if not dominators:
                break
        above.append(dominators)
    return order, above


def _undominated(order: list[Signature], above: list[int]) -> list[Signature]:
    """The undominated signatures of ``_dominators``' ``(order, above)``: the
    kept list of ``_dominated_filter``, by descending sum, ties ascending."""
    kept = sorted(c for c, up in zip(order, above) if not up)
    return sorted(kept, key=sum, reverse=True)  # stable: ties stay ascending


# (merged_lo, merged_hi, omega, cap) of one reduction step, as in MergeRecord
Provenance = tuple[int, int, int, int]


def _pairs(k: int, a: LeafSignature) -> list[tuple[int, int]]:
    """The representative pairs of ``generate_children_fast``, by i then j."""
    n = len(a)
    pairs: list[tuple[int, int]] = []
    for i in range(n - 1):
        ai = a[i]
        j = i + 1
        while True:
            pairs.append((i, j))
            gap = a[j] - ai
            if gap >= k - 2:
                break
            # the next class starts at the smallest gap t > gap with k - t even
            j = bisect_left(a, ai + gap + 2 - (k - gap) % 2, j + 1)
            if j == n:
                break
    return pairs


def _expand(
    k: int, a: LeafSignature, pairs: list[tuple[int, int]], parent_l: float, scan: bool = True
) -> tuple[dict[Signature, Provenance], int, int]:
    """``(children, negatives, dominated)``: the undominated non-negative
    children of ``a`` over ``pairs`` in sorted order, each with the
    ``(merged_lo, merged_hi, omega, cap)`` of its first pair; the pairs that
    give a negative child; the distinct children a sibling dominates.
    Without ``scan``, every distinct non-negative child in the order of first
    generation and 0 dominated: the caller tests domination itself.  Children
    are plain tuples; ``_record`` makes the recorded ones ``LeafSignature``s.

    Pairs of equal values give equal children, so each distinct value pair
    is reduced once; the repeats of a negative one still count as negatives.

    Each child is ``signature._reduce(k, a, i, j)`` built from slices of the
    sorted parent, which needs ``i < j`` (every pair of ``_pairs`` and of
    ``generate_children_naive`` has it).  For merge value ``w`` and, from
    length 3 on, ``cap = w + k - 1``:
    - ``w <= a[i] - 1``, so ``w`` goes in before position ``i``, at
      ``p = bisect_right(a, w, 0, i)``;
    - ``a[i] <= w + ceil(k/2) <= cap``, so the values cut to ``cap`` start
      after ``i``, at ``q = bisect_right(a, cap, i)``;
    - with ``i < j``, ``a[j]`` leaves the kept middle if ``q > j`` and the
      cut tail, one ``cap`` shorter, otherwise.
    A length-2 parent gives the singleton ``min(w, cap)`` with
    ``cap = min(w + k - 1, 0)``.
    """
    n = len(a)
    top = parent_l + k - 1
    cands: dict[Signature, Provenance] = {}
    negative_of: dict[tuple[int, int], bool] = {}
    negatives = 0
    for i, j in pairs:
        lo, hi = a[i], a[j]
        negative = negative_of.get((lo, hi))
        if negative is None:
            w = lo - max(1, (k - hi + lo + 1) // 2)  # signature.omega(k, lo, hi), as lo <= hi
            if n == 2:
                cap = min(w + k - 1, 0)
                w = min(w, cap)
                child = (w,)
            else:
                cap = w + k - 1
                p = bisect_right(a, w, 0, i)
                q = bisect_right(a, cap, i)
                if q > j:
                    child = a[:p] + (w,) + a[p:i] + a[i + 1 : j] + a[j + 1 : q] + (cap,) * (n - q)
                else:
                    child = a[:p] + (w,) + a[p:i] + a[i + 1 : q] + (cap,) * (n - q - 1)
            # max(child) <= min(parent_l, w) + k - 1, as cap <= w + k - 1
            assert child[-1] <= cap and child[-1] <= top
            negative = negative_of[lo, hi] = child[0] < 0
            if not negative and child not in cands:
                cands[child] = (lo, hi, w, cap)
        negatives += negative
    if not scan:
        return cands, negatives, 0
    kept = _dominated_filter(cands)
    assert len(kept) <= k * (len(a) - 1)
    kept.sort()
    return {c: cands[c] for c in kept}, negatives, len(cands) - len(kept)


def _record(
    child: Signature, a: LeafSignature, parent_l: float, provenance: Provenance
) -> MergeRecord:
    lo, hi, inserted, cap = provenance
    child = tuple.__new__(LeafSignature, child)
    return MergeRecord(a, lo, hi, inserted, cap, child, min(parent_l, inserted))


def _generate(
    k: int,
    a: LeafSignature,
    pairs: list[tuple[int, int]],
    parent_l: float,
    stats: SolverStats | None,
) -> list[MergeRecord]:
    children, negatives, dominated = _expand(k, a, pairs, parent_l)
    if stats is not None:
        stats.signatures_generated += len(pairs)
        stats.pruned_negative += negatives
        stats.pruned_dominated += dominated
    return [_record(c, a, parent_l, p) for c, p in children.items()]


def generate_children_naive(
    k: int,
    a: LeafSignature,
    parent_l: float = math.inf,
    stats: SolverStats | None = None,
) -> list[MergeRecord]:
    """All merge candidates of ``a``: one per unordered position pair,
    with negative children dropped and dominated candidates removed.
    Returned sorted by child signature."""
    validate_k(k)
    a = canonicalize(a)
    n = len(a)
    if n < 2:
        raise InputError("child generation needs a signature of length >= 2")
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    return _generate(k, a, pairs, parent_l, stats)


def generate_children_fast(
    k: int,
    a: LeafSignature,
    parent_l: float = math.inf,
    stats: SolverStats | None = None,
) -> list[MergeRecord]:
    """Same result set as ``generate_children_naive`` without materializing
    every pair.

    For a fixed smaller-side position i the merge value is non-decreasing
    in the partner's bound and takes at most ceil(k/2) distinct values.
    Among partners sharing a merge value, merging the smallest one leaves
    the largest leftover in the signature and therefore dominates the
    others, so only that representative pair per (i, value) class is
    expanded.  The value changes only where the gap a[j] - a[i] reaches
    some t in range(k - 2, 0, -2), so the representatives are i + 1 and
    the first partner at or past each such t, found by bisect; from a gap
    of k - 2 on the value stays a[i] - 1.  Pairs of equal values are
    reduced once: they give the same child and the same record.
    """
    validate_k(k)
    a = canonicalize(a)
    if len(a) < 2:
        raise InputError("child generation needs a signature of length >= 2")
    return _generate(k, a, _pairs(k, a), parent_l, stats)


def prune_level(level: LevelSet) -> LevelSet:
    """Drop signatures dominated by another signature in the same level, by
    the ``_dominators`` masks at every size: a level is a whole union."""
    kept = _undominated(*_dominators(level.signatures))
    record_of = {s: level.record_of[s] for s in kept if s in level.record_of}
    return LevelSet(level.z, frozenset(kept), record_of)


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
_FUSED_MIN_PARENTS = 32


def _expand_level(
    k: int, z: int, parents: list[tuple[LeafSignature, float]], prune: bool,
    check_time: Callable[[], None] | None,
) -> tuple[list[Signature], dict, tuple[int, int, int, int]]:
    """``_run_levels``' step to length ``z``: every parent's children, then,
    if ``prune``, the level-wide domination.  From ``_FUSED_MIN_PARENTS``
    parents on, a pruned level reads both off one ``_dominators`` pass over
    the union of all children; narrower levels scan.  A child is dominated
    within its parent iff a sibling dominates it.  What a parent drops has a
    dominator that it keeps, so all children and the kept ones have the same
    survivors; a survivor is kept by every parent generating it, so its first
    derivation is the one of the per-parent scans.
    """
    fused = prune and len(parents) >= _FUSED_MIN_PARENTS
    merged = {}  # child -> (parent, parent_l, provenance) of its first derivation
    same: dict[Signature, Signature] = {}  # groups share one tuple per child
    groups = []  # every parent's children, when fused
    pairs = negatives = dominated = 0
    for a, parent_l in parents:
        if check_time is not None:
            check_time()
        ij = _pairs(k, a)
        children, negative, dropped = _expand(k, a, ij, parent_l, not fused)
        pairs += len(ij)
        negatives += negative
        dominated += dropped
        for child, provenance in children.items():
            if child not in merged:
                merged[child] = (a, parent_l, provenance)
        if fused:
            groups.append([same.setdefault(c, c) for c in children])
    if not fused:
        kept = _dominated_filter(merged, check_time) if prune else list(merged)
        return kept, merged, (pairs, negatives, dominated, len(merged) - len(kept))
    order, above = _dominators(merged, check_time)
    index = dict(zip(order, count()))
    some_kept: set[int] = set()  # bits of children a parent keeps
    for group in groups:
        if check_time is not None:
            check_time()
        at = list(map(index.__getitem__, group))
        mask = sum(map((1).__lshift__, at))
        kept_bits = [b for b in at if not above[b] & mask]
        assert len(kept_bits) <= k * z
        dominated += len(at) - len(kept_bits)
        some_kept.update(kept_bits)
    kept = _undominated(order, above)
    return kept, merged, (pairs, negatives, dominated, len(some_kept) - len(kept))


def _unit_edge_level(
    parents: list[tuple[LeafSignature, float]], check_time: Callable[[], None] | None
) -> tuple[list[Signature], dict, tuple[int, int, int, int]]:
    """``_expand_level`` for ``k = 2``: the one kept child and the counts of
    ``_expand(2, a, _pairs(2, a), parent_l)`` on the level's one
    non-negative signature ``a``, built without any sibling (Huffman's
    exchange argument).  With ``n = len(a)`` and ``u = a[n-2]``:
    - the pair ``(i, i+1)`` with ``a[i] = v`` merges to ``w = v-1``, ``cap =
      v`` and gives ``a[:r(v)] + (v-1,) + (v,) * (n-r(v)-2)``, ``r(v) =
      bisect_left(a, v)``: distinct children are distinct values, negative
      exactly for ``v = 0``;
    - the child of ``u`` holds one more value ``>= v`` than the child of any
      ``v < u`` and dominates it elementwise;
    - so only the child of ``u`` is kept, from its first pair ``i = r(u)``: a
      ``k = 2`` level never holds more than one signature and needs no
      level-wide filter, with or without level pruning.
    A length-2 parent gives the singleton cut to ``(0,)``.
    """
    if check_time is not None:
        check_time()
    ((a, parent_l),) = parents
    n = len(a)
    u = a[n - 2]
    zeros = bisect_right(a, 0, 0, n - 1)
    if u < 1:
        return [], {}, (n - 1, zeros, 0, 0)
    r = bisect_left(a, u)
    w, cap = (u - 1, u) if n > 2 else (0, 0)
    child = a[:r] + (w,) + (u,) * (n - r - 2)
    assert child[-1] <= min(parent_l, w) + 1
    merged = {child: (a, parent_l, (u, a[r + 1], w, cap))}
    return [child], merged, (n - 1, zeros, len(set(a[zeros : n - 1])) - 1, 0)


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
        kept, merged, (pairs, negative, dropped, dropped_level) = (
            _unit_edge_level(parents, check_time) if k == 2
            else _expand_level(k, z, parents, prune, check_time))
        generated += pairs
        negatives += negative
        dominated += dropped + dropped_level
        size = len(kept) + dropped_level
        # z >= 2 and size < 2**k imply size < z**k without building the bignum
        assert not prune or (z >= 2 and k >= size.bit_length()) or size <= z**k
        if config.max_level_size is not None and len(kept) > config.max_level_size:
            raise LimitError(
                f"level {z} holds {len(kept)} signatures, over the "
                f"limit of {config.max_level_size}"
            )
        record_of = {}  # a loop, not a comprehension: small instances pay its setup per level
        for c in kept:
            record = _record(c, *merged[c])
            record_of[record.child] = record
        levels.append(LevelSet(z, frozenset(record_of), record_of))
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
