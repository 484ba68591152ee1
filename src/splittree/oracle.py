"""Independent desk-scale ground truth for the solver.

Three mutually independent answers to "is this signature realizable":
a literal merge recursion with no truncation or pruning, an exhaustive
search over actual trees, and the classical power-of-two feasibility sum
for k = 2.  They exist to certify the solver on small instances, not to
scale.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator, NamedTuple

from .errors import InputError, LimitError
from .signature import canonicalize, omega, validate_k
from .solver import SolverConfig, decide

RECURSIVE_DEFAULT_LIMIT = 8
ENUMERATE_DEFAULT_LIMIT = 5

_recursive_cache: dict[tuple[int, tuple[int, ...]], bool] = {}
_enumerate_cache: dict[tuple[int, tuple[int, ...]], bool] = {}


class OracleConfig(NamedTuple):
    """Which oracle to run and how far it may be pushed."""

    method: str = "recursive"  # recursive | enumerate | kraft
    max_n: int | None = None


def oracle_recursive(k: int, d, limit: int = RECURSIVE_DEFAULT_LIMIT) -> bool:
    """Literal reduction recursion: a signature is realizable iff some pair
    can be merged into a realizable signature, down to a single value that
    must be non-negative.  No truncation, no domination pruning."""
    validate_k(k)
    sig = tuple(canonicalize(d))
    if len(sig) > limit:
        raise LimitError(f"recursive oracle limited to n <= {limit}, got {len(sig)}")

    def rec(s: tuple[int, ...]) -> bool:
        if len(s) == 1:
            return s[0] >= 0
        key = (k, s)
        hit = _recursive_cache.get(key)
        if hit is not None:
            return hit
        result = False
        tried: set[tuple[int, int]] = set()
        for i, j in combinations(range(len(s)), 2):
            pair = (s[i], s[j])
            if pair in tried:
                continue
            tried.add(pair)
            reduced = list(s)
            del reduced[j], reduced[i]
            reduced.append(omega(k, s[i], s[j]))
            if rec(tuple(sorted(reduced))):
                result = True
                break
        _recursive_cache[key] = result
        return result

    return rec(sig)


def oracle_enumerate_trees(k: int, d, limit: int = ENUMERATE_DEFAULT_LIMIT) -> bool:
    """Exhaustive semantic check: try every tree shape, every assignment of
    the bounds to leaves, and every edge-length split at every internal
    vertex, asking whether all leaf depths stay within their bounds.

    Runs top-down: a multiset of bounds is feasible for a subtree iff it is
    a single non-negative bound, or it can be split into two groups that
    are feasible after walking down sibling edges of lengths (a, k-a).
    """
    validate_k(k)
    sig = tuple(canonicalize(d))
    if len(sig) > limit:
        raise LimitError(f"tree enumeration limited to n <= {limit}, got {len(sig)}")

    def feasible(bounds: tuple[int, ...]) -> bool:
        if len(bounds) == 1:
            return bounds[0] >= 0
        if bounds[0] < 1:
            # every leaf of a multi-leaf tree hangs below >= 1 unit of edge
            return False
        key = (k, bounds)
        hit = _enumerate_cache.get(key)
        if hit is not None:
            return hit
        result = False
        seen_splits: set[tuple[int, ...]] = set()
        rest = range(1, len(bounds))
        # index 0 goes left; sweeping the edge pair (a, b) both ways covers
        # the mirrored trees
        for size in range(0, len(bounds) - 1):
            for picks in combinations(rest, size):
                left = tuple(sorted((bounds[0],) + tuple(bounds[p] for p in picks)))
                if left in seen_splits:
                    continue
                seen_splits.add(left)
                taken = set(picks)
                right = tuple(v for p, v in enumerate(bounds) if p != 0 and p not in taken)
                for a in range(1, k):
                    b = k - a
                    if feasible(tuple(v - a for v in left)) and feasible(
                        tuple(v - b for v in right)
                    ):
                        result = True
                        break
                if result:
                    break
            if result:
                break
        _enumerate_cache[key] = result
        return result

    return feasible(sig)


def kraft_check(d) -> bool:
    """Classical feasibility sum for unit-edge binary trees: the bounds are
    realizable at k = 2 iff sum(2^-d_i) <= 1.  Exact integer arithmetic."""
    sig = canonicalize(d)
    if sig.min_value < 0:
        raise InputError("depth bounds must be >= 0")
    cap = len(sig) - 1  # exact: no leaf of an n-leaf tree lies deeper than n - 1
    top = min(sig.max_value, cap)
    return sum(2 ** (top - min(v, cap)) for v in sig) <= 2**top


def run_oracle(k: int, d, config: OracleConfig | None = None) -> bool:
    """Dispatch one oracle method with its safety limit."""
    config = config or OracleConfig()
    max_n = config.max_n
    if max_n is not None and max_n < 0:
        raise InputError(f"max_n must be >= 0, got {max_n}")
    if config.method == "recursive":
        return oracle_recursive(k, d, RECURSIVE_DEFAULT_LIMIT if max_n is None else max_n)
    if config.method == "enumerate":
        return oracle_enumerate_trees(k, d, ENUMERATE_DEFAULT_LIMIT if max_n is None else max_n)
    if config.method == "kraft":
        validate_k(k)
        if k != 2:
            raise InputError("the feasibility-sum oracle only applies to k = 2")
        return kraft_check(d)
    raise InputError(f"unknown oracle method {config.method!r}")


def sweep(
    ks: Iterable[int], max_n: int, max_value: int
) -> Iterator[tuple[int, tuple[int, ...], dict[str, bool] | AssertionError]]:
    """Solver (pruning on and off) vs every oracle within its default limit
    on each multiset of 1..``max_n`` bounds in 0..``max_value``, per k in ``ks``.

    Yields ``(k, depths, verdicts)``; an AssertionError raised inside takes
    the place of the verdicts, and the sweep goes on.
    """
    no_prune = SolverConfig(prune_level_domination=False)
    for k in ks:
        for n in range(1, max_n + 1):
            for depths in combinations_with_replacement(range(max_value + 1), n):
                try:
                    verdicts = {
                        "solver": decide(k, depths).realizable,
                        "solver_noprune": decide(k, depths, no_prune).realizable,
                    }
                    if n <= RECURSIVE_DEFAULT_LIMIT:
                        verdicts["recursive"] = oracle_recursive(k, depths)
                    if n <= ENUMERATE_DEFAULT_LIMIT:
                        verdicts["enumerate"] = oracle_enumerate_trees(k, depths)
                    if k == 2:
                        verdicts["kraft"] = kraft_check(depths)
                except AssertionError as exc:
                    yield k, depths, exc
                    continue
                yield k, depths, verdicts
