"""Acceptance battery: every release criterion, one test each.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  The exhaustive sweep (criterion 3) is shared with the
bound-assertion criterion (5) through a session fixture so it only runs
once.
"""

import random
import time
from dataclasses import dataclass, field

import pytest

from conftest import REFERENCE_DEPTHS, REFERENCE_K, REFERENCE_LEVELS
from splittree.oracle import kraft_check, sweep as oracle_sweep
from splittree.solver import (
    decide,
    generate_children_fast,
    generate_children_naive,
    trace_levels,
)
from splittree.treebuild import reconstruct, relabel, validate

SWEEP_KS = (2, 3, 4, 5, 6)
SWEEP_MAX_N = 5
SWEEP_MAX_VALUE = 8
SWEEP_INSTANCES = 5 * 2_001  # 5 values of k x every multiset of 1..5 values in 0..8


@dataclass
class SweepOutcome:
    instances: int = 0
    elapsed: float = 0.0
    disagreements: list = field(default_factory=list)
    assertion_failures: list = field(default_factory=list)


@pytest.fixture(scope="session")
def sweep() -> SweepOutcome:
    """Solver (both pruning modes) vs both oracles, and the feasibility sum
    at k = 2, over every multiset with n <= 5 and values in 0..8 for k in
    2..6."""
    outcome = SweepOutcome()
    start = time.perf_counter()
    for k, depths, verdicts in oracle_sweep(SWEEP_KS, SWEEP_MAX_N, SWEEP_MAX_VALUE):
        outcome.instances += 1
        if isinstance(verdicts, AssertionError):
            outcome.assertion_failures.append((k, depths, str(verdicts)))
        elif len(set(verdicts.values())) > 1:
            outcome.disagreements.append((k, depths, verdicts))
    outcome.elapsed = time.perf_counter() - start
    assert outcome.instances == SWEEP_INSTANCES
    return outcome


def test_criterion_1_reference_level_sets():
    start = time.perf_counter()
    levels = trace_levels(REFERENCE_K, REFERENCE_DEPTHS)
    elapsed = time.perf_counter() - start
    computed = {level.z: set(level.signatures) for level in levels}
    for z in (5, 4, 3, 2, 1):
        assert computed[z] == REFERENCE_LEVELS[z], f"level {z}: {sorted(computed[z])}"
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: level sets for {REFERENCE_DEPTHS} at k={REFERENCE_K} "
          f"match the documented run exactly ({elapsed * 1000:.0f} ms)")


def test_criterion_2_witness_tree():
    decision = decide(REFERENCE_K, REFERENCE_DEPTHS)
    assert decision.realizable
    tree = reconstruct(REFERENCE_K, REFERENCE_DEPTHS, decision.witness_chain)
    assert validate(REFERENCE_K, tree, REFERENCE_DEPTHS).valid
    for loose in ([7, 7, 7, 9, 9, 9], [9, 9, 9, 9, 9, 9]):
        assert validate(REFERENCE_K, relabel(tree, loose), loose).valid
    print("PASS criterion 2: witness tree validates, also under relabeled "
          "looser bounds")


def test_criterion_3_exhaustive_oracle_agreement(sweep):
    assert not sweep.disagreements, sweep.disagreements[:5]
    assert sweep.elapsed < 600.0
    print(f"PASS criterion 3: {sweep.instances} instances, solver (pruning on/off) "
          f"== both oracles, 0 disagreements in {sweep.elapsed:.1f}s")


def test_criterion_4_unit_edge_feasibility_sum():
    rng = random.Random(20240212)
    samples = 10_000
    for _ in range(samples):
        n = rng.randint(1, 10)
        depths = [rng.randint(0, 12) for _ in range(n)]
        assert decide(2, depths).realizable == kraft_check(depths), depths
    print(f"PASS criterion 4: k=2 verdict == feasibility sum on {samples} "
          f"seeded samples (n<=10, values<=12)")


def test_criterion_5_bound_assertions_silent(sweep):
    # the per-record spread bound, per-parent candidate bound, and
    # per-level size bound are plain asserts inside the solver; criteria
    # 1-4 run with them armed, and the sweep records any that fire
    assert not sweep.assertion_failures, sweep.assertion_failures[:5]
    print(f"PASS criterion 5: no bound assertion fired across "
          f"{sweep.instances} sweep instances (both pruning modes) or the "
          f"other criteria runs")


def test_criterion_6_unit_edge_single_chain():
    rng = random.Random(1952)
    accepted = 0
    slowest = 0.0
    while accepted < 100:
        n = rng.randint(1, 50)
        depths = [rng.randint(0, 60) for _ in range(n)]
        if not kraft_check(depths):
            continue
        accepted += 1
        start = time.perf_counter()
        decision = decide(2, depths)
        slowest = max(slowest, time.perf_counter() - start)
        assert decision.realizable
        for level in trace_levels(2, depths):
            assert len(level.signatures) == 1, (depths, level.z)
        assert slowest < 0.1
    print(f"PASS criterion 6: every level holds exactly one signature on 100 "
          f"seeded realizable k=2 instances (n<=50); slowest decide "
          f"{slowest * 1000:.1f} ms")


def test_criterion_7_generator_equivalence():
    rng = random.Random(77)
    samples = 10_000
    for _ in range(samples):
        k = rng.randint(2, 8)
        n = rng.randint(2, 30)
        sig = [rng.randint(0, 3 * k) for _ in range(n)]
        fast = generate_children_fast(k, sig)
        naive = generate_children_naive(k, sig)
        assert {r.child for r in fast} == {r.child for r in naive}, (k, sig)
        assert len(fast) <= k * (n - 1)
    print(f"PASS criterion 7: merge-value-class generator == all-pairs "
          f"generator on {samples} seeded signatures (n<=30, k<=8), candidate "
          f"count always <= k*(n-1)")


def test_criterion_8_pruned_search_stays_fast():
    rng = random.Random(20260809)
    k, n = 4, 25
    slowest = 0.0
    for _ in range(20):
        depths = [rng.randint(0, (k - 1) * (n - 1)) for _ in range(n)]
        start = time.perf_counter()
        decide(k, depths)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 60.0, f"{elapsed:.1f}s on {depths}"
    print(f"PASS criterion 8: 20 seeded k=4 n=25 instances decided with "
          f"pruning; slowest {slowest * 1000:.0f} ms (limit 60 s)")
