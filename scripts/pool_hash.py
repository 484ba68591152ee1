"""Print one sha256 over the solver's outputs on every benchmark pool instance.

Two checkouts that print the same digest give the same level sets, records
(in iteration order), verdicts, witness chains and counters on all 4,100
instances of ``bench/pool.json``:

    python3 scripts/pool_hash.py
    python3 scripts/pool_hash.py --expect HEX

With ``--expect HEX`` it also compares the digest with ``HEX``; on a
mismatch it prints both digests and exits 1.  It takes 10 to 20 seconds on
a 2-core machine (CPython 3.11).  It imports the ``src/`` of the checkout it sits in, never
an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from splittree.solver import SolverConfig, decide, trace_levels  # noqa: E402


def pool_instances(pool: dict):
    """``(k, depths)`` in a fixed order: the ``hard`` and ``long`` families,
    the ``sweep`` keys, the CLI instances, then the held-out draws."""
    for workload in ("hard", "long"):
        for entries in pool[workload].values():
            yield from ((e["k"], e["depths"]) for e in entries)
    for name in pool["sweep"]:
        k, depths = name.split(":")
        yield int(k), [int(v) for v in depths.split(",")]
    yield pool["cli"]["reference"]["k"], pool["cli"]["reference"]["depths"]
    yield from ((e["k"], e["depths"]) for e in pool["cli"]["small"])
    for workload in ("hard", "long"):
        for entries in pool["holdout"][workload].values():
            yield from ((e["k"], e["depths"]) for e in entries)
    yield from ((e["k"], e["depths"]) for e in pool["holdout"]["cli"]["small"])


def outcome(k: int, depths: list[int], prune: bool) -> str:
    config = SolverConfig(prune_level_domination=prune)
    levels = [
        (level.z, sorted(level.signatures), list(level.record_of.items()))
        for level in trace_levels(k, depths, config)
    ]
    decision = decide(k, depths, config)
    stats = dict(vars(decision.stats))
    del stats["wall_time_s"]
    return repr((k, depths, prune, levels, decision.realizable, decision.witness_chain,
                 sorted(stats.items())))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="HEX", help="the digest the outputs must give")
    args = parser.parse_args()
    with open(ROOT / "bench" / "pool.json", encoding="utf-8") as handle:
        pool = json.load(handle)
    digest = hashlib.sha256()
    count = 0
    for k, depths in pool_instances(pool):
        for prune in (True, False) if len(depths) <= 10 else (True,):
            digest.update(outcome(k, depths, prune).encode())
        count += 1
    print(f"{digest.hexdigest()}  ({count} instances)")
    if args.expect is not None and args.expect.lower() != digest.hexdigest():
        print(f"mismatch: expected {args.expect}, got {digest.hexdigest()}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
