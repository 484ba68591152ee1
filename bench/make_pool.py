"""Rebuild ``pool.json``: the seeded instances and their pinned outcomes.

Run from the repository root, against the solver whose outcomes are to be
pinned (the benchmark's correctness gate then holds every later version
to them):

    python3 bench/make_pool.py

Takes several minutes: every candidate of a banded family is solved to
see whether it lies in the band.  Outcomes are the verdict and the
survivor count of every level under the default config, plus the exit
code and stdout sha256 of every CLI call.
"""

from __future__ import annotations

import json
import re
import sys

import workloads as wl

MAX_DRAWS = 400


def pin_family(splittree, workload: str, fam: wl.Family) -> list[dict]:
    config = splittree.SolverConfig(max_level_size=fam.max_level)
    kept = []
    for i in range(MAX_DRAWS):
        k, depths = wl.family_candidate(workload, fam, i)
        try:
            levels = splittree.trace_levels(k, list(depths), config)
        except splittree.LimitError:
            continue
        counts = [len(level.signatures) for level in levels]
        realizable = levels[-1].z == 1 and bool(levels[-1].signatures)
        work = sum(c * c for c in counts)
        if fam.verdict is not None and realizable != fam.verdict:
            continue
        if fam.band is not None and not fam.band[0] <= work <= fam.band[1]:
            continue
        kept.append({"draw": i, "k": k, "depths": list(depths),
                     "realizable": realizable, "levels": counts})
        print(f"{workload}/{fam.name}: draw {i} peak {max(counts)} work {work}",
              file=sys.stderr, flush=True)
        if len(kept) == wl.POOL_SIZE + wl.HOLDOUT_SIZE:
            return kept
    raise SystemExit(f"{workload}/{fam.name}: only {len(kept)} of {MAX_DRAWS} draws qualify")


def pin_cli(splittree, k: int, depths) -> dict:
    realizable, counts = wl.pin_levels(splittree, k, depths)
    env = wl.cli_env()
    calls = {}
    for variant in wl.CLI_VARIANTS:
        exit_code, stdout, _ = wl.run_cli(wl.cli_argv(variant, k, depths), env)
        calls[wl.variant_name(variant)] = [exit_code, wl.digest(stdout)]
    return {"k": k, "depths": list(depths), "realizable": realizable,
            "levels": counts, "calls": calls}


def build_pool(splittree) -> dict:
    """The pool, with the draws after the first ``POOL_SIZE`` of each
    family (and after the first ``CLI_POOL_SIZE`` small CLI instances)
    set aside under ``holdout``."""
    pool: dict = {}
    holdout: dict = {}
    for workload, families in wl.FAMILIES.items():
        pool[workload], holdout[workload] = {}, {}
        for fam in families:
            kept = pin_family(splittree, workload, fam)
            pool[workload][fam.name] = kept[: wl.POOL_SIZE]
            holdout[workload][fam.name] = kept[wl.POOL_SIZE:]
    pool["sweep"] = {}
    for k, depths in wl.sweep_instances():
        realizable, counts = wl.pin_levels(splittree, k, depths)
        pool["sweep"][wl.key(k, depths)] = [int(realizable), *counts]
    pool["cli"] = {
        "reference": pin_cli(splittree, *wl.REFERENCE),
        "small": [pin_cli(splittree, *wl.cli_candidate(i)) for i in range(wl.CLI_POOL_SIZE)],
    }
    holdout["cli"] = {"small": [
        pin_cli(splittree, *wl.cli_candidate(i))
        for i in range(wl.CLI_POOL_SIZE, wl.CLI_POOL_SIZE + wl.CLI_HOLDOUT_SIZE)]}
    pool["holdout"] = holdout
    return pool


def dumps(pool: dict) -> str:
    """Indented JSON with every innermost list on one line."""
    text = json.dumps(pool, indent=1)
    return re.sub(r"\[[^\[\]{}]*\]",
                  lambda m: json.dumps(json.loads(m.group(0)), separators=(",", ":")),
                  text) + "\n"


def main() -> None:
    wl.bootstrap_src()
    import splittree

    text = dumps(build_pool(splittree))
    with open(wl.POOL_PATH, "w", encoding="utf-8") as handle:
        handle.write(text)


if __name__ == "__main__":
    main()
