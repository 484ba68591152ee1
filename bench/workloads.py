"""Workload definitions shared by the benchmark and ``make_pool.py``.

Every input the benchmark feeds to splittree comes from here.  The seeded
families (``hard``, ``long`` and the small ``cli`` instances) are drawn
once by ``make_pool.py`` into ``pool.json``, together with the outcomes
the solver gave for them when the pool was built; a run's ``--seed`` then
picks its instances from that pool, so every input of every seed has a
pinned expectation.  The pool keeps a disjoint set of draws per family
that only the held-out seed ``HOLDOUT_SEED`` picks from, so that a claim
can be checked on instances no change was tuned on.  ``sweep`` is
exhaustive: the pool pins all of it and the seed only orders it.

This module imports nothing from splittree at import time, so that
``run.py`` can time the library import as part of set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
POOL_PATH = BENCH_DIR / "pool.json"

WORKLOADS = ("hard", "long", "sweep", "cli")

REFERENCE = (6, (5, 7, 7, 8, 8, 9))


@dataclass(frozen=True)
class Family:
    """A seeded instance family: ``n`` bounds drawn uniformly from
    ``[lo, hi]``, kept when the solver's outcome meets the conditions.

    ``band`` bounds the level-wide domination work, the sum over levels of
    the squared level size; ``verdict`` fixes the outcome.  Both are
    properties of the instance, pinned from the solver that built the pool.
    """

    name: str
    k: int
    n: int
    lo: int
    hi: int
    picks: int  # instances per pass
    verdict: bool | None = None
    band: tuple[int, int] | None = None
    max_level: int | None = None  # abort candidates that cannot be in band


# Narrow windows d_i = c + U[-w, w]: wide levels, so the level-wide
# domination filter does most of the work.  Sizes are cut down from
# (k=10, n=16, c=16) and (k=12, n=14, c=18), whose single instances take
# 1-12 s, so that a pass holds nine instances.  The band on the domination
# work (correlation 0.78 with an instance's time) keeps the instances'
# costs close, so that a seed's choice moves the totals little.
HARD_BAND = (340_000, 420_000)
HARD = (
    Family("k10n14", 10, 14, 15 - 5, 15 + 5, 3, verdict=True,
           band=HARD_BAND, max_level=650),
    Family("k12n13", 12, 13, 17 - 5, 17 + 5, 3, verdict=True,
           band=HARD_BAND, max_level=650),
    Family("k8n16-unreal", 8, 16, 13 - 4, 13 + 4, 3, verdict=False,
           band=HARD_BAND, max_level=650),
)

# Long signatures, thin levels: candidate generation does the work.
LONG = (
    Family("chain-unreal", 2, 200, 0, 199, 1, verdict=False),
    Family("chain-real", 2, 200, 4, 199, 1, verdict=True),
    Family("k4n60", 4, 60, 0, 3 * 59, 1),
    Family("k6n40", 6, 40, 0, 5 * 39, 1),
)

# Small instances for the CLI; n <= 8 keeps the recursive oracle in reach.
CLI_PICKS = 5
CLI_POOL_SIZE = 24
POOL_SIZE = 12  # instances per seeded family
HOLDOUT_SEED = 104729
HOLDOUT_SIZE = 4  # further draws per seeded family, picked only by HOLDOUT_SEED
CLI_HOLDOUT_SIZE = 8

SWEEP_KS = range(2, 7)
SWEEP_MAX_N = 5
SWEEP_MAX_VALUE = 6

FAMILIES = {"hard": HARD, "long": LONG}

CLI_VARIANTS = (
    ("decide", "text"),
    ("decide", "json"),
    ("build", "json"),
    ("build", "dot"),
    ("trace", "text"),
    ("trace", "json"),
    ("trace", "dot"),
    ("oracle", None),
)


def bootstrap_src() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; refuse to run
    without it, so that no installed copy is measured instead."""
    if not (SRC / "splittree" / "__init__.py").is_file():
        raise SystemExit(f"splittree sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def family_candidate(workload: str, fam: Family, i: int) -> tuple[int, tuple[int, ...]]:
    """The ``i``-th draw of a seeded family (pool building only)."""
    rng = random.Random(f"{workload}:{fam.name}:{i}")
    return fam.k, tuple(rng.randint(fam.lo, fam.hi) for _ in range(fam.n))


def cli_candidate(i: int) -> tuple[int, tuple[int, ...]]:
    rng = random.Random(f"cli:small:{i}")
    k = rng.choice((2, 3, 4, 5, 6))
    n = rng.randint(4, 8)
    return k, tuple(rng.randint(1, 2 + n * k // 2) for _ in range(n))


def sweep_instances() -> list[tuple[int, tuple[int, ...]]]:
    return [
        (k, depths)
        for k in SWEEP_KS
        for n in range(1, SWEEP_MAX_N + 1)
        for depths in itertools.combinations_with_replacement(range(SWEEP_MAX_VALUE + 1), n)
    ]


def key(k: int, depths) -> str:
    return f"{k}:{','.join(map(str, depths))}"


def cli_argv(variant: tuple[str, str | None], k: int, depths) -> list[str]:
    command, fmt = variant
    argv = [command, "--k", str(k), "--depths", ",".join(map(str, depths))]
    if command == "oracle":
        return argv + ["--method", "kraft" if k == 2 else "recursive"]
    return argv + ["--format", fmt]


def variant_name(variant: tuple[str, str | None]) -> str:
    return variant[0] if variant[1] is None else f"{variant[0]}-{variant[1]}"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_env() -> dict:
    """Environment for CLI processes: the checkout's sources, asserts on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONOPTIMIZE", None)
    return env


def run_cli(argv, env: dict) -> tuple[int, bytes, float]:
    """One ``python -m splittree.cli`` process: exit code, stdout, seconds."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "splittree.cli", *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=120, check=False,
        )
    except subprocess.TimeoutExpired:  # killed and reaped by subprocess.run
        return -1, b"", time.perf_counter() - start
    return proc.returncode, proc.stdout, time.perf_counter() - start


def pin_levels(splittree, k: int, depths) -> tuple[bool, list[int]]:
    """Verdict and per-level survivor counts under the default config."""
    levels = splittree.trace_levels(k, list(depths))
    realizable = levels[-1].z == 1 and bool(levels[-1].signatures)
    return realizable, [len(level.signatures) for level in levels]


def clear_oracle_memo(splittree) -> None:
    """The oracles keep process-wide memo tables; empty them so that every
    pass over them is as cold as a single selftest run."""
    for name in ("_recursive_cache", "_enumerate_cache"):
        table = getattr(splittree.oracle, name, None)
        if table is not None:
            table.clear()


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _draws(pool: dict, seed: int) -> dict:
    """The part of the pool that ``seed`` picks from."""
    return pool["holdout"] if seed == HOLDOUT_SEED else pool


@dataclass(frozen=True)
class Instance:
    k: int
    depths: tuple[int, ...]
    realizable: bool
    levels: tuple[int, ...]  # pinned survivor count per level


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    command: str
    exit_code: int
    sha256: str


def _instance(entry: dict) -> Instance:
    return Instance(entry["k"], tuple(entry["depths"]), entry["realizable"],
                    tuple(entry["levels"]))


def _cli_entries(pool: dict, seed: int) -> list[dict]:
    rng = random.Random(f"cli:{seed}")
    return [pool["cli"]["reference"]] + rng.sample(_draws(pool, seed)["cli"]["small"],
                                                   CLI_PICKS)


def instances(pool: dict, workload: str, seed: int) -> list[Instance]:
    """The instances of ``workload`` for ``seed``: the same seed always
    gives the same list, in the same order."""
    if workload == "cli":
        return [_instance(entry) for entry in _cli_entries(pool, seed)]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        out = []
        for name, (verdict, *levels) in pool["sweep"].items():
            k, depths = name.split(":")
            out.append(Instance(int(k), tuple(map(int, depths.split(","))),
                                bool(verdict), tuple(levels)))
        rng.shuffle(out)
        return out
    return [
        _instance(entry)
        for fam in FAMILIES[workload]
        for entry in rng.sample(_draws(pool, seed)[workload][fam.name], fam.picks)
    ]


def cli_calls(pool: dict, seed: int) -> list[CliCall]:
    """The CLI processes of one ``cli`` pass: every variant on the
    reference instance and on the seed's small instances."""
    return [
        CliCall(tuple(cli_argv(variant, entry["k"], entry["depths"])), variant[0],
                *entry["calls"][variant_name(variant)])
        for entry in _cli_entries(pool, seed)
        for variant in CLI_VARIANTS
    ]
