"""Traced run: per-layer metrics, timed around the benchmark's own calls
into each splittree module.

The solver layer is measured by replaying the level search through the
public functions it is built from: ``generate_children_fast`` once per
parent and ``prune_level`` once per level.  The replay is only trusted if
it reproduces ``trace_levels`` level by level and the counters of
``decide`` on every instance; otherwise the run is marked incorrect,
because its numbers would describe a different program.  The signature,
treebuild, oracle and cli layers are timed on operands taken from the
workload's own instances, levels and parents.  Every time is scaled to
the reference machine speed, as in the end-to-end run.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

import workloads as wl
from speed import Meter

PROBE_SECONDS = 0.3  # per timed probe
MIN_BATCHES = 3
SAMPLE = 2000  # operands per signature probe
ORACLE_SAMPLE = 300
CLI_REPEATS = 7

COUNTS = ("parents", "candidates", "negatives", "dominated_parent",
          "dominated_level", "survivors")


@dataclass
class SolverPass:
    generate_s: float = 0.0
    prune_level_s: float = 0.0
    replay_s: float = 0.0
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    peak_level: int = 0


@dataclass
class Operands:
    """What one replay saw, kept to feed the per-call probes."""

    parents: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    levels: list[list[tuple[int, ...]]] = field(default_factory=list)
    small: set[tuple[int, tuple[int, ...]]] = field(default_factory=set)


def replay(splittree, k: int, depths, acc: SolverPass, seen: Operands | None, meter: Meter):
    """The level search of ``decide`` rebuilt from its public parts.

    Returns the signature set of every level and the counters that
    ``decide`` reports, for the fidelity check.
    """
    cal = meter.reading()
    clock = time.perf_counter
    begin = clock()
    generate_s = prune_level_s = 0.0
    sig = splittree.canonicalize(depths)
    n = len(sig)
    stats = splittree.SolverStats()
    top = splittree.truncate(sig, (k - 1) * (n - 1))
    levels = [frozenset({top})]
    l_of = {top: math.inf}
    peak = 1
    dominated_level = 0
    for z in range(n - 1, 0, -1):
        merged = {}
        for parent in sorted(l_of):
            start = clock()
            records = splittree.generate_children_fast(k, parent, parent_l=l_of[parent],
                                                       stats=stats)
            generate_s += clock() - start
            acc.counts["parents"] += 1
            for rec in records:
                merged.setdefault(rec.child, rec)
            if seen is not None:
                seen.parents.append((k, parent))
        start = clock()
        level = splittree.prune_level(splittree.LevelSet(z, frozenset(merged), merged))
        prune_level_s += clock() - start
        dominated_level += len(merged) - len(level.signatures)
        levels.append(level.signatures)
        l_of = {s: level.record_of[s].l_value for s in level.signatures}
        peak = max(peak, len(l_of))
        if seen is not None and merged:
            seen.levels.append(sorted(merged))
        if not l_of:
            break
    replay_s = clock() - begin
    factor = meter.factor(cal)
    acc.generate_s += generate_s * factor
    acc.prune_level_s += prune_level_s * factor
    acc.replay_s += replay_s * factor
    if seen is not None:
        seen.small.update((k, tuple(s)) for level in levels for s in level if len(s) <= 5)
    acc.counts["candidates"] += stats.signatures_generated
    acc.counts["negatives"] += stats.pruned_negative
    acc.counts["dominated_parent"] += stats.pruned_dominated
    acc.counts["dominated_level"] += dominated_level
    acc.counts["survivors"] += sum(len(level) for level in levels[1:])
    acc.peak_level = max(acc.peak_level, peak)
    counters = {
        "signatures_generated": stats.signatures_generated,
        "pruned_negative": stats.pruned_negative,
        "pruned_dominated": stats.pruned_dominated + dominated_level,
        "peak_level_size": peak,
    }
    return levels, counters


def fidelity(splittree, inst: wl.Instance, decision, levels, counters) -> str | None:
    """Why the replay does not match the program or the program its pins,
    or None."""
    name = wl.key(inst.k, inst.depths)
    if decision.realizable != inst.realizable:
        return f"{name}: verdict {decision.realizable}, pinned {inst.realizable}"
    traced = [level.signatures for level in splittree.trace_levels(inst.k, list(inst.depths))]
    if traced != levels:
        return f"{name}: replay levels differ from trace_levels"
    if tuple(len(level) for level in levels) != inst.levels:
        return f"{name}: survivor counts {[len(s) for s in levels]}, pinned {list(inst.levels)}"
    expected = {counter: getattr(decision.stats, counter) for counter in counters}
    if expected != counters:
        return f"{name}: replay counters {counters}, decide {expected}"
    return None


def batched(fn, meter: Meter) -> float:
    """Median time of ``fn()`` over repeated calls."""
    samples = []
    deadline = time.perf_counter() + PROBE_SECONDS
    while len(samples) < MIN_BATCHES or time.perf_counter() < deadline:
        cal = meter.reading()
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * meter.factor(cal))
    return statistics.median(samples)


def per_call(fn, operands, meter: Meter, scale: float) -> float:
    """Median time of one ``fn(*operands[i])`` call, times ``scale``."""
    def batch():
        for ops in operands:
            fn(*ops)
    return batched(batch, meter) / len(operands) * scale


def signature_layer(splittree, seen: Operands, rng: random.Random, meter: Meter) -> dict:
    parents = [rng.choice(seen.parents) for _ in range(SAMPLE)]
    pairs = []
    for k, a in parents:
        i, j = sorted(rng.sample(range(len(a)), 2))
        pairs.append((k, a, i, j))
    levels = [rng.choice(seen.levels) for _ in range(SAMPLE)]
    return {
        "signature.omega_ns": (per_call(
            splittree.omega, [(k, a[i], a[j]) for k, a, i, j in pairs], meter, 1e9), "ns"),
        "signature.is_dominated_ns": (per_call(
            splittree.is_dominated,
            [(rng.choice(level), rng.choice(level)) for level in levels], meter, 1e9), "ns"),
        "signature.canonicalize_us": (per_call(
            splittree.canonicalize, [(list(reversed(a)),) for _, a in parents], meter,
            1e6), "us"),
        "signature.merge_reduce_us": (per_call(splittree.merge_reduce, pairs, meter, 1e6),
                                      "us"),
    }


def treebuild_layer(splittree, witnesses, meter: Meter) -> dict:
    trees = [splittree.reconstruct(k, d, chain) for k, d, chain in witnesses]

    def reconstruct():
        for k, d, chain in witnesses:
            splittree.reconstruct(k, d, chain)

    def validate():
        for (k, d, _), tree in zip(witnesses, trees):
            splittree.validate(k, tree, d)

    def export():
        for tree in trees:
            splittree.export_tree(tree, "json")
            splittree.export_tree(tree, "dot")

    nodes = 0
    for tree in trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(child for _, child in node.children)
    return {
        "treebuild.reconstruct_s": (batched(reconstruct, meter), "s"),
        "treebuild.validate_s": (batched(validate, meter), "s"),
        "treebuild.export_s": (batched(export, meter), "s"),
        "treebuild.nodes": (nodes, "count"),
    }


def oracle_layer(splittree, seen: Operands, rng: random.Random, meter: Meter) -> dict:
    """Each oracle over the workload's level signatures of length <= 5,
    with the memo tables emptied before every batch (cold, as one
    selftest run sees them)."""
    small = sorted(seen.small)
    operands = rng.sample(small, min(ORACLE_SAMPLE, len(small)))

    def cold(fn):
        def batch():
            wl.clear_oracle_memo(splittree)
            for k, d in operands:
                fn(k, d)
        return batch

    return {
        "oracle.recursive_s": (batched(cold(splittree.oracle_recursive), meter), "s"),
        "oracle.enumerate_s": (batched(cold(splittree.oracle_enumerate_trees), meter), "s"),
        "oracle.kraft_s": (batched(cold(lambda k, d: splittree.kraft_check(d)), meter), "s"),
        "oracle.calls": (3 * len(operands), "count"),
    }


def cli_layer(splittree, calls: list[wl.CliCall], failures: list[str], meter: Meter) -> dict:
    """Process start, CLI import and in-process ``main`` on the seed's CLI
    calls (the ``cli`` workload's pass list)."""
    import subprocess

    env = wl.cli_env()

    def spawn(code: str) -> float:
        times = []
        for _ in range(CLI_REPEATS):
            cal = meter.reading()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=wl.ROOT, env=env,
                           check=True, timeout=60)
            times.append((time.perf_counter() - start) * meter.factor(cal))
        return statistics.median(times)

    interpreter = spawn("pass")
    imported = spawn("import splittree.cli")
    main_times = []
    stdout_bytes = 0
    for call in calls:
        out = io.StringIO()
        cal = meter.reading()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            exit_code = splittree.cli.main(list(call.argv))
        main_times.append((time.perf_counter() - start) * meter.factor(cal))
        data = out.getvalue().encode()
        stdout_bytes += len(data)
        if exit_code != call.exit_code or wl.digest(data) != call.sha256:
            failures.append(f"in-process {' '.join(call.argv)}: exit {exit_code}, "
                            f"stdout differs from the pinned process output")
    return {
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (imported - interpreter, "s"),
        "cli.main_s": (statistics.median(main_times), "s"),
        "cli.stdout_bytes": (stdout_bytes, "count"),
    }


def per_layer(args, splittree, pool: dict, items: list, meter: Meter):
    """The traced run: replay passes until ``args.seconds`` are up (the
    first one checked for fidelity), then the per-layer probes."""
    if args.workload == "cli":
        calls = items
        insts = wl.instances(pool, "cli", args.seed)
    else:
        insts = items
        calls = wl.cli_calls(pool, args.seed)
    failures: list[str] = []
    seen = Operands()
    first = SolverPass()
    untraced_s = 0.0
    witnesses = []
    start = time.perf_counter()
    for inst in insts:
        cal = meter.reading()
        t0 = time.perf_counter()
        decision = splittree.decide(inst.k, list(inst.depths))
        untraced_s += (time.perf_counter() - t0) * meter.factor(cal)
        if decision.realizable:
            witnesses.append((inst.k, list(inst.depths), decision.witness_chain))
        levels, counters = replay(splittree, inst.k, inst.depths, first, seen, meter)
        failure = fidelity(splittree, inst, decision, levels, counters)
        if failure:
            failures.append(failure)
    passes = [first]
    while time.perf_counter() - start < args.seconds:
        again = SolverPass()
        for inst in insts:
            replay(splittree, inst.k, inst.depths, again, None, meter)
        passes.append(again)
        if again.counts != first.counts:
            failures.append("replay counts changed between passes")
            break

    rng = random.Random(f"probe:{args.workload}:{args.seed}")
    counts = first.counts
    metrics = {
        "solver.generate_s": (statistics.median(p.generate_s for p in passes), "s"),
        "solver.prune_level_s": (statistics.median(p.prune_level_s for p in passes), "s"),
        **{f"solver.{name}": (counts[name], "count") for name in COUNTS},
        "solver.peak_level": (first.peak_level, "count"),
        "solver.yield": (counts["survivors"] / counts["candidates"], "ratio"),
        **signature_layer(splittree, seen, rng, meter),
        **treebuild_layer(splittree, witnesses, meter),
        **oracle_layer(splittree, seen, rng, meter),
        **cli_layer(splittree, calls, failures, meter),
        "trace.overhead_frac": (first.replay_s / untraced_s - 1, "ratio"),
    }
    attempted = len(insts) + len(calls)
    extra = {"passes": len(passes), "traced_solver_s": first.replay_s,
             "untraced_decide_s": untraced_s}
    return metrics, attempted, failures, extra
