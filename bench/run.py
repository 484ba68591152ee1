"""splittree benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload hard --seed 1 --seconds 20 --trace 0

Runs a closed loop in this one process: passes over the workload's
instances one after another until ``--seconds`` have elapsed (at least one
pass), checking every output against the expectations pinned in
``pool.json``.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` a separate traced run prints the per-layer metrics (see
``layers.py``).  Times are wall seconds scaled to a reference machine
speed (see ``speed.py``).  The last stdout line is the result; the line
before it holds the run's metadata.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from speed import Meter

SETUP_REPEATS = 15


@dataclass
class PassResult:
    """Per-operation times of one pass, in operation order."""

    latencies: list[float] = field(default_factory=list)
    decide: list[float] = field(default_factory=list)  # the decide part of each
    raw: list[float] = field(default_factory=list)  # latencies, not scaled
    failures: list[str] = field(default_factory=list)

    def add(self, raw: float, raw_decide: float, factor: float) -> None:
        self.raw.append(raw)
        self.latencies.append(raw * factor)
        self.decide.append(raw_decide * factor)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_splittree():
    """Fresh import of the library and its CLI, so each set-up pays it."""
    for name in [m for m in sys.modules if m == "splittree" or m.startswith("splittree.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    splittree = importlib.import_module("splittree")
    importlib.import_module("splittree.cli")
    return splittree


def setup(args: argparse.Namespace, meter: Meter):
    """Import plus instance generation; returns the median of several."""
    times = []
    for _ in range(SETUP_REPEATS):
        cal = meter.reading()
        start = time.perf_counter()
        splittree = import_splittree()
        pool = wl.load_pool()
        items = (wl.cli_calls(pool, args.seed) if args.workload == "cli"
                 else wl.instances(pool, args.workload, args.seed))
        times.append((time.perf_counter() - start) * meter.factor(cal))
    return splittree, pool, items, statistics.median(times)


def check_instance(splittree, inst: wl.Instance, decision, report, exported,
                   extra: dict[str, bool]) -> str | None:
    """Why the outcome of one instance is wrong, or None."""
    name = wl.key(inst.k, inst.depths)
    if decision.realizable != inst.realizable:
        return f"{name}: verdict {decision.realizable}, pinned {inst.realizable}"
    if decision.stats.peak_level_size != max(inst.levels):
        return f"{name}: peak level {decision.stats.peak_level_size}, pinned {max(inst.levels)}"
    if inst.k == 2 and "kraft" not in extra:
        extra = {**extra, "kraft": splittree.kraft_check(list(inst.depths))}
    for method, verdict in extra.items():
        if verdict != decision.realizable:
            return f"{name}: {method} says {verdict}, solver {decision.realizable}"
    if decision.realizable:
        if not report.valid:
            return f"{name}: witness tree invalid: {report.violations[:3]}"
        if splittree.parse_tree(exported).leaf_depths() != report.leaf_depths:
            return f"{name}: exported tree does not parse back to the witness"
    return None


def library_pass(splittree, workload: str, items: list[wl.Instance], meter: Meter) -> PassResult:
    """One pass: decide every instance, then reconstruct -> validate ->
    export the realizable ones; on ``sweep`` also the unpruned solver and
    the oracles.  Only the library calls are timed."""
    result = PassResult()
    sweep = workload == "sweep"
    if sweep:
        wl.clear_oracle_memo(splittree)
    unpruned = splittree.SolverConfig(prune_level_domination=False)
    for inst in items:
        depths = list(inst.depths)
        cal = meter.reading()
        start = decided = time.perf_counter()
        try:
            decision = splittree.decide(inst.k, depths)
            decided = time.perf_counter()
            extra = {}
            if sweep:
                extra["unpruned"] = splittree.decide(inst.k, depths, unpruned).realizable
                extra["recursive"] = splittree.oracle_recursive(inst.k, depths)
                extra["enumerate"] = splittree.oracle_enumerate_trees(inst.k, depths)
                if inst.k == 2:
                    extra["kraft"] = splittree.kraft_check(depths)
            report = exported = None
            if decision.realizable:
                tree = splittree.reconstruct(inst.k, depths, decision.witness_chain)
                report = splittree.validate(inst.k, tree, depths)
                exported = splittree.export_tree(tree, "json")
            done = time.perf_counter()
        except Exception as exc:  # a crash is a failed operation, not a dead run
            done = time.perf_counter()
            failure = f"{wl.key(inst.k, inst.depths)}: {exc!r}"
        else:
            failure = check_instance(splittree, inst, decision, report, exported, extra)
        result.add(done - start, decided - start, meter.factor(cal))
        if failure:
            result.failures.append(failure)
    return result


def cli_pass(items: list[wl.CliCall], meter: Meter) -> PassResult:
    """One pass: every CLI call as its own process, one after another."""
    result = PassResult()
    env = wl.cli_env()
    for call in items:
        cal = meter.reading()
        exit_code, stdout, elapsed = wl.run_cli(call.argv, env)
        result.add(elapsed, elapsed if call.command == "decide" else 0.0, meter.factor(cal))
        if exit_code != call.exit_code or wl.digest(stdout) != call.sha256:
            result.failures.append(
                f"{' '.join(call.argv)}: exit {exit_code} (pinned {call.exit_code}), "
                f"stdout sha256 {wl.digest(stdout)[:12]} (pinned {call.sha256[:12]})")
    return result


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_medians(per_pass: list[list[float]]) -> list[float]:
    """Each operation's median time across passes, robust to slow spells
    of the machine that cover only part of a pass."""
    return [statistics.median(times) for times in zip(*per_pass)]


def end_to_end(args, splittree, items, setup_s: float, meter: Meter):
    """Closed-loop passes until the time is up; end-to-end metrics."""
    def run_pass() -> PassResult:
        if args.workload == "cli":
            return cli_pass(items, meter)
        return library_pass(splittree, args.workload, items, meter)

    start = time.perf_counter()
    passes = [run_pass()]
    # Peak memory as of the first pass: later passes repeat its work and
    # would only add the run's own per-operation records.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    while time.perf_counter() - start < args.seconds:
        passes.append(run_pass())
    latencies = op_medians([p.latencies for p in passes])
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(latencies), "s"),
        "decide_s": (sum(op_medians([p.decide for p in passes])), "s"),
        "call_p50_s": (percentile(latencies, 50), "s"),
        "call_p90_s": (percentile(latencies, 90), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    return metrics, attempted, failures, {"passes": len(passes),
                                          "raw_pass_s": sum(op_medians([p.raw for p in passes]))}


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in wl.SRC.rglob("*.py"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    outside a git repository."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, extra: dict, attempted: int, failed: int, meter: Meter) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **extra,
        "error_rate": failed / attempted,
        "speed_factor": meter.summary(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "python_flags": {"optimize": sys.flags.optimize, "dev_mode": sys.flags.dev_mode,
                         "no_site": sys.flags.no_site},
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under -O: the checks rely on assert", file=sys.stderr)
        return 2
    wl.bootstrap_src()
    meter = Meter()
    splittree, pool, items, setup_s = setup(args, meter)
    if not Path(splittree.__file__).resolve().is_relative_to(wl.SRC):
        print(f"splittree imported from {splittree.__file__}, not {wl.SRC}", file=sys.stderr)
        return 2
    if args.trace:
        import layers

        metrics, attempted, failures, extra = layers.per_layer(args, splittree, pool, items,
                                                              meter)
    else:
        metrics, attempted, failures, extra = end_to_end(args, splittree, items, setup_s,
                                                         meter)
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    failed = min(len(failures), attempted)
    print(json.dumps({"meta": metadata(args, extra, attempted, failed, meter)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
