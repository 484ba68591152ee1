"""Command-line front end.

Subcommands: decide, build, trace, oracle, selftest.  Exit codes are part
of the contract: 0 realizable / success, 1 unrealizable, 2 invalid input,
3 resource limit hit, 4 I/O failure, 5 selftest disagreement, a built
tree that fails validation or a failed internal check.

Stdout for identical inputs is byte-identical; the only non-deterministic
quantity (wall time) goes to stderr.

Importing this module loads only ``errors``, ``signature`` and ``solver``:
``build`` imports ``treebuild``, ``oracle`` and ``selftest`` import
``oracle``, and the JSON formats of ``decide`` and ``trace`` import ``json``,
each when it runs.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InputError, LimitError
from .signature import LeafSignature, validate_k
from .solver import Decision, SolverConfig, _validate_instance, decide, trace_levels

EXIT_REALIZABLE = 0
EXIT_UNREALIZABLE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_IO = 4
EXIT_DISAGREE = 5


def _parse_depths(text: str) -> list[int]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise InputError("no depth bounds given")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"depth bounds must be integers: {exc}") from None


def _load_instance(args: argparse.Namespace) -> tuple[int, LeafSignature]:
    k, depths = args.k, args.depths
    if args.file:
        if k is not None or depths is not None:
            raise InputError("give either --file or --k/--depths, not both")
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                lines = [line.strip() for line in handle if line.strip()]
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.file}: not UTF-8 text: {exc}") from None
        if len(lines) < 2:
            raise InputError(f"{args.file}: expected k on line 1 and depths on line 2")
        try:
            k = int(lines[0])
        except ValueError:
            raise InputError(f"{args.file}: first line must be the integer k") from None
        depths = lines[1]
    elif k is None or depths is None:
        raise InputError("an instance needs --k and --depths (or --file)")
    return k, _validate_instance(k, _parse_depths(depths))


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(not args.no_prune, args.max_level_size, args.max_seconds)


def _stats_dict(decision: Decision) -> dict:
    out = dict(vars(decision.stats))
    del out["wall_time_s"]  # stdout must be reproducible byte for byte
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_decide(args: argparse.Namespace) -> int:
    k, depths = _load_instance(args)
    decision = decide(k, depths, _solver_config(args))
    if args.format == "json":
        import json

        payload = {
            "realizable": decision.realizable,
            "stats": _stats_dict(decision),
            "witness": [r._asdict() for r in decision.witness_chain],
        }
        print(json.dumps(payload, indent=2))
    else:
        print("realizable" if decision.realizable else "unrealizable")
        for name, value in _stats_dict(decision).items():
            print(f"  {name}: {value}")
        print(f"  wall_time_s: {decision.stats.wall_time_s:.4f}", file=sys.stderr)
    return EXIT_REALIZABLE if decision.realizable else EXIT_UNREALIZABLE


def cmd_build(args: argparse.Namespace) -> int:
    from .treebuild import export_tree, reconstruct, validate

    k, depths = _load_instance(args)
    decision = decide(k, depths, _solver_config(args))
    if not decision.realizable:
        print("unrealizable", file=sys.stderr)
        return EXIT_UNREALIZABLE
    tree = reconstruct(k, depths, decision.witness_chain)
    report = validate(k, tree, depths)
    if not report.valid:
        print(f"built tree fails validation: {report.violations}", file=sys.stderr)
        return EXIT_DISAGREE
    _emit(export_tree(tree, args.format) + ("\n" if args.format == "json" else ""), args.out)
    return EXIT_REALIZABLE


def _trace_text(levels) -> str:
    lines = []
    for level in levels:
        sigs = ["".join(map(str, s)) if all(0 <= v <= 9 for v in s) else str(list(s))
                for s in level.sorted_signatures()]
        lines.append(f"M_{level.z}: {{{', '.join(sigs)}}}")
    return "\n".join(lines) + "\n"


def _trace_json(k: int, levels) -> str:
    import json

    payload = {
        "k": k,
        "levels": [
            {
                "z": level.z,
                "signatures": [list(s) for s in sigs],
                "arrows": [level.record_of[s]._asdict() for s in sigs if s in level.record_of],
            }
            for level in levels
            for sigs in [level.sorted_signatures()]
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _trace_dot(levels) -> str:
    def node_id(z, sig):
        return "s{}_{}".format(z, "_".join(str(v) for v in sig))

    lines, edges = ["digraph levels {", "  rankdir=TB;"], []  # every node, then every edge
    for level in levels:
        names = []
        for sig in level.sorted_signatures():
            name = node_id(level.z, sig)
            names.append(name)
            lines.append(f'  {name} [label="{",".join(map(str, sig))}"];')
            rec = level.record_of.get(sig)
            if rec is not None:
                edges.append(
                    f'  {node_id(level.z + 1, rec.parent)} -> {name}'
                    f' [label="{rec.merged_lo},{rec.merged_hi}"];'
                )
        if names:
            lines.append(f'  {{ rank=same; {" ".join(names)} }}')
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_trace(args: argparse.Namespace) -> int:
    k, depths = _load_instance(args)
    levels = trace_levels(k, depths, _solver_config(args))
    if args.format == "json":
        text = _trace_json(k, levels)
    elif args.format == "dot":
        text = _trace_dot(levels)
    else:
        text = _trace_text(levels)
    _emit(text, args.out)
    realizable = levels[-1].z == 1 and bool(levels[-1].signatures)
    return EXIT_REALIZABLE if realizable else EXIT_UNREALIZABLE


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import OracleConfig, run_oracle

    k, depths = _load_instance(args)
    verdict = run_oracle(k, depths, OracleConfig(method=args.method, max_n=args.max_n))
    print("realizable" if verdict else "unrealizable")
    return EXIT_REALIZABLE if verdict else EXIT_UNREALIZABLE


def cmd_selftest(args: argparse.Namespace) -> int:
    from .oracle import sweep

    try:
        ks = [validate_k(int(p)) for p in args.ks.split(",")]
    except ValueError:
        raise InputError(f"--ks must list integers k >= 2, got {args.ks!r}") from None
    if args.max_n < 1 or args.max_value < 0:
        raise InputError(f"selftest needs --max-n >= 1 and --max-value >= 0, got "
                         f"{args.max_n} and {args.max_value}")
    checked = 0
    for k, depths, verdicts in sweep(ks, args.max_n, args.max_value):
        if isinstance(verdicts, AssertionError):
            print(f"FAIL: internal bound violated on k={k} depths={list(depths)}: {verdicts}")
            return EXIT_DISAGREE
        if len(set(verdicts.values())) > 1:
            print(f"FAIL: disagreement on k={k} depths={list(depths)}: {verdicts}")
            return EXIT_DISAGREE
        checked += 1
    print(f"selftest passed: {checked} instances, ks={ks}, "
          f"n<={args.max_n}, values<={args.max_value}")
    return EXIT_REALIZABLE


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=None, help="sibling edge-length sum (>= 2)")
    sub.add_argument("--depths", type=str, default=None,
                     help="depth bounds, comma or space separated")
    sub.add_argument("--file", type=str, default=None,
                     help="instance file: k on line 1, depths on line 2")


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--no-prune", action="store_true",
                     help="keep dominated signatures in every level")
    sub.add_argument("--max-level-size", type=int, default=None)
    sub.add_argument("--max-seconds", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splittree",
        description="Decide and build binary trees whose sibling edge lengths sum to k "
                    "while respecting per-leaf depth bounds.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decide", help="report whether the bounds are realizable")
    _add_instance_flags(p)
    _add_solver_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_decide)

    p = subs.add_parser("build", help="construct a witness tree")
    _add_instance_flags(p)
    _add_solver_flags(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out", type=str, default=None, help="write to file instead of stdout")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("trace", help="dump every level of surviving signatures")
    _add_instance_flags(p)
    _add_solver_flags(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_trace)

    p = subs.add_parser("oracle", help="run an independent desk-scale ground truth")
    _add_instance_flags(p)
    p.add_argument("--method", choices=("recursive", "enumerate", "kraft"),
                   default="recursive")
    p.add_argument("--max-n", type=int, default=None,
                   help="override the method's instance-size limit")
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("selftest", help="sweep all small instances against the oracles")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-value", type=int, required=True)
    p.add_argument("--ks", type=str, required=True, help="comma-separated k values")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LimitError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AssertionError as exc:  # a failed check must not read as "unrealizable"
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
