"""Command-line front end.

Exit codes: 0 success/applies, 1 failure/does-not-apply, 2 usage error
(argparse's default), 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import embedder, oracle
from .conditions import compare_theorems, theorem1_conditions
from .embedder import EmbedConfig, EmbedFailure, embed
from .experiments import ExperimentSpec, GridPoint, run_experiment, summary_csv, summarize
from .generators import (
    ParameterError,
    gen_condition1_counterexample,
    gen_condition2_counterexample,
    gen_random_bipartite,
    gen_star_forest,
)
from .graphs import format_graph, parse_graph, parse_sequence
from .sequences import is_bigraphic, is_graphic

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(payload, out):
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read(path):
    return Path(path).read_text()


def cmd_check_sequence(args) -> int:
    seq = parse_sequence(_read(args.file))
    if args.graphic:
        ok = is_graphic(list(seq.a_degrees + seq.b_degrees))
        _emit({"graphic": ok}, args.out)
    else:
        ok = is_bigraphic(seq)
        _emit({"bigraphic": ok}, args.out)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_check_conditions(args) -> int:
    if args.host and args.target:
        report = theorem1_conditions(
            parse_graph(_read(args.host)),
            parse_graph(_read(args.target)),
            args.eps,
            log_base=args.log_base,
        )
        _emit(report.to_json_dict(), args.out)
        return EXIT_OK if report.applies else EXIT_NEGATIVE
    if args.seq1 and args.seq2:
        reports = compare_theorems(
            parse_sequence(_read(args.seq1)), parse_sequence(_read(args.seq2))
        )
        _emit([r.to_json_dict() for r in reports], args.out)
        return EXIT_OK if any(r.applies for r in reports) else EXIT_NEGATIVE
    print("need either --host/--target or --seq1/--seq2", file=sys.stderr)
    return EXIT_USAGE


def cmd_embed(args) -> int:
    cfg = EmbedConfig(
        eps=args.eps,
        mode=args.mode,
        cap_override=args.cap,
        retries=args.retries,
        seed=args.seed,
        log_base=args.log_base,
    )
    result = embed(parse_graph(_read(args.host)), parse_graph(_read(args.target)), cfg)
    if isinstance(result, EmbedFailure):
        _emit(result.to_json_dict(), args.out)
        return EXIT_NEGATIVE
    _emit(result.to_json_dict(), args.out)
    return EXIT_OK


def cmd_pack(args) -> int:
    budget = oracle.OracleBudget(max_nodes=args.max_nodes)
    result = oracle.brute_force_pack(
        parse_sequence(_read(args.seq1)), parse_sequence(_read(args.seq2)), budget
    )
    if isinstance(result, oracle.BudgetExceeded):
        _emit({"result": "budget-exceeded", "detail": result.detail}, args.out)
        return EXIT_BUDGET
    if isinstance(result, oracle.NoPacking):
        _emit({"result": "no-packing"}, args.out)
        return EXIT_NEGATIVE
    _emit(
        {
            "result": "packing",
            "g1Edges": sorted([a, b] for a, b in result.g1_edges),
            "g2Edges": sorted([a, b] for a, b in result.g2_edges),
        },
        args.out,
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    budget = oracle.OracleBudget(max_nodes=args.max_nodes)
    result = oracle.brute_force_embed(
        parse_graph(_read(args.host)), parse_graph(_read(args.target)), budget
    )
    if isinstance(result, oracle.BudgetExceeded):
        _emit({"result": "budget-exceeded", "detail": result.detail}, args.out)
        return EXIT_BUDGET
    if isinstance(result, oracle.NoEmbedding):
        _emit({"result": "no-embedding"}, args.out)
        return EXIT_NEGATIVE
    _emit({"result": "embedding", **result.to_json_dict()}, args.out)
    return EXIT_OK


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "random":
        g = gen_random_bipartite(args.n, args.p, rng)
    elif args.kind == "star-forest":
        g = gen_star_forest(args.n, args.hub_degrees or [])
    elif args.kind == "condition1":
        g = gen_condition1_counterexample(args.n)
    else:  # condition2: emits the host; the target goes next to it
        host, target = gen_condition2_counterexample(args.n, args.c, rng, p=args.p)
        if not args.out:
            print("condition2 writes two files; --out is required", file=sys.stderr)
            return EXIT_USAGE
        Path(args.out).write_text(format_graph(host))
        Path(args.out + ".target").write_text(format_graph(target))
        return EXIT_OK
    text = format_graph(g)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_experiment(args) -> int:
    grid = tuple(
        GridPoint(
            n=n, p=p, delta_h=dh, eps=args.eps, generator=args.generator,
            demand_total=args.demand_total,
        )
        for n in args.n
        for p in args.p
        for dh in args.delta_h
    )
    spec = ExperimentSpec(
        grid=grid,
        trials=args.trials,
        seed_base=args.seed,
        mode=args.mode,
        retries=args.retries,
        out=args.out,
    )
    records, rows = run_experiment(spec)
    if not args.out:
        sys.stdout.write(summary_csv(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipack", description="bipartite degree-sequence packing toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write JSON/CSV here instead of stdout")

    p = sub.add_parser("check-sequence", help="realizability of a sequence file")
    p.add_argument("file")
    p.add_argument("--graphic", action="store_true", help="treat all degrees as one graphic sequence")
    common(p)
    p.set_defaults(func=cmd_check_sequence)

    p = sub.add_parser("check-conditions", help="theorem hypothesis checkers")
    p.add_argument("--host")
    p.add_argument("--target")
    p.add_argument("--seq1")
    p.add_argument("--seq2")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--log-base", type=float, default=2.718281828459045)
    common(p)
    p.set_defaults(func=cmd_check_conditions)

    p = sub.add_parser("embed", help="randomized pipeline embedding")
    p.add_argument("--host", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--mode", choices=["strict", "relaxed"], default="relaxed")
    p.add_argument("--cap", type=float, help="relaxed-mode degree cap")
    p.add_argument("--retries", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-base", type=float, default=2.718281828459045)
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("pack", help="exact unordered packing of two sequences")
    p.add_argument("--seq1", required=True)
    p.add_argument("--seq2", required=True)
    p.add_argument("--max-nodes", type=int, default=8)
    common(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("oracle", help="brute-force embedding decision")
    p.add_argument("--host", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--max-nodes", type=int, default=12)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="instance generators")
    p.add_argument("--kind", choices=["random", "star-forest", "condition1", "condition2"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.55)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hub-degrees", type=int, nargs="*")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("experiment", help="Monte Carlo trial runner")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--p", type=float, nargs="+", default=[0.75])
    p.add_argument("--delta-h", type=int, nargs="+", default=[4])
    p.add_argument("--eps", type=float, default=0.4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["strict", "relaxed"], default="relaxed")
    p.add_argument("--retries", type=int, default=5)
    p.add_argument("--generator", choices=["random", "condition1"], default="random")
    p.add_argument("--demand-total", type=int)
    common(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
