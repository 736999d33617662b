"""Command-line surface: model checking, embedding, width, generation, benchmarks.

Exit codes for decision commands: 0 = YES, 1 = NO, 2 = error.  All output is
deterministic for fixed arguments except the wall-clock column of `bench`.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from typing import Sequence

from .errors import PosetmcError
from .generators import banded_poset, independent_poset, load_graph, poset_of_graph, random_poset, stack_posets
from .instrument import OpCounter
from .logic import Sentence, eval_matrix, parse_sentence
from .poset import _read_text, format_poset_text, load_poset, width_and_chain_partition
from .reduction import _SOLVERS, model_check

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2

BENCH_SCHEMA = "solver,q,p,width,branches,ops,usec,verdict"


def _load_sentence(args) -> Sentence:
    if args.phi is not None and args.formula is not None:
        raise PosetmcError("give either --phi or --formula, not both")
    if args.phi is not None:
        return parse_sentence(args.phi)
    if args.formula is not None:
        return parse_sentence(_read_text(args.formula))
    raise PosetmcError("one of --phi or --formula is required")


def cmd_check(args) -> int:
    sentence = _load_sentence(args)
    host = load_poset(args.poset)
    holds, witness = model_check(sentence, host, solver=args.solver)
    if holds:
        print("YES")
        if args.witness:
            if witness is None or not eval_matrix(sentence.matrix, host, witness):
                raise PosetmcError("internal error: witness failed re-verification")
            for v in sentence.vars:
                print(f"var {v.name} -> {witness[v.name]}")
        return EXIT_YES
    print("NO")
    return EXIT_NO


def cmd_embed(args) -> int:
    pattern = load_poset(args.pattern)
    host = load_poset(args.host)
    e = _SOLVERS[args.solver](pattern, host)
    if e is not None:
        print("YES")
        if args.witness:
            for qe, pe in enumerate(e):
                print(f"{qe} -> {pe}")
        return EXIT_YES
    print("NO")
    return EXIT_NO


def cmd_width(args) -> int:
    p = load_poset(args.poset)
    w, cp = width_and_chain_partition(p)
    print(w)
    if args.chains:
        for chain in cp.chains:
            print(" ".join(str(e) for e in chain))
    if args.antichain:
        print(" ".join(str(e) for e in cp.antichain))
    return EXIT_YES


def cmd_gen(args) -> int:
    if args.family == "independent":
        p = independent_poset(args.k)
        name = f"independent_{args.k}"
    elif args.family == "poset-of-graph":
        g = load_graph(args.graph)
        p = poset_of_graph(g)
        name = "poset_of_graph"
    elif args.family == "stack":
        parts = [load_poset(path) for path in args.posets]
        p = stack_posets(parts)
        name = "stack"
    elif args.family == "random":
        p = random_poset(args.n, args.density, args.seed)
        name = f"random_{args.n}_{args.density}_{args.seed}"
    else:  # pragma: no cover - argparse enforces the choices
        raise PosetmcError(f"unknown generator {args.family!r}")
    sys.stdout.write(format_poset_text(p, name=name))
    return EXIT_YES


def _bench_instances(sizes: list[int], qsize: int, width: int, repeats: int, seed: int):
    for size in sizes:
        for rep in range(repeats):
            rng = random.Random(f"{seed}:{size}:{rep}")
            offsets = [rng.randrange(0, 3) for _ in range(width)]
            host = banded_poset(size, width, band=1, offsets=offsets)
            pattern = random_poset(qsize, rng.uniform(0.2, 0.8), rng.randrange(2**30))
            yield pattern, host


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise PosetmcError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for s in solvers:
        if s not in _SOLVERS:
            raise PosetmcError(f"unknown solver {s!r}")
    if not sizes or args.repeats < 1:
        raise PosetmcError("need at least one size and one repeat")
    print("# posetmc-bench-csv v1")
    print(BENCH_SCHEMA)
    for pattern, host in _bench_instances(sizes, args.qsize, args.width, args.repeats, args.seed):
        w, _ = width_and_chain_partition(host)
        for solver in solvers:
            counter = OpCounter()
            start = time.perf_counter()
            e = _SOLVERS[solver](pattern, host, counter=counter)
            usec = int((time.perf_counter() - start) * 1e6)
            verdict = "YES" if e is not None else "NO"
            print(
                f"{solver},{pattern.n},{host.n},{w},{counter.branches},{counter.ops},{usec},{verdict}"
            )
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetmc",
        description="Existential first-order model checking on finite posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a sentence on a poset")
    check.add_argument("--phi", help="sentence text")
    check.add_argument("--formula", help="path to a sentence file")
    check.add_argument("--poset", required=True, help="path to a poset file")
    check.add_argument("--solver", choices=sorted(_SOLVERS), default="clique")
    check.add_argument("--witness", action="store_true", help="print a satisfying assignment")
    check.set_defaults(func=cmd_check)

    embed = sub.add_parser("embed", help="decide poset embedding")
    embed.add_argument("--pattern", required=True)
    embed.add_argument("--host", required=True)
    embed.add_argument("--solver", choices=sorted(_SOLVERS), default="clique")
    embed.add_argument("--witness", action="store_true")
    embed.set_defaults(func=cmd_embed)

    width = sub.add_parser("width", help="width and chain partition")
    width.add_argument("--poset", required=True)
    width.add_argument("--chains", action="store_true", help="print the chain partition")
    width.add_argument("--antichain", action="store_true", help="print the antichain certificate")
    width.set_defaults(func=cmd_width)

    gen = sub.add_parser("gen", help="emit a poset file on stdout")
    gensub = gen.add_subparsers(dest="family", required=True)
    g_ind = gensub.add_parser("independent", help="k incomparable 3-chains")
    g_ind.add_argument("k", type=int)
    g_pog = gensub.add_parser("poset-of-graph", help="chain-triple poset of a graph file")
    g_pog.add_argument("graph")
    g_stack = gensub.add_parser("stack", help="stack poset files bottom to top")
    g_stack.add_argument("posets", nargs="+")
    g_rand = gensub.add_parser("random", help="seeded random poset")
    g_rand.add_argument("n", type=int)
    g_rand.add_argument("density", type=float)
    g_rand.add_argument("seed", type=int)
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="CSV benchmark records on stdout")
    bench.add_argument("--sizes", required=True, help="comma-separated host sizes")
    bench.add_argument("--qsize", type=int, default=3)
    bench.add_argument("--width", type=int, default=3)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--solvers", default="clique,csp")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PosetmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
