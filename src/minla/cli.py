"""Command line interface.

Exit codes: 0 ok, 2 invalid trace or configuration, 3 capacity exceeded
(more than 2^22 block-order states, ``opt --exhaustive`` past n = 7, or a
harmonic total past 10^4), 4 verification failure, 5 internal invariant
failure (an algorithm left an infeasible arrangement: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .adversaries import TreeAdversaryConfig, random_trace, tree_adversary
from .errors import CapacityError, ConfigError, InvariantError, MinlaError
from .harness import (
    ExperimentConfig,
    duel,
    experiment_to_json,
    records_to_csv,
    run_experiment,
    verify_lemma,
)
from .oracle import dp_opt, exhaustive_opt
from .trace import Model, emit_trace, parse_trace

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4
EXIT_INTERNAL = 5


@functools.cache
def _build_parser():
    # The full parser and each command's own parser by name, which carries the
    # command's handler.  Built once per process: parsing leaves no state.
    parser = argparse.ArgumentParser(
        prog="minla",
        description="Online minimum linear arrangement: simulate, verify, bound.",
    )
    parser.add_argument("--version", action="version", version=f"minla {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, handler, help):
        commands[name] = cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(handler=handler)
        return cmd

    gen = command("gen", _cmd_gen, "generate a trace")
    gen.add_argument("--kind", choices=("random", "tree"), required=True)
    gen.add_argument("--model", choices=("lines", "cliques"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", type=Path)

    sim = command("simulate", _cmd_simulate, "run an algorithm over a trace")
    sim.add_argument("--algo", choices=("det", "rand"), required=True)
    sim.add_argument("--trace", type=Path, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", type=Path)

    opt = command("opt", _cmd_opt, "exact offline optimum of a trace")
    opt.add_argument("--trace", type=Path, required=True)
    opt.add_argument("--exhaustive", action="store_true")

    ver = command("verify", _cmd_verify, "check a closed-form guarantee")
    ver.add_argument(
        "--lemma",
        choices=("left-right", "orientation", "harmonic", "identities"),
        required=True,
    )
    ver.add_argument("--trials", type=int, required=True)
    ver.add_argument("--seed", type=int, required=True)
    ver.add_argument("--trace", type=Path)

    du = command("duel", _cmd_duel, "adaptive adversary against det")
    du.add_argument("--n", type=int, required=True)
    du.add_argument("--dump-trace", type=Path)

    be = command("bench", _cmd_bench, "run the acceptance experiment suite")
    be.add_argument("--suite", choices=("paper",), required=True)
    be.add_argument("--out", type=Path, required=True)

    return parser, commands


def _write_or_print(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _cmd_gen(args) -> int:
    model = Model(args.model)
    if args.kind == "random":
        trace = random_trace(model, args.n, seed=args.seed)
    else:
        if model is not Model.LINES:
            raise ConfigError("tree traces are line traces; use --model lines")
        q = args.n.bit_length() - 1
        if args.n < 2 or 1 << q != args.n:
            raise ConfigError(
                f"tree traces need n to be a power of two of at least 2, got {args.n}"
            )
        trace = tree_adversary(TreeAdversaryConfig(q=q, seed=args.seed))
    _write_or_print(emit_trace(trace), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    trace = parse_trace(args.trace.read_text(encoding="utf-8"))
    cfg = ExperimentConfig(
        trace=trace,
        trace_id=os.fsencode(args.trace.stem).decode("utf-8"),  # UTF-8 under any locale
        algo=args.algo,
        trials=args.trials,
        master_seed=args.seed,
    )
    emit = records_to_csv if args.format == "csv" else experiment_to_json
    _write_or_print(emit(run_experiment(cfg)), args.out)
    return EXIT_OK


def _cmd_opt(args) -> int:
    trace = parse_trace(args.trace.read_text(encoding="utf-8"))
    result = exhaustive_opt(trace) if args.exhaustive else dp_opt(trace)
    kind = "exhaustive" if args.exhaustive else "dp"
    sys.stdout.write(f"method: {kind}\ncost: {result.cost}\n")
    sys.stdout.write(f"witness: {result.witness.to_text()}\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    trace = None
    if args.trace is not None:
        trace = parse_trace(args.trace.read_text(encoding="utf-8"))
    report = verify_lemma(args.lemma, trials=args.trials, seed=args.seed, trace=trace)
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_duel(args) -> int:
    report = duel(args.n)
    sys.stdout.write(report.to_text())
    if args.dump_trace is not None:
        args.dump_trace.write_text(emit_trace(report.induced_trace), encoding="utf-8")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .bench import run_paper_suite  # the suite's imports serve this command only

    results = run_paper_suite(str(args.out))
    for res in results:
        sys.stdout.write(res.line() + "\n")
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY


def main(argv=None) -> int:
    # A command named first is parsed by its own parser alone; anything else,
    # or arguments that parser leaves over, takes the full parse, whose help,
    # usage and errors are the CLI's.
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
    if command is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (MinlaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
