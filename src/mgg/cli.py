"""Command-line front end: solve, reduce, verify, play.

`solve` and the engine side of `play` share one answer path: the matching
router `polysolve.poly_solve` first, the exhaustive search when it declines
(`--method` picks either alone).  `play` walks one `kernel._Engine` from
the start position: its packed key says when the game is over, checks and
plays both sides' moves, and gives the engine's move when it is losing.

Commands raise; `main` maps each failure once, through `_FAILURES`, to an
exit code and one stderr line, and lets any other exception through.  The
exit codes are a stable contract:

- 0: solved, or every trial agreed.
- 1: a usage error (argparse's usage line, then `mgg CMD: error: ...`);
  `error: ...` for a file that cannot be read, decoded as UTF-8, parsed or
  written (naming the file), a `--budget` below 1 or a source the reduction
  rejects; end of input in `play`.
- 2: budget exhausted, or a trial indeterminate.
- 3: a reduction disagreed; each such trial is written as a bundle
  `{reduction}-seed{seed}-start{start}` under `--counterexamples`.
- 4: `not applicable: ...` when the method does not cover the position;
  `error: ...` for a position beyond the exhaustive solver's 128-vertex or
  128-arc bitset cap, or beyond the engine's nimg move-bit cap.
- 5: `infeasible grid: ...` for --n < 1, --m < 0, --wmax < 1 or --trials < 1.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import fields, replace

from .arena import LOOP_MODES, run_reduction_grid, write_counterexample, write_name_map
from .kernel import (
    NIMG_MR,
    NIMG_RM,
    CapacityError,
    Convention,
    Move,
    Position,
    _Engine,
)
from .polysolve import NotApplicable, poly_solve
from .posfile import parse_decimal, read_position, write_position
from .reductions import (
    REDUCTIONS, SOURCE_CONVENTION, TARGET_CONVENTION, Grid, InfeasibleGrid)
from .search import DEFAULT_BUDGET, Outcome, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_DISAGREE = 3
EXIT_NOT_APPLICABLE = 4
EXIT_INFEASIBLE = 5

#: (exception type, exit code, stderr label) of each failure; the first match wins.
_FAILURES = (
    (NotApplicable, EXIT_NOT_APPLICABLE, "not applicable"),
    (CapacityError, EXIT_NOT_APPLICABLE, "error"),
    (InfeasibleGrid, EXIT_INFEASIBLE, "infeasible grid"),
    (OSError, EXIT_INPUT, "error"),
    (ValueError, EXIT_INPUT, "error"),
)


def format_move(variant: str, m: Move) -> str:
    if variant == NIMG_RM:
        return f"{m.k} {m.to}"
    if variant == NIMG_MR:
        return f"{m.to} {m.k}"
    return f"{m.to}"


def parse_move(variant: str, text: str) -> Move:
    """The move `text` names, its numbers read as a position file reads them."""
    parts = text.split()
    if variant == NIMG_RM:
        if len(parts) != 2:
            raise ValueError("expected `k v`: new weight, then destination")
        return Move(parse_decimal(parts[1]), parse_decimal(parts[0]))
    if variant == NIMG_MR:
        if len(parts) != 2:
            raise ValueError("expected `v k`: destination, then new weight")
        return Move(parse_decimal(parts[0]), parse_decimal(parts[1]))
    if len(parts) != 1:
        raise ValueError("expected `v`: destination vertex")
    return Move(parse_decimal(parts[0]))


def _answer(pos: Position, conv: Convention, method: str, budget: int, routed=None):
    """(outcome, winning move or None, solver name, policy, states expanded).

    Unless `method` is exhaustive the matching router answers first, or
    `routed` does when the caller already holds the router's answer for
    `pos`; when it declines, `matching` re-raises its NotApplicable and
    `auto` falls back to the exhaustive search.  A search out of budget
    gives outcome None.
    """
    if method != "exhaustive":
        try:
            outcome, policy, name = routed or poly_solve(pos, conv)
        except NotApplicable:
            if method == "matching":
                raise
        else:
            move = policy.at(pos) if outcome is Outcome.N else None
            return outcome, move, name, policy, 0
    report = solve(pos, conv, budget)
    return report.outcome, report.principal_move, "exhaustive", None, report.states_expanded


def cmd_solve(args) -> int:
    pos, conv = read_position(args.position)
    outcome, move, solver_name, policy, states = _answer(pos, conv, args.method, args.budget)
    if outcome is None:
        print(f"budget exhausted after {states} states")
        return EXIT_BUDGET
    print(f"outcome {outcome.value}")
    if move is not None:
        print(f"move {format_move(pos.variant, move)}")
    print(f"solver {solver_name}")
    if policy is not None:
        print(f"strategy {policy.provenance}")
    print(f"states {states}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    entry = REDUCTIONS[args.name]
    pos, conv = read_position(args.input)
    if conv is not SOURCE_CONVENTION:
        raise ValueError(f"reductions take {SOURCE_CONVENTION.value}-convention sources")
    entry.check_source(pos)
    out = entry.apply(pos)
    write_position(args.output, out.position, TARGET_CONVENTION)
    namemap = args.namemap or args.output + ".namemap"
    write_name_map(namemap, out.name_map)
    tgt = out.position
    print(
        f"wrote {args.output}: {tgt.variant} {tgt.graph.kind} "
        f"{tgt.graph.n} vertices {len(tgt.graph.edges)} edges"
    )
    print(f"wrote {namemap}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Cross-check each named reduction (default: all) on its standard grid.

    A grid flag given on the command line overrides that part of every
    grid.  Every grid is built, and so checked, before anything prints.
    """
    given = {f.name: v for f in fields(Grid) if (v := getattr(args, f.name)) is not None}
    grids = [(name, replace(REDUCTIONS[name].grid, **given))
             for name in args.names or REDUCTIONS]
    flags = Counter()
    for name, grid in grids:
        tally = Counter()
        trials = run_reduction_grid(
            name, n=grid.n, m=grid.m, weight_bound=grid.wmax, trials=grid.trials,
            master_seed=args.seed, budget=args.budget, loops=grid.loops,
            all_starts=grid.all_starts,
        )
        for index, (report, pos, out) in enumerate(trials):
            if not index:  # with the first trial: an error before it prints nothing
                print("trial seed n m start src tgt agree")
            src = report.source.outcome.value if report.source.outcome else "-"
            tgt = report.target.outcome.value if report.target.outcome else "-"
            flag = {True: "yes", False: "NO", None: "budget"}[report.agree]
            tally[flag] += 1
            print(
                f"{index} {report.seed} {pos.graph.n} {len(pos.graph.edges)} "
                f"{pos.current} {src} {tgt} {flag}"
            )
            if report.agree is False:
                bundle = write_counterexample(args.counterexamples, report, pos, out)
                print(f"counterexample written to {bundle}", file=sys.stderr)
        print(f"summary: {tally['yes']}/{tally.total()} agree, "
              f"{tally['budget']} indeterminate")
        flags += tally
    if flags["NO"]:
        return EXIT_DISAGREE
    if flags["budget"]:
        return EXIT_BUDGET
    return EXIT_OK


def _print_board(pos: Position, conv: Convention, human_turn: bool) -> None:
    print(f"-- {pos.variant} ({conv.value}), {'you' if human_turn else 'engine'} to move")
    cells = []
    for v in range(pos.graph.n):
        tag = f"w={pos.weights[v]}" if pos.weights is not None else ""
        mark = "*" if v == pos.current else ""
        cells.append(f"{v}[{tag}]{mark}" if tag else f"{v}{mark}")
    print("vertices:", " ".join(cells))
    sep = "->" if pos.graph.directed else "-"
    print("edges:", " ".join(f"{u}{sep}{v}" for u, v in pos.graph.edges) or "(none)")


def cmd_play(args) -> int:
    pos, conv = read_position(args.position)
    # the router's answer for the start position: `matching` must cover it
    routed = poly_solve(pos, conv) if args.method == "matching" else None
    # a later position may leave the start's class: `matching` falls back then
    method = "auto" if args.method == "matching" else args.method
    engine = _Engine(pos)  # may raise CapacityError, so before any output
    key = engine.root
    human_turn = not args.engine_first
    while True:
        _print_board(pos, conv, human_turn)
        if not engine.move_bits(key):
            stuck = "you" if human_turn else "engine"
            if conv is Convention.NORMAL:
                winner = "engine" if human_turn else "you"
            else:
                winner = stuck
            print(f"game over: {stuck} cannot move; {winner} win{'s' if winner == 'engine' else ''}")
            return EXIT_OK
        if human_turn:
            child = None
            while child is None:
                try:
                    line = input("your move> ")
                except EOFError:
                    print("\nno input: leaving game", file=sys.stderr)
                    return EXIT_INPUT
                try:  # an IllegalMoveError is a ValueError
                    child = engine.after(key, parse_move(pos.variant, line))
                except ValueError as exc:
                    print(f"illegal move: {exc}")
        else:
            outcome, move, *_ = _answer(pos, conv, method, args.budget, routed)
            if outcome is not Outcome.N:  # losing anyway: play on
                move = engine.first(key)
            print(f"engine plays: {format_move(pos.variant, move)}")
            child = engine.after(key, move)
        key, pos = child, engine.position(child)
        routed = None  # it answered the start position only
        human_turn = not human_turn


def _reduction_name(text: str) -> str:
    if text not in REDUCTIONS:
        raise argparse.ArgumentTypeError(
            f"unknown reduction {text!r} (choose from {', '.join(REDUCTIONS)})")
    return text


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error (subparsers inherit this): 2 means budget exhausted."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mgg",
        description="Solve, reduce and verify token and geography games on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a position file")
    p.add_argument("position")
    p.add_argument("--method", choices=("auto", "exhaustive", "matching"), default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("reduce", help="apply a reduction to a position file")
    p.add_argument("name", choices=sorted(REDUCTIONS))
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--namemap", default=None)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser(
        "verify", help="cross-check reductions on random instances",
        description="Cross-check each named reduction (default: all) on its "
        "standard grid; a flag given overrides that part of every grid.",
    )
    # argparse rejects an empty list against `choices`, so names are checked by type
    p.add_argument("names", nargs="*", type=_reduction_name, metavar="name",
                   help=f"one of {', '.join(REDUCTIONS)}")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--wmax", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--loops", choices=LOOP_MODES)
    p.add_argument("--all-starts", action="store_true", default=None)
    p.add_argument("--counterexamples", default="counterexamples")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("play", help="play a position against the engine")
    p.add_argument("position")
    p.add_argument("--method", choices=("auto", "exhaustive", "matching"), default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--engine-first", action="store_true")
    p.set_defaults(fn=cmd_play)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", 1) < 1:  # before any output, whichever solver runs
            raise ValueError("budget must be positive")
        return args.fn(args)
    except tuple(row[0] for row in _FAILURES) as exc:
        _, code, label = next(row for row in _FAILURES if isinstance(exc, row[0]))
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
