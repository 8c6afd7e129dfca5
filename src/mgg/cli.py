"""Command-line front end: solve, reduce, verify, play.

`solve` and the engine side of `play` share one answer path: the matching
router `polysolve.poly_solve` first, the exhaustive search when it declines
(`--method` picks either alone).

Exit codes are a stable contract: 0 solved/agree, 1 input error, 2 budget
exhausted or indeterminate, 3 disagreement found, 4 requested method not
applicable (including a position beyond the exhaustive solver's 128-vertex
or 128-arc bitset cap, or beyond the engine's nimg move-bit cap), 5
infeasible grid.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import fields, replace

from .arena import LOOP_MODES, run_reduction_grid, write_counterexample, write_name_map
from .kernel import (
    EGEO,
    NIMG_MR,
    NIMG_RM,
    Convention,
    IllegalMoveError,
    Move,
    Position,
    apply_move,
    first_move,
    is_terminal,
)
from .polysolve import NotApplicable, poly_solve
from .posfile import PositionParseError, read_position, write_position
from .reductions import REDUCTIONS, Grid
from .search import DEFAULT_BUDGET, CapacityError, Outcome, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_DISAGREE = 3
EXIT_NOT_APPLICABLE = 4
EXIT_INFEASIBLE = 5

#: Smallest value of each `verify` grid flag that leaves a trial to draw.
_GRID_FLOORS = {"n": 1, "m": 0, "wmax": 1, "trials": 1}


def format_move(variant: str, m: Move) -> str:
    if variant == NIMG_RM:
        return f"{m.k} {m.to}"
    if variant == NIMG_MR:
        return f"{m.to} {m.k}"
    return f"{m.to}"


def parse_move(variant: str, text: str) -> Move:
    parts = text.split()
    if variant == NIMG_RM:
        if len(parts) != 2:
            raise ValueError("expected `k v`: new weight, then destination")
        return Move(int(parts[1]), int(parts[0]))
    if variant == NIMG_MR:
        if len(parts) != 2:
            raise ValueError("expected `v k`: destination, then new weight")
        return Move(int(parts[0]), int(parts[1]))
    if len(parts) != 1:
        raise ValueError("expected `v`: destination vertex")
    return Move(int(parts[0]))


def _load(path: str):
    try:
        return read_position(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        return None
    except PositionParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _capacity_error(exc: CapacityError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_NOT_APPLICABLE


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
            move = policy.choose(pos) if outcome is Outcome.N else None
            return outcome, move, name, policy, 0
    report = solve(pos, conv, budget)
    return report.outcome, report.principal_move, "exhaustive", None, report.states_expanded


def cmd_solve(args) -> int:
    loaded = _load(args.position)
    if loaded is None:
        return EXIT_INPUT
    pos, conv = loaded
    try:
        outcome, move, solver_name, policy, states = _answer(
            pos, conv, args.method, args.budget)
    except NotApplicable as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except CapacityError as exc:
        return _capacity_error(exc)
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
    loaded = _load(args.input)
    if loaded is None:
        return EXIT_INPUT
    pos, conv = loaded
    if conv is not Convention.NORMAL:
        print("error: reductions take normal-convention sources", file=sys.stderr)
        return EXIT_INPUT
    try:
        entry.check_source(pos)
        out = entry.apply(pos)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    write_position(args.output, out.position, out.target_convention)
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
    grid.  An infeasible grid stops the run at once.
    """
    given = {f.name: getattr(args, f.name) for f in fields(Grid)}
    given = {key: value for key, value in given.items() if value is not None}
    for key, floor in _GRID_FLOORS.items():
        if given.get(key, floor) < floor:
            print(f"infeasible grid: --{key} must be >= {floor}, got {given[key]}",
                  file=sys.stderr)
            return EXIT_INFEASIBLE
    flags = Counter()
    for name in args.names or REDUCTIONS:
        grid = replace(REDUCTIONS[name].grid, **given)
        tally = Counter()
        try:
            trials = run_reduction_grid(
                name, n=grid.n, m=grid.m, weight_bound=grid.wmax, trials=grid.trials,
                master_seed=args.seed, budget=args.budget, loops=grid.loops,
                all_starts=grid.all_starts,
            )
            print("trial seed n m start src tgt agree")
            for index, (report, pos, out) in enumerate(trials):
                src = report.source_outcome.value if report.source_outcome else "-"
                tgt = report.target_outcome.value if report.target_outcome else "-"
                flag = {True: "yes", False: "NO", None: "budget"}[report.agree]
                tally[flag] += 1
                print(
                    f"{index} {report.seed} {report.n} {report.m} "
                    f"{pos.current} {src} {tgt} {flag}"
                )
                if report.agree is False:
                    bundle = write_counterexample(
                        args.counterexamples, report, pos, out.source_convention, out
                    )
                    print(f"counterexample written to {bundle}", file=sys.stderr)
        except ValueError as exc:
            print(f"infeasible grid: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except CapacityError as exc:
            return _capacity_error(exc)
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
        if v in pos.removed_vertices:
            tag = "gone"
        mark = "*" if v == pos.current else ""
        cells.append(f"{v}[{tag}]{mark}" if tag else f"{v}{mark}")
    print("vertices:", " ".join(cells))
    sep = "->" if pos.graph.directed else "-"
    live = [e for e in pos.graph.edges if e not in pos.removed_edges]
    print("edges:", " ".join(f"{u}{sep}{v}" for u, v in live) or "(none)")


def _engine_move(
    pos: Position, conv: Convention, method: str, budget: int, routed=None
) -> Move:
    # `matching` was checked at the start; a later position may leave its class
    outcome, move, *_ = _answer(
        pos, conv, "auto" if method == "matching" else method, budget, routed)
    return move if outcome is Outcome.N else first_move(pos)  # losing anyway: play on


def cmd_play(args) -> int:
    loaded = _load(args.position)
    if loaded is None:
        return EXIT_INPUT
    pos, conv = loaded
    routed = None  # the router's answer for the start position, once checked
    if args.method == "matching":
        try:
            routed = poly_solve(pos, conv)
        except NotApplicable as exc:
            print(f"not applicable: {exc}", file=sys.stderr)
            return EXIT_NOT_APPLICABLE
    try:
        return _play(pos, conv, args, routed)
    except CapacityError as exc:
        return _capacity_error(exc)


def _play(pos: Position, conv: Convention, args, routed) -> int:
    human_turn = not args.engine_first
    while True:
        _print_board(pos, conv, human_turn)
        if is_terminal(pos):
            stuck = "you" if human_turn else "engine"
            if conv is Convention.NORMAL:
                winner = "engine" if human_turn else "you"
            else:
                winner = stuck
            print(f"game over: {stuck} cannot move; {winner} win{'s' if winner == 'engine' else ''}")
            return EXIT_OK
        if human_turn:
            move = None
            while move is None:
                try:
                    line = input("your move> ")
                except EOFError:
                    print("\nno input: leaving game", file=sys.stderr)
                    return EXIT_INPUT
                try:
                    candidate = parse_move(pos.variant, line)
                    pos = apply_move(pos, candidate)
                    move = candidate
                except (ValueError, IllegalMoveError) as exc:
                    print(f"illegal move: {exc}")
        else:
            move = _engine_move(pos, conv, args.method, args.budget, routed)
            print(f"engine plays: {format_move(pos.variant, move)}")
            pos = apply_move(pos, move)
        routed = None  # it answered the start position only
        human_turn = not human_turn


def _reduction_name(text: str) -> str:
    if text not in REDUCTIONS:
        raise argparse.ArgumentTypeError(
            f"unknown reduction {text!r} (choose from {', '.join(REDUCTIONS)})")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    return args.fn(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
