"""Exhaustive N/P solver: memoized depth-first search over packed int states.

Each query builds one `mgg.kernel._Engine` from its root position; the move
rules live there, and every reachable position is one packed int key.  The
search takes one child at a time from ``move_bits(key)`` (``rem & -rem``), so
a won state never builds the children after its first losing one.  It runs
iteratively, so deep playouts cannot hit the interpreter recursion limit.
The transposition table lives for a single query; concurrent queries share
nothing.

Plain win/lose search only: outcomes are all the downstream checks need, and
Sprague-Grundy values do not transfer to misere play anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .kernel import EGEO, VGEO, CapacityError, Convention, Move, Position, _Engine

DEFAULT_BUDGET = 10_000_000

#: Bitset encodings are contractually capped; beyond this a query must fail
#: loudly instead of silently truncating.
BITSET_CAP = 128


class Outcome(Enum):
    N = "N"
    P = "P"


class BudgetExhausted(RuntimeError):
    """The state budget ran out before the answer was known."""


@dataclass(frozen=True)
class SolveReport:
    outcome: Outcome | None
    principal_move: Move | None
    states_expanded: int
    budget_exhausted: bool


@dataclass(frozen=True)
class Policy:
    """Deterministic move advice for the winning side of an N position.

    `choose` must be a pure function of the `Position` it is given: the
    strategy certifier asks it once per distinct position and reuses the
    answer wherever that position recurs.
    """

    choose: Callable[[Position], Move]
    provenance: str  # matching-following | loop-stalling | exhaustive


def _root_engine(p: Position) -> _Engine:
    if p.variant == VGEO and p.graph.n > BITSET_CAP:
        raise CapacityError(f"vgeo bitset limited to {BITSET_CAP} vertices")
    if p.variant == EGEO and len(p.graph.edges) > BITSET_CAP:
        raise CapacityError(f"egeo bitset limited to {BITSET_CAP} arcs")
    return _Engine(p)


def state_key(p: Position) -> int:
    """Packed key of `p` on the engine rooted at `p`.

    Injective among positions that share a root engine; a descendant's key
    in a table must come from the root's engine, since the nimg field width
    follows the root's weights.
    """
    return _root_engine(p).key(p)


def _solve_packed(engine: _Engine, root_key: int, mover_wins_terminal: bool,
                  budget: int, table: dict | None = None):
    """Iterative negamax over packed keys.

    Returns (win, expanded, table) where `win` is True iff the player to move
    at `root_key` wins, or None when the budget ran out first.  A frame is
    ``[key, remaining move bits]``, the bits None until the key is expanded.
    """
    if table is None:
        table = {}
    if root_key in table:
        return table[root_key], 0, table
    move_bits, child, get = engine.move_bits, engine.child, table.get
    expanded = 0
    stack = [[root_key, None]]
    while stack:
        frame = stack[-1]
        key, rem = frame
        if rem is None:
            if expanded >= budget:
                return None, expanded, table
            expanded += 1
            rem = move_bits(key)
            win = not rem and mover_wins_terminal
        else:  # every child taken so far wins for the opponent
            win = False
        while rem:
            bit = rem & -rem
            rem ^= bit
            c = child(key, bit)
            r = get(c)
            if r is None:
                frame[1] = rem
                stack.append([c, None])
                break
            if not r:  # canonically-first child that loses for the opponent
                win = True
                break
        else:
            table[key] = win
            stack.pop()
            if not win and stack:  # the parent's newest child lost: it wins
                table[stack.pop()[0]] = True
            continue
        if win:
            table[key] = True
            stack.pop()
    return table[root_key], expanded, table


def solve(p: Position, c: Convention, budget: int = DEFAULT_BUDGET) -> SolveReport:
    report, _ = solve_with_table(p, c, budget)
    return report


def solve_with_table(p: Position, c: Convention, budget: int = DEFAULT_BUDGET):
    """Like solve(), but also returns the transposition table for inspection.

    Table keys come from the root engine, `_Engine(p).key`.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    engine = _root_engine(p)
    root = engine.key(p)
    mover_wins_terminal = c is Convention.MISERE
    win, expanded, table = _solve_packed(engine, root, mover_wins_terminal, budget)
    if win is None:
        return SolveReport(None, None, expanded, True), table
    principal = engine.first(root, lambda child: table.get(child) is False) if win else None
    outcome = Outcome.N if win else Outcome.P
    return SolveReport(outcome, principal, expanded, False), table


def extract_strategy(p: Position, c: Convention, budget: int = DEFAULT_BUDGET) -> Policy:
    """Winning policy for the mover at `p`; usage error unless solve(p,c) = N.

    Raises BudgetExhausted when `budget` states do not settle the root, and
    its policy raises it when they do not settle a queried position.

    The returned policy owns a private transposition table shared across its
    own queries, and answers with the canonically-first winning move.
    """
    engine = _root_engine(p)
    root = engine.key(p)
    mover_wins_terminal = c is Convention.MISERE
    table: dict = {}
    win, _, _ = _solve_packed(engine, root, mover_wins_terminal, budget, table)
    if win is None:
        raise BudgetExhausted("budget exhausted before the root position was solved")
    if not win:
        raise ValueError("extract_strategy requires an N position")

    def lost(child: int) -> bool:
        r = table.get(child)
        if r is None:
            r, _, _ = _solve_packed(engine, child, mover_wins_terminal, budget, table)
            if r is None:
                raise BudgetExhausted("budget exhausted while advising a move")
        return not r

    def choose(q: Position) -> Move:
        move = engine.first(engine.key(q), lost)
        if move is None:
            raise ValueError("no winning move: position is not an N position")
        return move

    return Policy(choose, "exhaustive")
