"""Exhaustive N/P solver: memoized depth-first search over packed int states.

Each query builds one `mgg.kernel._Engine` from its root position; the move
rules live there, and every reachable position is one packed int key.  The
search takes one child at a time from ``move_bits(key)`` (``rem & -rem``), so
a won state never builds the children after its first losing one.  A table
entry is one key; vgeo keys merge at cut vertices (`mgg.kernel._Engine`).  It runs
iteratively, so deep playouts cannot hit the interpreter recursion limit.
Every query builds its own transposition table and drops it with the answer
(`solve_with_table` hands it back for inspection); no two queries share one.

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


@dataclass(frozen=True)
class SolveReport:
    outcome: Outcome | None
    principal_move: Move | None
    states_expanded: int

    @property
    def budget_exhausted(self) -> bool:
        return self.outcome is None


class StrategyBreakdown(RuntimeError):
    """A policy has no move to offer at the position it was asked about."""


@dataclass(frozen=True)
class Policy:
    """Deterministic move advice for the winning side of an N position.

    ``choose(current, position)`` gets the token's vertex at once; calling
    ``position()`` builds the full `Position`, so a policy calls it only when
    it needs more than the current vertex.  It returns a `Move` or raises
    StrategyBreakdown; it need not check that the move is legal, since the
    certifier (`mgg.arena.verify_strategy`) rejects an illegal one and the
    CLI asks only at an N position.  The answer must be a pure function of
    that position: the certifier asks once per distinct engine key and
    reuses the answer wherever that key recurs.
    """

    choose: Callable[[int, Callable[[], Position]], Move]
    provenance: str  # the library makes matching-following and loop-stalling

    def at(self, q: Position) -> Move:
        """The policy's move at `q`."""
        return self.choose(q.current, lambda: q)


def _root_engine(p: Position) -> _Engine:
    if p.variant == VGEO and p.graph.n > BITSET_CAP:
        raise CapacityError(f"vgeo bitset limited to {BITSET_CAP} vertices")
    if p.variant == EGEO and len(p.graph.edges) > BITSET_CAP:
        raise CapacityError(f"egeo bitset limited to {BITSET_CAP} arcs")
    return _Engine(p)


def _solve_packed(engine: _Engine, root_key: int, mover_wins_terminal: bool, budget: int):
    """Iterative negamax over packed keys.

    Returns (win, expanded, table) where `win` is True iff the player to move
    at `root_key` wins, or None when the budget ran out first.  A frame is
    ``[key, remaining move bits]``, the bits None until the key is expanded.
    """
    table = {}
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
            c = child(key, bit.bit_length() - 1)
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

    Table keys are those of the root engine, `_Engine(p)`.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    engine = _root_engine(p)
    root = engine.root
    mover_wins_terminal = c is Convention.MISERE
    win, expanded, table = _solve_packed(engine, root, mover_wins_terminal, budget)
    if win is None:
        return SolveReport(None, None, expanded), table
    principal = engine.first(root, lambda child: table.get(child) is False) if win else None
    outcome = Outcome.N if win else Outcome.P
    return SolveReport(outcome, principal, expanded), table

