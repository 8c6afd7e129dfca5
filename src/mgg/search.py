"""Exhaustive N/P solver: memoized depth-first search over packed states.

Positions are encoded per variant -- nimg games as ``(weights, pointer)``,
vertex geography as ``(live-vertex bitset, token)`` and edge geography as
``(live-arc bitset, token)`` -- and the search runs iteratively on those
encodings, so deep playouts cannot hit the interpreter recursion limit.  The
transposition table lives for a single query; concurrent queries share
nothing.

Plain win/lose search only: outcomes are all the downstream checks need, and
Sprague-Grundy values do not transfer to misere play anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .graphs import Graph
from .kernel import EGEO, NIMG_MR, NIMG_RM, VGEO, Convention, Move, Position

DEFAULT_BUDGET = 10_000_000

#: Bitset encodings are contractually capped; beyond this a query must fail
#: loudly instead of silently truncating.
BITSET_CAP = 128


class Outcome(Enum):
    N = "N"
    P = "P"


class CapacityError(RuntimeError):
    pass


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


def _egeo_out_arcs(g: Graph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per-vertex (destination, arc index) lists, ascending by destination."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        out[u].append((v, i))
        if not g.directed and u != v:
            out[v].append((u, i))
    return tuple(tuple(sorted(lst)) for lst in out)


def state_key(p: Position):
    """Canonical packed encoding, injective among positions sharing a root."""
    if p.variant == VGEO and p.graph.n > BITSET_CAP:
        raise CapacityError(f"vgeo bitset limited to {BITSET_CAP} vertices")
    if p.variant == EGEO and len(p.graph.edges) > BITSET_CAP:
        raise CapacityError(f"egeo bitset limited to {BITSET_CAP} arcs")
    return _pack(p)


def _pack(p: Position):
    """`state_key` without the bitset cap, for walks that never index a table."""
    if p.variant in (NIMG_RM, NIMG_MR):
        return (p.weights, p.current)
    if p.variant == VGEO:
        mask = (1 << p.graph.n) - 1
        for v in p.removed_vertices:
            mask &= ~(1 << v)
        return (mask, p.current)
    mask = (1 << len(p.graph.edges)) - 1
    if p.removed_edges:
        index = {e: i for i, e in enumerate(p.graph.edges)}
        for e in p.removed_edges:
            mask &= ~(1 << index[e])
    return (mask, p.current)


class _Engine:
    """Successor generation over packed keys for one variant/graph pair.

    The engine itself has no size cap: the bitset contract is enforced by
    `state_key` and the search entry points, so the strategy certifier can
    walk geography positions of any size.
    """

    def __init__(self, variant: str, graph: Graph):
        self.variant = variant
        self.graph = graph
        self.adj = graph.adjacency
        if variant == EGEO:
            self.out_arcs = _egeo_out_arcs(graph)

    key = staticmethod(_pack)

    def succ(self, key) -> list:
        variant = self.variant
        if variant == NIMG_RM:
            wts, cur = key
            w = wts[cur]
            if w == 0:
                return []
            head, tail = wts[:cur], wts[cur + 1 :]
            nbrs = self.adj[cur] or (cur,)
            return [(head + (k,) + tail, v) for v in nbrs for k in range(w)]
        if variant == NIMG_MR:
            wts, cur = key
            out = []
            for v in self.adj[cur]:
                head, tail = wts[:v], wts[v + 1 :]
                out.extend((head + (k,) + tail, v) for k in range(wts[v]))
            return out
        if variant == VGEO:
            mask, cur = key
            child = mask & ~(1 << cur)
            return [(child, v) for v in self.adj[cur] if v != cur and mask >> v & 1]
        mask, cur = key
        return [
            (mask & ~(1 << i), v) for v, i in self.out_arcs[cur] if mask >> i & 1
        ]

    def moves(self, key) -> list[tuple[Move, object]]:
        """Canonically ordered (move, child key) pairs, decoded from succ(key).

        A nimg-rm child carries the new weight of the departed vertex, a
        nimg-mr child that of the destination; geography moves name only the
        destination.
        """
        children = self.succ(key)
        if self.variant == NIMG_RM:
            cur = key[1]
            return [(Move(v, wts[cur]), (wts, v)) for wts, v in children]
        if self.variant == NIMG_MR:
            return [(Move(v, wts[v]), (wts, v)) for wts, v in children]
        return [(Move(child[1]), child) for child in children]

    def position(self, key) -> Position:
        """The full position a key encodes, on this engine's graph."""
        g = self.graph
        if self.variant in (NIMG_RM, NIMG_MR):
            wts, cur = key
            return Position(self.variant, g, cur, wts)
        mask, cur = key
        if self.variant == VGEO:
            dead = frozenset(v for v in range(g.n) if not mask >> v & 1)
            return Position(VGEO, g, cur, removed_vertices=dead)
        dead = frozenset(e for i, e in enumerate(g.edges) if not mask >> i & 1)
        return Position(EGEO, g, cur, removed_edges=dead)


def _solve_packed(engine: _Engine, root_key, mover_wins_terminal: bool,
                  budget: int, table: dict | None = None):
    """Iterative negamax over packed keys.

    Returns (win, expanded, table) where `win` is True iff the player to move
    at `root_key` wins, or None when the budget ran out first.
    """
    if table is None:
        table = {}
    succ = engine.succ
    expanded = 0
    stack = [[root_key, None, 0]]
    while stack:
        frame = stack[-1]
        key, children, idx = frame
        if children is None:
            if key in table:
                stack.pop()
                continue
            if expanded >= budget:
                return None, expanded, table
            expanded += 1
            children = succ(key)
            frame[1] = children
            if not children:
                table[key] = mover_wins_terminal
                stack.pop()
                continue
        decided = False
        total = len(children)
        while idx < total:
            r = table.get(children[idx])
            if r is None:
                frame[2] = idx
                stack.append([children[idx], None, 0])
                decided = True
                break
            if r is False:
                # canonically-first child that loses for the opponent
                table[key] = True
                stack.pop()
                decided = True
                break
            idx += 1
        if decided:
            continue
        table[key] = False
        stack.pop()
    return table[root_key], expanded, table


def solve(p: Position, c: Convention, budget: int = DEFAULT_BUDGET) -> SolveReport:
    report, _ = solve_with_table(p, c, budget)
    return report


def solve_with_table(p: Position, c: Convention, budget: int = DEFAULT_BUDGET):
    """Like solve(), but also returns the transposition table for inspection."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    root = state_key(p)
    engine = _Engine(p.variant, p.graph)
    mover_wins_terminal = c is Convention.MISERE
    win, expanded, table = _solve_packed(engine, root, mover_wins_terminal, budget)
    if win is None:
        return SolveReport(None, None, expanded, True), table
    principal = None
    if win:
        for move, child in engine.moves(root):
            if table.get(child) is False:
                principal = move
                break
    outcome = Outcome.N if win else Outcome.P
    return SolveReport(outcome, principal, expanded, False), table


def extract_strategy(p: Position, c: Convention, budget: int = DEFAULT_BUDGET) -> Policy:
    """Winning policy for the mover at `p`; usage error unless solve(p,c) = N.

    The returned policy owns a private transposition table shared across its
    own queries, and answers with the canonically-first winning move.
    """
    root = state_key(p)
    engine = _Engine(p.variant, p.graph)
    mover_wins_terminal = c is Convention.MISERE
    table: dict = {}
    win, _, _ = _solve_packed(engine, root, mover_wins_terminal, budget, table)
    if win is None:
        raise CapacityError("budget exhausted before the root position was solved")
    if not win:
        raise ValueError("extract_strategy requires an N position")

    def choose(q: Position) -> Move:
        for move, child in engine.moves(state_key(q)):
            r = table.get(child)
            if r is None:
                r, _, _ = _solve_packed(engine, child, mover_wins_terminal, budget, table)
                if r is None:
                    raise CapacityError("budget exhausted while advising a move")
            if r is False:
                return move
        raise ValueError("no winning move: position is not an N position")

    return Policy(choose, "exhaustive")
