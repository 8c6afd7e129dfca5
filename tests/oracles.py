"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: plain recursion, full enumeration.
None of it shares code with the solvers under test.
"""

from __future__ import annotations

import random

from mgg.graphs import Graph, build_graph
from mgg.kernel import Convention, Position, apply_move, legal_moves
from mgg.polysolve import StrategyBreakdown
from mgg.search import Policy


def naive_outcome(p: Position, c: Convention) -> str:
    """Unmemoized game-tree recursion; 'N' or 'P'."""
    moves = legal_moves(p)
    if not moves:
        return "N" if c is Convention.MISERE else "P"
    for m in moves:
        if naive_outcome(apply_move(p, m), c) == "P":
            return "N"
    return "P"


def naive_certify(p: Position, c: Convention, policy: Policy) -> bool:
    """Certify `policy` for the mover at `p` by walking the full game tree.

    Plain recursion with no transposition handling.  The policy wins iff
    every line ends at a terminal where the adversary is to move and loses
    under `c`; an illegal move or a StrategyBreakdown loses.
    """

    def wins(pos: Position, policy_to_move: bool) -> bool:
        moves = legal_moves(pos)
        if not moves:
            # the stuck player loses under normal play and wins under misere
            return policy_to_move == (c is Convention.MISERE)
        if not policy_to_move:
            return all(wins(apply_move(pos, m), True) for m in moves)
        try:
            move = policy.choose(pos)
        except StrategyBreakdown:
            return False
        return move in moves and wins(apply_move(pos, move), False)

    return wins(p, True)


def count_reachable(p: Position, limit: int = 10_000) -> int:
    """Number of distinct reachable positions (bounded breadth-first walk)."""
    seen = {p}
    frontier = [p]
    while frontier:
        q = frontier.pop()
        for m in legal_moves(q):
            r = apply_move(q, m)
            if r not in seen:
                seen.add(r)
                frontier.append(r)
                if len(seen) > limit:
                    return len(seen)
    return len(seen)


def all_matchings(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Every matching of g (loops skipped), as edge sets."""
    edges = [e for e in g.edges if e[0] != e[1]]
    found: list[frozenset[tuple[int, int]]] = []

    def grow(i: int, used: set[int], chosen: list[tuple[int, int]]):
        if i == len(edges):
            found.append(frozenset(chosen))
            return
        grow(i + 1, used, chosen)
        u, v = edges[i]
        if u not in used and v not in used:
            grow(i + 1, used | {u, v}, chosen + [(u, v)])

    grow(0, set(), [])
    return found


def maximum_matchings(g: Graph) -> list[frozenset[tuple[int, int]]]:
    everything = all_matchings(g)
    best = max(len(m) for m in everything)
    return [m for m in everything if len(m) == best]


def covered_by_all_oracle(g: Graph, u: int) -> bool:
    return all(any(u in e for e in m) for m in maximum_matchings(g))


def odd_closed_walk_exists(g: Graph) -> bool:
    """Exhaustive odd-cycle search (loop = odd cycle of length one)."""
    if any(u == v for u, v in g.edges):
        return True
    adj = g.adjacency

    def dfs(start: int, v: int, length: int, visited: set[int]) -> bool:
        for w in adj[v]:
            if w == start and length % 2 == 0:  # closing edge makes it odd
                return True
            if w not in visited and w > start:
                if dfs(start, w, length + 1, visited | {w}):
                    return True
        return False

    return any(dfs(s, s, 0, {s}) for s in range(g.n))


def random_connected_bipartite(n: int, rng: random.Random) -> Graph:
    """Random tree plus extra class-crossing edges: connected and bipartite."""
    color = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
        color[v] = 1 - color[u]
    extra = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if color[i] != color[j] and (i, j) not in edges
    ]
    rng.shuffle(extra)
    edges += extra[: rng.randrange(len(extra) + 1)]
    return build_graph("undirected", n, edges)
