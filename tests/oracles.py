"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: plain recursion, full enumeration.
The game-tree references walk the package's reference rules,
`mgg.kernel.legal_moves` and `apply_move`, which read and rebuild
`Position` fields directly and share no code with the engine behind the
solvers.  The matching references enumerate edge subsets and check a mate
map against the edge list, without the package's matchers.
"""

from __future__ import annotations

import random

from mgg.graphs import Graph, build_graph
from mgg.kernel import Convention, Position, apply_move, legal_moves
from mgg.matching import Matching
from mgg.search import Policy, StrategyBreakdown


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
            move = policy.at(pos)
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


def reachable_part(q: Position) -> Position:
    """`q` with only the edges of the vertices the token can reach
    (breadth-first from `q.current`); every vertex id stays."""
    adj = q.graph.adjacency
    seen, queue = {q.current}, [q.current]
    while queue:
        for v in adj[queue.pop()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    edges = tuple(e for e in q.graph.edges if e[0] in seen and e[1] in seen)
    return Position(q.variant, Graph(q.graph.n, edges, q.graph.directed), q.current, q.weights)


def is_cut_vertex(g: Graph, v: int) -> bool:
    """Brute force: removing `v` and its edges raises the number of
    components of the undirected graph `g`."""

    def components(without):
        label = list(range(g.n))

        def find(x):
            while label[x] != x:
                x = label[x]
            return x

        for a, b in g.edges:
            if without not in (a, b):
                label[find(a)] = find(b)
        return sum(find(x) == x for x in range(g.n) if x != without)

    return components(v) > components(None)


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


BRUTE_FORCE_EDGE_CAP = 24


class MatchingCapacityError(RuntimeError):
    pass


def brute_force_matching_size(g: Graph) -> int:
    """Exact nu(G) by enumeration over edge subsets (loops skipped)."""
    if g.directed:
        raise ValueError("matching is defined for undirected graphs")
    edges = [e for e in g.edges if e[0] != e[1]]
    m = len(edges)
    if m > BRUTE_FORCE_EDGE_CAP:
        raise MatchingCapacityError(
            f"brute force limited to {BRUTE_FORCE_EDGE_CAP} edges, got {m}"
        )
    best = 0
    stack = [(0, 0, 0)]  # (next edge index, used-vertex mask, size)
    while stack:
        i, used, size = stack.pop()
        if size + (m - i) <= best:
            continue
        if i == m:
            best = max(best, size)
            continue
        u, v = edges[i]
        stack.append((i + 1, used, size))
        bit = (1 << u) | (1 << v)
        if not used & bit:
            stack.append((i + 1, used | bit, size + 1))
    return best


def validate_matching(m: Matching, g: Graph) -> None:
    """Raise ValueError unless `m` pairs distinct ends of edges of `g`, symmetrically."""
    for u, v in enumerate(m.mate):
        if v is None:
            continue
        if m.mate[v] != u:
            raise ValueError(f"mate map not symmetric at {u}<->{v}")
        if u == v:
            raise ValueError(f"vertex {u} matched to itself")
        if (min(u, v), max(u, v)) not in g.edges:
            raise ValueError(f"matched pair ({u},{v}) is not an edge")


def pairs(m: Matching) -> int:
    """The number of matched pairs in `m`."""
    return sum(v is not None for v in m.mate) // 2


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
