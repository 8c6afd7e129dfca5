"""Immutable graph container and structural queries.

Vertices are dense integers ``0..n-1``.  Undirected edges are stored as
``(min, max)`` pairs, directed arcs as ordered pairs; a pair ``(u, u)`` is a
loop.  Parallel edges are rejected at construction.  All query functions are
pure, so graphs can be shared freely between concurrent solver runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

UNDIRECTED = "undirected"
DIRECTED = "directed"

#: Per-vertex token counts, indexed by vertex id.
WeightMap = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]
    directed: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = []
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) has endpoint outside [0,{self.n})")
            if not self.directed and u > v:
                u, v = v, u
            canon.append((u, v))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge ({a[0]},{a[1]})")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def kind(self) -> str:
        return DIRECTED if self.directed else UNDIRECTED

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbours per vertex, ascending.  A loop lists u in adj[u] once.

        For undirected graphs this is the ordinary (symmetric) adjacency.  It
        is the one neighbour structure: the structural queries, the solvers
        and every matcher read it.  The edge list is sorted and duplicate-free,
        so appending in edge order builds each list in ascending order.
        """
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            if not self.directed and u != v:
                nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @cached_property
    def loop_vertices(self) -> frozenset[int]:
        return frozenset(u for u, v in self.edges if u == v)


def build_graph(kind: str, n: int, edges) -> Graph:
    """Validated construction; `kind` is ``undirected`` or ``directed``."""
    if kind not in (UNDIRECTED, DIRECTED):
        raise ValueError(f"unknown graph kind {kind!r}")
    return Graph(n, tuple(edges), directed=(kind == DIRECTED))


def validate_weights(g: Graph, w) -> WeightMap:
    w = tuple(w)
    if len(w) != g.n:
        raise ValueError(f"weight map covers {len(w)} vertices, graph has {g.n}")
    if w and min(w) < 0:
        raise ValueError("weights must be non-negative")
    return w


@dataclass(frozen=True)
class Bipartition:
    left: frozenset[int]
    right: frozenset[int]


def bipartition(g: Graph) -> Bipartition | None:
    """Two-colour `g` by BFS, component roots going left.

    Returns None exactly when an odd closed walk exists (odd cycle, or a loop,
    which is an odd cycle of length one).
    """
    if g.directed:
        raise ValueError("bipartition is defined for undirected graphs")
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if v == u:
                    return None
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return Bipartition(
        frozenset(u for u in range(g.n) if color[u] == 0),
        frozenset(u for u in range(g.n) if color[u] == 1),
    )


def cut_vertices(g: Graph) -> frozenset[int]:
    """Vertices whose removal adds a component: one iterative DFS (Tarjan, 1972)."""
    if g.directed:
        raise ValueError("cut_vertices is defined for undirected graphs")
    adj = g.adjacency
    disc, low, hits, t = [0] * g.n, [0] * g.n, [0] * g.n, 0  # disc 0: unvisited
    for root in range(g.n):
        if disc[root]:
            continue
        t = disc[root] = low[root] = t + 1
        hits[root] = -1  # a root needs two DFS children
        u, it = root, iter(adj[root])
        stack = [(u, it)]
        while stack:
            for v in it:
                if not disc[v]:
                    t = disc[v] = low[v] = t + 1
                    u, it = v, iter(adj[v])
                    stack.append((u, it))
                    break
                if disc[v] < low[u]:  # a back edge (or the tree edge up)
                    low[u] = disc[v]
            else:  # u is done: fold its low into its DFS parent's
                stack.pop()
                if stack:
                    lu = low[u]
                    u, it = stack[-1]
                    if lu < low[u]:
                        low[u] = lu
                    if lu >= disc[u]:  # no back edge from u's subtree above u
                        hits[u] += 1
    return frozenset(u for u, h in enumerate(hits) if h > 0)


def induced_subgraph(g: Graph, keep) -> Graph:
    """The graph on the same vertex ids with only the edges inside `keep`.

    A vertex outside `keep` stays, with no edge, so every id still names
    the same vertex.  Keeping every vertex returns `g` itself.
    """
    kept = [False] * g.n
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError("keep set contains vertices outside the graph")
        kept[v] = True
    if all(kept):
        return g
    edges = [(u, v) for u, v in g.edges if kept[u] and kept[v]]
    return Graph(g.n, tuple(edges), g.directed)


def connected_component(g: Graph, u: int) -> set[int]:
    """Vertices reachable from `u` in an undirected graph."""
    if g.directed:
        raise ValueError("connected_component is defined for undirected graphs")
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} outside [0,{g.n})")
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen
