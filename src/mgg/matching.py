"""Maximum-cardinality matching.

Two routes with one result type:

* layered augmenting-path matching (BFS phases + disjoint shortest-path
  extraction) for bipartite graphs, O(sqrt(V) * E);
* blossom contraction for general graphs, O(V^3)-class -- correctness over
  speed, since only bipartite inputs carry the fast-bound claim.

The coverage query "does every maximum matching cover u?" takes the
caller's maximum matching and one more blossom search, rooted at u's mate in
G - u (`covered_by_all_maximum_matchings`), so a solver computes one maximum
matching and uses it for both its criterion and its policy.  The general
matcher and the coverage query share `find_augmenting_path`: a blossom
contraction rebases the members of the blossom only, not every vertex, so
a search costs in proportion to the tree it grows.

Every matcher reads the graph's own `Graph.adjacency`.  A loop can never
be in a matching: the searches skip it, and a bipartition admits none.
The coverage query searches G - u on that same adjacency, with u hidden
from the search rather than copied out.  Augmenting searches scan vertices
in ascending order, and a contraction queues the blossom's new outer
vertices in ascending order, so every route is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Bipartition, Graph

_INF = float("inf")


@dataclass(frozen=True)
class Matching:
    """Symmetric pairing: mate[u] is u's partner or None."""

    mate: tuple[int | None, ...]


def _require_undirected(g: Graph) -> None:
    if g.directed:
        raise ValueError("matching is defined for undirected graphs")


def _check_bipartition(g: Graph, b: Bipartition) -> None:
    if b.left & b.right or (b.left | b.right) != set(range(g.n)):
        raise ValueError("bipartition does not partition the vertex set")
    for u, v in g.edges:
        if (u in b.left) == (v in b.left):
            raise ValueError(f"edge ({u},{v}) does not join the two sides")


def _mate_array(match: list[int]) -> tuple[int | None, ...]:
    return tuple(v if v >= 0 else None for v in match)


def _hopcroft_karp(n: int, left: list[int], adj: tuple[tuple[int, ...], ...]):
    """Layered phase matching; returns (match array, phase count)."""
    match = [-1] * n
    for u in left:  # greedy start trims phases without affecting the bound
        for v in adj[u]:
            if match[v] < 0:
                match[u] = v
                match[v] = u
                break
    dist = [_INF] * n
    phases = 0
    while True:
        # BFS layering from the free left vertices
        queue = deque()
        for u in left:
            if match[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        free_dist = _INF
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du >= free_dist:
                continue
            for v in adj[u]:
                w = match[v]
                if w < 0:
                    if free_dist is _INF:
                        free_dist = du + 1
                elif dist[w] is _INF:
                    dist[w] = du + 1
                    queue.append(w)
        if free_dist is _INF:
            break
        phases += 1
        # extract a maximal set of vertex-disjoint shortest augmenting paths
        it = [0] * n
        for s in left:
            if match[s] >= 0:
                continue
            stack = [s]
            vpath: list[int] = []
            while stack:
                u = stack[-1]
                du = dist[u]
                moved = False
                while it[u] < len(adj[u]):
                    v = adj[u][it[u]]
                    it[u] += 1
                    w = match[v]
                    if w < 0:
                        if du + 1 == free_dist:
                            vpath.append(v)
                            for uu, vv in zip(stack, vpath):
                                match[uu] = vv
                                match[vv] = uu
                            stack = []
                            moved = True
                            break
                    elif dist[w] == du + 1:
                        vpath.append(v)
                        stack.append(w)
                        moved = True
                        break
                if moved:
                    continue
                dist[u] = _INF
                stack.pop()
                if vpath:
                    vpath.pop()
    return match, phases


def max_matching_bipartite(g: Graph, b: Bipartition) -> Matching:
    return max_matching_bipartite_with_phases(g, b)[0]


def max_matching_bipartite_with_phases(g: Graph, b: Bipartition) -> tuple[Matching, int]:
    """Layered-phase maximum matching of `g` across `b`, and its phase count."""
    _require_undirected(g)
    _check_bipartition(g, b)
    match, phases = _hopcroft_karp(g.n, sorted(b.left), g.adjacency)
    return Matching(_mate_array(match)), phases


def find_augmenting_path(
    adj: tuple[tuple[int, ...], ...], match: list[int], root: int, hidden: int | None = None
) -> list[int] | None:
    """Edmonds' blossom search for an augmenting path from exposed `root`.

    `adj` is a graph's `Graph.adjacency`, whose loops the search skips, and
    `match[v]` is v's mate or -1.  The search runs on G - `hidden`, for an
    exposed vertex `hidden`: giving it a parent before the search starts
    keeps the search from ever entering it.  Returns the path as ``[end,
    p(end), ..., root]``, where flipping each pair ``(path[2i],
    path[2i+1])`` to matched augments `match`, or None when no augmenting
    path starts at `root`.  `match` is not modified.  A contraction
    rebases only the members of the blossom it contracts, in ascending id
    order.
    """
    n = len(adj)
    parent = [-1] * n
    if hidden is not None:
        parent[hidden] = hidden
    base = list(range(n))
    used = [False] * n  # outer vertices, the ones queued for scanning
    used[root] = True
    members: dict[int, list[int]] = {}  # contracted base -> vertices with that base
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] < 0:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, ancestor: int, child: int, blossom: set[int]) -> None:
        while base[v] != ancestor:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] >= 0 and parent[match[to]] >= 0):
                # odd cycle: contract the blossom around the common base
                ancestor = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, ancestor, to, blossom)
                mark_path(to, ancestor, v, blossom)
                # the ancestor's own members are outer already and keep their base
                blossom.discard(ancestor)
                absorbed = sorted([i for b in blossom for i in members.pop(b, (b,))])
                for i in absorbed:
                    base[i] = ancestor
                    if not used[i]:
                        used[i] = True
                        queue.append(i)
                members.setdefault(ancestor, [ancestor]).extend(absorbed)
            elif parent[to] < 0:
                parent[to] = v
                if match[to] < 0:
                    path = []
                    while to >= 0:
                        path += (to, parent[to])
                        to = match[parent[to]]
                    return path
                used[match[to]] = True
                queue.append(match[to])
    return None


def max_matching_general(g: Graph) -> Matching:
    """Blossom-contraction matching on an arbitrary undirected graph."""
    _require_undirected(g)
    adj = g.adjacency
    match = [-1] * g.n
    for u in range(g.n):  # deterministic greedy seed
        if match[u] < 0:
            for v in adj[u]:
                if v != u and match[v] < 0:
                    match[u] = v
                    match[v] = u
                    break
    for root in range(g.n):
        if match[root] < 0 and adj[root]:  # an isolated root has no path
            path = find_augmenting_path(adj, match, root) or ()
            for a, b in zip(path[::2], path[1::2]):
                match[a] = b
                match[b] = a
    return Matching(_mate_array(match))


def covered_by_all_maximum_matchings(g: Graph, u: int, matching: Matching) -> bool:
    """True iff every maximum matching of `g` covers u, i.e. nu(G - u) < nu(G).

    `matching` is a maximum matching M of `g` that the caller computed;
    the answer needs no second one.  If M misses u, the answer is False.
    Otherwise let u' be u's mate and M' = M - uu',
    a matching of G - u of size nu(G) - 1.  Since nu(G - u) >= nu(G) - 1, u
    is covered by every maximum matching iff M' is maximum in G - u, iff
    (Berge) G - u has no M'-augmenting path.  The vertices M' leaves exposed
    in G - u are those M leaves exposed, plus u'.  A path between two
    M-exposed vertices has M'-matched inner vertices, so it avoids u' (and
    u), alternates with respect to M as well and would augment M in G,
    contradicting maximality: every M'-augmenting path ends at u'.  So one
    blossom search rooted at u' decides (Edmonds).  On bipartite graphs that
    search never meets an odd cycle and costs O(V + E), so the bipartite
    solver keeps its O(sqrt(V) * E) bound.
    """
    _require_undirected(g)
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} outside graph")
    mate = matching.mate[u]
    if mate is None:
        return False
    match = [-1 if v is None else v for v in matching.mate]
    match[u] = match[mate] = -1
    return find_augmenting_path(g.adjacency, match, mate, hidden=u) is None

