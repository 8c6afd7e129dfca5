import math
import random

import pytest
from hypothesis import given, settings

from mgg.graphs import Bipartition, Graph, bipartition, build_graph, induced_subgraph
from mgg.matching import (
    Matching,
    covered_by_all_maximum_matchings,
    max_matching_bipartite,
    max_matching_bipartite_with_phases,
    max_matching_general,
)
from oracles import (
    MatchingCapacityError,
    brute_force_matching_size,
    covered_by_all_oracle,
    maximum_matchings,
    pairs,
    random_connected_bipartite,
    validate_matching,
)
from strategies import graphs


def petersen():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return build_graph("undirected", 10, edges)


def test_single_edge():
    g = build_graph("undirected", 2, [(0, 1)])
    assert pairs(max_matching_bipartite(g, bipartition(g))) == 1
    assert pairs(max_matching_general(g)) == 1
    assert brute_force_matching_size(g) == 1


def test_three_vertex_path():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    assert pairs(max_matching_bipartite(g, bipartition(g))) == 1


def test_complete_bipartite_three_three():
    g = build_graph("undirected", 6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert brute_force_matching_size(g) == 3  # oracle first
    assert pairs(max_matching_bipartite(g, bipartition(g))) == 3


def test_triangle_and_odd_cycles():
    tri = build_graph("undirected", 3, [(0, 1), (1, 2), (0, 2)])
    assert pairs(max_matching_general(tri)) == 1
    c5 = build_graph("undirected", 5, [(i, (i + 1) % 5) for i in range(5)])
    assert brute_force_matching_size(c5) == 2
    assert pairs(max_matching_general(c5)) == 2


def test_two_triangles_with_bridge():
    g = build_graph(
        "undirected", 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )
    assert brute_force_matching_size(g) == 3
    assert pairs(max_matching_general(g)) == 3


def test_petersen():
    g = petersen()
    assert brute_force_matching_size(g) == 5
    assert pairs(max_matching_general(g)) == 5


def test_empty_graph_brute_force():
    assert brute_force_matching_size(build_graph("undirected", 3, [])) == 0


def test_brute_force_cap():
    g = build_graph("undirected", 26, [(0, i) for i in range(1, 26)])
    with pytest.raises(MatchingCapacityError):
        brute_force_matching_size(g)


def test_validate_matching_rejects_bad_mate_maps():
    path = build_graph("undirected", 3, [(0, 1), (1, 2)])
    validate_matching(Matching((1, 0, None)), path)
    for mate in ((2, None, 0), (1, 2, 1), (0, None, None)):  # non-edge, asymmetric, self
        with pytest.raises(ValueError):
            validate_matching(Matching(mate), path)


def test_bipartite_rejects_bad_bipartition():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        max_matching_bipartite(g, Bipartition(frozenset({0, 1}), frozenset({2})))


def test_loops_are_stripped():
    g = build_graph("undirected", 2, [(0, 0), (0, 1)])
    assert pairs(max_matching_general(g)) == 1
    m = max_matching_general(g)
    assert m.mate[0] == 1 and m.mate[1] == 0


def test_matchers_search_the_graphs_own_adjacency(monkeypatch):
    # no private neighbour lists: every search gets the matched graph's
    # `adjacency`, loops and all, and the coverage query copies none for G - u
    import mgg.matching as matching

    seen = []  # (search, adjacency it was given)
    for name, adj_arg in (("_hopcroft_karp", 2), ("find_augmenting_path", 0)):
        def spy(*args, _orig=getattr(matching, name), _name=name, _i=adj_arg, **kw):
            seen.append((_name, args[_i]))
            return _orig(*args, **kw)

        monkeypatch.setattr(matching, name, spy)
    rng = random.Random(5)
    searches = set()
    for _ in range(40):
        n = rng.randrange(2, 9)
        cands = [(i, j) for i in range(n) for j in range(i, n)]
        g = build_graph("undirected", n, rng.sample(cands, rng.randrange(len(cands) + 1)))
        m = max_matching_general(g)
        for u in range(n):
            covered_by_all_maximum_matchings(g, u, m)
        b = bipartition(g)
        if b is not None:
            max_matching_bipartite(g, b)
        assert all(adj is g.adjacency for _, adj in seen)
        searches.update(name for name, _ in seen)
        seen.clear()
    assert searches == {"_hopcroft_karp", "find_augmenting_path"}


def test_matching_is_deterministic():
    g = petersen()
    assert max_matching_general(g) == max_matching_general(g)
    b = Bipartition(frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    h = build_graph("undirected", 6, [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)])
    assert max_matching_bipartite(h, b) == max_matching_bipartite(h, b)


def test_covered_examples():
    edge = build_graph("undirected", 2, [(0, 1)])
    assert covered_by_all_maximum_matchings(edge, 0, max_matching_general(edge))
    path = build_graph("undirected", 3, [(0, 1), (1, 2)])
    assert covered_by_all_oracle(path, 0) is False  # enumeration oracle
    assert covered_by_all_oracle(path, 1) is True
    m = max_matching_general(path)
    assert not covered_by_all_maximum_matchings(path, 0, m)
    assert covered_by_all_maximum_matchings(path, 1, m)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=7, allow_loops=True))
def test_covered_matches_enumeration(g):
    live = [e for e in g.edges if e[0] != e[1]]
    if len(live) > 14:
        return
    m = max_matching_general(g)
    for u in range(g.n):
        assert covered_by_all_maximum_matchings(g, u, m) == covered_by_all_oracle(g, u)


def _disjoint_union(g, h):
    edges = list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    return build_graph("undirected", g.n + h.n, edges)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=5, allow_loops=True), graphs(max_n=4, allow_loops=True))
def test_coverage_from_the_callers_matching(g, h):
    # one maximum matching from either matcher, on g and on a disconnected union
    for graph in (g, _disjoint_union(g, h)):
        matchings = [max_matching_general(graph)]
        b = bipartition(graph)
        if b is not None:
            matchings.append(max_matching_bipartite(graph, b))
        for u in range(graph.n):
            expected = covered_by_all_oracle(graph, u)
            for m in matchings:
                assert covered_by_all_maximum_matchings(graph, u, m) == expected


@settings(max_examples=250, deadline=None)
@given(graphs(max_n=8, allow_loops=True))
def test_matchers_agree_with_brute_force(g):
    if len([e for e in g.edges if e[0] != e[1]]) > 24:
        return  # beyond the enumeration oracle's cap
    expected = brute_force_matching_size(g)
    general = max_matching_general(g)
    validate_matching(general, g)
    assert pairs(general) == expected
    b = bipartition(g)
    if b is not None:
        hk = max_matching_bipartite(g, b)
        validate_matching(hk, g)
        assert pairs(hk) == expected


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7))
def test_maximum_matchings_enumeration_consistency(g):
    # the enumeration oracle itself agrees with the engines on cardinality
    live = [e for e in g.edges if e[0] != e[1]]
    if len(live) > 12:
        return
    best = maximum_matchings(g)
    assert len(best[0]) == pairs(max_matching_general(g))


def test_phase_bound_on_random_graphs():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 40)
        half = n // 2 or 1
        cands = [(i, half + j) for i in range(half) for j in range(n - half)]
        m = rng.randrange(0, len(cands) + 1)
        g = build_graph("undirected", n, rng.sample(cands, m))
        b = bipartition(g)
        _, phases = max_matching_bipartite_with_phases(g, b)
        assert phases <= 2 * math.isqrt(n) + 2


def test_isolated_roots_start_no_search(monkeypatch):
    # an exposed vertex without an edge has no augmenting path, so the
    # general matcher starts no blossom search there: the vertices an
    # induced subgraph leaves without edges cost no O(n) search each
    import mgg.matching as matching

    roots = []

    def counted(adj, match, root, *args, _orig=matching.find_augmenting_path):
        roots.append(root)
        return _orig(adj, match, root, *args)

    monkeypatch.setattr(matching, "find_augmenting_path", counted)
    m = max_matching_general(Graph(2000, ((0, 1),)))
    assert roots == []
    assert m.mate[:3] == (1, 0, None)


def test_isolated_vertices_add_no_phase():
    # an induced subgraph keeps the dropped vertices as isolated ones; on the
    # dense copy of the kept vertices Hopcroft-Karp runs the same phases and
    # pairs the same vertices, so the phase gate measures the same search
    rng = random.Random(17)
    most_phases = 0
    for _ in range(400):
        g = random_connected_bipartite(rng.randrange(2, 40), rng)
        keep = [v for v in range(g.n) if rng.random() >= 0.3]
        sub = induced_subgraph(g, keep)
        new = {v: i for i, v in enumerate(keep)}
        dense = build_graph("undirected", len(keep),
                            [(new[u], new[v]) for u, v in sub.edges])
        m, phases = max_matching_bipartite_with_phases(sub, bipartition(sub))
        dm, dense_phases = max_matching_bipartite_with_phases(dense, bipartition(dense))
        assert dense_phases == phases
        mapped = [None] * g.n
        for u, v in enumerate(dm.mate):
            if v is not None:
                mapped[keep[u]] = keep[v]
        assert m.mate == tuple(mapped)
        most_phases = max(most_phases, phases)
    assert most_phases >= 2
