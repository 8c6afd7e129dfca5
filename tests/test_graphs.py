import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mgg.graphs import (
    Bipartition,
    bipartition,
    build_graph,
    connected_component,
    cut_vertices,
    induced_subgraph,
)
from oracles import is_cut_vertex, odd_closed_walk_exists
from strategies import graphs


def test_single_isolated_vertex():
    g = build_graph("undirected", 1, [])
    assert g.n == 1
    assert g.edges == ()
    assert g.adjacency[0] == ()


def test_hub_graph_shape():
    # four vertices, the hub adjacent to everything else plus one outer edge
    g = build_graph("undirected", 4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    assert g.adjacency[1] == (0, 2, 3)
    assert (2, 3) in g.edges
    assert (0, 2) not in g.edges


def test_duplicate_directed_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_graph("directed", 2, [(0, 1), (0, 1)])


def test_reversed_duplicate_rejected_undirected():
    with pytest.raises(ValueError, match="duplicate"):
        build_graph("undirected", 2, [(0, 1), (1, 0)])


def test_reverse_arcs_coexist_when_directed():
    g = build_graph("directed", 2, [(0, 1), (1, 0)])
    assert g.adjacency[0] == (1,)
    assert g.adjacency[1] == (0,)


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError, match="outside"):
        build_graph("undirected", 2, [(0, 2)])


def test_loops_are_ordinary_edges():
    g = build_graph("undirected", 2, [(0, 0), (0, 1)])
    assert g.loop_vertices == frozenset({0})
    assert g.adjacency[0] == (0, 1)


@settings(max_examples=200)
@given(st.booleans().flatmap(lambda d: graphs(max_n=8, directed=d, allow_loops=True)))
def test_adjacency_matches_the_set_definition(g):
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        if not g.directed:
            nbrs[v].add(u)
    assert g.adjacency == tuple(tuple(sorted(s)) for s in nbrs)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=9, allow_loops=True))
def test_cut_vertices_match_brute_force(g):
    assert cut_vertices(g) == {v for v in range(g.n) if is_cut_vertex(g, v)}


def test_cut_vertices_examples():
    # two triangles sharing vertex 2, a pendant 5 on 4, a loop on 0, isolated 6
    g = build_graph("undirected", 7, [(0, 0), (0, 1), (0, 2), (1, 2), (2, 3), (2, 4),
                                      (3, 4), (4, 5)])
    assert cut_vertices(g) == {2, 4}
    with pytest.raises(ValueError):
        cut_vertices(build_graph("directed", 2, [(0, 1)]))


def test_bipartition_path():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    assert bipartition(g) == Bipartition(frozenset({0, 2}), frozenset({1}))


def test_bipartition_triangle_is_none():
    g = build_graph("undirected", 3, [(0, 1), (1, 2), (0, 2)])
    assert bipartition(g) is None


def test_bipartition_loop_is_none():
    g = build_graph("undirected", 2, [(0, 0), (0, 1)])
    assert bipartition(g) is None


def test_bipartition_rejects_directed():
    with pytest.raises(ValueError):
        bipartition(build_graph("directed", 2, [(0, 1)]))


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8, allow_loops=True))
def test_bipartition_iff_no_odd_closed_walk(g):
    b = bipartition(g)
    assert (b is None) == odd_closed_walk_exists(g)
    if b is not None:
        assert b.left | b.right == set(range(g.n))
        assert not b.left & b.right
        for u, v in g.edges:
            assert (u in b.left) != (v in b.left)


def test_induced_identity():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    sub = induced_subgraph(g, range(3))
    assert sub is g  # no copy of the same graph


def test_induced_triangle_pair():
    g = build_graph("undirected", 3, [(0, 1), (1, 2), (0, 2)])
    sub = induced_subgraph(g, {0, 1})
    assert sub.n == 3  # the same ids: vertex 2 stays, with no edge
    assert sub.edges == ((0, 1),)
    assert sub.adjacency[2] == ()
    for keep in ([0, 3], [-1]):
        with pytest.raises(ValueError, match="outside"):
            induced_subgraph(g, keep)


def test_induced_gadget_minus_entry():
    # the token-game arc gadget with the entry vertex drained away
    from mgg.reductions import reduce_vgeo_dir_to_nimgrm_misere

    src = build_graph("directed", 2, [(0, 1)])
    out = reduce_vgeo_dir_to_nimgrm_misere(src, 0)
    g = out.position.graph
    weights = list(out.position.weights)
    weights[out.name_map["X_0"]] = 0
    keep = {v for v, w in enumerate(weights) if w > 0}
    sub = induced_subgraph(g, keep)
    assert sub.n == g.n
    assert sub.adjacency[out.name_map["X_0"]] == ()
    # the gadget chain a-b-c-d and the exit edge survive intact
    a, b = out.name_map["a_(0,1)"], out.name_map["b_(0,1)"]
    assert _edge(a, b) in sub.edges


def _edge(u, v):
    """An undirected edge as `Graph.edges` stores it."""
    return (min(u, v), max(u, v))


@settings(max_examples=150)
@given(graphs(max_n=7, allow_loops=True), st.data())
def test_induced_preserves_adjacency(g, data):
    keep = data.draw(st.sets(st.integers(0, g.n - 1)))
    sub = induced_subgraph(g, keep)
    assert sub.n == g.n
    if len(keep) == g.n:
        assert sub is g
    sub_edges, g_edges = set(sub.edges), set(g.edges)
    for u in range(g.n):
        for v in range(g.n):
            lhs = _edge(u, v) in sub_edges
            assert lhs == (u in keep and v in keep and _edge(u, v) in g_edges)
    for u in set(range(g.n)) - keep:
        assert sub.adjacency[u] == ()


def test_component_isolated():
    g = build_graph("undirected", 2, [])
    assert connected_component(g, 0) == {0}


def test_component_path():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    assert connected_component(g, 0) == {0, 1, 2}


def test_component_two_edges():
    g = build_graph("undirected", 4, [(0, 1), (2, 3)])
    assert connected_component(g, 0) == {0, 1}
    assert connected_component(g, 3) == {2, 3}


@settings(max_examples=100)
@given(graphs(max_n=7))
def test_component_matches_reachability_closure(g):
    # closure oracle: repeatedly add any vertex adjacent to the set
    for start in range(g.n):
        closure = {start}
        changed = True
        while changed:
            changed = False
            for u, v in g.edges:
                if u in closure and v not in closure:
                    closure.add(v)
                    changed = True
                if v in closure and u not in closure:
                    closure.add(u)
                    changed = True
        assert connected_component(g, start) == closure
