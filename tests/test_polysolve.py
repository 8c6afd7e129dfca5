import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from mgg.arena import verify_strategy
from mgg.graphs import Graph, build_graph, induced_subgraph
from mgg.kernel import Convention, Move, Position
from mgg.polysolve import (
    NotApplicable,
    poly_solve,
    preprocess_positive,
    solve_bipartite_rm_misere,
    solve_loops_rm_misere,
    solve_vgeo_undirected_normal,
    solve_weight1_rm_misere,
)
from mgg.search import Outcome, Policy, StrategyBreakdown, solve
from oracles import naive_certify, odd_closed_walk_exists, random_connected_bipartite
from strategies import nimg_positions

MIS = Convention.MISERE
NORM = Convention.NORMAL


# ---------------------------------------------------------------- preprocess

def test_preprocess_identity_when_all_positive():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    p = Position("nimg-rm", g, 0, (1, 2, 1))
    q = preprocess_positive(p)
    assert q == p
    assert q.graph is g


def test_preprocess_drops_empty_leaves():
    star = build_graph("undirected", 4, [(0, 1), (0, 2), (0, 3)])
    p = Position("nimg-rm", star, 0, (2, 0, 1, 0))
    q = preprocess_positive(p)
    assert q.graph.n == 4  # the same ids: the empty leaves stay, with no edge
    assert q.graph.edges == ((0, 2),)
    assert q.weights == (2, 0, 1, 0)
    assert q.current == 0


def test_preprocess_rejects_terminal_start():
    g = build_graph("undirected", 2, [(0, 1)])
    with pytest.raises(ValueError):
        preprocess_positive(Position("nimg-rm", g, 0, (0, 1)))


@settings(max_examples=200, deadline=None)
@given(nimg_positions(max_n=6, wmax=2, min_weight=0, allow_loops=True))
def test_preprocess_preserves_misere_outcome(p):
    assume(p.weights[p.current] >= 1)
    # single documented corner: a start whose neighbours are all empty turns
    # into an isolated pile, which plays differently above one token
    neighbours = [v for v in p.graph.adjacency[p.current] if v != p.current]
    all_dead = bool(neighbours) and all(p.weights[v] == 0 for v in neighbours)
    has_live_loop = p.current in p.graph.loop_vertices
    assume(not (all_dead and not has_live_loop and p.weights[p.current] >= 2))
    q = preprocess_positive(p)
    assert solve(p, MIS).outcome == solve(q, MIS).outcome


def test_preprocess_corner_is_real():
    # pinned divergence: drained neighbourhood with two or more tokens left
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (2, 0))
    q = preprocess_positive(p)
    assert solve(p, MIS).outcome is Outcome.P  # every move is suicide
    assert solve(q, MIS).outcome is Outcome.N  # isolated pile of two


# ------------------------------------------------------------ vgeo, weight 1

def test_vgeo_single_edge():
    g = build_graph("undirected", 2, [(0, 1)])
    out, policy = solve_vgeo_undirected_normal(Position("vgeo", g, 0))
    assert out is Outcome.N
    assert policy.at(Position("vgeo", g, 0)) == Move(1)


def test_vgeo_path_start_is_losing():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    assert solve_vgeo_undirected_normal(Position("vgeo", g, 0))[0] is Outcome.P
    assert solve(Position("vgeo", g, 0), NORM).outcome is Outcome.P


def test_vgeo_five_cycle_is_losing_everywhere():
    g = build_graph("undirected", 5, [(i, (i + 1) % 5) for i in range(5)])
    for s in range(5):
        p = Position("vgeo", g, s)
        assert solve(p, NORM).outcome is Outcome.P  # oracle first
        assert solve_vgeo_undirected_normal(p)[0] is Outcome.P


def test_vgeo_rejects_directed():
    g = build_graph("directed", 2, [(0, 1)])
    with pytest.raises(NotApplicable):
        solve_vgeo_undirected_normal(Position("vgeo", g, 0))


def test_weight1_examples():
    tri = build_graph("undirected", 3, [(0, 1), (1, 2), (0, 2)])
    p = Position("nimg-rm", tri, 0, (1, 1, 1))
    assert solve(p, MIS).outcome is Outcome.P  # oracle fixes the value
    assert solve_weight1_rm_misere(p)[0] is Outcome.P
    single = Position("nimg-rm", build_graph("undirected", 1, []), 0, (1,))
    assert solve_weight1_rm_misere(single)[0] is Outcome.P
    c4 = build_graph("undirected", 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for s in range(4):
        p = Position("nimg-rm", c4, s, (1, 1, 1, 1))
        assert solve(p, MIS).outcome is Outcome.N
        out, policy = solve_weight1_rm_misere(p)
        assert out is Outcome.N
        assert policy.at(p).k == 0


def test_weight1_not_applicable_signals():
    g = build_graph("undirected", 2, [(0, 1)])
    with pytest.raises(NotApplicable):
        solve_weight1_rm_misere(Position("nimg-rm", g, 0, (1, 2)))
    loops = build_graph("undirected", 1, [(0, 0)])
    with pytest.raises(NotApplicable):
        solve_weight1_rm_misere(Position("nimg-rm", loops, 0, (1,)))


@settings(max_examples=150, deadline=None)
@given(nimg_positions(max_n=7, wmax=1, allow_loops=False))
def test_weight1_equals_vgeo_and_oracle(p):
    out, _ = solve_weight1_rm_misere(p)
    vgeo_out, _ = solve_vgeo_undirected_normal(Position("vgeo", p.graph, p.current))
    assert out == vgeo_out
    assert out == solve(p, MIS).outcome


# ------------------------------------------------------------------ bipartite

def test_matching_policy_reuses_each_move_and_always_breaks_down_unmatched():
    # the path's maximum matchings cover the middle vertex and one end each
    path = build_graph("undirected", 3, [(0, 1), (1, 2)])
    p = Position("nimg-rm", path, 1, (1, 1, 1))
    _, policy = solve_bipartite_rm_misere(p)
    middle = policy.at(p)
    assert middle in (Move(0, 0), Move(2, 0))
    assert policy.at(Position("nimg-rm", path, 1, (1, 0, 1))) is middle
    mate = Position("nimg-rm", path, middle.to, (1, 1, 1))
    assert policy.at(mate) is policy.at(mate) == Move(1, 0)
    unmatched = Position("nimg-rm", path, 2 - middle.to, (1, 1, 1))
    for _ in range(2):
        with pytest.raises(StrategyBreakdown, match="unmatched"):
            policy.at(unmatched)


def test_bipartite_edge_and_path():
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (1, 1))
    out, policy = solve_bipartite_rm_misere(p)
    assert out is Outcome.N
    assert policy.at(p) == Move(1, 0)
    path = build_graph("undirected", 3, [(0, 1), (1, 2)])
    assert solve_bipartite_rm_misere(Position("nimg-rm", path, 0, (1, 1, 1)))[0] is Outcome.P
    assert solve_bipartite_rm_misere(Position("nimg-rm", path, 1, (1, 1, 1)))[0] is Outcome.N


def test_bipartite_not_applicable_signals():
    tri = build_graph("undirected", 3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotApplicable):
        solve_bipartite_rm_misere(Position("nimg-rm", tri, 0, (1, 2, 1)))
    loops = build_graph("undirected", 2, [(0, 1), (1, 1)])
    with pytest.raises(NotApplicable):
        solve_bipartite_rm_misere(Position("nimg-rm", loops, 0, (1, 1)))
    # an odd cycle that dies after preprocessing is fine
    tri_dead = Position("nimg-rm", tri, 0, (1, 0, 0))
    assert solve_bipartite_rm_misere(tri_dead)[0] is Outcome.P


def test_bipartite_isolated_pile_branch():
    lone = build_graph("undirected", 1, [])
    two = Position("nimg-rm", lone, 0, (2,))
    out, policy = solve_bipartite_rm_misere(two)
    assert out is Outcome.N
    assert policy.at(two) == Move(0, 1)
    assert solve(two, MIS).outcome is Outcome.N
    one = Position("nimg-rm", lone, 0, (1,))
    assert solve_bipartite_rm_misere(one)[0] is Outcome.P


def test_bipartite_random_connected_suite():
    rng = random.Random(99)
    for _ in range(150):
        g = random_connected_bipartite(rng.randrange(1, 7), rng)
        w = tuple(rng.randrange(1, 3) for _ in range(g.n))
        s = rng.randrange(g.n)
        p = Position("nimg-rm", g, s, w)
        out, policy = solve_bipartite_rm_misere(p)
        assert out == solve(p, MIS).outcome
        if out is Outcome.N:
            assert verify_strategy(p, MIS, policy) is True


# ----------------------------------------------------------------- all-loops

def test_loops_single_vertex():
    g = build_graph("undirected", 1, [(0, 0)])
    two = Position("nimg-rm", g, 0, (2,))
    out, policy = solve_loops_rm_misere(two)
    assert out is Outcome.N
    assert policy.provenance == "loop-stalling"
    assert policy.at(two) == Move(0, 1)  # stall on the loop
    assert solve(two, MIS).outcome is Outcome.N
    one = Position("nimg-rm", g, 0, (1,))
    assert solve_loops_rm_misere(one)[0] is Outcome.P


def test_loops_light_pair():
    g = build_graph("undirected", 2, [(0, 1), (0, 0), (1, 1)])
    p = Position("nimg-rm", g, 0, (1, 1))
    out, policy = solve_loops_rm_misere(p)
    assert out is Outcome.N
    assert policy.at(p) == Move(1, 0)  # weight-one branch follows the edge
    assert solve(p, MIS).outcome is Outcome.N


def test_loops_missing_loop_signal():
    g = build_graph("undirected", 2, [(0, 1), (0, 0)])
    with pytest.raises(NotApplicable):
        solve_loops_rm_misere(Position("nimg-rm", g, 0, (1, 1)))
    # the loopless vertex holds no token, so the live game is still all-loops
    ok = Position("nimg-rm", g, 0, (2, 0))
    assert solve_loops_rm_misere(ok)[0] == solve(ok, MIS).outcome


def test_loops_random_suite():
    # the policy reads all but the current vertex from the position it is
    # asked about, so the one of a lone stalling vertex certifies everywhere
    lone = build_graph("undirected", 1, [(0, 0)])
    _, anywhere = solve_loops_rm_misere(Position("nimg-rm", lone, 0, (2,)))
    rng = random.Random(123)
    positions = []
    for _ in range(150):
        n = rng.randrange(1, 6)
        cands = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [(v, v) for v in range(n)] + rng.sample(
            cands, rng.randrange(len(cands) + 1)
        )
        g = build_graph("undirected", n, edges)
        w = tuple(rng.randrange(1, 4) for _ in range(n))
        positions.append(Position("nimg-rm", g, rng.randrange(n), w))
    for _ in range(1000):  # larger, and an empty vertex may lack its loop
        n = rng.randrange(1, 8)
        cands = [(i, j) for i in range(n) for j in range(i + 1, n)]
        w = [rng.randrange(4) for _ in range(n)]
        s = rng.randrange(n)
        w[s] = max(w[s], 1)
        edges = [(v, v) for v in range(n) if w[v] or rng.random() < 0.5]
        edges += rng.sample(cands, rng.randrange(len(cands) + 1))
        positions.append(Position("nimg-rm", build_graph("undirected", n, edges), s, tuple(w)))
    for p in positions:
        out, policy = solve_loops_rm_misere(p)
        assert out == solve(p, MIS).outcome
        if out is Outcome.N:
            assert verify_strategy(p, MIS, policy) is True
            assert verify_strategy(p, MIS, anywhere) is True


def _answer(policy, q):
    try:
        return policy.at(q)
    except StrategyBreakdown:
        return None


def test_loops_policy_cached_answers_equal_fresh_ones():
    # one policy per graph lives through every start and weight vector drawn
    # on it, so its cached matchings and coverage answers meet many
    # positions; at every node the certifier asks about, it answers as a
    # policy built afresh for that question
    rng = random.Random(29)
    asked_total = 0
    for _ in range(60):
        n = rng.randrange(1, 9)
        cands = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [(v, v) for v in range(n)] + rng.sample(cands, rng.randrange(len(cands) + 1))
        g = build_graph("undirected", n, edges)
        lasting = None
        for _ in range(6):
            w = [rng.randrange(4) for _ in range(n)]
            s = rng.randrange(n)
            w[s] = max(w[s], 1)
            p = Position("nimg-rm", g, s, tuple(w))
            out, policy = solve_loops_rm_misere(p)
            assert out == solve(p, MIS).outcome
            if out is Outcome.P:
                continue
            lasting = lasting or policy
            asked = []

            def choose(current, position, _choose=policy.choose):
                asked.append(position())
                return _choose(current, position)

            assert verify_strategy(p, MIS, Policy(choose, policy.provenance)) is True
            assert verify_strategy(p, MIS, lasting) is True
            for q in asked:
                fresh = solve_loops_rm_misere(p)[1]
                assert _answer(lasting, q) == _answer(fresh, q) == _answer(policy, q)
            asked_total += len(asked)
    assert asked_total > 1000


def test_loops_answer_builds_only_the_light_component(monkeypatch):
    # n = 2000, and the light component of the token's vertex is one edge:
    # the answer builds graphs with the component's edges only, and reads
    # them from the component's adjacency rather than scanning every edge
    # of the graph as induced_subgraph does
    import mgg.graphs
    import mgg.polysolve
    rng = random.Random(5)
    n = 2000
    edges = {(v, v) for v in range(n)}
    while len(edges) < n + 6000:
        a, b = rng.randrange(n), rng.randrange(n)
        edges.add((min(a, b), max(a, b)))
    g = build_graph("undirected", n, edges)
    u = 17
    v = g.adjacency[u][0] if g.adjacency[u][0] != u else g.adjacency[u][1]
    w = [2] * n
    w[u] = w[v] = 1
    p = Position("nimg-rm", g, u, tuple(w))
    out, policy = solve_loops_rm_misere(p)
    assert out is Outcome.N
    component_edges = len(induced_subgraph(g, {u, v}).edges)
    assert component_edges == 3  # the edge and the two loops
    built = []
    post_init = Graph.__post_init__

    def recorded(graph):
        post_init(graph)
        built.append(len(graph.edges))

    def scan(*args):
        raise AssertionError("induced_subgraph scans every edge of the graph")

    monkeypatch.setattr(Graph, "__post_init__", recorded)
    for mod in (mgg.graphs, mgg.polysolve):
        monkeypatch.setattr(mod, "induced_subgraph", scan)
    assert policy.at(p) == Move(v, 0)
    assert built and max(built) <= component_edges


def test_loop_moves_never_help_at_weight_one():
    # tested property behind stripping loops in the weight-one branch: a loop
    # move hands the opponent a misere win, so adding loops never flips the
    # outcome of an all-ones position
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 6)
        cands = [(i, j) for i in range(n) for j in range(i + 1, n)]
        base = rng.sample(cands, rng.randrange(len(cands) + 1))
        bare = build_graph("undirected", n, base)
        looped = build_graph("undirected", n, base + [(v, v) for v in range(n)])
        w = tuple([1] * n)
        s = rng.randrange(n)
        assert (
            solve(Position("nimg-rm", bare, s, w), MIS).outcome
            == solve(Position("nimg-rm", looped, s, w), MIS).outcome
        )


# ------------------------------------------------------- one matching a solve

def _count_calls(monkeypatch):
    """Record every maximum-matcher, coverage-query, `induced_subgraph` and
    `preprocess_positive` call, through any module's global."""
    import mgg.graphs as graphs
    import mgg.matching as matching
    import mgg.polysolve as polysolve

    calls = []
    for home, name in ((matching, "max_matching_general"),
                       (matching, "max_matching_bipartite"),
                       (matching, "covered_by_all_maximum_matchings"),
                       (graphs, "induced_subgraph"),
                       (polysolve, "preprocess_positive")):
        def counted(*args, _orig=getattr(home, name), _name=name):
            calls.append(_name)
            return _orig(*args)

        for mod in {home, polysolve}:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_matching_solve_runs_one_maximum_matching(monkeypatch):
    # one maximum matching and one coverage query per solve and per node of
    # the loops policy, on the position's graph or, for the bipartite and
    # loops solvers, on a subgraph of it: the bipartite solver takes one
    # induced subgraph from preprocess_positive, and the loops solver builds
    # its light component's graph itself; a first move of the loops policy
    # from one token needs the matching only, one from two or more tokens
    # with no neighbour holding one token needs nothing, and the policy
    # answers a repeated question without a matcher call
    calls = _count_calls(monkeypatch)
    rng = random.Random(7)
    outcomes = set()
    weight_one_moves = 0
    heavy_probes = {True: 0, False: 0}
    for _ in range(40):
        g = random_connected_bipartite(rng.randrange(2, 8), rng)
        s = rng.randrange(g.n)
        looped = build_graph("undirected", g.n, g.edges + tuple((v, v) for v in range(g.n)))
        heavy = tuple(rng.randrange(1, 3) for _ in range(g.n))
        cases = [
            (solve_vgeo_undirected_normal, Position("vgeo", g, s), "general"),
            (solve_weight1_rm_misere, Position("nimg-rm", g, s, (1,) * g.n), "general"),
            (solve_bipartite_rm_misere, Position("nimg-rm", g, s, heavy), "bipartite"),
            (solve_loops_rm_misere,
             Position("nimg-rm", looped, s, heavy[:s] + (1,) + heavy[s + 1:]), "general"),
        ]
        for solver, p, matcher in cases:
            calls.clear()
            outcome, policy = solver(p)
            outcomes.add(outcome)
            criterion = [f"max_matching_{matcher}", "covered_by_all_maximum_matchings"]
            if solver is solve_bipartite_rm_misere:
                criterion[:0] = ["preprocess_positive", "induced_subgraph"]
            assert calls == criterion, solver.__name__
            if solver is solve_loops_rm_misere:
                if policy is not None:  # N with one token under the pointer
                    calls.clear()
                    policy.at(p)
                    assert calls == criterion[:1]
                    calls.clear()
                    policy.at(p)
                    assert calls == []
                    weight_one_moves += 1
                for w in (heavy, (1,) * g.n):  # two tokens on the start
                    two = Position("nimg-rm", looped, s, w[:s] + (2,) + w[s + 1:])
                    calls.clear()
                    _, policy = solve_loops_rm_misere(two)
                    assert calls == []
                    policy.at(two)
                    light = any(w[v] == 1 for v in g.adjacency[s])
                    assert calls == (criterion if light else [])
                    calls.clear()
                    policy.at(two)
                    assert calls == []
                    heavy_probes[light] += 1
    assert outcomes == {Outcome.N, Outcome.P}
    assert weight_one_moves
    assert all(heavy_probes.values())


# ------------------------------------- empty vertices inside the matching classes

def _check_class_answer(solver, p, in_class):
    """NotApplicable exactly outside the class; inside it, the exhaustive
    outcome, and an N policy that both certifiers accept."""
    try:
        out, policy = solver(p)
    except NotApplicable:
        assert not in_class
        return
    assert in_class
    assert out == solve(p, MIS).outcome
    if out is Outcome.N:
        assert verify_strategy(p, MIS, policy) is True
        assert naive_certify(p, MIS, policy)


@settings(max_examples=150, deadline=None)
@given(nimg_positions(max_n=5, wmax=3, min_weight=0))
def test_loops_class_with_empty_vertices(p):
    # a loop on every token-bearing vertex; an empty one may have one or not
    loops = {(v, v) for v, w in enumerate(p.weights) if w}
    g = build_graph("undirected", p.graph.n, set(p.graph.edges) | loops)
    p = Position("nimg-rm", g, p.current, p.weights)
    _check_class_answer(solve_loops_rm_misere, p, p.weights[p.current] >= 1)


@settings(max_examples=150, deadline=None)
@given(nimg_positions(max_n=6, wmax=2, min_weight=0, allow_loops=False), st.data())
def test_bipartite_class_with_empty_vertices(p, data):
    n = p.graph.n
    side = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    g = build_graph("undirected", n, [(u, v) for u, v in p.graph.edges if side[u] != side[v]])
    p = Position("nimg-rm", g, p.current, p.weights)
    tokens = [v for v in range(n) if p.weights[v]]
    live = build_graph("undirected", len(tokens), [
        (tokens.index(u), tokens.index(v)) for u, v in g.edges
        if u in tokens and v in tokens])
    in_class = p.weights[p.current] >= 1 and not odd_closed_walk_exists(live)
    _check_class_answer(solve_bipartite_rm_misere, p, in_class)


def test_bipartite_checks_the_class_before_the_lone_pile(tmp_path, capsys):
    # the start has no edge, but the token-bearing triangle 1-2-3 puts the
    # position outside the bipartite class: the exhaustive solver answers
    from mgg.cli import main
    from mgg.posfile import write_position

    g = build_graph("undirected", 4, [(1, 2), (2, 3), (1, 3)])
    p = Position("nimg-rm", g, 0, (2, 1, 1, 1))
    with pytest.raises(NotApplicable, match="not bipartite"):
        solve_bipartite_rm_misere(p)
    with pytest.raises(NotApplicable):
        poly_solve(p, MIS)
    path = str(tmp_path / "p.pos")
    write_position(path, p, MIS)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "outcome N" in out and "solver exhaustive" in out
