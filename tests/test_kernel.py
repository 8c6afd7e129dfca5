import random
import time
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings

from mgg.graphs import build_graph
from mgg.kernel import (
    Convention,
    IllegalMoveError,
    Move,
    Position,
    _Engine,
    apply_move,
    legal_moves,
)
from mgg.search import Outcome, solve
from strategies import any_fresh_position, geo_positions


def is_terminal(p):
    """Whether `p` has no move, from the engine's move bits alone."""
    engine = _Engine(p)
    return not engine.move_bits(engine.root)


def engine_apply(p, m):
    """`apply_move` through the engine, as `mgg play` checks a move."""
    engine = _Engine(p)
    return engine.position(engine.after(engine.root, m))


#: The reference rules and the engine both reject an illegal move.
APPLIERS = pytest.mark.parametrize("apply", [
    pytest.param(apply_move, id="reference"),
    pytest.param(engine_apply, id="engine"),
])


def hub_position():
    # hub `a` holds four tokens and is adjacent to u, b, c; u-b closes a cycle
    g = build_graph("undirected", 4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    # 0=u(w1) 1=a(w4) 2=b(w3) 3=c(w3), pointer on a
    return Position("nimg-rm", g, 1, (1, 4, 3, 3))


def test_remove_then_move_example():
    p = hub_position()
    move = Move(to=0, k=2)  # drop two tokens, step to the single-token vertex
    assert move in legal_moves(p)
    q = apply_move(p, move)
    assert q.weights == (1, 2, 3, 3)
    assert q.current == 0


def test_move_then_remove_example():
    g = hub_position().graph
    p = Position("nimg-mr", g, 1, (1, 4, 3, 3))
    move = Move(to=2, k=0)  # step right, take everything there
    assert move in legal_moves(p)
    q = apply_move(p, move)
    assert q.weights == (1, 4, 0, 3)
    assert q.current == 2


def test_rm_terminal_on_empty_vertex():
    g = build_graph("undirected", 1, [])
    p = Position("nimg-rm", g, 0, (0,))
    assert legal_moves(p) == []
    assert is_terminal(p)
    # the player to move at a terminal loses under normal play, wins under misere
    assert solve(p, Convention.NORMAL).outcome is Outcome.P
    assert solve(p, Convention.MISERE).outcome is Outcome.N


def test_rm_isolated_vertex_removal_only():
    g = build_graph("undirected", 1, [])
    p = Position("nimg-rm", g, 0, (3,))
    assert legal_moves(p) == [Move(0, 0), Move(0, 1), Move(0, 2)]
    q = apply_move(p, Move(0, 1))
    assert q.weights == (1,) and q.current == 0


def test_rm_moving_onto_empty_vertex_is_legal():
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (1, 0))
    assert legal_moves(p) == [Move(1, 0)]


def test_rm_two_vertex_forced_line():
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (1, 1))
    q = apply_move(p, Move(1, 0))
    assert q.weights == (0, 1) and q.current == 1


def test_mr_empty_neighbours_offer_no_move():
    g = build_graph("undirected", 3, [(0, 1), (0, 2)])
    p = Position("nimg-mr", g, 0, (5, 0, 0))
    assert legal_moves(p) == []
    assert solve(p, Convention.NORMAL).outcome is Outcome.P


def test_mr_move_set():
    g = build_graph("undirected", 2, [(0, 1), (0, 0)])
    p = Position("nimg-mr", g, 0, (2, 1))
    assert legal_moves(p) == [Move(0, 0), Move(0, 1), Move(1, 0)]


def test_vgeo_move_deletes_departed_vertex():
    g = build_graph("directed", 4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    p = Position("vgeo", g, 0)
    q = apply_move(p, Move(1))
    assert q.graph.edges == ((1, 2),)  # vertex 0 and its edges are gone
    assert q.current == 1
    assert q.graph.n == 4  # the departed vertex keeps its id, without an edge
    assert legal_moves(q) == [Move(2)]
    # returning to the deleted vertex is impossible
    r = apply_move(q, Move(2))
    assert legal_moves(r) == []


def test_vgeo_sink_is_terminal():
    g = build_graph("directed", 2, [(0, 1)])
    p = Position("vgeo", g, 1)
    assert is_terminal(p)


def test_egeo_directed_reverse_arc_survives():
    g = build_graph("directed", 2, [(0, 1), (1, 0)])
    p = Position("egeo", g, 0)
    q = apply_move(p, Move(1))
    assert q.graph.edges == ((1, 0),)
    assert legal_moves(q) == [Move(0)]  # straight back along the other arc


def test_egeo_undirected_removes_whole_edge():
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("egeo", g, 0)
    q = apply_move(p, Move(1))
    assert legal_moves(q) == []


def test_egeo_loop_traversal():
    g = build_graph("undirected", 1, [(0, 0)])
    p = Position("egeo", g, 0)
    q = apply_move(p, Move(0))
    assert q.graph.edges == ()
    assert is_terminal(q)


@APPLIERS
def test_apply_rejects_illegal_moves(apply):
    g = build_graph("undirected", 3, [(0, 1)])
    p = Position("nimg-rm", g, 0, (2, 1, 1))
    for bad in (Move(2, 0), Move(1, 2), Move(1, -1), Move(1)):
        with pytest.raises(IllegalMoveError):
            apply(p, bad)
    with pytest.raises(IllegalMoveError):
        apply(Position("vgeo", build_graph("directed", 2, [(0, 1)]), 0), Move(0))
    mr = Position("nimg-mr", g, 0, (2, 1, 1))
    for bad in (Move(1, 1), Move(2, 0), Move(0, 0), Move(1)):
        with pytest.raises(IllegalMoveError):
            apply(mr, bad)
    eg = Position("egeo", g, 0)
    used = apply(eg, Move(1))
    for pos, bad in ((eg, Move(1, 0)), (eg, Move(2)), (used, Move(0)), (used, Move(1))):
        with pytest.raises(IllegalMoveError):  # a weight, a non-edge, a used edge
            apply(pos, bad)


def test_legal_moves_is_linear_in_its_output():
    # a bit-by-bit decode of the 400_000-bit move set takes ~30x longer
    p = Position("nimg-rm", build_graph("undirected", 2, [(0, 1)]), 0, (400_000, 1))
    t0 = time.perf_counter()
    moves = legal_moves(p)
    elapsed = time.perf_counter() - t0
    assert moves == [Move(1, k) for k in range(400_000)]
    assert elapsed < 5


@APPLIERS
def test_apply_and_terminal_do_not_enumerate_moves(apply):
    # 3e6 moves at the pointer: listing them would take hundreds of MiB
    p = Position("nimg-rm", build_graph("undirected", 2, [(0, 1)]), 0, (3_000_000, 1))
    tracemalloc.start()
    try:
        terminal = is_terminal(p)
        q = apply(p, Move(1, 2_999_999))
        with pytest.raises(IllegalMoveError):
            apply(p, Move(1, 3_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not terminal
    assert q == Position("nimg-rm", p.graph, 1, (2_999_999, 1))
    assert peak < 8 << 20


def test_engine_after_builds_no_move_bits():
    # the move bits of this position span 3e6 bits, 375 kB
    p = Position("nimg-rm", build_graph("undirected", 2, [(0, 1)]), 0, (3_000_000, 1))
    engine = _Engine(p)
    tracemalloc.start()
    try:
        keys = [engine.after(engine.root, Move(1, k)) for k in (0, 2_999_999)]
        for bad in (Move(1, 3_000_000), Move(0, 0), Move(1, -1)):
            with pytest.raises(IllegalMoveError):
                engine.after(engine.root, bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [engine.position(k).weights for k in keys] == [(0, 1), (2_999_999, 1)]
    assert peak < 64 << 10


@pytest.mark.parametrize("variant, weights, line, bad", [
    ("egeo", None, [Move(1), Move(2)], Move(1)),  # the crossed edge
    ("vgeo", None, [Move(1), Move(2)], Move(0)),  # the departed vertex
    ("nimg-rm", (2, 2, 2), [Move(1, 0), Move(0, 1)], Move(1, 0)),  # an emptied token vertex
    ("nimg-mr", (2, 2, 2), [Move(1, 0), Move(0, 0)], Move(1, 0)),  # an emptied target
])
def test_engine_after_reads_the_played_key(variant, weights, line, bad):
    g = build_graph("undirected", 3, [(0, 1), (0, 2), (1, 2)])
    engine = _Engine(Position(variant, g, 0, weights))
    key = engine.root
    for m in line:
        key = engine.after(key, m)
    # `bad` is legal from the token's vertex on the root's graph and weights
    apply_move(Position(variant, g, key & engine.cur_mask, weights), bad)
    for reject in (partial(engine.after, key), partial(apply_move, engine.position(key))):
        with pytest.raises(IllegalMoveError):
            reject(bad)


def test_position_validation():
    g = build_graph("undirected", 2, [(0, 1)])
    with pytest.raises(ValueError):
        Position("nimg-rm", g, 0)  # missing weights
    with pytest.raises(ValueError):
        Position("vgeo", g, 0, (1, 1))  # weights on a geography game
    with pytest.raises(ValueError):
        Position("nimg-rm", g, 0, (1, -1))


@settings(max_examples=150)
@given(any_fresh_position(max_n=5, wmax=2))
def test_moves_in_canonical_order(p):
    moves = legal_moves(p)
    assert moves == sorted(moves, key=lambda m: (m.to, -1 if m.k is None else m.k))


def _measure(p):
    if p.weights is not None:
        return sum(p.weights)
    if p.variant == "vgeo":  # the vertices some edge touches
        return len({v for e in p.graph.edges for v in e})
    return len(p.graph.edges)


def test_random_playouts_preserve_invariants():
    # soak: at least 10^5 applied moves across random playouts
    rng = random.Random(2024)
    applied = 0
    while applied < 100_000:
        n = rng.randrange(1, 7)
        variant = rng.choice(["nimg-rm", "nimg-mr", "vgeo", "egeo"])
        directed = rng.random() < 0.5
        kind = "directed" if directed else "undirected"
        if directed:
            cands = [(i, j) for i in range(n) for j in range(n) if i != j]
        else:
            cands = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if variant.startswith("nimg"):
            cands += [(v, v) for v in range(n)]
        g = build_graph(kind, n, rng.sample(cands, rng.randrange(len(cands) + 1)))
        w = tuple(rng.randrange(0, 4) for _ in range(n)) if variant.startswith("nimg") else None
        p = Position(variant, g, rng.randrange(n), w)
        bound = _measure(p)
        steps, departed = 0, set()
        while True:
            moves = legal_moves(p)
            if not moves:
                break
            before = _measure(p)
            departed.add(p.current)
            p = apply_move(p, rng.choice(moves))
            applied += 1
            steps += 1
            assert _measure(p) < before  # every move burns the finite measure
            if p.weights is not None:
                assert min(p.weights) >= 0
            if p.variant == "vgeo":  # no edge leads back to a departed vertex
                assert not departed & {v for e in p.graph.edges for v in e}
        assert steps <= bound  # playout length is capped by the initial measure


@settings(max_examples=100)
@given(geo_positions(variant="vgeo", max_n=5, directed=False))
def test_undirected_vgeo_moves_are_symmetric(p):
    for m in legal_moves(p):
        mirrored = Position(p.variant, p.graph, m.to)
        assert Move(p.current) in legal_moves(mirrored)


@settings(max_examples=100)
@given(geo_positions(variant="egeo", max_n=5, directed=False))
def test_undirected_egeo_moves_are_symmetric(p):
    for m in legal_moves(p):
        mirrored = Position(p.variant, p.graph, m.to)
        assert Move(p.current) in legal_moves(mirrored)
