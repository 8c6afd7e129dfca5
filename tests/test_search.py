import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mgg.graphs import build_graph
from mgg.kernel import (
    CapacityError,
    Convention,
    IllegalMoveError,
    Move,
    Position,
    _Engine,
    apply_move,
    legal_moves,
)
from mgg.reductions import reduce_vgeo_dir_to_undir_misere
from mgg.search import Outcome, solve, solve_with_table
from oracles import count_reachable, is_cut_vertex, naive_outcome, reachable_part
from policies import exhaustive_policy
from strategies import any_fresh_position, geo_positions, nimg_positions, trees_plus_edges

MIS = Convention.MISERE
NORM = Convention.NORMAL


def test_lone_token_is_a_loss_for_the_mover():
    p = Position("nimg-rm", build_graph("undirected", 1, []), 0, (1,))
    assert solve(p, MIS).outcome is Outcome.P


def test_vgeo_single_vertex_normal():
    p = Position("vgeo", build_graph("directed", 1, []), 0)
    assert solve(p, NORM).outcome is Outcome.P


def test_edge_one_one_misere():
    # frozen from the naive 6-state enumeration below
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (1, 1))
    assert naive_outcome(p, MIS) == "N"
    report = solve(p, MIS)
    assert report.outcome is Outcome.N
    assert report.principal_move == Move(1, 0)
    assert not report.budget_exhausted


def test_principal_move_only_on_nonterminal_wins():
    terminal = Position("nimg-rm", build_graph("undirected", 1, []), 0, (0,))
    report = solve(terminal, MIS)
    assert report.outcome is Outcome.N
    assert report.principal_move is None


def test_engine_key_injective_on_weights():
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (2, 2))
    engine = _Engine(p)
    # the children (0, 2) and (1, 2), both with the pointer on vertex 1
    children = {engine.after(engine.root, m): apply_move(p, m) for m in legal_moves(p)}
    assert len(children) == 2 and engine.root not in children
    for key, q in children.items():
        assert engine.position(key) == q


def test_engine_key_canonical_across_move_orders():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    p = Position("nimg-rm", g, 1, (5, 5, 5))

    def play(pos, *moves):
        for to, k in moves:
            pos = apply_move(pos, Move(to, k))
        return pos

    def key(engine, *moves):
        k = engine.root
        for move in moves:
            k = engine.after(k, Move(*move))
        return k

    left, right = ((0, 4), (1, 4), (2, 3), (1, 4)), ((2, 4), (1, 4), (0, 3), (1, 4))
    left_first, right_first = play(p, *left), play(p, *right)
    assert left_first == right_first
    engine = _Engine(p)
    assert key(engine, *left) == key(engine, *right)
    assert engine.position(key(engine, *left)) == left_first
    # same endpoint through different deletions must not collide
    diamond = build_graph("undirected", 4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    p2 = Position("vgeo", diamond, 0)
    via_one = apply_move(apply_move(p2, Move(1)), Move(3))
    via_two = apply_move(apply_move(p2, Move(2)), Move(3))
    assert via_one.current == via_two.current == 3
    assert via_one != via_two
    engine = _Engine(p2)
    assert key(engine, (1,), (3,)) != key(engine, (2,), (3,))


def test_engine_key_drops_departed_vertex():
    g = build_graph("directed", 3, [(0, 1), (1, 2)])
    p = Position("vgeo", g, 0)
    engine = _Engine(p)
    key = engine.after(engine.root, Move(1))
    mask, cur = key >> engine.sh, key & engine.cur_mask
    assert cur == 1
    assert mask == 0b110  # bit for the departed vertex is gone
    # the decoded position is the graph that remains
    assert engine.position(key) == apply_move(p, Move(1))
    assert engine.position(key) == Position("vgeo", build_graph("directed", 3, [(1, 2)]), 1)


def test_leaving_a_cut_vertex_drops_the_stranded_part():
    # a tree: from 1 the token can go to 0, to the path 2-3, or to the path 4-5
    g = build_graph("undirected", 6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
    p = Position("vgeo", g, 1)
    engine = _Engine(p)
    key = engine.after(engine.root, Move(2))
    assert key >> engine.sh == 0b001100  # only 2 and 3 stay live
    # the decoded position holds only the edges the token can still reach
    assert engine.position(key) == Position("vgeo", build_graph("undirected", 6, [(2, 3)]), 2)
    assert apply_move(p, Move(2)).graph.edges == ((2, 3), (4, 5))
    # leaving 2, a cut vertex too, strands nothing more: 3 stays live
    assert engine.after(key, Move(3)) >> engine.sh == 0b001000


def test_directed_children_keep_every_live_vertex():
    # 1 splits the underlying graph, but a directed child is never pruned
    g = build_graph("directed", 6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 4)])
    p = Position("vgeo", g, 0)
    engine = _Engine(p)
    frontier = [engine.root]
    while frontier:
        key = frontier.pop()
        cur, bits = key & engine.cur_mask, engine.move_bits(key)
        for i in range(bits.bit_length()):
            if bits >> i & 1:
                c = engine.child(key, i)
                assert c == key - (1 << (engine.sh + cur)) - cur + i
                frontier.append(c)
    after_two = engine.after(engine.after(engine.root, Move(1)), Move(2))
    assert engine.position(after_two).graph.edges == ((2, 3), (4, 5), (5, 4))


def test_arc_gadget_target_strands_the_gadgets_it_leaves():
    # the directed 5-cycle: the target took 18,435 states without pruning
    g = build_graph("directed", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    source = solve(Position("vgeo", g, 0), NORM)
    target = solve(reduce_vgeo_dir_to_undir_misere(g, 0).position, MIS)
    assert target.outcome is source.outcome is Outcome.P
    assert target.states_expanded < 2_000


def test_bitset_capacity_errors():
    big = build_graph("directed", 129, [(i, i + 1) for i in range(128)])
    with pytest.raises(CapacityError):
        solve(Position("vgeo", big, 0), NORM)
    wide = build_graph("directed", 130, [(i, j) for i in range(12) for j in range(12) if i != j][:129])
    with pytest.raises(CapacityError):
        solve(Position("egeo", wide, 0), NORM)


@st.composite
def played_positions(draw):
    """Any variant on either graph kind, a few plies into the game."""
    variant = draw(st.sampled_from(["nimg-rm", "nimg-mr", "vgeo", "egeo"]))
    directed = draw(st.booleans())
    if variant.startswith("nimg"):
        p = draw(nimg_positions(variant=variant, max_n=4, wmax=3, min_weight=0,
                                directed=directed))
    else:
        # loops too: a vgeo loop is no move, an egeo loop is one
        p = draw(geo_positions(variant=variant, max_n=5, directed=directed,
                               allow_loops=True))
    for pick in draw(st.lists(st.integers(0, 1 << 8), max_size=4)):
        moves = legal_moves(p)
        if not moves:
            break
        p = apply_move(p, moves[pick % len(moves)])
    return p


def _expected_child(root, parent, m):
    """The reference child of `parent`, a position played from `root`: on
    undirected vgeo, a move that leaves a cut vertex of the root graph keeps
    only the part the token can still reach."""
    q = apply_move(parent, m)
    if (root.variant == "vgeo" and not root.graph.directed
            and is_cut_vertex(root.graph, parent.current)):
        return reachable_part(q)
    return q


def _children(engine, key):
    """Child keys, popping the move bits lowest first with `engine.child`."""
    rem, out = engine.move_bits(key), []
    while rem:
        bit = rem & -rem
        out.append(engine.child(key, bit.bit_length() - 1))
        rem ^= bit
    return out


@settings(max_examples=300, deadline=None)
@given(played_positions())
def test_engine_moves_agree_with_kernel(p):
    engine = _Engine(p)
    key = engine.root
    bits = engine.move_bits(key)
    moves = [engine.move(key, i) for i in range(bits.bit_length()) if bits >> i & 1]
    pairs = zip(moves, _children(engine, key), strict=True)
    decoded = [(m, engine.position(k)) for m, k in pairs]
    expected = [(m, _expected_child(p, p, m)) for m in legal_moves(p)]
    assert decoded == expected


@settings(max_examples=300, deadline=None)
@given(played_positions())
def test_engine_move_decodes_each_bit(p):
    engine = _Engine(p)
    key = engine.root
    bits = engine.move_bits(key)
    by_bit = [engine.move(key, i) for i in range(bits.bit_length()) if bits >> i & 1]
    assert by_bit == legal_moves(p)
    assert engine.first(key) == (by_bit[0] if by_bit else None)


def _near_misses(p):
    """Move shapes around `p`'s moves: each vertex id and one past either
    end, with no weight and with each weight from -1 to one past the
    largest.  They take in every legal move, and k = w, k = -1, a weight on
    a geography move, none on a nimg move, a non-neighbour, the token's own
    vertex and, a few plies in, an edge already crossed."""
    top = max(p.weights) + 1 if p.weights else 0
    return [Move(to, k) for to in range(-1, p.graph.n + 1)
            for k in (None, *range(-1, top + 1))]


@settings(max_examples=300, deadline=None)
@given(played_positions())
def test_engine_legality_agrees_with_reference(p):
    engine = _Engine(p)
    accepted = []
    for m in _near_misses(p):
        try:
            expected = _expected_child(p, p, m)
        except IllegalMoveError:
            with pytest.raises(IllegalMoveError):
                engine.after(engine.root, m)
        else:
            accepted.append(m)
            assert engine.position(engine.after(engine.root, m)) == expected
    assert accepted == legal_moves(p)


def test_principal_move_builds_one_child_at_a_time():
    # 100_000 moves at the root; building them all bit by bit took over a second
    p = Position("nimg-rm", build_graph("undirected", 2, [(0, 1)]), 0, (100_000, 1))
    t0 = time.perf_counter()
    report = solve(p, MIS)
    advised = exhaustive_policy(MIS).at(p)
    elapsed = time.perf_counter() - t0
    assert report.outcome is Outcome.N and report.states_expanded == 3
    assert report.principal_move == advised == Move(1, 0)
    assert elapsed < 0.5


def test_budget_exhaustion_is_reported_not_wrong():
    g = build_graph("undirected", 4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    p = Position("nimg-rm", g, 0, (3, 3, 3, 3))
    report = solve(p, MIS, budget=5)
    assert report.budget_exhausted
    assert report.outcome is None
    assert report.principal_move is None
    assert report.states_expanded == 5


def test_budget_bounds_work_and_memory_on_heavy_weights():
    # 3e6 moves at the root: only the first child may be built
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (3_000_000, 1))
    tracemalloc.start()
    try:
        report = solve(p, MIS, budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.budget_exhausted
    assert report.states_expanded == 1
    assert peak < 8 << 20


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_fresh_position(max_n=4, wmax=2), trees_plus_edges()))
def test_agrees_with_naive_recursion(p):
    assume(count_reachable(p, limit=60) <= 60)
    for conv in Convention:
        assert solve(p, conv).outcome.value == naive_outcome(p, conv)


@settings(max_examples=60, deadline=None)
@given(any_fresh_position(max_n=3, wmax=2))
def test_convention_flips_terminals_and_nothing_else(p):
    # recursion parameterized by the terminal verdict alone
    def valued(pos, mover_wins_terminal):
        moves = legal_moves(pos)
        if not moves:
            return mover_wins_terminal
        return any(not valued(apply_move(pos, m), mover_wins_terminal) for m in moves)

    assume(count_reachable(p, limit=40) <= 40)
    assert (solve(p, MIS).outcome is Outcome.N) == valued(p, True)
    assert (solve(p, NORM).outcome is Outcome.N) == valued(p, False)


def _reachable_positions(engine, p, cap=4000):
    """Key -> oracle position from the engine's root position `p`, stepping
    each key with `engine.after` along the oracle's moves."""
    seen = {engine.root: p}
    frontier = [engine.root]
    while frontier:
        key = frontier.pop()
        q = seen[key]
        for m in legal_moves(q):
            k = engine.after(key, m)
            if k not in seen:
                seen[k] = apply_move(q, m)
                frontier.append(k)
                if len(seen) >= cap:
                    return seen
    return seen


def test_memo_entries_satisfy_outcome_recursion():
    rng = random.Random(5)
    g = build_graph("undirected", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    p = Position("nimg-rm", g, 0, (2, 2, 2, 2, 2))
    report, table = solve_with_table(p, MIS)
    assert report.outcome is not None
    engine = _Engine(p)  # table keys come from the root's engine
    reachable = _reachable_positions(engine, p)
    keys = [k for k in table if k in reachable]
    for key in rng.sample(keys, min(1000, len(keys))):
        pos = reachable[key]
        children = [engine.after(key, m) for m in legal_moves(pos)]
        solved = [table[c] for c in children if c in table]
        if not children:  # misere terminal: the mover wins
            assert table[key] is True
        elif table[key]:  # a win must exhibit a losing child
            assert False in solved
        else:  # a loss must have every child solved as a win
            assert len(solved) == len(children) and all(solved)


def test_solve_is_deterministic():
    g = build_graph("undirected", 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = Position("nimg-rm", g, 0, (2, 1, 2, 1))
    assert solve(p, MIS) == solve(p, MIS)


def test_exhaustive_policy_never_loses():
    g = build_graph("undirected", 4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    p = Position("nimg-rm", g, 0, (2, 1, 1, 2))
    assert solve(p, MIS).outcome is Outcome.N
    policy = exhaustive_policy(MIS)

    def walk(pos, policy_to_move):
        moves = legal_moves(pos)
        if not moves:
            # under misere the stuck player wins, so the policy must be stuck
            assert policy_to_move
            return
        if policy_to_move:
            move = policy.at(pos)
            assert move in moves
            walk(apply_move(pos, move), False)
        else:
            for m in moves:
                walk(apply_move(pos, m), True)

    walk(p, True)


@settings(max_examples=200, deadline=None)
@given(played_positions(), st.sampled_from(list(Convention)))
def test_engine_tables_satisfy_negamax_recursion(p, conv):
    engine = _Engine(p)
    report, table = solve_with_table(p, conv)
    assert report.outcome is not None
    assert table[engine.root] is (report.outcome is Outcome.N)
    for key, win in table.items():
        pos = engine.position(key)
        children = [table.get(engine.after(key, m)) for m in legal_moves(pos)]
        if not children:  # the stuck mover wins exactly under misere
            assert win is (conv is MIS)
        elif win:  # a win must exhibit a losing child
            assert False in children
        else:  # a loss must have every child solved as a win
            assert all(r is True for r in children)


@settings(max_examples=200, deadline=None)
@given(played_positions())
@example(Position("vgeo", build_graph("undirected", 6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]), 1))
def test_engine_children_decode_to_oracle_children(p):
    engine = _Engine(p)
    root = engine.root
    assert engine.position(root) == p
    seen, frontier = {root}, [root]
    while frontier and len(seen) < 2000:
        key = frontier.pop()
        parent, children = engine.position(key), _children(engine, key)
        expected = [_expected_child(p, parent, m) for m in legal_moves(parent)]
        assert [engine.position(c) for c in children] == expected
        for c in children:
            if c not in seen:
                seen.add(c)
                frontier.append(c)
