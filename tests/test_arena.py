import os
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mgg.arena import (
    check_reduction,
    mix_seed,
    random_graph,
    random_instance,
    run_reduction_grid,
    verify_strategy,
    write_counterexample,
)
from mgg.graphs import build_graph
from mgg.kernel import Convention, Move, Position, _Engine, apply_move, legal_moves
from mgg.polysolve import (
    solve_bipartite_rm_misere,
    solve_loops_rm_misere,
    solve_vgeo_undirected_normal,
    solve_weight1_rm_misere,
)
from mgg.reductions import InfeasibleGrid
from mgg.search import BITSET_CAP, Outcome, Policy, StrategyBreakdown, solve
from oracles import count_reachable, naive_certify, reachable_part
from policies import exhaustive_policy
from strategies import any_fresh_position, trees_plus_edges

MIS = Convention.MISERE
NORM = Convention.NORMAL


def test_single_vertex_instance():
    p = random_instance("vgeo", "directed", 1, 0, 1, "none", seed=4)
    assert p.graph.n == 1
    assert p.current == 0


def test_same_seed_same_instance():
    a = random_instance("nimg-rm", "undirected", 5, 4, 3, "free", seed=11)
    b = random_instance("nimg-rm", "undirected", 5, 4, 3, "free", seed=11)
    assert a == b
    c = random_instance("nimg-rm", "undirected", 5, 4, 3, "free", seed=12)
    assert a != c


def test_instance_shape():
    p = random_instance("nimg-rm", "undirected", 4, 3, 2, "none", seed=0)
    assert p.graph.n == 4
    assert len(p.graph.edges) == 3
    assert not p.graph.loop_vertices
    assert all(1 <= w <= 2 for w in p.weights)


def test_loops_all_mode():
    p = random_instance("nimg-rm", "undirected", 4, 2, 1, "all", seed=3)
    assert p.graph.loop_vertices == frozenset(range(4))
    assert len(p.graph.edges) == 2 + 4


def test_infeasible_edge_count():
    with pytest.raises(ValueError):
        random_instance("vgeo", "undirected", 3, 4, 1, "none", seed=0)


def test_mix_seed_is_stable():
    assert mix_seed(7, 0) == mix_seed(7, 0)
    assert len({mix_seed(7, i) for i in range(1000)}) == 1000


def test_random_graph_rejects_bad_mode():
    import random as _r

    with pytest.raises(ValueError):
        random_graph("undirected", 3, 1, "some", _r.Random(0))


def test_check_reduction_single_vertex():
    p = Position("vgeo", build_graph("directed", 1, []), 0)
    report, out = check_reduction("vgeo-dir", p)
    assert report.agree is True
    assert report.source.outcome is Outcome.P
    assert report.target.outcome is Outcome.P
    assert out.position.graph.n == 2


def test_check_reduction_single_arc_nimgrm():
    p = Position("vgeo", build_graph("directed", 2, [(0, 1)]), 0)
    report, _ = check_reduction("nimg-rm", p)
    assert report.agree is True


def test_check_reduction_budget_is_not_disagreement():
    g = build_graph("directed", 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p = Position("vgeo", g, 0)
    report, _ = check_reduction("vgeo-undir", p, budget=3)
    assert report.agree is None
    assert report.target.budget_exhausted or report.source.budget_exhausted


def test_check_reduction_validates_variant():
    p = Position("egeo", build_graph("directed", 2, [(0, 1)]), 0)
    with pytest.raises(ValueError):
        check_reduction("vgeo-dir", p)


def test_grid_is_deterministic_and_agreeing():
    runs = []
    for _ in range(2):
        reports = [
            r for r, _, _ in run_reduction_grid(
                "vgeo-dir", n=4, m=4, weight_bound=1, trials=25, master_seed=9
            )
        ]
        runs.append(reports)
    assert runs[0] == runs[1]
    assert all(r.agree for r in runs[0])


def test_infeasible_grid_raises_before_any_trial(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr("mgg.arena.mix_seed", no_draw)
    with pytest.raises(InfeasibleGrid, match="--n must be >= 1, got 0"):
        next(run_reduction_grid("vgeo-dir", n=0, m=2, weight_bound=1, trials=3,
                                master_seed=0))


def test_verify_strategy_certifies_matching_policy():
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (1, 1))
    _, policy = solve_bipartite_rm_misere(p)
    assert verify_strategy(p, MIS, policy) is True


def test_verify_strategy_rejects_bad_policy():
    # triangle with a double heap: the win needs the heavy vertex, but the
    # lowest-indexed move goes the other way
    g = build_graph("undirected", 3, [(0, 1), (1, 2), (0, 2)])
    p = Position("nimg-rm", g, 2, (1, 1, 2))
    assert solve(p, MIS).outcome is Outcome.N
    lowest = Policy(lambda cur, position: legal_moves(position())[0], "exhaustive")
    good = exhaustive_policy(MIS)
    assert verify_strategy(p, MIS, good) is True
    assert verify_strategy(p, MIS, lowest) is False


def test_verify_strategy_vacuous_on_terminal_win():
    p = Position("nimg-rm", build_graph("undirected", 1, []), 0, (0,))
    never = Policy(lambda cur, position: (_ for _ in ()).throw(AssertionError), "exhaustive")
    assert verify_strategy(p, MIS, never) is True


def test_verify_strategy_budget_indeterminate():
    g = build_graph("undirected", 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    p = Position("nimg-rm", g, 0, (2, 2, 2, 2))
    assert solve(p, MIS).outcome is Outcome.N
    policy = exhaustive_policy(MIS)
    assert verify_strategy(p, MIS, policy, budget=2) is None


def test_verify_strategy_rejects_illegal_move():
    g = build_graph("undirected", 3, [(0, 1), (1, 2)])
    p = Position("vgeo", g, 1)
    assert solve(p, NORM).outcome is Outcome.N
    stay = Policy(lambda cur, position: Move(position().current), "exhaustive")
    assert verify_strategy(p, NORM, stay) is False


def test_verify_strategy_rejects_strategy_breakdown():
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("vgeo", g, 0)

    def choose(cur, position):
        raise StrategyBreakdown(f"token vertex {position().current} is unmatched")

    assert verify_strategy(p, NORM, Policy(choose, "matching-following")) is False


def test_verify_strategy_is_false_where_a_library_policy_has_no_move():
    # each policy below is certified at a P position: the solver's has no
    # winning move there, and the pile's was built for another position
    path = build_graph("undirected", 3, [(0, 1), (1, 2)])
    policy = exhaustive_policy(NORM)
    assert verify_strategy(Position("vgeo", path, 0), NORM, policy) is False
    lone = build_graph("undirected", 1, [])
    outcome, pile = solve_bipartite_rm_misere(Position("nimg-rm", lone, 0, (3,)))
    assert outcome is Outcome.N
    assert verify_strategy(Position("nimg-rm", lone, 0, (1,)), MIS, pile) is False


def test_verify_strategy_has_no_bitset_cap():
    n = 150
    path = build_graph("undirected", n, [(i, i + 1) for i in range(n - 1)])
    p = Position("vgeo", path, 41)
    outcome, policy = solve_vgeo_undirected_normal(p)
    assert outcome is Outcome.N
    assert verify_strategy(p, NORM, policy) is True
    # edge geography past the cap: one arc out of the start leads to a dead
    # end, beside a complete digraph that play can never reach
    arcs = [(0, 1)] + [(i, j) for i in range(2, 14) for j in range(2, 14) if i != j]
    assert len(arcs) > BITSET_CAP
    q = Position("egeo", build_graph("directed", 14, arcs), 0)
    step = Policy(lambda cur, position: Move(1), "exhaustive")
    assert verify_strategy(q, NORM, step) is True
    assert verify_strategy(q, MIS, step) is False


def test_verify_strategy_keeps_the_side_to_move_apart():
    # one looped heap, the policy taking one token a turn: the empty heap is
    # reached with each side to move, and the policy's own turn there loses
    p = Position("nimg-rm", build_graph("undirected", 1, [(0, 0)]), 0, (3,))
    take_one = Policy(lambda cur, position: Move(0, position().weights[0] - 1), "exhaustive")
    assert naive_certify(p, NORM, take_one) is False
    assert verify_strategy(p, NORM, take_one) is False


def test_matching_policies_certify_without_decoding_a_position(monkeypatch):
    decoded = []
    decode = _Engine.position
    monkeypatch.setattr(_Engine, "position",
                        lambda engine, key: decoded.append(key) or decode(engine, key))
    path = build_graph("undirected", 4, [(0, 1), (1, 2), (2, 3)])
    for solver, p, conv in [
        (solve_vgeo_undirected_normal, Position("vgeo", path, 0), NORM),
        (solve_weight1_rm_misere, Position("nimg-rm", path, 0, (1, 1, 1, 1)), MIS),
        (solve_bipartite_rm_misere, Position("nimg-rm", path, 0, (2, 2, 2, 2)), MIS),
    ]:
        outcome, policy = solver(p)
        assert outcome is Outcome.N
        assert verify_strategy(p, conv, policy) is True
        assert decoded == [], solver.__name__
    # the loops policy reads weights from the key and decodes nothing either
    looped = build_graph("undirected", 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    p = Position("nimg-rm", looped, 0, (2, 1, 2))
    outcome, policy = solve_loops_rm_misere(p)
    assert outcome is Outcome.N
    assert verify_strategy(p, MIS, policy) is True
    assert decoded == []
    # the exhaustive policy asks for the position, and still certifies
    q = Position("nimg-rm", path, 0, (2, 2, 2, 2))
    assert verify_strategy(q, MIS, exhaustive_policy(MIS)) is True
    assert decoded


def _certifier_nodes(p, choose):
    """(distinct (position, policy to move) nodes, non-terminal positions with
    the policy to move) of `choose` from `p`, walked with the reference rules."""
    root = (p, True)
    seen, stack, policy_positions = {root}, [root], set()
    while stack:
        q, policy_to_move = stack.pop()
        moves = legal_moves(q)
        if moves and policy_to_move:
            policy_positions.add(q)
            moves = [choose(q)]
        for m in moves:
            node = (apply_move(q, m), not policy_to_move)
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return len(seen), policy_positions


def _budget_cases():
    path = build_graph("undirected", 4, [(0, 1), (1, 2), (2, 3)])
    square = build_graph("undirected", 4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    wheel = build_graph("undirected", 6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                          (1, 5), (2, 3), (2, 4), (3, 5)])
    fan = build_graph("undirected", 5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (3, 4)])
    rm = Position("nimg-rm", path, 0, (2, 2, 2, 2))
    vg = Position("vgeo", wheel, 4)
    cases = [
        (rm, MIS, solve_bipartite_rm_misere(rm)[1]),
        (Position("nimg-mr", square, 3, (1, 2, 2, 2)), NORM, None),
        (vg, NORM, solve_vgeo_undirected_normal(vg)[1]),
        (Position("egeo", fan, 2), MIS, None),
    ]
    return [pytest.param(*case, id=case[0].variant) for case in cases]


@pytest.mark.parametrize("p, conv, policy", _budget_cases())
def test_verify_strategy_asks_once_per_position_and_counts_every_node(p, conv, policy):
    policy = policy or exhaustive_policy(conv)
    nodes, policy_positions = _certifier_nodes(p, policy.at)
    calls = Counter()

    def choose(cur, position):
        q = position()
        calls[q] += 1
        return policy.at(q)

    counting = Policy(choose, policy.provenance)
    assert verify_strategy(p, conv, counting, budget=nodes) is True
    assert calls == Counter(policy_positions)
    assert verify_strategy(p, conv, counting, budget=nodes - 1) is None


def _hashed_policy(salt: int) -> Policy:
    """Deterministic but arbitrary: some breakdowns, some illegal moves."""

    def choose(cur, position):
        q = position()
        # the engine may drop what the token cannot reach and the reference
        # rules never do, so hash only the reachable part both sides share
        h = hash((salt, q.current, reachable_part(q).graph.edges, q.weights or ()))
        if h % 7 == 0:
            raise StrategyBreakdown("hashed breakdown")
        if h % 5 == 0:
            return Move(h % q.graph.n, h % 3 if q.weights else None)
        moves = legal_moves(q)
        return moves[h % len(moves)]

    return Policy(choose, "exhaustive")


@settings(max_examples=250, deadline=None)
@given(st.one_of(any_fresh_position(max_n=4, wmax=2), trees_plus_edges()),
       st.sampled_from(list(Convention)),
       st.integers(0, 1 << 16))
# leaving the cut vertex 1 strands a branch the reference positions keep
@example(Position("vgeo", build_graph("undirected", 6, [(0, 1), (1, 2), (1, 3), (2, 5), (3, 4)]), 0),
         NORM, 0)
def test_verify_strategy_agrees_with_tree_oracle(p, conv, salt):
    assume(count_reachable(p, limit=60) <= 60)
    policies = [_hashed_policy(salt)]
    if solve(p, conv).outcome is Outcome.N:
        policies.append(exhaustive_policy(conv))
    for policy in policies:
        assert verify_strategy(p, conv, policy) == naive_certify(p, conv, policy)


def test_exhaustive_policies_certify_across_random_suite():
    import random as _r

    rng = _r.Random(31)
    certified = 0
    while certified < 40:
        variant = rng.choice(["nimg-rm", "nimg-mr", "vgeo", "egeo"])
        kind = rng.choice(["directed", "undirected"])
        n = rng.randrange(1, 5)
        cap = n * (n - 1) if kind == "directed" else n * (n - 1) // 2
        p = random_instance(variant, kind, n, rng.randint(0, cap), 2, "none",
                            seed=rng.randrange(1 << 30))
        conv = rng.choice([NORM, MIS])
        if solve(p, conv).outcome is Outcome.N:
            policy = exhaustive_policy(conv)
            assert verify_strategy(p, conv, policy) is True
            certified += 1


def test_counterexample_bundle_layout(tmp_path):
    p = Position("vgeo", build_graph("directed", 2, [(0, 1)]), 0)
    report, out = check_reduction("vgeo-dir", p, seed=77)
    bundle = write_counterexample(str(tmp_path), report, p, out)
    assert os.path.basename(bundle) == "vgeo-dir-seed77-start0"
    names = sorted(os.listdir(bundle))
    assert names == ["namemap.txt", "report.txt", "source.pos", "target.pos"]
    namemap = (tmp_path / os.path.basename(bundle) / "namemap.txt").read_text()
    assert "0_1 -> 0" in namemap
    assert (tmp_path / os.path.basename(bundle) / "report.txt").read_text() == (
        "reduction vgeo-dir\nseed 77\nsource outcome Outcome.N\n"
        "target outcome Outcome.N\nstates 2 / 3\n")
    from mgg.posfile import read_position

    src_pos, src_conv = read_position(os.path.join(bundle, "source.pos"))
    assert src_pos == p and src_conv is NORM
    tgt_pos, tgt_conv = read_position(os.path.join(bundle, "target.pos"))
    assert tgt_pos == out.position and tgt_conv is MIS
