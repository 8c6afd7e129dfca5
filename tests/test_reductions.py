import random

import pytest

from mgg.graphs import build_graph
from mgg.kernel import Convention, Position
from mgg.reductions import (
    REDUCTIONS,
    SOURCE_CONVENTION,
    TARGET_CONVENTION,
    Grid,
    InfeasibleGrid,
    reduce_egeo_dir_misere,
    reduce_egeo_undir_misere,
    reduce_nimgmr_normal_to_misere,
    reduce_vgeo_dir_misere,
    reduce_vgeo_dir_to_nimgrm_misere,
    reduce_vgeo_dir_to_undir_misere,
)
from mgg.search import Outcome, solve

MIS = Convention.MISERE
NORM = Convention.NORMAL


def outcomes_agree(name, pos):
    out = REDUCTIONS[name].apply(pos)
    return solve(pos, NORM).outcome == solve(out.position, MIS).outcome


def test_every_reduction_maps_normal_to_misere():
    assert SOURCE_CONVENTION is NORM and TARGET_CONVENTION is MIS


def degree_counts(g):
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        if u != v:
            deg[v] += 1
    return deg


# ----------------------------------------------------------- escape builders

def test_vgeo_dir_single_vertex():
    g = build_graph("directed", 1, [])
    out = reduce_vgeo_dir_misere(g, 0)
    assert out.position.graph.edges == ((0, 1),)
    assert solve(out.position, MIS).outcome is Outcome.P
    assert solve(Position("vgeo", g, 0), NORM).outcome is Outcome.P


def test_vgeo_dir_single_arc_and_cycle():
    arc = build_graph("directed", 2, [(0, 1)])
    assert solve(Position("vgeo", arc, 0), NORM).outcome is Outcome.N
    assert outcomes_agree("vgeo-dir", Position("vgeo", arc, 0))
    cycle = build_graph("directed", 3, [(0, 1), (1, 2), (2, 0)])
    for s in range(3):
        assert outcomes_agree("vgeo-dir", Position("vgeo", cycle, s))


def test_vgeo_dir_size_and_degree_bookkeeping():
    g = build_graph("directed", 4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)])
    out = reduce_vgeo_dir_misere(g, 0)
    tgt = out.position.graph
    assert tgt.n == 2 * g.n
    assert len(tgt.edges) == len(g.edges) + g.n
    out_deg = [len(tgt.adjacency[v]) for v in range(tgt.n)]
    src_out = [len(g.adjacency[v]) for v in range(g.n)]
    assert max(out_deg) == max(src_out) + 1
    for u in range(g.n):  # every added vertex has total degree one
        copy = out.name_map[f"{u}_2"]
        assert degree_counts(tgt)[copy] == 1
        assert out.name_map[f"{u}_1"] == u


def test_egeo_escape_builders():
    one = build_graph("directed", 1, [])
    out = reduce_egeo_dir_misere(one, 0)
    assert solve(out.position, MIS).outcome is Outcome.P
    arc = build_graph("directed", 2, [(0, 1)])
    assert outcomes_agree("egeo-dir", Position("egeo", arc, 0))
    two_cycle = build_graph("directed", 2, [(0, 1), (1, 0)])
    assert outcomes_agree("egeo-dir", Position("egeo", two_cycle, 0))

    lone = build_graph("undirected", 1, [])
    assert outcomes_agree("egeo-undir", Position("egeo", lone, 0))
    edge = build_graph("undirected", 2, [(0, 1)])
    assert outcomes_agree("egeo-undir", Position("egeo", edge, 0))
    tri = build_graph("undirected", 3, [(0, 1), (1, 2), (0, 2)])
    for s in range(3):
        assert outcomes_agree("egeo-undir", Position("egeo", tri, s))


# ------------------------------------------------------ undirected arc gadget

def test_vgeo_undir_single_vertex():
    g = build_graph("directed", 1, [])
    out = reduce_vgeo_dir_to_undir_misere(g, 0)
    assert out.position.graph.edges == ((0, 1),)
    assert solve(out.position, MIS).outcome is Outcome.P


def test_vgeo_undir_gadget_edges_verbatim():
    g = build_graph("directed", 2, [(0, 1)])
    out = reduce_vgeo_dir_to_undir_misere(g, 0)
    nm = out.name_map
    s = {i: nm[f"(0,1)_{i}"] for i in range(1, 9)}
    expected = {
        (nm["0"], nm["0'"]),
        (nm["1"], nm["1'"]),
        (nm["0"], s[1]),
        (s[1], s[2]),
        (s[1], s[3]),
        (s[1], s[6]),
        (s[2], s[4]),
        (s[3], s[5]),
        (s[3], s[6]),
        (s[4], s[5]),
        (s[4], s[6]),
        (s[5], s[6]),
        (s[6], s[7]),
        (s[7], s[8]),
        (s[7], nm["1"]),
    }
    canon = {(min(a, b), max(a, b)) for a, b in expected}
    assert set(out.position.graph.edges) == canon
    assert out.position.graph.n == 2 * 2 + 8 * 1
    assert out.position.current == 0


def test_vgeo_undir_small_instances_agree():
    arc = build_graph("directed", 2, [(0, 1)])
    assert outcomes_agree("vgeo-undir", Position("vgeo", arc, 0))
    two_cycle = build_graph("directed", 2, [(0, 1), (1, 0)])
    assert outcomes_agree("vgeo-undir", Position("vgeo", two_cycle, 0))


def test_vgeo_undir_degree_bookkeeping():
    g = build_graph("directed", 3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    out = reduce_vgeo_dir_to_undir_misere(g, 0)
    tgt = out.position.graph
    assert tgt.n == 2 * g.n + 8 * len(g.edges)
    deg = degree_counts(tgt)
    src_total = [0] * g.n
    for u, v in g.edges:
        src_total[u] += 1
        src_total[v] += 1
    assert max(deg) <= max(max(src_total) + 1, 5)
    for u in range(g.n):
        assert deg[out.name_map[f"{u}"]] == src_total[u] + 1
        assert deg[out.name_map[f"{u}'"]] == 1
    for label, vid in out.name_map.items():
        if "_" in label:  # gadget vertices stay small
            assert deg[vid] <= 5


# ------------------------------------------------------- token-game gadget

def test_nimgrm_single_vertex():
    g = build_graph("directed", 1, [])
    out = reduce_vgeo_dir_to_nimgrm_misere(g, 0)
    assert out.position.graph.n == 1
    assert out.position.weights == (1,)
    assert solve(out.position, MIS).outcome is Outcome.P


def test_nimgrm_gadget_verbatim():
    g = build_graph("directed", 2, [(0, 1)])
    out = reduce_vgeo_dir_to_nimgrm_misere(g, 0)
    nm = out.name_map
    a, b, c, d = (nm[f"{x}_(0,1)"] for x in "abcd")
    expected = {
        (nm["X_0"], a),
        (a, b),
        (b, c),
        (b, d),
        (c, d),
        (d, nm["X_1"]),
    }
    canon = {(min(x, y), max(x, y)) for x, y in expected}
    assert set(out.position.graph.edges) == canon
    weights = out.position.weights
    assert weights[a] == weights[b] == weights[c] == 1
    assert weights[d] == 2
    assert weights[nm["X_0"]] == weights[nm["X_1"]] == 1


def test_nimgrm_small_instances_agree():
    arc = build_graph("directed", 2, [(0, 1)])
    assert outcomes_agree("nimg-rm", Position("vgeo", arc, 0))
    path = build_graph("directed", 3, [(0, 1), (1, 2)])
    assert outcomes_agree("nimg-rm", Position("vgeo", path, 0))


def test_nimgrm_weight_and_structure_invariants():
    g = build_graph("directed", 3, [(0, 1), (1, 2), (2, 0), (1, 0)])
    out = reduce_vgeo_dir_to_nimgrm_misere(g, 0)
    tgt = out.position.graph
    assert tgt.n == g.n + 4 * len(g.edges)
    assert max(out.position.weights) <= 2
    assert not tgt.loop_vertices
    deg = degree_counts(tgt)
    for label, vid in out.name_map.items():
        if label.startswith(("a_", "b_", "c_", "d_")):
            assert deg[vid] <= 3
    src_deg = [0] * g.n
    for u, v in g.edges:
        src_deg[u] += 1
        src_deg[v] += 1
    for u in range(g.n):  # original degrees are not increased
        assert deg[out.name_map[f"X_{u}"]] == src_deg[u]


# ----------------------------------------------------------- nimg-mr chains

def test_nimgmr_examples_agree():
    loop = build_graph("undirected", 1, [(0, 0)])
    assert outcomes_agree("nimg-mr", Position("nimg-mr", loop, 0, (1,)))
    edge = build_graph("undirected", 2, [(0, 1)])
    assert outcomes_agree("nimg-mr", Position("nimg-mr", edge, 0, (1, 2)))
    tri = build_graph("undirected", 3, [(0, 1), (1, 2), (0, 2)])
    for s in range(3):
        assert outcomes_agree("nimg-mr", Position("nimg-mr", tri, s, (1, 1, 1)))


def test_nimgmr_preserves_loops_and_sizes():
    g = build_graph("undirected", 2, [(0, 1), (0, 0)])
    out = reduce_nimgmr_normal_to_misere(g, (2, 1), 1)
    tgt = out.position.graph
    assert tgt.n == 4 * g.n
    assert len(tgt.edges) == len(g.edges) + 3 * g.n
    assert tgt.loop_vertices == frozenset({0})
    assert out.position.current == 1
    assert out.position.weights[: g.n] == (2, 1)
    for x in range(g.n):
        c1, c2, c3 = (out.name_map[f"{x}_c{i}"] for i in (1, 2, 3))
        assert {(x, c1), (c1, c2), (c2, c3)} <= set(tgt.edges)
        assert out.position.weights[c1] == out.position.weights[c2] == out.position.weights[c3] == 1


# ----------------------------------------------------------------- generic

@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_name_maps_are_complete_and_injective(name):
    rng = random.Random(3)
    entry = REDUCTIONS[name]
    directed = entry.source_kind == "directed"
    kind = "directed" if directed else "undirected"
    if directed:
        cands = [(i, j) for i in range(4) for j in range(4) if i != j]
    else:
        cands = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g = build_graph(kind, 4, rng.sample(cands, 5))
    w = (1, 2, 1, 2) if entry.source_variant == "nimg-mr" else None
    pos = Position(entry.source_variant, g, 0, w)
    out = entry.apply(pos)
    ids = sorted(out.name_map.values())
    assert ids == list(range(out.position.graph.n))  # total and injective
    assert out.position.current == out.name_map[_start_label(name, 0)]


def _start_label(name, v):
    if name in ("vgeo-dir", "egeo-dir", "egeo-undir"):
        return f"{v}_1"
    if name == "nimg-rm":
        return f"X_{v}"
    return f"{v}"


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_reductions_are_deterministic(name):
    entry = REDUCTIONS[name]
    directed = entry.source_kind == "directed"
    g = build_graph(
        "directed" if directed else "undirected", 3, [(0, 1), (1, 2)]
    )
    w = (1, 1, 2) if entry.source_variant == "nimg-mr" else None
    pos = Position(entry.source_variant, g, 1, w)
    first = entry.apply(pos)
    second = entry.apply(pos)
    assert first.position == second.position
    assert first.name_map == second.name_map


def test_reductions_reject_wrong_kind():
    und = build_graph("undirected", 2, [(0, 1)])
    with pytest.raises(ValueError):
        reduce_vgeo_dir_misere(und, 0)
    with pytest.raises(ValueError):
        reduce_vgeo_dir_to_undir_misere(und, 0)
    with pytest.raises(ValueError):
        reduce_vgeo_dir_to_nimgrm_misere(und, 0)
    with pytest.raises(ValueError):
        reduce_egeo_undir_misere(build_graph("directed", 2, [(0, 1)]), 0)
    with pytest.raises(ValueError):
        reduce_egeo_dir_misere(und, 0)
    with pytest.raises(ValueError):
        reduce_vgeo_dir_misere(build_graph("directed", 2, [(0, 1)]), 5)


@pytest.mark.parametrize("field,value", [
    ("n", 0), ("m", -1), ("wmax", 0), ("trials", 0),
])
def test_grid_rejects_a_grid_with_no_trial(field, value):
    with pytest.raises(InfeasibleGrid, match=f"--{field} must be >= {value + 1}, got {value}"):
        Grid(**{field: value})
