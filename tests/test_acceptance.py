"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every suite is seeded, so
reruns check byte-identical trial sets.
"""

import math
import random
import time

from mgg.arena import mix_seed, random_instance, run_reduction_grid, verify_strategy
from mgg.graphs import Bipartition, Graph, bipartition, build_graph
from mgg.kernel import Convention, Position
from mgg.matching import (
    max_matching_bipartite,
    max_matching_bipartite_with_phases,
    max_matching_general,
)
from mgg.polysolve import (
    solve_bipartite_rm_misere,
    solve_loops_rm_misere,
    solve_vgeo_undirected_normal,
    solve_weight1_rm_misere,
)
from mgg.reductions import REDUCTIONS
from mgg.search import Outcome, solve
from oracles import brute_force_matching_size, pairs, random_connected_bipartite

MIS = Convention.MISERE
NORM = Convention.NORMAL

BIPARTITE_SEED = 101
WEIGHT1_SEED = 202
LOOPS_SEED = 303


def _report(criterion, name):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def _bipartite_suite(trials=500):
    """Criterion-1 instances: connected bipartite, n <= 6, weights in {1,2}."""
    for index in range(trials):
        rng = random.Random(mix_seed(BIPARTITE_SEED, index))
        g = random_connected_bipartite(rng.randrange(1, 7), rng)
        weights = tuple(rng.randrange(1, 3) for _ in range(g.n))
        yield g, weights


def _weight1_suite(trials=500):
    for index in range(trials):
        seed = mix_seed(WEIGHT1_SEED, index)
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        m = rng.randint(0, n * (n - 1) // 2)
        yield random_instance("nimg-rm", "undirected", n, m, 1, "none", seed)


def _loops_suite(trials=300):
    for index in range(trials):
        seed = mix_seed(LOOPS_SEED, index)
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        m = rng.randint(0, n * (n - 1) // 2)
        yield random_instance("nimg-rm", "undirected", n, m, 3, "all", seed)


def test_criterion_01_bipartite_misere_rm():
    t0 = time.perf_counter()
    checked = 0
    for g, weights in _bipartite_suite():
        for start in range(g.n):
            pos = Position("nimg-rm", g, start, weights)
            fast, _ = solve_bipartite_rm_misere(pos)
            assert fast == solve(pos, MIS).outcome, (g.edges, weights, start)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 500
    assert elapsed < 120, f"bipartite suite took {elapsed:.1f}s"
    _report(1, f"bipartite misere rm, {checked} starts in {elapsed:.1f}s")


def test_criterion_02_weight1_misere_rm():
    count = 0
    for pos in _weight1_suite():
        fast, _ = solve_weight1_rm_misere(pos)
        vgeo, _ = solve_vgeo_undirected_normal(Position("vgeo", pos.graph, pos.current))
        assert fast == vgeo
        assert fast == solve(pos, MIS).outcome, (pos.graph.edges, pos.current)
        count += 1
    assert count >= 500
    _report(2, f"weight-1 misere rm on general graphs, {count} instances")


def test_criterion_03_all_loops_misere_rm():
    count = 0
    for pos in _loops_suite():
        fast, _ = solve_loops_rm_misere(pos)
        assert fast == solve(pos, MIS).outcome, (pos.graph.edges, pos.weights, pos.current)
        count += 1
    assert count >= 300
    _report(3, f"all-loops misere rm, {count} instances")


def _run_grid(name, **kw):
    reports = []
    for report, _, _ in run_reduction_grid(name, **kw):
        reports.append(report)
    return reports


def test_criterion_04_reduction_vgeo_dir():
    reports = _run_grid(
        "vgeo-dir", n=6, m=10, weight_bound=1, trials=500, master_seed=404,
        all_starts=True,
    )
    assert len({r.seed for r in reports}) >= 500
    assert all(r.agree is True for r in reports)
    _report(4, f"vgeo-dir reduction, {len(reports)} start-checks")


def test_criterion_05_reduction_vgeo_undir():
    t0 = time.perf_counter()
    reports = _run_grid(
        "vgeo-undir", n=4, m=4, weight_bound=1, trials=100, master_seed=505,
        budget=10_000_000,
    )
    elapsed = time.perf_counter() - t0
    completed = [r for r in reports if r.agree is not None]
    assert len(reports) >= 100
    assert len(completed) >= 0.9 * len(reports)
    assert all(r.agree is True for r in completed)
    assert elapsed < 600, f"vgeo-undir suite took {elapsed:.1f}s"
    _report(
        5,
        f"vgeo-undir gadget, {len(completed)}/{len(reports)} completed "
        f"in {elapsed:.1f}s",
    )


def test_criterion_06_reductions_egeo():
    for name, seed in (("egeo-dir", 606), ("egeo-undir", 607)):
        reports = _run_grid(
            name, n=5, m=8, weight_bound=1, trials=300, master_seed=seed
        )
        assert len(reports) >= 300
        assert all(r.agree is True for r in reports)
    _report(6, "egeo-dir and egeo-undir reductions, 300 instances each")


def test_criterion_07_reduction_nimg_rm():
    count = 0
    for report, pos, out in run_reduction_grid(
        "nimg-rm", n=4, m=4, weight_bound=1, trials=200, master_seed=707
    ):
        assert report.agree is True
        assert max(out.position.weights) <= 2
        assert not out.position.graph.loop_vertices
        count += 1
    assert count >= 200
    _report(7, f"nimg-rm gadget reduction, {count} instances")


def test_criterion_08_reduction_nimg_mr():
    count = 0
    for loops, seed in (("none", 808), ("all", 809), ("free", 810)):
        reports = _run_grid(
            "nimg-mr", n=4, m=4, weight_bound=2, trials=100, master_seed=seed,
            loops=loops,
        )
        assert all(r.agree is True for r in reports)
        count += len(reports)
    assert count >= 300
    _report(8, f"nimg-mr chain reduction, {count} instances incl. loops")


def test_criterion_09_strategy_certification():
    certified = 0
    for g, weights in _bipartite_suite():
        for start in range(g.n):
            pos = Position("nimg-rm", g, start, weights)
            outcome, policy = solve_bipartite_rm_misere(pos)
            if outcome is Outcome.N:
                assert verify_strategy(pos, MIS, policy) is True, (g.edges, weights, start)
                certified += 1
    for pos in _weight1_suite():
        outcome, policy = solve_weight1_rm_misere(pos)
        if outcome is Outcome.N:
            assert verify_strategy(pos, MIS, policy) is True
            certified += 1
    for pos in _loops_suite():
        outcome, policy = solve_loops_rm_misere(pos)
        if outcome is Outcome.N:
            assert verify_strategy(pos, MIS, policy) is True
            certified += 1
    assert certified > 0
    _report(9, f"strategy certification, {certified} winning policies verified")


def test_criterion_10_matching_engine():
    rng = random.Random(1010)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 11)
        cap = n * (n - 1) // 2
        m = rng.randrange(0, min(cap, 24) + 1)
        cands = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_graph("undirected", n, rng.sample(cands, m))
        expected = brute_force_matching_size(g)
        assert pairs(max_matching_general(g)) == expected
        b = bipartition(g)
        if b is not None:
            assert pairs(max_matching_bipartite(g, b)) == expected
        checked += 1
    # the one quantitative claim: layered matching at scale
    big_rng = random.Random(1)
    n, m = 20_000, 100_000
    half = n // 2
    edges = set()
    while len(edges) < m:
        edges.add((big_rng.randrange(half), half + big_rng.randrange(n - half)))
    g = Graph(n, tuple(edges), directed=False)
    b = Bipartition(frozenset(range(half)), frozenset(range(half, n)))
    t0 = time.perf_counter()
    matching, phases = max_matching_bipartite_with_phases(g, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"matching took {elapsed:.3f}s"
    assert phases <= 2 * math.isqrt(n) + 2
    assert pairs(matching) > 0
    _report(
        10,
        f"matching vs brute force x{checked}; n=2e4 m=1e5 in {elapsed:.3f}s, "
        f"{phases} phases",
    )


def test_criterion_11_reduction_bookkeeping():
    rng = random.Random(1111)
    for name in sorted(REDUCTIONS):
        entry = REDUCTIONS[name]
        kind = entry.source_kind if entry.source_kind != "any" else "undirected"
        for _ in range(100):
            n = rng.randint(1, 5)
            cap = n * (n - 1) if kind == "directed" else n * (n - 1) // 2
            m = rng.randint(0, min(cap, 8))
            seed = rng.randrange(1 << 30)
            pos = random_instance(entry.source_variant, kind, n, m, 2, "none", seed)
            out = entry.apply(pos)
            g, tgt = pos.graph, out.position.graph
            deg = [0] * tgt.n
            for u, v in tgt.edges:
                deg[u] += 1
                if u != v:
                    deg[v] += 1
            src_deg = [0] * g.n
            for u, v in g.edges:
                src_deg[u] += 1
                if u != v:
                    src_deg[v] += 1
            if name in ("vgeo-dir", "egeo-dir", "egeo-undir"):
                assert tgt.n == 2 * g.n
                assert len(tgt.edges) == len(g.edges) + g.n
                out_deg = [len(tgt.adjacency[v]) for v in range(tgt.n)]
                src_out = [len(g.adjacency[v]) for v in range(g.n)]
                assert max(out_deg) == max(src_out) + 1
                for u in range(g.n):
                    assert deg[out.name_map[f"{u}_2"]] == 1
            elif name == "vgeo-undir":
                assert tgt.n == 2 * g.n + 8 * len(g.edges)
                assert len(tgt.edges) == 13 * len(g.edges) + g.n
                assert max(deg) <= max(max(src_deg, default=0) + 1, 5)
            elif name == "nimg-rm":
                assert tgt.n == g.n + 4 * len(g.edges)
                assert len(tgt.edges) == 6 * len(g.edges)
                assert max(out.position.weights) <= 2
                assert not tgt.loop_vertices
                for label, vid in out.name_map.items():
                    if label[0] in "abcd":
                        assert deg[vid] <= 3
            else:  # nimg-mr
                assert tgt.n == 4 * g.n
                assert len(tgt.edges) == len(g.edges) + 3 * g.n
    _report(11, "reduction size and degree bookkeeping, 100 instances each")
