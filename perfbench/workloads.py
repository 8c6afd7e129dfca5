"""The four benchmark workloads: inputs made from a seed, and one item each.

Each `setup_*` function runs after a fresh `import mgg`, builds its inputs
from the seed and returns `(params, items)`.  `items(tracer)` yields the
closed loop's items in order; an item is a zero-argument callable returning
None on success or a message saying why it failed.  Pool-based workloads
cycle through their pool, so item `i` is pool entry `i % len(pool)` and is
checked against entry `i % len(pool)` of the recorded reference outcomes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from functools import partial
from itertools import count

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The six grids of scripts/verify_reductions.py, each source grown by one
# vertex and two edges: name -> (n, m, wmax, loops, all_starts).
VERIFY_GRIDS = {
    "vgeo-dir": (7, 12, 1, "none", True),
    "vgeo-undir": (5, 6, 1, "none", False),
    "egeo-dir": (6, 10, 1, "none", False),
    "egeo-undir": (6, 10, 1, "none", False),
    "nimg-rm": (5, 6, 1, "none", False),
    "nimg-mr": (5, 6, 2, "free", False),
}
VERIFY_TRIALS = 10_000_000  # more trial indices than any run reaches

# search-deep: (variant, kind, n, m, wmax, convention, instances).  Dense
# vertex geography carries the large tables: its table size varies little
# between random graphs, so the slowest items and the largest table, which
# sets peak RSS, are steady from seed to seed.  The largest tables stay
# between about 3.5e5 and 7e5 entries, inside one dict size class, so peak
# RSS does not jump with the seed.  The many normal-play n=16 positions
# hold the median item.  Edge geography and both Nim games vary far more
# from graph to graph, so they come as many short items.
SEARCH_CELLS = (
    ("vgeo", "undirected", 23, 230, 1, "normal", 2),
    ("vgeo", "undirected", 23, 230, 1, "misere", 1),
    ("vgeo", "undirected", 21, 180, 1, "normal", 3),
    ("vgeo", "undirected", 21, 180, 1, "misere", 3),
    ("vgeo", "undirected", 20, 171, 1, "normal", 4),
    ("vgeo", "undirected", 20, 171, 1, "misere", 4),
    ("vgeo", "directed", 17, 200, 1, "normal", 8),
    ("vgeo", "directed", 17, 200, 1, "misere", 8),
    ("vgeo", "undirected", 16, 90, 1, "normal", 150),
    ("vgeo", "undirected", 16, 90, 1, "misere", 30),
) + tuple(
    (variant, kind, n, m, wmax, conv, 14)
    for variant, kind, n, m, wmax in (
        ("egeo", "undirected", 7, 18, 1),
        ("egeo", "directed", 6, 24, 1),
        ("nimg-mr", "undirected", 6, 15, 4),
        ("nimg-mr", "directed", 6, 30, 4),
        ("nimg-rm", "undirected", 6, 15, 4),
        ("nimg-rm", "directed", 6, 30, 4),
    )
    for conv in ("normal", "misere")
)

# solve-files, large files that route to a matching solver:
# (name, variant, convention, n, m, weights, loops on every vertex).
LARGE_FILES = (
    ("bipartite-rm", "nimg-rm", "misere", 4000, 16000, 3, False),
    ("vgeo-normal", "vgeo", "normal", 2000, 6000, None, False),
    ("weight1-rm", "nimg-rm", "misere", 2000, 6000, 1, False),
    ("loops-rm", "nimg-rm", "misere", 2000, 6000, 2, True),
)
# ...and small files that route to the exhaustive solver:
# (variant, kind, n, m, wmax, convention).
SMALL_FILES = (
    ("egeo", "undirected", 6, 9, 1, "normal"),
    ("egeo", "directed", 5, 10, 1, "misere"),
    ("vgeo", "directed", 8, 16, 1, "normal"),
    ("vgeo", "undirected", 8, 14, 1, "misere"),
    ("nimg-mr", "undirected", 5, 7, 3, "normal"),
    ("nimg-mr", "directed", 5, 10, 3, "misere"),
    ("nimg-rm", "undirected", 5, 7, 3, "normal"),
    ("nimg-rm", "directed", 5, 10, 2, "misere"),
)
LARGE_COPIES, SMALL_COPIES = 5, 5
CHILD_TIMEOUT_S = 120

# policy-certify: (variant, n, m, wmax, loops, convention, instances), all
# undirected, one cell per matching class, sized so that certifying an N
# position takes about 5-80 ms.  The pool outlasts a run, so the slowest
# items are distinct positions rather than repeats.  "bipartite" draws its
# edges across two fixed halves of the vertices.
POLICY_CELLS = (
    ("vgeo", 18, 45, 1, "none", "normal", 500),
    ("nimg-rm", 18, 40, 1, "none", "misere", 500),       # weight one
    ("nimg-rm", 12, 24, 2, "bipartite", "misere", 500),
    ("nimg-rm", 12, 20, 2, "all", "misere", 500),        # loop on every vertex
)


def _interleave(cells):
    """Spread each cell's entries evenly, so every prefix keeps the mix."""
    keyed = [((j + 0.5) / len(entries), c, entry)
             for c, entries in enumerate(cells) for j, entry in enumerate(entries)]
    return [entry for _, _, entry in sorted(keyed, key=lambda k: k[:2])]


def _cycle(pool):
    for i in count():
        yield i % len(pool), pool[i % len(pool)]


def _require_reference_fits(expected, pool) -> None:
    if expected is not None and len(expected) != len(pool):
        raise ValueError(f"reference.json has {len(expected)} outcomes for this seed, "
                         f"the pool has {len(pool)} entries: record it again")


def _check_outcome(expected, index, got) -> str | None:
    if expected is not None and got != expected[index]:
        return f"pool entry {index}: outcome {got}, reference {expected[index]}"
    return None


def _random_pairs(rng, n, m, left=None):
    """`m` distinct edges: bipartite across `left`/rest when `left` is given."""
    edges = set()
    while len(edges) < m:
        if left is not None:
            edges.add((rng.randrange(left), left + rng.randrange(n - left)))
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


# -- verify-grid ---------------------------------------------------------------

def setup_verify_grid(seed, work_dir, expected):
    arena = sys.modules["mgg.arena"]

    def trial(name, grid):
        report, pos, _ = next(grid)
        if report.agree is not True:
            return (f"{name} trial seed {report.seed} start {pos.current}: "
                    f"agree={report.agree}")
        return None

    def items(tracer):
        grids = [(name, arena.run_reduction_grid(
            name, n=n, m=m, weight_bound=w, trials=VERIFY_TRIALS,
            master_seed=seed, loops=loops, all_starts=all_starts))
            for name, (n, m, w, loops, all_starts) in VERIFY_GRIDS.items()]
        while True:
            for name, grid in grids:
                yield partial(trial, name, grid)

    return {"grids": VERIFY_GRIDS}, items


# -- search-deep ---------------------------------------------------------------

def search_pool(seed):
    arena, kernel = sys.modules["mgg.arena"], sys.modules["mgg.kernel"]
    cells, index = [], 0
    for variant, kind, n, m, wmax, conv, size in SEARCH_CELLS:
        entries = []
        for _ in range(size):
            p = arena.random_instance(variant, kind, n, m, wmax, "none",
                                      arena.mix_seed(seed, index))
            entries.append((p, kernel.Convention(conv)))
            index += 1
        cells.append(entries)
    return _interleave(cells)


def setup_search_deep(seed, work_dir, expected):
    search = sys.modules["mgg.search"]
    pool = search_pool(seed)
    _require_reference_fits(expected, pool)

    def solve(index, p, conv):
        report = search.solve(p, conv)
        if report.budget_exhausted:
            return f"pool entry {index}: budget exhausted"
        return _check_outcome(expected, index, report.outcome.value)

    def items(tracer):
        for index, (p, conv) in _cycle(pool):
            yield partial(solve, index, p, conv)

    return {"cells": SEARCH_CELLS, "pool": len(pool)}, items


# -- solve-files ---------------------------------------------------------------

def solve_file_positions(seed):
    """(file stem, position, convention) for one pool, in pool order."""
    arena, kernel, graphs = (sys.modules[f"mgg.{m}"] for m in ("arena", "kernel", "graphs"))
    rng = random.Random(arena.mix_seed(seed, 0))
    large, small = [], []
    for copy in range(LARGE_COPIES):
        for name, variant, conv, n, m, wmax, loops in LARGE_FILES:
            left = n // 2 if name.startswith("bipartite") else None
            edges = _random_pairs(rng, n, m, left)
            if loops:
                edges += [(v, v) for v in range(n)]
            weights = None if wmax is None else tuple(
                rng.randint(1, wmax) for _ in range(n))
            g = graphs.Graph(n, tuple(edges))
            p = kernel.Position(variant, g, rng.randrange(n), weights)
            large.append((f"{name}-{copy}", p, kernel.Convention(conv)))
    index = 1
    for copy in range(SMALL_COPIES):
        for variant, kind, n, m, wmax, conv in SMALL_FILES:
            p = arena.random_instance(variant, kind, n, m, wmax, "none",
                                      arena.mix_seed(seed, index))
            small.append((f"{variant}-{kind}-{conv}-{copy}", p, kernel.Convention(conv)))
            index += 1
    return _interleave([large, small])


def setup_solve_files(seed, work_dir, expected):
    posfile = sys.modules["mgg.posfile"]
    file_dir = os.path.join(work_dir, f"files-{seed}")
    os.makedirs(file_dir, exist_ok=True)
    pool = []
    for stem, p, conv in solve_file_positions(seed):
        path = os.path.join(file_dir, stem + ".pos")
        posfile.write_position(path, p, conv)
        pool.append(path)
    _require_reference_fits(expected, pool)
    env = dict(os.environ, PYTHONPATH=SRC)
    summary_path = os.path.join(work_dir, "child-summary.json")
    if os.path.exists(summary_path):  # left by an interrupted run
        os.remove(summary_path)

    def solve(index, path, tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "mgg.cli", "solve", path]
        else:
            argv = [sys.executable, os.path.join(HERE, "child.py"), summary_path,
                    "solve", path]
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if tracer is not None:
            t0 = time.perf_counter()
            try:
                with open(summary_path, encoding="utf-8") as fh:
                    summary = json.load(fh)
            except FileNotFoundError:
                return f"{path}: traced child wrote no summary: {proc.stderr.strip()[-200:]}"
            os.remove(summary_path)
            tracer.merge(summary)
            tracer.excluded += summary["excluded"] + time.perf_counter() - t0
        if proc.returncode != 0:
            return f"{path}: exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        outcome = next((line.split()[1] for line in proc.stdout.splitlines()
                        if line.startswith("outcome ")), None)
        if outcome is None:
            return f"{path}: no outcome line in {proc.stdout!r}"
        return _check_outcome(expected, index, outcome)

    def items(tracer):
        for index, path in _cycle(pool):
            yield partial(solve, index, path, tracer)

    params = {"large": LARGE_FILES, "small": SMALL_FILES,
              "copies": [LARGE_COPIES, SMALL_COPIES], "pool": len(pool)}
    return params, items


# -- policy-certify ------------------------------------------------------------

def policy_pool(seed):
    arena, kernel, graphs = (sys.modules[f"mgg.{m}"] for m in ("arena", "kernel", "graphs"))
    cells, index = [], 0
    for variant, n, m, wmax, loops, conv, size in POLICY_CELLS:
        entries = []
        for _ in range(size):
            s = arena.mix_seed(seed, index)
            index += 1
            if loops == "bipartite":
                rng = random.Random(s)
                g = graphs.Graph(n, tuple(_random_pairs(rng, n, m, left=n // 2)))
                weights = tuple(rng.randint(1, wmax) for _ in range(n))
                p = kernel.Position(variant, g, rng.randrange(n), weights)
            else:
                p = arena.random_instance(variant, "undirected", n, m, wmax, loops, s)
            entries.append((p, kernel.Convention(conv)))
        cells.append(entries)
    return _interleave(cells)


def setup_policy_certify(seed, work_dir, expected):
    arena, cli = sys.modules["mgg.arena"], sys.modules["mgg.cli"]
    pool = policy_pool(seed)
    _require_reference_fits(expected, pool)

    def certify(index, p, conv):
        outcome, policy, solver = cli.poly_solve(p, conv)
        if outcome.value == "N":
            certified = arena.verify_strategy(p, conv, policy)
            if certified is not True:
                return f"pool entry {index}: {solver} policy certified {certified}"
        return _check_outcome(expected, index, outcome.value)

    def items(tracer):
        for index, (p, conv) in _cycle(pool):
            yield partial(certify, index, p, conv)

    return {"cells": POLICY_CELLS, "pool": len(pool)}, items


WORKLOADS = {
    "verify-grid": (("mgg",), setup_verify_grid),
    "search-deep": (("mgg",), setup_search_deep),
    "solve-files": (("mgg",), setup_solve_files),
    "policy-certify": (("mgg", "mgg.cli"), setup_policy_certify),
}
