"""Hypothesis strategies for graphs and positions."""

from __future__ import annotations

import hypothesis.strategies as st

from mgg.graphs import DIRECTED, UNDIRECTED, build_graph
from mgg.kernel import EGEO, NIMG_MR, NIMG_RM, VGEO, Position


@st.composite
def graphs(draw, max_n=6, min_n=1, directed=False, allow_loops=False):
    n = draw(st.integers(min_n, max_n))
    if directed:
        candidates = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:
        candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if allow_loops:
        candidates += [(v, v) for v in range(n)]
    edges = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    return build_graph(DIRECTED if directed else UNDIRECTED, n, edges)


@st.composite
def nimg_positions(
    draw,
    variant=NIMG_RM,
    max_n=5,
    wmax=2,
    min_weight=1,
    directed=False,
    allow_loops=True,
):
    g = draw(graphs(max_n=max_n, directed=directed, allow_loops=allow_loops))
    weights = tuple(
        draw(st.lists(st.integers(min_weight, wmax), min_size=g.n, max_size=g.n))
    )
    current = draw(st.integers(0, g.n - 1))
    return Position(variant, g, current, weights)


@st.composite
def geo_positions(draw, variant=VGEO, max_n=5, directed=None, allow_loops=None):
    if directed is None:
        directed = draw(st.booleans())
    if allow_loops is None:
        allow_loops = variant == EGEO
    g = draw(graphs(max_n=max_n, directed=directed, allow_loops=allow_loops))
    current = draw(st.integers(0, g.n - 1))
    return Position(variant, g, current)


def any_fresh_position(max_n=5, wmax=2):
    return st.one_of(
        nimg_positions(variant=NIMG_RM, max_n=max_n, wmax=wmax, min_weight=0),
        nimg_positions(variant=NIMG_MR, max_n=max_n, wmax=wmax, min_weight=0),
        nimg_positions(variant=NIMG_RM, max_n=max_n, wmax=wmax, directed=True),
        geo_positions(variant=VGEO, max_n=max_n),
        geo_positions(variant=EGEO, max_n=max_n),
    )


@st.composite
def trees_plus_edges(draw, max_n=8, extra=2):
    """Undirected vgeo on a random tree plus up to `extra` more edges, from
    any start: cut vertices everywhere, so the engine prunes often."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    more = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges |= set(draw(st.lists(st.sampled_from(more), max_size=extra)) if more else ())
    return Position(VGEO, build_graph(UNDIRECTED, n, edges), draw(st.integers(0, n - 1)))
