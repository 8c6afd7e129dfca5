"""Outcome-preserving constructions from normal play to misere play.

Each builder maps a source position, played under `SOURCE_CONVENTION`, to a
target position whose outcome under `TARGET_CONVENTION` is claimed equal,
and returns a name map from source entities to target vertex ids so
cross-check failures print recognisable labels.  Vertex numbering is
deterministic:

* escape constructions (vgeo-dir, egeo-dir, egeo-undir): copy ``u_1 = u``,
  fresh escape neighbour ``u_2 = n + u``;
* the undirected vertex-geography arc gadget: originals keep their ids,
  pendant ``u' = n + u``, the j-th arc's gadget vertices ``uv_1..uv_8``
  occupy ``2n + 8j .. 2n + 8j + 7``;
* the token-game arc gadget: ``X_u = u``, the j-th arc's ``a,b,c,d`` occupy
  ``n + 4j .. n + 4j + 3``;
* the move-then-remove chains: originals keep their ids, the chain of vertex
  x occupies ``n + 3x .. n + 3x + 2``.

Arcs are processed in the graph's canonical (sorted) edge order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import DIRECTED, UNDIRECTED, Graph, WeightMap
from .kernel import EGEO, NIMG_MR, NIMG_RM, VGEO, Convention, Position


#: Every construction maps a normal-play source to a misere target.
SOURCE_CONVENTION = Convention.NORMAL
TARGET_CONVENTION = Convention.MISERE


@dataclass(frozen=True)
class ReductionOutput:
    position: Position
    name_map: dict[str, int]


def _require_kind(g: Graph, directed: bool, what: str) -> None:
    if g.directed != directed:
        want = "directed" if directed else "undirected"
        raise ValueError(f"{what} expects a {want} source graph")


def _require_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"start vertex {v} outside source graph")


def _escape_reduction(g: Graph, v: int, variant: str) -> ReductionOutput:
    """Give every vertex a fresh out-neighbour: one always-losing exit move."""
    _require_vertex(g, v)
    n = g.n
    edges = list(g.edges) + [(u, n + u) for u in range(n)]
    target = Graph(2 * n, tuple(edges), g.directed)
    name_map = {}
    for u in range(n):
        name_map[f"{u}_1"] = u
        name_map[f"{u}_2"] = n + u
    return ReductionOutput(Position(variant, target, v), name_map)


def reduce_vgeo_dir_misere(g: Graph, v: int) -> ReductionOutput:
    """Directed vertex geography, normal -> misere."""
    _require_kind(g, True, "reduce_vgeo_dir_misere")
    return _escape_reduction(g, v, VGEO)


def reduce_egeo_dir_misere(g: Graph, v: int) -> ReductionOutput:
    """Directed edge geography, normal -> misere."""
    _require_kind(g, True, "reduce_egeo_dir_misere")
    return _escape_reduction(g, v, EGEO)


def reduce_egeo_undir_misere(g: Graph, v: int) -> ReductionOutput:
    """Undirected edge geography, normal -> misere (pendant edge per vertex)."""
    _require_kind(g, False, "reduce_egeo_undir_misere")
    return _escape_reduction(g, v, EGEO)


# Edges of the eight-vertex arc gadget, written over slot numbers 1..8 with 0
# standing for the arc tail u and 9 for the head v.
_ARC_GADGET_EDGES = (
    (0, 1),
    (1, 2),
    (1, 3),
    (1, 6),
    (2, 4),
    (3, 5),
    (3, 6),
    (4, 5),
    (4, 6),
    (5, 6),
    (6, 7),
    (7, 8),
    (7, 9),
)


def reduce_vgeo_dir_to_undir_misere(g: Graph, u: int) -> ReductionOutput:
    """Directed vertex geography, normal -> undirected misere.

    Every arc becomes the eight-vertex one-way gadget; every original vertex
    gets a pendant neighbour whose use is an immediate loss.
    """
    _require_kind(g, True, "reduce_vgeo_dir_to_undir_misere")
    _require_vertex(g, u)
    n = g.n
    edges = [(x, n + x) for x in range(n)]
    name_map = {}
    for x in range(n):
        name_map[f"{x}"] = x
        name_map[f"{x}'"] = n + x
    for j, (a, b) in enumerate(g.edges):
        ids = {0: a, 9: b}
        for i in range(1, 9):
            vid = 2 * n + 8 * j + (i - 1)
            ids[i] = vid
            name_map[f"({a},{b})_{i}"] = vid
        edges.extend((ids[x], ids[y]) for x, y in _ARC_GADGET_EDGES)
    target = Graph(2 * n + 8 * len(g.edges), tuple(edges), directed=False)
    return ReductionOutput(Position(VGEO, target, u), name_map)


def reduce_vgeo_dir_to_nimgrm_misere(g: Graph, u: int) -> ReductionOutput:
    """Directed vertex geography, normal -> misere remove-then-move Nim.

    Draining a vertex to zero stands in for deleting it; each arc becomes a
    weighted four-vertex path-with-triangle whose parity makes it one-way.
    Weights never exceed two and the target is loop-free.
    """
    _require_kind(g, True, "reduce_vgeo_dir_to_nimgrm_misere")
    _require_vertex(g, u)
    n = g.n
    edges = []
    weights = [1] * n
    name_map = {f"X_{x}": x for x in range(n)}
    for j, (a, b) in enumerate(g.edges):
        va, vb, vc, vd = (n + 4 * j + i for i in range(4))
        for label, vid in zip("abcd", (va, vb, vc, vd)):
            name_map[f"{label}_({a},{b})"] = vid
        edges.extend(
            [(a, va), (va, vb), (vb, vc), (vb, vd), (vc, vd), (vd, b)]
        )
        weights.extend([1, 1, 1, 2])
    target = Graph(n + 4 * len(g.edges), tuple(edges), directed=False)
    return ReductionOutput(Position(NIMG_RM, target, u, tuple(weights)), name_map)


def reduce_nimgmr_normal_to_misere(g: Graph, w: WeightMap, u: int) -> ReductionOutput:
    """Move-then-remove Nim, normal -> misere: a three-vertex unit chain per
    vertex turns running out of moves into running into the chain.

    Loops in the source are preserved untouched; the chain arcs point away
    from the original graph on directed inputs.
    """
    _require_vertex(g, u)
    if len(w) != g.n:
        raise ValueError("weight map does not cover the source graph")
    n = g.n
    edges = list(g.edges)
    weights = list(w)
    name_map = {f"{x}": x for x in range(n)}
    for x in range(n):
        c1, c2, c3 = n + 3 * x, n + 3 * x + 1, n + 3 * x + 2
        edges.extend([(x, c1), (c1, c2), (c2, c3)])
        weights.extend([1, 1, 1])
        name_map[f"{x}_c1"] = c1
        name_map[f"{x}_c2"] = c2
        name_map[f"{x}_c3"] = c3
    target = Graph(n + 3 * n, tuple(edges), g.directed)
    return ReductionOutput(Position(NIMG_MR, target, u, tuple(weights)), name_map)


class InfeasibleGrid(ValueError):
    """A grid that leaves no trial to draw."""


@dataclass(frozen=True)
class Grid:
    """A reduction's standard cross-check grid for `arena.run_reduction_grid`.

    `trials` random sources of at most `n` vertices and `m` edges, weights
    up to `wmax`, loops drawn as `loops` says; with `all_starts` every vertex
    of each source is a start.  The defaults are the grid of an entry that
    names none.  n < 1, m < 0, wmax < 1 or trials < 1 raises InfeasibleGrid.
    """

    n: int = 4
    m: int = 4
    wmax: int = 1
    trials: int = 100
    loops: str = "none"
    all_starts: bool = False

    def __post_init__(self) -> None:
        for key, floor in (("n", 1), ("m", 0), ("wmax", 1), ("trials", 1)):
            value = getattr(self, key)
            if value < floor:
                raise InfeasibleGrid(f"--{key} must be >= {floor}, got {value}")


@dataclass(frozen=True)
class ReductionEntry:
    name: str
    source_variant: str
    source_kind: str
    apply: Callable[[Position], ReductionOutput]
    grid: Grid = Grid()

    def check_source(self, p: Position) -> None:
        if p.variant != self.source_variant:
            raise ValueError(
                f"reduction {self.name} takes {self.source_variant} positions, "
                f"got {p.variant}"
            )
        if self.source_kind != "any" and p.graph.kind != self.source_kind:
            raise ValueError(f"reduction {self.name} takes {self.source_kind} graphs")


REDUCTIONS: dict[str, ReductionEntry] = {
    "vgeo-dir": ReductionEntry(
        "vgeo-dir", VGEO, DIRECTED,
        lambda p: reduce_vgeo_dir_misere(p.graph, p.current),
        Grid(6, 10, 1, 500, all_starts=True),
    ),
    "vgeo-undir": ReductionEntry(
        "vgeo-undir", VGEO, DIRECTED,
        lambda p: reduce_vgeo_dir_to_undir_misere(p.graph, p.current),
        Grid(4, 4, 1, 100),
    ),
    "egeo-dir": ReductionEntry(
        "egeo-dir", EGEO, DIRECTED,
        lambda p: reduce_egeo_dir_misere(p.graph, p.current),
        Grid(5, 8, 1, 300),
    ),
    "egeo-undir": ReductionEntry(
        "egeo-undir", EGEO, UNDIRECTED,
        lambda p: reduce_egeo_undir_misere(p.graph, p.current),
        Grid(5, 8, 1, 300),
    ),
    "nimg-rm": ReductionEntry(
        "nimg-rm", VGEO, DIRECTED,
        lambda p: reduce_vgeo_dir_to_nimgrm_misere(p.graph, p.current),
        Grid(4, 4, 1, 200),
    ),
    "nimg-mr": ReductionEntry(
        "nimg-mr", NIMG_MR, "any",
        lambda p: reduce_nimgmr_normal_to_misere(p.graph, p.weights, p.current),
        Grid(4, 4, 2, 300, loops="free"),
    ),
}
