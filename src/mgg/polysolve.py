"""Polynomial-time solvers backed by maximum matching, and the router.

Covered classes, all returning (outcome, winning policy or None):

* misere remove-then-move Nim on bipartite loop-free graphs -- winning for
  the mover iff every maximum matching of the token-bearing subgraph covers
  the start vertex; the winning policy drains the current vertex and follows
  a fixed maximum matching;
* misere remove-then-move Nim with every weight equal to one -- identical to
  normal vertex geography on the same undirected graph;
* normal vertex geography on undirected graphs (the matching criterion
  itself);
* misere remove-then-move Nim with a loop on every vertex -- standing on two
  or more tokens wins (stall on the loop until the opponent must step out);
  on a single token the game restricts to the light component around the
  start and reduces to the weight-one case.

All four apply one criterion path: one maximum matching of the position's
graph, or of the subgraph the bipartite and loops solvers induce on its
vertex ids, and one coverage query gives the outcome.  For the other three,
`_criterion` also builds the winning policy, which `_follow`s the matching
in the position's own ids; the loops solver builds its own.  The matchers
skip loops, so no subgraph needs its loops stripped.

`poly_solve` routes a position to the strongest applicable solver.  Inputs
outside a solver's class raise NotApplicable so callers can fall back to the
exhaustive solver; genuine contract violations raise ValueError.
"""

from __future__ import annotations

from typing import Callable

from .graphs import Graph, bipartition, induced_subgraph
from .kernel import NIMG_RM, VGEO, Convention, Move, Position
from .matching import (
    Matching,
    covered_by_all_maximum_matchings,
    max_matching_bipartite,
    max_matching_general,
)
from .search import Outcome, Policy, StrategyBreakdown


class NotApplicable(Exception):
    """The position lies outside this solver's precondition class."""


def preprocess_positive(p: Position) -> Position:
    """Keep only the edges between vertices holding at least one token.

    The ids, weights and start stay; a vertex without tokens keeps no edge.

    Outcome-preserving under misere play, with one documented corner: when
    the start keeps tokens but loses its last neighbour, the induced game
    gains stay-in-place removals the original does not have (see the
    degenerate branch in solve_bipartite_rm_misere).
    """
    if p.variant != NIMG_RM:
        raise ValueError("preprocess_positive applies to nimg-rm positions")
    if p.weights[p.current] == 0:
        raise ValueError("start vertex holds no token: the position is terminal")
    keep = [v for v, w in enumerate(p.weights) if w >= 1]
    return Position(NIMG_RM, induced_subgraph(p.graph, keep), p.current, p.weights)


def _criterion(sub: Graph, vertex: int, matching: Matching,
               k: int | None = 0) -> tuple[Outcome, Policy | None]:
    """(outcome, winning policy or None) of the matching criterion.

    The mover wins iff every maximum matching of `sub` covers `vertex`.
    `sub` is the position's graph or a subgraph on its vertex ids, and
    `matching` is one of its maximum matchings.
    """
    if not covered_by_all_maximum_matchings(sub, vertex, matching):
        return Outcome.P, None
    return Outcome.N, Policy(_follow(matching, k), "matching-following")


def _follow(matching: Matching, k: int | None = 0):
    """The choose that moves to the current vertex's mate, leaving `k` tokens.

    `matching` is on the position's own vertex ids.  It reads only the
    current vertex and never asks for the position.  Each vertex's `Move`
    is built on its first use and returned from then on.
    """
    mate = matching.mate
    moves: dict[int, Move] = {}

    def choose(current: int, position: Callable[[], Position]) -> Move:
        move = moves.get(current)
        if move is None:
            to = mate[current]
            if to is None:
                raise StrategyBreakdown(f"current vertex {current} is unmatched")
            move = moves[current] = Move(to, k)
        return move

    return choose


def solve_vgeo_undirected_normal(p: Position) -> tuple[Outcome, Policy | None]:
    """Normal-play vertex geography on an undirected graph.

    The mover wins iff every maximum matching of the graph covers the
    token vertex; the policy slides along a fixed maximum matching.  Loops
    can never be traversed in vertex geography, and the matchers skip them.
    """
    if p.variant != VGEO:
        raise ValueError("solve_vgeo_undirected_normal applies to vgeo positions")
    if p.graph.directed:
        raise NotApplicable("directed graph")
    return _criterion(p.graph, p.current, max_matching_general(p.graph), None)


def solve_weight1_rm_misere(p: Position) -> tuple[Outcome, Policy | None]:
    """Misere remove-then-move Nim with one token everywhere.

    Plays out exactly like normal vertex geography on the same graph: each
    move drains the departed vertex, and stepping onto a drained vertex hands
    the opponent an immediate misere win.
    """
    if p.variant != NIMG_RM:
        raise ValueError("solve_weight1_rm_misere applies to nimg-rm positions")
    if p.graph.directed:
        raise NotApplicable("directed graph")
    if p.graph.loop_vertices:
        raise NotApplicable("loops present")
    if any(w != 1 for w in p.weights):
        raise NotApplicable("weights must all equal one")
    return _criterion(p.graph, p.current, max_matching_general(p.graph))


def _degenerate_pile(p: Position) -> tuple[Outcome, Policy | None]:
    """Start vertex with no incident edge: a lone misere Nim pile."""
    if p.weights[p.current] < 2:
        return Outcome.P, None

    def choose(current: int, position: Callable[[], Position]) -> Move:
        return Move(current, 1)  # leave a single token behind

    return Outcome.N, Policy(choose, "matching-following")


def solve_bipartite_rm_misere(p: Position) -> tuple[Outcome, Policy | None]:
    """Misere remove-then-move Nim on a bipartite loop-free graph.

    On the token-bearing subgraph (`preprocess_positive`) the mover wins
    iff the maximum matching sizes nu(G) and nu(G - start) differ; the
    winning policy removes every token on the current vertex and moves
    along a fixed maximum matching.  A start vertex without any incident
    edge degenerates to a single Nim pile and is decided directly, after
    the class checks.
    """
    if p.variant != NIMG_RM:
        raise ValueError("solve_bipartite_rm_misere applies to nimg-rm positions")
    if p.graph.directed:
        raise NotApplicable("directed graph")
    if p.weights[p.current] == 0:
        raise NotApplicable("start vertex holds no token")
    sub = preprocess_positive(p).graph
    if sub.loop_vertices:
        raise NotApplicable("loops present")
    b = bipartition(sub)
    if b is None:
        raise NotApplicable("graph is not bipartite")
    if not p.graph.adjacency[p.current]:
        return _degenerate_pile(p)
    return _criterion(sub, p.current, max_matching_bipartite(sub, b))


def _light_matching(g: Graph, weights, vertex: int):
    """(subgraph, maximum matching) of the light component, on `g`'s ids.

    The light component is the connected component of `vertex`, which holds
    one token, among the vertices holding exactly one token.  The subgraph
    keeps every vertex of `g` and only the edges inside the component.
    """
    comp, stack = {vertex}, [vertex]
    while stack:
        for v in g.adjacency[stack.pop()]:
            if weights[v] == 1 and v not in comp:
                comp.add(v)
                stack.append(v)
    sub = induced_subgraph(g, comp)
    return sub, max_matching_general(sub)


def _loops_outcome(g: Graph, weights, vertex: int) -> Outcome:
    """Outcome of the all-loops game with the pointer on `vertex`."""
    if weights[vertex] != 1:
        return Outcome.N  # no token: the mover has won; two or more: stall
    sub, matching = _light_matching(g, weights, vertex)
    covered = covered_by_all_maximum_matchings(sub, vertex, matching)
    return Outcome.N if covered else Outcome.P


def solve_loops_rm_misere(p: Position) -> tuple[Outcome, Policy | None]:
    """Misere remove-then-move Nim with a loop on every vertex.

    Two or more tokens under the pointer win: either some drain-and-move
    reaches a losing position for the opponent, or reducing to one token and
    stalling on the loop forces the opponent to make that losing move.  With
    a single token the game equals the weight-one game on the light component
    of the start, since stepping onto a heavy vertex hands the opponent a won
    position.
    """
    if p.variant != NIMG_RM:
        raise ValueError("solve_loops_rm_misere applies to nimg-rm positions")
    if p.graph.directed:
        raise NotApplicable("directed graph")
    if p.weights[p.current] == 0:
        raise NotApplicable("start vertex holds no token")
    loops = p.graph.loop_vertices
    if any(w and v not in loops for v, w in enumerate(p.weights)):
        raise NotApplicable("loop missing on a token-bearing vertex")
    if _loops_outcome(p.graph, p.weights, p.current) is Outcome.P:
        return Outcome.P, None

    def choose(current: int, position: Callable[[], Position]) -> Move:
        q = position()
        g, w = q.graph, q.weights
        if w[current] == 1:  # the weight-one game on the light component
            _, matching = _light_matching(g, w, current)
            return _follow(matching)(current, position)
        drained = w[:current] + (0,) + w[current + 1:]
        for v in g.adjacency[current]:
            # Move(v, 0) leads to the opponent on v with `drained`
            if v != current and _loops_outcome(g, drained, v) is Outcome.P:
                return Move(v, 0)
        return Move(current, 1)  # stall: keep one token, stay on the loop

    return Outcome.N, Policy(choose, "loop-stalling")


_RM_SOLVERS = (
    ("matching-weight1", solve_weight1_rm_misere),
    ("matching-loops", solve_loops_rm_misere),
    ("matching-bipartite", solve_bipartite_rm_misere),
)


def poly_solve(p: Position, c: Convention):
    """Route to the strongest applicable matching-based solver.

    Returns (outcome, policy, solver name); raises NotApplicable when no
    polynomial solver covers the position/convention pair, naming each
    declining solver's reason.
    """
    reasons = []
    if p.variant == NIMG_RM and c is Convention.MISERE:
        for name, solver in _RM_SOLVERS:
            try:
                outcome, policy = solver(p)
                return outcome, policy, name
            except NotApplicable as exc:
                reasons.append(f"{name}: {exc}")
        raise NotApplicable("; ".join(reasons))
    if p.variant == VGEO and c is Convention.NORMAL:
        outcome, policy = solve_vgeo_undirected_normal(p)
        return outcome, policy, "matching-vgeo"
    raise NotApplicable(f"no polynomial solver for {p.variant} under {c.value}")
