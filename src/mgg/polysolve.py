"""Polynomial-time solvers backed by maximum matching.

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

Inputs outside a solver's class raise NotApplicable so callers can fall back
to the exhaustive solver; genuine contract violations raise ValueError.
"""

from __future__ import annotations

from .graphs import Graph, bipartition, connected_component, induced_subgraph
from .kernel import NIMG_RM, VGEO, Move, Position
from .matching import (
    covered_by_all_maximum_matchings,
    max_matching_bipartite,
    max_matching_general,
)
from .search import Outcome, Policy


class NotApplicable(Exception):
    """The position lies outside this solver's precondition class."""


class StrategyBreakdown(RuntimeError):
    """A matching policy found no mate; cannot happen inside its input class."""


def heavy_vertices(weights) -> frozenset[int]:
    return frozenset(v for v, w in enumerate(weights) if w >= 2)


def preprocess_positive(p: Position):
    """Restrict to the vertices holding at least one token.

    Outcome-preserving under misere play, with one documented corner: when
    the start keeps tokens but loses its last neighbour, the induced game
    gains stay-in-place removals the original does not have (see the
    degenerate branch in solve_bipartite_rm_misere).
    """
    if p.variant != NIMG_RM:
        raise ValueError("preprocess_positive applies to nimg-rm positions")
    if p.weights[p.current] == 0:
        raise ValueError("start vertex holds no token: the position is terminal")
    keep = {v for v, w in enumerate(p.weights) if w >= 1}
    sub, relab = induced_subgraph(p.graph, keep)
    weights = tuple(p.weights[old] for old in relab.old_ids)
    return Position(NIMG_RM, sub, relab.to_new(p.current), weights), relab


def solve_vgeo_undirected_normal(p: Position) -> tuple[Outcome, Policy | None]:
    """Normal-play vertex geography on an undirected graph.

    The mover wins iff every maximum matching of the live graph covers the
    token vertex; the policy slides along a fixed maximum matching.  Loops
    can never be traversed in vertex geography and are stripped before the
    criterion.
    """
    if p.variant != VGEO:
        raise ValueError("solve_vgeo_undirected_normal applies to vgeo positions")
    if p.graph.directed:
        raise NotApplicable("directed graph")
    live = set(range(p.graph.n)) - p.removed_vertices
    sub, relab = induced_subgraph(p.graph, live)
    sub = sub.without_loops()
    cur = relab.to_new(p.current)
    matching = max_matching_general(sub)
    if not covered_by_all_maximum_matchings(sub, cur, matching):
        return Outcome.P, None
    mate = {
        relab.to_old(u): relab.to_old(v)
        for u, v in enumerate(matching.mate)
        if v is not None
    }

    def choose(q: Position) -> Move:
        to = mate.get(q.current)
        if to is None:
            raise StrategyBreakdown(f"token vertex {q.current} is unmatched")
        return Move(to)

    return Outcome.N, Policy(choose, "matching-following")


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
    outcome, vgeo_policy = solve_vgeo_undirected_normal(
        Position(VGEO, p.graph, p.current)
    )
    if outcome is Outcome.P:
        return Outcome.P, None

    def choose(q: Position) -> Move:
        probe = Position(VGEO, q.graph, q.current)
        return Move(vgeo_policy.choose(probe).to, 0)

    return Outcome.N, Policy(choose, "matching-following")


def _degenerate_pile(p: Position) -> tuple[Outcome, Policy | None]:
    """Start vertex with no incident edge: a lone misere Nim pile."""
    if p.weights[p.current] < 2:
        return Outcome.P, None

    def choose(q: Position) -> Move:
        if q.weights[q.current] >= 2:
            return Move(q.current, 1)  # leave a single token behind
        raise ValueError("no winning move on a single remaining token")

    return Outcome.N, Policy(choose, "matching-following")


def solve_bipartite_rm_misere(p: Position) -> tuple[Outcome, Policy | None]:
    """Misere remove-then-move Nim on a bipartite loop-free graph.

    After restricting to token-bearing vertices, the mover wins iff both
    maximum matching sizes nu(G) and nu(G - start) differ; the winning policy
    removes every token on the current vertex and moves along a fixed maximum
    matching.  A start vertex without any incident edge degenerates to a
    single Nim pile and is decided directly.
    """
    if p.variant != NIMG_RM:
        raise ValueError("solve_bipartite_rm_misere applies to nimg-rm positions")
    if p.graph.directed:
        raise NotApplicable("directed graph")
    if p.weights[p.current] == 0:
        raise NotApplicable("start vertex holds no token")
    q, relab = preprocess_positive(p)
    if q.graph.loop_vertices:
        raise NotApplicable("loops present")
    b = bipartition(q.graph)
    if b is None:
        raise NotApplicable("graph is not bipartite")
    if not p.graph.adjacency[p.current]:
        return _degenerate_pile(p)
    cur = q.current
    matching = max_matching_bipartite(q.graph, b)
    if not covered_by_all_maximum_matchings(q.graph, cur, matching):
        return Outcome.P, None
    mate = {
        relab.to_old(u): relab.to_old(v)
        for u, v in enumerate(matching.mate)
        if v is not None
    }

    def choose(r: Position) -> Move:
        to = mate.get(r.current)
        if to is None:
            raise StrategyBreakdown(f"current vertex {r.current} is unmatched")
        return Move(to, 0)

    return Outcome.N, Policy(choose, "matching-following")


def _light_component(r: Position):
    """Loop-free light component around the current vertex.

    Restricts to token-bearing vertices, drops those holding two or more
    tokens, keeps the connected component of the current vertex and strips
    loops.  Returns (graph, current id, new->original id translator).
    """
    q, relab1 = preprocess_positive(r)
    heavy = heavy_vertices(q.weights)
    rest, relab2 = induced_subgraph(q.graph, set(range(q.graph.n)) - heavy)
    cur2 = relab2.to_new(q.current)
    comp = connected_component(rest, cur2)
    comp_graph, relab3 = induced_subgraph(rest, comp)

    def to_old(v: int) -> int:
        return relab1.to_old(relab2.to_old(relab3.to_old(v)))

    return comp_graph.without_loops(), relab3.to_new(cur2), to_old


def _loops_outcome(r: Position) -> Outcome:
    if r.weights[r.current] == 0:
        return Outcome.N  # terminal: the mover wins under misere
    q, _ = preprocess_positive(r)
    if q.weights[q.current] >= 2:
        return Outcome.N
    comp, cur, _ = _light_component(r)
    covered = covered_by_all_maximum_matchings(comp, cur, max_matching_general(comp))
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
    q, _ = preprocess_positive(p)
    missing = [v for v in range(q.graph.n) if not q.graph.has_loop(v)]
    if missing:
        raise NotApplicable("loop missing on a token-bearing vertex")
    outcome = _loops_outcome(p)
    if outcome is Outcome.P:
        return Outcome.P, None

    def choose(r: Position) -> Move:
        w = r.weights
        cur = r.current
        if w[cur] == 0:
            raise ValueError("terminal position: the mover has already won")
        if w[cur] >= 2:
            drained = w[:cur] + (0,) + w[cur + 1:]
            for v in r.graph.adjacency[cur]:
                if v == cur:
                    continue
                # the position Move(v, 0) leads to
                if _loops_outcome(Position(NIMG_RM, r.graph, v, drained)) is Outcome.P:
                    return Move(v, 0)
            return Move(cur, 1)  # stall: keep one token, stay on the loop
        comp, cur_id, to_old = _light_component(r)
        mate = max_matching_general(comp).mate[cur_id]
        if mate is None:
            raise StrategyBreakdown(f"current vertex {cur} is unmatched")
        return Move(to_old(mate), 0)

    return Outcome.N, Policy(choose, "loop-stalling")
