"""Rules engine: the four move rules, over packed int states.

Four variants share one interface:

* ``nimg-rm``  -- remove >= 1 token from the pointed vertex, then move the
  pointer to a neighbour.  On a vertex with no neighbours at all the move
  degenerates to removal only (the pointer stays); this makes the lone-vertex
  heap behave like a single misere Nim pile.
* ``nimg-mr``  -- move the pointer to a neighbour, then remove >= 1 token
  there.  Neighbours holding no tokens offer no move.
* ``vgeo``     -- slide the token along an arc and delete the departed vertex.
* ``egeo``     -- slide the token along an arc and delete the traversed arc
  (the whole edge on undirected graphs).

One terminal rule covers all four games: a player with no legal move loses
under the normal convention and wins under misere.

The rules are written twice, on purpose.  `legal_moves` and `apply_move`
are the reference rules: they read and rebuild a `Position`'s own fields
and share no code with `_Engine`, so the engine can be checked against
them.  The ``_*_rules`` closures of `_Engine` are the fast form: the
engine packs every position reachable from a root into one int,
``payload << SH | cur`` with ``SH = max(1, (n-1).bit_length())`` bits for
the token:

* vgeo -- the live-vertex bitset, pruned at cut vertices (see `_Engine`);
* egeo -- the live-arc bitset, bit ``i`` standing for ``graph.edges[i]``;
* nimg games -- the weights, vertex ``v`` in the ``B``-bit field at
  ``B*v``, where ``B`` is the bit length of the root's largest weight
  (weights only decrease, so every descendant fits).

Each variant gives four closures: ``move_bits(key)``, an int whose set bits
are the legal moves, lowest bit canonically first (the destination for
vgeo, the arc index for egeo, ``j << B | k`` for the j-th target and new
weight ``k`` for nimg); ``child(key, i)``, the key the move of bit index
``i`` leads to; ``encode(key, move)``, that index, or None when the move
is illegal at ``key``; and ``move(key, i)``, the `Move` of bit index ``i``.
The solver in `mgg.search`, the certifier in `mgg.arena` and `mgg play`
each walk one engine from their root; the tests check the engine against
the reference rules.

A position holds no history: a played geography position is the fresh
position on the graph that remains, with the same vertex ids.  In vgeo the
departed vertex keeps no edge, so the token can never re-enter it; in egeo
the crossed arc is gone.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, WeightMap, cut_vertices, validate_weights

NIMG_RM = "nimg-rm"
NIMG_MR = "nimg-mr"
VGEO = "vgeo"
EGEO = "egeo"
VARIANTS = (NIMG_RM, NIMG_MR, VGEO, EGEO)
NIMG_VARIANTS = (NIMG_RM, NIMG_MR)


class Convention(Enum):
    NORMAL = "normal"
    MISERE = "misere"


class IllegalMoveError(ValueError):
    pass


class CapacityError(RuntimeError):
    """A position beyond a documented size cap of the engine or the solver."""


#: Widest move-bit int a nimg engine builds: largest degree times 2^B bits.
MOVE_BITS_CAP = 1 << 24


@dataclass(frozen=True, order=True)
class Move:
    """Destination plus, for nimg variants, the new weight `k`.

    nimg-rm: the pointed vertex is decreased to ``k`` and the pointer moves to
    ``to`` (``to == current`` encodes both the loop move and the stay-in-place
    removal on an isolated vertex).  nimg-mr: the pointer moves to ``to``,
    whose weight is decreased to ``k``.  Geography moves carry only ``to``.
    """

    to: int
    k: int | None = None


@dataclass(frozen=True)
class Position:
    """What a position file holds: a graph, the token's vertex and, for the
    nimg games, the weights."""

    variant: str
    graph: Graph
    current: int
    weights: WeightMap | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown game variant {self.variant!r}")
        if not 0 <= self.current < self.graph.n:
            raise ValueError(f"current vertex {self.current} outside graph")
        if self.variant in NIMG_VARIANTS:
            if self.weights is None:
                raise ValueError(f"{self.variant} position requires weights")
            object.__setattr__(self, "weights", validate_weights(self.graph, self.weights))
        elif self.weights is not None:
            raise ValueError(f"{self.variant} position carries no weights")


def _vgeo_rules(e: _Engine):
    """Move bits are destination bits; the departed vertex leaves the mask."""
    g, adj, sh, cm = e.graph, e.graph.adjacency, e.sh, e.cur_mask
    # a loop is no move: the token's own vertex is never a destination
    nbrs = [sum(1 << v for v in adj[u] if v != u) for u in range(g.n)]
    # the token's vertex is live, so subtracting drop[u] clears its bit and the token
    drop = [(1 << (u + sh)) + u for u in range(g.n)]
    cuts = frozenset() if g.directed else cut_vertices(g)

    def move_bits(key):
        return nbrs[key & cm] & (key >> sh)

    def child(key, i):
        cur = key & cm
        if cur not in cuts:
            return key - drop[cur] + i
        # flood from i through the live vertices; what stays in rest is stranded
        todo = 1 << i
        rest = (key >> sh) - (1 << cur) - todo
        while todo:
            bit = todo & -todo
            found = nbrs[bit.bit_length() - 1] & rest
            rest ^= found
            todo ^= bit | found
        return key - drop[cur] - (rest << sh) + i

    def encode(key, m):
        live = m.k is None and m.to >= 0 and nbrs[key & cm] >> m.to & key >> (sh + m.to) & 1
        return m.to if live else None

    def move(key, i):
        return Move(i)

    return move_bits, child, encode, move


def _egeo_rules(e: _Engine):
    """Move bits are arc-index bits.

    `Graph.edges` is sorted, so the arcs at a vertex ascend in index as their
    far ends ascend, and the lowest bit is the canonically first move.
    """
    g, sh, cm = e.graph, e.sh, e.cur_mask
    out = [0] * g.n
    for i, (a, b) in enumerate(g.edges):
        out[a] |= 1 << i
        if not g.directed:
            out[b] |= 1 << i
    # arc i leads from its end u to ends[i] - u (a loop leads back to u); cross[i]
    # clears its live bit and adds its ends to the token
    ends = [a + b for a, b in g.edges]
    cross = [ends[i] - (1 << (i + sh)) for i in range(len(ends))]

    def move_bits(key):
        return out[key & cm] & (key >> sh)

    def child(key, i):
        return key + cross[i] - 2 * (key & cm)

    def encode(key, m):
        cur = key & cm
        arc = (cur, m.to) if g.directed else (min(cur, m.to), max(cur, m.to))
        i = bisect_left(g.edges, arc)
        return i if m.k is None and g.edges[i:i + 1] == (arc,) and key >> (sh + i) & 1 else None

    def move(key, i):
        return Move(ends[i] - (key & cm))

    return move_bits, child, encode, move


def _nimg_labels(e: _Engine, targets, lowers_target: bool):
    """encode and move for the nimg bit ``j << B | k``: target j, weight k;
    `encode` reads the field of the vertex the move lowers, not the move bits."""
    b, cm, off = e.field, e.cur_mask, e.offsets
    stride = 1 << b

    def encode(key, m):
        ts = targets[key & cm]
        j = bisect_left(ts, m.to)
        if m.k is None or ts[j:j + 1] != (m.to,):
            return None
        w = key >> off[m.to if lowers_target else key & cm] & (stride - 1)
        return j << b | m.k if 0 <= m.k < w else None

    def move(key, i):
        return Move(targets[key & cm][i >> b], i & (stride - 1))

    return encode, move


def _nimg_rm_rules(e: _Engine):
    """Bit ``j << B | k``: lower the token's vertex to k, move to target j."""
    b, cm, off = e.field, e.cur_mask, e.offsets
    fm = (1 << b) - 1
    # on a vertex without neighbours the move degenerates to removal only
    targets = [e.graph.adjacency[u] or (u,) for u in range(e.graph.n)]
    # one bit per target; times (1 << w) - 1 it spans all moves of weight w
    by_degree = {d: sum(1 << (j << b) for j in range(d)) for d in set(map(len, targets))}
    spread = [by_degree[len(t)] for t in targets]

    def move_bits(key):
        cur = key & cm
        return ((1 << (key >> off[cur] & fm)) - 1) * spread[cur]

    def child(key, i):
        cur = key & cm
        o = off[cur]
        return key - (((key >> o & fm) - (i & fm)) << o) - cur + targets[cur][i >> b]

    return (move_bits, child) + _nimg_labels(e, targets, False)


def _nimg_mr_rules(e: _Engine):
    """Bit ``j << B | k``: move to neighbour j and lower its weight to k."""
    b, cm, off = e.field, e.cur_mask, e.offsets
    fm = (1 << b) - 1
    adj = e.graph.adjacency
    # (first move bit, weight field offset) of each neighbour
    slots = [tuple((j << b, off[v]) for j, v in enumerate(adj[u])) for u in range(e.graph.n)]

    def move_bits(key):
        bits = 0
        for s, o in slots[key & cm]:
            bits |= ((1 << (key >> o & fm)) - 1) << s
        return bits

    def child(key, i):
        cur = key & cm
        v = adj[cur][i >> b]
        o = off[v]
        return key - (((key >> o & fm) - (i & fm)) << o) - cur + v

    return (move_bits, child) + _nimg_labels(e, adj, True)


_RULES = {VGEO: _vgeo_rules, EGEO: _egeo_rules, NIMG_RM: _nimg_rm_rules, NIMG_MR: _nimg_mr_rules}


class _Engine:
    """The game of one root position, over packed int keys.

    Keys are defined for the positions reachable from the root, whose own
    key is `root`, and `position` decodes any of them.  The only
    cap here is `MOVE_BITS_CAP` on nimg roots, checked before any move bits
    exist; the solver's bitset contract is enforced by `mgg.search`, so the
    strategy certifier and `mgg play` can walk geography positions of any
    size.  The solver and the certifier
    (`mgg.arena.verify_strategy`) walk children by popping `move_bits`
    lowest first into `child`; the certifier checks a policy's move with
    `encode`, and decodes a `position` only when a policy asks for one.

    A vgeo child that leaves a cut vertex (`graphs.cut_vertices`) of an
    undirected root keeps only the live vertices the token can still reach.
    Sound: `move_bits` reads only the token's neighbours, so an unreachable
    vertex affects no later move or terminal; a key that keeps one is only
    a missed merge.  Directed graphs are never pruned.
    """

    def __init__(self, root: Position):
        self.variant = root.variant
        self.graph = g = root.graph
        self.sh = sh = max(1, (g.n - 1).bit_length())
        self.cur_mask = (1 << sh) - 1
        if root.variant in NIMG_VARIANTS:
            self.field = b = max(1, max(root.weights).bit_length())
            # nimg-rm treats a vertex without neighbours as having one target
            width = max(1, max(map(len, g.adjacency))) << b
            if width > MOVE_BITS_CAP:
                raise CapacityError(
                    f"nimg move bits limited to {MOVE_BITS_CAP} per state; "
                    f"this position needs {width}")
            self.offsets = [sh + b * v for v in range(g.n)]
            payload = sum(w << (b * v) for v, w in enumerate(root.weights))
        else:  # every vertex (vgeo) or arc (egeo) of a position is live
            payload = (1 << (g.n if root.variant == VGEO else len(g.edges))) - 1
        self.root = payload << sh | root.current
        self.move_bits, self.child, self.encode, self.move = _RULES[root.variant](self)

    def first(self, key: int, wins=None) -> Move | None:
        """Canonically first move whose child key satisfies `wins` (any move
        when None), or None.  Builds one child at a time and decodes only the
        move it returns."""
        child, rem = self.child, self.move_bits(key)
        while rem:
            bit = rem & -rem
            if wins is None or wins(child(key, bit.bit_length() - 1)):
                return self.move(key, bit.bit_length() - 1)
            rem ^= bit
        return None

    def after(self, key: int, m: Move) -> int:
        """Key of the position `m` leads to; IllegalMoveError if `m` is
        illegal at `key`.  It builds no move bits."""
        i = self.encode(key, m)
        if i is None:
            raise IllegalMoveError(f"illegal {self.variant} move {m}")
        return self.child(key, i)

    def position(self, key: int) -> Position:
        """The position a key encodes: for geography, the graph that remains."""
        g, cur = self.graph, key & self.cur_mask
        if self.variant in NIMG_VARIANTS:
            fm = (1 << self.field) - 1
            wts = tuple([key >> o & fm for o in self.offsets])
            return Position(self.variant, g, cur, wts)
        payload = key >> self.sh
        if self.variant == VGEO:  # an edge with a dead end, a loop too, is gone
            live = [(u, v) for u, v in g.edges if payload >> u & payload >> v & 1]
        else:
            live = [e for i, e in enumerate(g.edges) if payload >> i & 1]
        return Position(self.variant, Graph(g.n, tuple(live), g.directed), cur)


def legal_moves(p: Position) -> list[Move]:
    """All legal moves, in canonical order (ascending destination, then k)."""
    g, cur = p.graph, p.current
    nbrs = g.adjacency[cur]
    if p.variant == NIMG_RM:  # with no neighbour at all the pointer stays put
        return [Move(v, k) for v in nbrs or (cur,) for k in range(p.weights[cur])]
    if p.variant == NIMG_MR:
        return [Move(v, k) for v in nbrs for k in range(p.weights[v])]
    if p.variant == VGEO:  # a loop is no move
        return [Move(v) for v in nbrs if v != cur]
    return [Move(v) for v in nbrs]


def apply_move(p: Position, m: Move) -> Position:
    """The position after `m`; IllegalMoveError unless `m` is one of
    `legal_moves(p)`.  The check reads the move's shape against the
    position and never lists the moves."""
    g, cur, to = p.graph, p.current, m.to
    nbrs = g.adjacency[cur]
    if p.variant in NIMG_VARIANTS:
        lowered = cur if p.variant == NIMG_RM else to
        if p.variant == NIMG_RM:
            nbrs = nbrs or (cur,)
        if m.k is None or to not in nbrs or not 0 <= m.k < p.weights[lowered]:
            raise IllegalMoveError(f"illegal {p.variant} move {m}")
        w = p.weights
        return Position(p.variant, g, to, w[:lowered] + (m.k,) + w[lowered + 1:])
    if m.k is not None or to not in nbrs or p.variant == VGEO and to == cur:
        raise IllegalMoveError(f"illegal {p.variant} move {m}")
    if p.variant == VGEO:  # the departed vertex loses every edge
        edges = [e for e in g.edges if cur not in e]
    else:  # the crossed arc goes
        crossed = (cur, to) if g.directed else (min(cur, to), max(cur, to))
        edges = [e for e in g.edges if e != crossed]
    return Position(p.variant, Graph(g.n, tuple(edges), g.directed), to)
