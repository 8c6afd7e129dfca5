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

The rules are written once, in the ``_*_rules`` closures of `_Engine`,
which packs every position reachable from a root into one int,
``payload << SH | cur`` with ``SH = max(1, (n-1).bit_length())`` bits for
the token:

* vgeo -- the payload is the live-vertex bitset;
* egeo -- the live-arc bitset, bit ``i`` standing for ``graph.edges[i]``;
* nimg games -- the weights, vertex ``v`` in the ``B``-bit field at
  ``B*v``, where ``B`` is the bit length of the root's largest weight
  (weights only decrease, so every descendant fits).

Each variant gives five closures: ``move_bits(key)``, an int whose set bits
are the legal moves, lowest bit canonically first (the destination for
vgeo, the arc index for egeo, ``j << B | k`` for the j-th target and new
weight ``k`` for nimg); ``child(key, bit)``, the key one move leads to;
``decode(key)``, the legal `Move`s in canonical order;
``encode(key, move)``, the move's bit index, or None when no move of that
shape exists; and ``move(key, i)``, the `Move` of bit index ``i``.
`legal_moves`, `apply_move`, `is_terminal`, `first_move` and `successors`
are views over one engine rooted at their position; the solver in
`mgg.search` walks the same engine.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .graphs import Graph, WeightMap, validate_weights

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
    variant: str
    graph: Graph
    current: int
    weights: WeightMap | None = None
    removed_vertices: frozenset[int] = frozenset()
    removed_edges: frozenset[tuple[int, int]] = frozenset()

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
        if self.removed_vertices:
            if self.variant != VGEO:
                raise ValueError("removed_vertices applies to vgeo only")
            if self.current in self.removed_vertices:
                raise ValueError("current vertex already removed")
            if any(not 0 <= v < self.graph.n for v in self.removed_vertices):
                raise ValueError("removed vertex outside graph")
        if self.removed_edges:
            if self.variant != EGEO:
                raise ValueError("removed_edges applies to egeo only")
            if not self.removed_edges <= self.graph.edge_set:
                raise ValueError("removed edge not in graph")


def _vgeo_rules(e: _Engine):
    """Move bits are destination bits; the departed vertex leaves the mask."""
    adj, sh, cm = e.graph.adjacency, e.sh, e.cur_mask
    # a loop is no move: the token's own vertex is never a destination
    nbrs = [sum(1 << v for v in adj[u] if v != u) for u in range(e.graph.n)]
    # the token's vertex is live, so subtracting drop[u] clears its bit and the token
    drop = [(1 << (u + sh)) + u for u in range(e.graph.n)]

    def move_bits(key):
        return nbrs[key & cm] & (key >> sh)

    def child(key, bit):
        return key - drop[key & cm] + bit.bit_length() - 1

    def decode(key):
        bits = move_bits(key)
        return [Move(v) for v in adj[key & cm] if bits >> v & 1]

    def encode(key, m):
        return m.to if m.k is None and m.to >= 0 else None

    def move(key, i):
        return Move(i)

    return move_bits, child, decode, encode, move


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
    # arc i leads from its end u to ends[i] - u (a loop leads back to u)
    ends = [a + b for a, b in g.edges]

    def move_bits(key):
        return out[key & cm] & (key >> sh)

    def child(key, bit):
        return key - (bit << sh) + ends[bit.bit_length() - 1] - 2 * (key & cm)

    def decode(key):
        # at most deg(cur) bits are set, so taking them one at a time is cheap
        rem, moves = move_bits(key), []
        while rem:
            bit = rem & -rem
            moves.append(move(key, bit.bit_length() - 1))
            rem ^= bit
        return moves

    def encode(key, m):
        cur = key & cm
        arc = (cur, m.to) if g.directed else (min(cur, m.to), max(cur, m.to))
        i = bisect_left(g.edges, arc)
        return i if m.k is None and g.edges[i:i + 1] == (arc,) else None

    def move(key, i):
        return Move(ends[i] - (key & cm))

    return move_bits, child, decode, encode, move


def _nimg_labels(e: _Engine, targets, move_bits):
    """decode, encode and move for the nimg bit ``j << B | k``: target j, weight k."""
    b, cm = e.field, e.cur_mask
    stride = 1 << b
    segment = (1 << stride) - 1

    def decode(key):
        bits = move_bits(key)
        # a target's segment of bits is a prefix of ones, one per weight k < w
        return [Move(t, k) for j, t in enumerate(targets[key & cm])
                for k in range((bits >> j * stride & segment).bit_length())]

    def encode(key, m):
        ts = targets[key & cm]
        j = bisect_left(ts, m.to)
        if m.k is None or not 0 <= m.k < stride or ts[j:j + 1] != (m.to,):
            return None
        return j << b | m.k

    def move(key, i):
        return Move(targets[key & cm][i >> b], i & (stride - 1))

    return decode, encode, move


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

    def child(key, bit):
        cur = key & cm
        i = bit.bit_length() - 1
        o = off[cur]
        return key - (((key >> o & fm) - (i & fm)) << o) - cur + targets[cur][i >> b]

    return (move_bits, child) + _nimg_labels(e, targets, move_bits)


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

    def child(key, bit):
        cur = key & cm
        i = bit.bit_length() - 1
        v = adj[cur][i >> b]
        o = off[v]
        return key - (((key >> o & fm) - (i & fm)) << o) - cur + v

    return (move_bits, child) + _nimg_labels(e, adj, move_bits)


_RULES = {VGEO: _vgeo_rules, EGEO: _egeo_rules, NIMG_RM: _nimg_rm_rules, NIMG_MR: _nimg_mr_rules}


class _Engine:
    """The game of one root position, over packed int keys.

    Keys are defined for the positions reachable from the root.  The only
    cap here is `MOVE_BITS_CAP` on nimg roots, checked before any move bits
    exist; the solver's bitset contract is enforced by `mgg.search`, so the
    strategy certifier and the views can walk geography positions of any
    size.
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
        self.move_bits, self.child, self.decode, self.encode, self.move = (
            _RULES[root.variant](self))

    def key(self, p: Position) -> int:
        """Packed key of `p`, a position reachable from the engine's root."""
        g = self.graph
        if p.variant in NIMG_VARIANTS:
            b = self.field
            if max(p.weights) >> b:
                raise ValueError(f"a weight does not fit the root's {b}-bit fields")
            payload = sum(w << (b * v) for v, w in enumerate(p.weights))
        elif p.variant == VGEO:
            payload = (1 << g.n) - 1
            for v in p.removed_vertices:
                payload &= ~(1 << v)
        else:
            payload = (1 << len(g.edges)) - 1
            if p.removed_edges:
                index = {e: i for i, e in enumerate(g.edges)}
                for e in p.removed_edges:
                    payload &= ~(1 << index[e])
        return payload << self.sh | p.current

    def succ(self, key: int) -> list[int]:
        """Child keys in canonical move order."""
        child, rem, out = self.child, self.move_bits(key), []
        append = out.append
        while rem:
            bit = rem & -rem
            append(child(key, bit))
            rem ^= bit
        return out

    def moves(self, key: int) -> list[tuple[Move, int]]:
        """Canonically ordered (move, child key) pairs."""
        return list(zip(self.decode(key), self.succ(key)))

    def first(self, key: int, wins=None) -> Move | None:
        """Canonically first move whose child key satisfies `wins` (any move
        when None), or None.  Builds one child at a time and decodes only the
        move it returns."""
        child, rem = self.child, self.move_bits(key)
        while rem:
            bit = rem & -rem
            if wins is None or wins(child(key, bit)):
                return self.move(key, bit.bit_length() - 1)
            rem ^= bit
        return None

    def after(self, key: int, m: Move) -> int | None:
        """Key of the position `m` leads to, or None if `m` is illegal at `key`."""
        i = self.encode(key, m)
        if i is None or not self.move_bits(key) >> i & 1:
            return None
        return self.child(key, 1 << i)

    def position(self, key: int) -> Position:
        """The full position a key encodes, on this engine's graph."""
        g, cur = self.graph, key & self.cur_mask
        if self.variant in NIMG_VARIANTS:
            fm = (1 << self.field) - 1
            wts = tuple([key >> o & fm for o in self.offsets])
            return Position(self.variant, g, cur, wts)
        payload = key >> self.sh
        if self.variant == VGEO:
            dead = frozenset(v for v in range(g.n) if not payload >> v & 1)
            return Position(VGEO, g, cur, removed_vertices=dead)
        dead = frozenset(e for i, e in enumerate(g.edges) if not payload >> i & 1)
        return Position(EGEO, g, cur, removed_edges=dead)


def legal_moves(p: Position) -> list[Move]:
    """All legal moves, in canonical order (ascending destination, then k)."""
    e = _Engine(p)
    return e.decode(e.key(p))


def apply_move(p: Position, m: Move) -> Position:
    """New position after `m`; raises IllegalMoveError on contract violation."""
    e = _Engine(p)
    child = e.after(e.key(p), m)
    if child is None:
        raise IllegalMoveError(f"illegal {p.variant} move {m}")
    return e.position(child)


def first_move(p: Position) -> Move | None:
    """``legal_moves(p)[0]`` without listing the others; None when terminal."""
    e = _Engine(p)
    return e.first(e.key(p))


def is_terminal(p: Position) -> bool:
    e = _Engine(p)
    return not e.move_bits(e.key(p))


def loser_to_move(p: Position, c: Convention) -> bool:
    """True iff the player to move at terminal `p` loses under `c`."""
    if not is_terminal(p):
        raise ValueError("loser_to_move applies to terminal positions")
    return c is Convention.NORMAL


def successors(p: Position) -> list[tuple[Move, Position]]:
    e = _Engine(p)
    return [(m, e.position(c)) for m, c in e.moves(e.key(p))]
