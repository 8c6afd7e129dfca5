"""Exhaustive N/P solver: memoized depth-first search over packed int states.

Each query builds one engine from its root position.  The engine packs every
position reachable from the root into one int, ``payload << SH | cur`` with
``SH = max(1, (n-1).bit_length())`` bits for the token:

* vgeo -- the payload is the live-vertex bitset;
* egeo -- the live-arc bitset, bit ``i`` standing for ``graph.edges[i]``;
* nimg games -- the weights, vertex ``v`` in the ``B``-bit field at
  ``B*v``, where ``B`` is the bit length of the root's largest weight
  (weights only decrease, so every descendant fits).

Two per-variant primitives carry the rules: ``move_bits(key)`` returns an
int whose set bits are the legal moves, lowest bit canonically first, and
``child(key, bit)`` builds the key one move leads to.  The search takes one
child at a time (``rem & -rem``), so a won state never builds the children
after its first losing one.  It runs iteratively, so deep playouts cannot hit
the interpreter recursion limit.  The transposition table lives for a single
query; concurrent queries share nothing.

Plain win/lose search only: outcomes are all the downstream checks need, and
Sprague-Grundy values do not transfer to misere play anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .kernel import EGEO, NIMG_MR, NIMG_RM, NIMG_VARIANTS, VGEO, Convention, Move, Position

DEFAULT_BUDGET = 10_000_000

#: Bitset encodings are contractually capped; beyond this a query must fail
#: loudly instead of silently truncating.
BITSET_CAP = 128


class Outcome(Enum):
    N = "N"
    P = "P"


class CapacityError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveReport:
    outcome: Outcome | None
    principal_move: Move | None
    states_expanded: int
    budget_exhausted: bool


@dataclass(frozen=True)
class Policy:
    """Deterministic move advice for the winning side of an N position.

    `choose` must be a pure function of the `Position` it is given: the
    strategy certifier asks it once per distinct position and reuses the
    answer wherever that position recurs.
    """

    choose: Callable[[Position], Move]
    provenance: str  # matching-following | loop-stalling | exhaustive


def _vgeo_rules(e: _Engine):
    """Move bits are destination bits; the departed vertex leaves the mask."""
    sh, cm = e.sh, e.cur_mask
    # a loop is no move: the token's own vertex is never a destination
    nbrs = [sum(1 << v for v in e.graph.adjacency[u] if v != u) for u in range(e.graph.n)]
    # the token's vertex is live, so subtracting drop[u] clears its bit and the token
    drop = [(1 << (u + sh)) + u for u in range(e.graph.n)]

    def move_bits(key):
        return nbrs[key & cm] & (key >> sh)

    def child(key, bit):
        return key - drop[key & cm] + bit.bit_length() - 1

    return move_bits, child


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

    return move_bits, child


def _nimg_rm_rules(e: _Engine):
    """Bit ``j << B | k``: lower the token's vertex to k, move to target j."""
    b, cm, off = e.field, e.cur_mask, e.offsets
    fm = (1 << b) - 1
    # on a vertex without neighbours the move degenerates to removal only
    targets = [e.graph.adjacency[u] or (u,) for u in range(e.graph.n)]
    # one bit per target; times (1 << w) - 1 it spans all moves of weight w
    spread = [sum(1 << (j << b) for j in range(len(t))) for t in targets]

    def move_bits(key):
        cur = key & cm
        return ((1 << (key >> off[cur] & fm)) - 1) * spread[cur]

    def child(key, bit):
        cur = key & cm
        i = bit.bit_length() - 1
        o = off[cur]
        return key - (((key >> o & fm) - (i & fm)) << o) - cur + targets[cur][i >> b]

    return move_bits, child


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

    return move_bits, child


_RULES = {VGEO: _vgeo_rules, EGEO: _egeo_rules, NIMG_RM: _nimg_rm_rules, NIMG_MR: _nimg_mr_rules}


class _Engine:
    """The game of one root position, over packed int keys.

    Keys are defined for the positions reachable from the root.  The engine
    itself has no size cap: the bitset contract is enforced by `state_key`
    and the search entry points, so the strategy certifier can walk
    geography positions of any size.
    """

    def __init__(self, root: Position):
        self.variant = root.variant
        self.graph = g = root.graph
        self.sh = sh = max(1, (g.n - 1).bit_length())
        self.cur_mask = (1 << sh) - 1
        if root.variant in NIMG_VARIANTS:
            self.field = b = max(1, max(root.weights).bit_length())
            self.offsets = [sh + b * v for v in range(g.n)]
        self.move_bits, self.child = _RULES[root.variant](self)

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
        """Canonically ordered (move, child key) pairs, decoded from succ(key).

        A nimg-rm child carries the new weight of the departed vertex, a
        nimg-mr child that of the destination; geography moves name only the
        destination.
        """
        cm, children = self.cur_mask, self.succ(key)
        if self.variant not in NIMG_VARIANTS:
            return [(Move(c & cm), c) for c in children]
        fm, off = (1 << self.field) - 1, self.offsets
        if self.variant == NIMG_RM:
            o = off[key & cm]
            return [(Move(c & cm, c >> o & fm), c) for c in children]
        return [(Move(c & cm, c >> off[c & cm] & fm), c) for c in children]

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


def _root_engine(p: Position) -> _Engine:
    if p.variant == VGEO and p.graph.n > BITSET_CAP:
        raise CapacityError(f"vgeo bitset limited to {BITSET_CAP} vertices")
    if p.variant == EGEO and len(p.graph.edges) > BITSET_CAP:
        raise CapacityError(f"egeo bitset limited to {BITSET_CAP} arcs")
    return _Engine(p)


def state_key(p: Position) -> int:
    """Packed key of `p` on the engine rooted at `p`.

    Injective among positions that share a root engine; a descendant's key
    in a table must come from the root's engine, since the nimg field width
    follows the root's weights.
    """
    return _root_engine(p).key(p)


def _solve_packed(engine: _Engine, root_key: int, mover_wins_terminal: bool,
                  budget: int, table: dict | None = None):
    """Iterative negamax over packed keys.

    Returns (win, expanded, table) where `win` is True iff the player to move
    at `root_key` wins, or None when the budget ran out first.  A frame is
    ``[key, remaining move bits]``, the bits None until the key is expanded.
    """
    if table is None:
        table = {}
    if root_key in table:
        return table[root_key], 0, table
    move_bits, child, get = engine.move_bits, engine.child, table.get
    expanded = 0
    stack = [[root_key, None]]
    while stack:
        frame = stack[-1]
        key, rem = frame
        if rem is None:
            if expanded >= budget:
                return None, expanded, table
            expanded += 1
            rem = move_bits(key)
            win = not rem and mover_wins_terminal
        else:  # every child taken so far wins for the opponent
            win = False
        while rem:
            bit = rem & -rem
            rem ^= bit
            c = child(key, bit)
            r = get(c)
            if r is None:
                frame[1] = rem
                stack.append([c, None])
                break
            if not r:  # canonically-first child that loses for the opponent
                win = True
                break
        else:
            table[key] = win
            stack.pop()
            if not win and stack:  # the parent's newest child lost: it wins
                table[stack.pop()[0]] = True
            continue
        if win:
            table[key] = True
            stack.pop()
    return table[root_key], expanded, table


def solve(p: Position, c: Convention, budget: int = DEFAULT_BUDGET) -> SolveReport:
    report, _ = solve_with_table(p, c, budget)
    return report


def solve_with_table(p: Position, c: Convention, budget: int = DEFAULT_BUDGET):
    """Like solve(), but also returns the transposition table for inspection.

    Table keys come from the root engine, `_Engine(p).key`.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    engine = _root_engine(p)
    root = engine.key(p)
    mover_wins_terminal = c is Convention.MISERE
    win, expanded, table = _solve_packed(engine, root, mover_wins_terminal, budget)
    if win is None:
        return SolveReport(None, None, expanded, True), table
    principal = None
    if win:
        for move, child in engine.moves(root):
            if table.get(child) is False:
                principal = move
                break
    outcome = Outcome.N if win else Outcome.P
    return SolveReport(outcome, principal, expanded, False), table


def extract_strategy(p: Position, c: Convention, budget: int = DEFAULT_BUDGET) -> Policy:
    """Winning policy for the mover at `p`; usage error unless solve(p,c) = N.

    The returned policy owns a private transposition table shared across its
    own queries, and answers with the canonically-first winning move.
    """
    engine = _root_engine(p)
    root = engine.key(p)
    mover_wins_terminal = c is Convention.MISERE
    table: dict = {}
    win, _, _ = _solve_packed(engine, root, mover_wins_terminal, budget, table)
    if win is None:
        raise CapacityError("budget exhausted before the root position was solved")
    if not win:
        raise ValueError("extract_strategy requires an N position")

    def choose(q: Position) -> Move:
        for move, child in engine.moves(engine.key(q)):
            r = table.get(child)
            if r is None:
                r, _, _ = _solve_packed(engine, child, mover_wins_terminal, budget, table)
                if r is None:
                    raise CapacityError("budget exhausted while advising a move")
            if r is False:
                return move
        raise ValueError("no winning move: position is not an N position")

    return Policy(choose, "exhaustive")
