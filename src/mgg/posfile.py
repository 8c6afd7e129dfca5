"""Line-oriented position file format.

::

    mgg-pos 1
    game nimg-rm
    convention misere
    kind ugraph
    vertices 3
    edges 2
    start 0
    w 0 2        # nimg games only: one line per vertex
    w 1 1
    w 2 1
    e 0 1        # u == v denotes a loop
    e 1 2

``#`` starts a comment that runs to the end of its line; blank lines are
ignored.  The seven header lines come first, in this order; then, for the
nimg games, exactly ``vertices`` ``w`` lines; then exactly ``edges`` ``e``
lines.  Every number is ASCII decimal digits with an optional leading
``-``.  A file declaring more than `MAX_VERTICES` vertices, or more ``w``
and ``e`` lines than it holds, is rejected before any per-vertex or
per-edge list is built.  Every error names its line; one at the end of
the file names the line after the last.  Serialization is canonical: weight lines ascend
by vertex and edge lines ascend lexicographically.  A file holds every
`Position`, a played one too: a position is a graph, a token and, for the
nimg games, weights.
"""

from __future__ import annotations

import re

from .graphs import DIRECTED, UNDIRECTED, build_graph
from .kernel import NIMG_VARIANTS, VARIANTS, Convention, Position

FORMAT_HEADER = "mgg-pos 1"
#: Largest `vertices` a file may declare: far above the tests' and the
#: benchmark's graphs, while one adjacency table this size stays near 30 MiB.
MAX_VERTICES = 1 << 17
_FIELDS = ("header", "game", "convention", "kind", "vertices", "edges", "start")
_KINDS = {"ugraph": UNDIRECTED, "digraph": DIRECTED}
_KIND_NAMES = {UNDIRECTED: "ugraph", DIRECTED: "digraph"}
#: The integers a file may hold: ASCII decimal digits, optionally after a `-`.
_DECIMAL = re.compile(r"-?[0-9]+")


class PositionParseError(ValueError):
    """A malformed position: the message names the line, and the file when read from one."""

    def __init__(self, message: str, line: int, path=None):
        where = f"line {line}" if path is None else f"{path}: line {line}"
        super().__init__(f"{where}: {message}")
        self.message, self.line = message, line


def parse_decimal(token: str) -> int:
    """The integer `token` spells under the position-file rule `_DECIMAL`."""
    if not _DECIMAL.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _integer(name: str, value: str, line: int) -> int:
    try:
        return parse_decimal(value)
    except ValueError:
        raise PositionParseError(f"{name} must be an integer, got {value!r}", line) from None


def parse_position(text: str) -> tuple[Position, Convention]:
    raw = text.splitlines()
    # (line number, text before any `#`) of each content line; a body line is
    # split in its own loop, as thousands of live token lists cost GC time
    lines = [(i, line) for i, raw_line in enumerate(raw, start=1)
             if (line := raw_line.partition("#")[0].strip())]
    header, body = [(ln, line.split()) for ln, line in lines[:7]], lines[7:]
    for (ln, toks), name in zip(header, _FIELDS):
        if name == "header" and " ".join(toks) != FORMAT_HEADER:
            raise PositionParseError(f"expected header `{FORMAT_HEADER}`", ln)
        if name != "header" and (toks[0] != name or len(toks) != 2):
            raise PositionParseError(f"expected `{name}` with 1 value(s)", ln)
    end = len(raw) + 1  # the line an end-of-file error names
    if len(header) < 7:
        raise PositionParseError(f"unexpected end of file, expected {_FIELDS[len(header)]}", end)
    at = [ln for ln, _ in header]
    _, game, conv, kind, n, m, start = [toks[-1] for _, toks in header]

    if game not in VARIANTS:
        raise PositionParseError(f"unknown game {game!r}", at[1])
    try:
        convention = Convention(conv)
    except ValueError:
        raise PositionParseError(f"unknown convention {conv!r}", at[2]) from None
    if kind not in _KINDS:
        raise PositionParseError(f"unknown kind {kind!r}", at[3])
    n = _integer("vertices", n, at[4])
    if n < 1:
        raise PositionParseError("vertex count must be >= 1", at[4])
    if n > MAX_VERTICES:
        raise PositionParseError(f"vertex count {n} over the limit of {MAX_VERTICES}", at[4])
    m = _integer("edges", m, at[5])
    if m < 0:
        raise PositionParseError("edge count must be >= 0", at[5])
    start = _integer("start", start, at[6])
    if not 0 <= start < n:
        raise PositionParseError(f"start {start} outside [0,{n})", at[6])

    # int() also reads `1_0`, `+1` and non-ASCII digits.  In a text with no
    # `_`, `+` or non-ASCII character it reads only what _DECIMAL matches, so
    # only other texts pay for matching each body token.
    num = int if text.isascii() and "_" not in text and "+" not in text else parse_decimal
    nw = n if game in NIMG_VARIANTS else 0
    if len(body) < nw + m:
        declared = f"{n} `w` and {m} `e`" if nw else f"{m} `e`"
        raise PositionParseError(
            f"unexpected end of file, expected {declared} lines, found {len(body)}", end)

    weights = [None] * nw
    for ln, line in body[:nw]:
        toks = line.split()
        if len(toks) != 3 or toks[0] != "w":
            raise PositionParseError("expected `w` with 2 value(s)", ln)
        try:
            v, wt = num(toks[1]), num(toks[2])
        except ValueError:  # name the token that is not an integer
            _integer("w vertex", toks[1], ln)
            _integer("weight", toks[2], ln)
        if not 0 <= v < n:
            raise PositionParseError(f"weight vertex {v} outside [0,{n})", ln)
        if weights[v] is not None:
            raise PositionParseError(f"duplicate weight for vertex {v}", ln)
        if wt < 0:
            raise PositionParseError(f"negative weight {wt}", ln)
        weights[v] = wt

    directed = _KINDS[kind] == DIRECTED
    edges, seen = [], set()
    for ln, line in body[nw:nw + m]:
        toks = line.split()
        if len(toks) != 3 or toks[0] != "e":
            raise PositionParseError("expected `e` with 2 value(s)", ln)
        try:
            u, v = num(toks[1]), num(toks[2])
        except ValueError:  # name the token that is not an integer
            _integer("edge endpoint", toks[1], ln)
            _integer("edge endpoint", toks[2], ln)
        if not (0 <= u < n and 0 <= v < n):
            raise PositionParseError(f"edge ({u},{v}) has endpoint outside [0,{n})", ln)
        pair = (u, v) if directed or u <= v else (v, u)
        if pair in seen:
            raise PositionParseError(f"duplicate edge ({pair[0]},{pair[1]})", ln)
        seen.add(pair)
        edges.append(pair)

    if len(body) > nw + m:
        ln, line = body[nw + m]
        raise PositionParseError(f"trailing content `{' '.join(line.split())}`", ln)

    graph = build_graph(_KINDS[kind], n, edges)
    return Position(game, graph, start, tuple(weights) if nw else None), convention


def serialize_position(p: Position, convention: Convention) -> str:
    """Canonical text form of a position (inverse of parse_position)."""
    out = [
        FORMAT_HEADER,
        f"game {p.variant}",
        f"convention {convention.value}",
        f"kind {_KIND_NAMES[p.graph.kind]}",
        f"vertices {p.graph.n}",
        f"edges {len(p.graph.edges)}",
        f"start {p.current}",
    ]
    if p.weights is not None:
        out.extend(f"w {v} {wt}" for v, wt in enumerate(p.weights))
    out.extend(f"e {u} {v}" for u, v in p.graph.edges)
    return "\n".join(out) + "\n"


def read_position(path) -> tuple[Position, Convention]:
    """Parse the file at `path`; a parse or UTF-8 decode error names `path`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_position(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise PositionParseError(f"not UTF-8 text ({exc.reason})", line, path) from None
    except PositionParseError as exc:
        raise PositionParseError(exc.message, exc.line, path) from None


def write_position(path, p: Position, convention: Convention) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_position(p, convention))
