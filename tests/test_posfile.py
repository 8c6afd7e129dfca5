import re
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from mgg import posfile
from mgg.kernel import VARIANTS, Convention
from mgg.posfile import (
    MAX_VERTICES,
    PositionParseError,
    parse_position,
    read_position,
    serialize_position,
)
from strategies import any_fresh_position

MINIMAL = """\
mgg-pos 1
game nimg-rm
convention misere
kind ugraph
vertices 1
edges 0
start 0
w 0 1
"""


def test_minimal_file():
    pos, conv = parse_position(MINIMAL)
    assert conv is Convention.MISERE
    assert pos.variant == "nimg-rm"
    assert pos.graph.n == 1
    assert pos.weights == (1,)
    assert pos.current == 0


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n" + MINIMAL.replace("start 0", "start 0\n# mid comment")
    pos, _ = parse_position(text)
    assert pos.current == 0
    trailing = MINIMAL.replace("start 0", "start 0  # token here").replace("w 0 1", "w 0 1#")
    assert parse_position(trailing) == parse_position(MINIMAL)


def _documented_examples():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Position file format"):]
    yield re.search(r"```\n(.*?)```", section, re.S).group(1)
    yield textwrap.dedent(re.search(r"::\n\n((?:    .*\n|\n)+)", posfile.__doc__).group(1))


@pytest.mark.parametrize("text", list(_documented_examples()), ids=["readme", "docstring"])
def test_documented_examples_parse(text):
    pos, conv = parse_position(text)
    assert (pos.variant, conv, pos.graph.n, pos.weights) == ("nimg-rm", Convention.MISERE, 3, (2, 1, 1))
    assert pos.graph.edges == ((0, 1), (1, 2))


def test_roundtrip_is_canonical():
    scrambled = """\
mgg-pos 1
game nimg-rm
convention normal
kind ugraph
vertices 3
edges 2
start 2
w 2 5
w 0 1
w 1 0
e 2 1
e 1 0
"""
    pos, conv = parse_position(scrambled)
    text = serialize_position(pos, conv)
    assert text.index("w 0 1") < text.index("w 1 0") < text.index("w 2 5")
    assert text.index("e 0 1") < text.index("e 1 2")
    assert parse_position(text) == (pos, conv)


@settings(max_examples=200)
@given(any_fresh_position(max_n=6, wmax=3))
def test_parse_inverts_serialize(pos):
    for conv in Convention:
        assert parse_position(serialize_position(pos, conv)) == (pos, conv)


def test_geography_file_has_no_weight_lines():
    text = MINIMAL.replace("game nimg-rm", "game vgeo")
    with pytest.raises(PositionParseError):
        parse_position(text)


def test_played_positions_round_trip():
    from mgg.graphs import build_graph
    from mgg.kernel import Move, Position, apply_move

    cycle = build_graph("undirected", 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    played = apply_move(apply_move(Position("vgeo", cycle, 0), Move(1)), Move(2))
    text = serialize_position(played, Convention.NORMAL)
    # the departed vertices 0 and 1 stay, without an edge
    assert "vertices 4\nedges 1\nstart 2\ne 2 3\n" in text
    assert parse_position(text) == (played, Convention.NORMAL)


@pytest.mark.parametrize(
    "mangle,line",
    [
        (lambda t: t.replace("mgg-pos 1", "mgg-pos 2"), 1),
        (lambda t: t.replace("game nimg-rm", "game chess"), 2),
        (lambda t: t.replace("convention misere", "convention misery"), 3),
        (lambda t: t.replace("kind ugraph", "kind multigraph"), 4),
        (lambda t: t.replace("vertices 1", "vertices 0"), 5),
        (lambda t: t.replace("edges 0", "edges x"), 6),
        (lambda t: t.replace("start 0", "start 5"), 7),
        (lambda t: t.replace("w 0 1", "w 0 -2"), 8),
        (lambda t: t.replace("w 0 1", "w 1 1"), 8),
        (lambda t: t + "e 0 0\n", 9),
        pytest.param(lambda t: t.replace("vertices 1", f"vertices {MAX_VERTICES + 1}"), 5,
                     id="over-vertex-cap"),
        pytest.param(lambda t: t.replace("vertices 1", "vertices 2"), 9, id="missing-w"),
        pytest.param(lambda t: t.replace("edges 0", "edges 1"), 9, id="missing-e"),
        pytest.param(lambda t: t.replace("edges 0", "edges 1") + "e 0 1\n", 9,
                     id="endpoint-out-of-range"),
        pytest.param(lambda t: t.replace("edges 0\nstart 0\nw 0 1\n", "# cut\n"), 7,
                     id="end-of-file"),
    ],
)
def test_errors_carry_line_numbers(mangle, line):
    with pytest.raises(PositionParseError) as exc:
        parse_position(mangle(MINIMAL))
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)


def test_duplicate_edge_reported_with_line():
    text = """\
mgg-pos 1
game vgeo
convention normal
kind digraph
vertices 2
edges 2
start 0
e 0 1
e 0 1
"""
    with pytest.raises(PositionParseError) as exc:
        parse_position(text)
    assert "duplicate" in str(exc.value)
    assert exc.value.line == 9  # the second copy


def test_truncated_file():
    with pytest.raises(PositionParseError, match="end of file") as exc:
        parse_position("mgg-pos 1\ngame vgeo\n")
    assert exc.value.line == 3  # the line after the last one


def test_read_position_names_the_file(tmp_path):
    path = tmp_path / "p.pos"
    path.write_text(MINIMAL.replace("w 0 1", "w 0 -1"))
    with pytest.raises(PositionParseError) as exc:
        read_position(path)
    assert str(exc.value) == f"{path}: line 8: negative weight -1"
    assert exc.value.line == 8
    path.write_bytes(MINIMAL.encode() + b"e 0 \xff\n")
    with pytest.raises(PositionParseError) as exc:
        read_position(path)
    assert str(exc.value) == f"{path}: line 9: not UTF-8 text (invalid start byte)"


@pytest.mark.parametrize("game", VARIANTS)
def test_hostile_sizes_rejected_before_allocating(game):
    head = f"mgg-pos 1\ngame {game}\nconvention normal\nkind ugraph\n"
    for sizes, line in ((f"vertices {10**8}\nedges 0", 5),
                        (f"vertices {MAX_VERTICES}\nedges {10**8}", 8)):
        tracemalloc.start()
        try:
            with pytest.raises(PositionParseError) as exc:
                parse_position(head + sizes + "\nstart 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line == line
        assert peak < 1 << 20


ONE_EDGE = """\
mgg-pos 1
game vgeo
convention normal
kind ugraph
vertices 2
edges 1
start 0
e 0 1
"""


@pytest.mark.parametrize("old,new,line", [
    ("vertices 2", "vertices 1_0", 5),
    ("start 0", "start ٣", 7),  # ARABIC-INDIC DIGIT THREE
    ("e 0 1", "e 0 +1", 8),
], ids=["underscore", "non-ascii-digit", "plus-sign"])
def test_integers_are_ascii_decimals(old, new, line):
    # int() reads all three (as 10, 3 and 1); no serializer writes them
    with pytest.raises(PositionParseError, match="must be an integer") as exc:
        parse_position(ONE_EDGE.replace(old, new))
    assert exc.value.line == line
    assert repr(new.split()[-1]) in str(exc.value)


def test_comments_may_hold_any_text():
    commented = ONE_EDGE.replace("e 0 1", "e 0 1  # not +1, 1_0 or ٣")
    assert parse_position(commented) == parse_position(ONE_EDGE)
