import io
import tracemalloc

import pytest

from mgg.cli import (
    EXIT_BUDGET,
    EXIT_DISAGREE,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    format_move,
    main,
    parse_move,
)
from mgg.kernel import Convention, Move, Position
from mgg.graphs import build_graph
from mgg.polysolve import NotApplicable, poly_solve
from mgg.search import Outcome


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SINGLE = """\
mgg-pos 1
game nimg-rm
convention misere
kind ugraph
vertices 1
edges 0
start 0
w 0 1
"""

EDGE_BIP = """\
mgg-pos 1
game nimg-rm
convention misere
kind ugraph
vertices 2
edges 1
start 0
w 0 1
w 1 1
e 0 1
"""

ODD_HEAVY = """\
mgg-pos 1
game nimg-rm
convention misere
kind ugraph
vertices 3
edges 3
start 0
w 0 2
w 1 2
w 2 2
e 0 1
e 1 2
e 0 2
"""

VGEO_TRI = """\
mgg-pos 1
game vgeo
convention normal
kind digraph
vertices 3
edges 3
start 0
e 0 1
e 1 2
e 2 0
"""


def test_solve_single_vertex(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "p.pos", SINGLE)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "outcome P" in out


def test_solve_reports_matching_strategy(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "p.pos", EDGE_BIP), "--method", "matching"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "outcome N" in out
    assert "move 0 1" in out
    assert "strategy matching-following" in out


def test_solve_matching_not_applicable(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "p.pos", ODD_HEAVY), "--method", "matching"])
    assert code == EXIT_NOT_APPLICABLE
    err = capsys.readouterr().err
    assert "not applicable" in err
    # each remove-then-move solver's decline reason, in routing order
    assert ("matching-weight1: weights must all equal one; "
            "matching-loops: loop missing on a token-bearing vertex; "
            "matching-bipartite: graph is not bipartite") in err


def test_solve_auto_falls_back_to_exhaustive(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "p.pos", ODD_HEAVY)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "solver exhaustive" in out


def test_solve_parse_error_exit_code(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "p.pos", SINGLE.replace("w 0 1", "w 0 -1"))])
    assert code == EXIT_INPUT
    assert "line 8" in capsys.readouterr().err


def test_solve_budget_exhausted(tmp_path, capsys):
    code = main(
        ["solve", write(tmp_path, "p.pos", ODD_HEAVY), "--method", "exhaustive",
         "--budget", "2"]
    )
    assert code == EXIT_BUDGET
    assert "budget exhausted" in capsys.readouterr().out


def test_solve_budget_one_on_heavy_weights(tmp_path, capsys):
    heavy = EDGE_BIP.replace("w 0 1", "w 0 3000000")
    code = main(
        ["solve", write(tmp_path, "p.pos", heavy), "--method", "exhaustive",
         "--budget", "1"]
    )
    assert code == EXIT_BUDGET
    assert "budget exhausted after 1 states" in capsys.readouterr().out


def test_heavy_weights_do_not_enumerate_moves(tmp_path, capsys, monkeypatch):
    # auto solve and play only ask whether the position is terminal
    path = write(tmp_path, "p.pos", EDGE_BIP.replace("w 0 1", "w 0 3000000"))
    # a leaf of the path 0-1-2 is lost: the engine falls back to the first move
    lost = write(tmp_path, "lost.pos", EDGE_BIP.replace("w 0 1", "w 0 3000000")
                 .replace("vertices 2\nedges 1", "vertices 3\nedges 2")
                 .replace("w 1 1\n", "w 1 1\nw 2 1\ne 1 2\n"))
    tracemalloc.start()
    try:
        solved = main(["solve", path])
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        played = main(["play", path, "--engine-first"])
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        played_lost = main(["play", lost, "--engine-first"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solved == EXIT_OK
    assert played == played_lost == EXIT_INPUT  # the engine moved, then stdin ran dry
    out = capsys.readouterr().out
    assert "outcome N" in out and out.count("engine plays: 0 1") == 2
    assert main(["solve", lost]) == EXIT_OK
    assert "outcome P" in capsys.readouterr().out
    assert peak < 8 << 20


def _long_path_file(tmp_path):
    n = 130
    lines = ["mgg-pos 1", "game vgeo", "convention normal", "kind digraph",
             f"vertices {n}", f"edges {n - 1}", "start 0"]
    lines += [f"e {i} {i + 1}" for i in range(n - 1)]
    return write(tmp_path, "path.pos", "\n".join(lines) + "\n")


def test_capacity_error_is_not_applicable(tmp_path, capsys, monkeypatch):
    path = _long_path_file(tmp_path)
    code = main(["solve", path, "--method", "exhaustive"])
    err = capsys.readouterr().err
    assert code == EXIT_NOT_APPLICABLE
    assert err.startswith("error: ") and "128" in err
    assert len(err.strip().splitlines()) == 1
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = main(["play", path, "--method", "exhaustive", "--engine-first"])
    err = capsys.readouterr().err
    assert code == EXIT_NOT_APPLICABLE
    assert err.startswith("error: ") and "128" in err


def test_move_bit_cap_stops_heavy_weights_before_they_allocate(tmp_path, capsys, monkeypatch):
    # vertex 0: 2 targets x 2^25 move bits each (weights of 25 bits), one 8 MiB int
    heavy = ODD_HEAVY.replace("w 0 2\nw 1 2\nw 2 2", f"w 0 {1 << 24}\nw 1 1\nw 2 1")
    path = write(tmp_path, "p.pos", heavy)
    tracemalloc.start()
    try:
        code = main(["solve", path, "--budget", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == EXIT_NOT_APPLICABLE
    assert err.startswith("error: nimg move bits") and len(err.strip().splitlines()) == 1
    assert peak < 8 << 20
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["play", path, "--engine-first"]) == EXIT_NOT_APPLICABLE
    assert main(["verify", "nimg-mr", "--wmax", str(1 << 25), "--trials", "3",
                 "--counterexamples", str(tmp_path / "cx")]) == EXIT_NOT_APPLICABLE
    assert capsys.readouterr().err.count("error: nimg move bits") == 2


def test_reduce_writes_target_and_namemap(tmp_path, capsys):
    out_path = str(tmp_path / "out.pos")
    code = main(["reduce", "vgeo-dir", write(tmp_path, "t.pos", VGEO_TRI), out_path])
    assert code == EXIT_OK
    target = (tmp_path / "out.pos").read_text()
    assert "vertices 6" in target
    assert "convention misere" in target
    namemap = (tmp_path / "out.pos.namemap").read_text()
    assert "0_2 -> 3" in namemap


def test_reduce_rejects_misere_source(tmp_path, capsys):
    bad = VGEO_TRI.replace("convention normal", "convention misere")
    code = main(["reduce", "vgeo-dir", write(tmp_path, "t.pos", bad), str(tmp_path / "o.pos")])
    assert code == EXIT_INPUT


def test_reduce_rejects_wrong_game(tmp_path):
    bad = VGEO_TRI.replace("game vgeo", "game egeo")
    code = main(["reduce", "vgeo-dir", write(tmp_path, "t.pos", bad), str(tmp_path / "o.pos")])
    assert code == EXIT_INPUT


def test_verify_reports_agreement(tmp_path, capsys):
    code = main(
        ["verify", "nimg-mr", "--n", "3", "--m", "3", "--wmax", "2",
         "--trials", "30", "--seed", "7",
         "--counterexamples", str(tmp_path / "cx")]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "summary: 30/30 agree, 0 indeterminate" in out


def test_verify_disagreement_exit_and_bundle(tmp_path, capsys):
    # inject a deliberately wrong construction: identity graph with the
    # convention flipped, guaranteed to disagree on single-vertex sources
    from mgg.reductions import REDUCTIONS, ReductionEntry, ReductionOutput

    broken = ReductionEntry(
        "broken", "vgeo", "directed",
        lambda p: ReductionOutput(p, {"0_1": 0}, Convention.NORMAL, Convention.MISERE),
    )
    REDUCTIONS["broken"] = broken
    try:
        code = main(
            ["verify", "broken", "--n", "1", "--m", "0", "--trials", "2",
             "--seed", "5", "--counterexamples", str(tmp_path / "cx")]
        )
    finally:
        del REDUCTIONS["broken"]
    captured = capsys.readouterr()
    assert code == EXIT_DISAGREE
    assert "NO" in captured.out
    assert "counterexample written" in captured.err
    bundles = list((tmp_path / "cx").iterdir())
    assert bundles and (bundles[0] / "source.pos").exists()


def test_verify_budget_exit(tmp_path, capsys):
    code = main(
        ["verify", "vgeo-undir", "--n", "4", "--m", "4", "--trials", "3",
         "--seed", "1", "--budget", "3",
         "--counterexamples", str(tmp_path / "cx")]
    )
    assert code == EXIT_BUDGET
    assert "indeterminate" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value,floor", [
    ("--n", "0", 1), ("--m", "-1", 0), ("--wmax", "0", 1), ("--trials", "0", 1),
    ("--trials", "-3", 1),
], ids=["n", "m", "wmax", "trials", "trials-negative"])
def test_verify_infeasible_grid(capsys, flag, value, floor):
    code = main(["verify", "vgeo-dir", flag, value])
    assert code == EXIT_INFEASIBLE
    out, err = capsys.readouterr()
    assert out == ""  # rejected before the trial header
    assert err == f"infeasible grid: {flag} must be >= {floor}, got {value}\n"


def test_verify_without_names_runs_every_standard_grid(tmp_path, capsys):
    code = main(["verify", "--counterexamples", str(tmp_path / "cx")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    summaries = [line for line in out.splitlines() if line.startswith("summary:")]
    # vgeo-dir checks every start of its 500 sources; nimg-mr draws loops
    assert summaries == [
        f"summary: {k}/{k} agree, 0 indeterminate"
        for k in (1714, 100, 300, 300, 200, 300)
    ]
    assert out.count("trial seed n m start src tgt agree") == 6


def test_verify_flags_override_the_standard_grid(capsys):
    assert main(["verify", "vgeo-dir", "egeo-dir", "--n", "1", "--m", "0",
                 "--trials", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("summary: 2/2 agree, 0 indeterminate") == 2
    with pytest.raises(SystemExit):
        main(["verify", "no-such-reduction"])


def test_play_full_game(tmp_path, capsys, monkeypatch):
    # winning line for the human: drain the start, step to the other vertex
    monkeypatch.setattr("sys.stdin", io.StringIO("9 9\n0 1\n"))
    code = main(["play", write(tmp_path, "p.pos", EDGE_BIP)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "illegal move" in out  # the 9 9 attempt was rejected and reprompted
    assert "engine plays: 0 0" in out
    assert "you win" in out


def test_play_eof_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = main(["play", write(tmp_path, "p.pos", EDGE_BIP)])
    assert code == EXIT_INPUT


def test_play_matching_not_applicable(tmp_path, capsys):
    code = main(["play", write(tmp_path, "p.pos", ODD_HEAVY), "--method", "matching"])
    assert code == EXIT_NOT_APPLICABLE
    assert "not applicable" in capsys.readouterr().err


def test_engine_first_move_agrees_across_methods(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "p.pos", EDGE_BIP)
    plays = []
    for method in ("auto", "exhaustive"):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["play", path, "--engine-first", "--method", method]) == EXIT_INPUT
        out = capsys.readouterr().out
        plays.append([line for line in out.splitlines() if line.startswith("engine plays")])
    assert plays[0] == plays[1] == ["engine plays: 0 1"]


def test_play_matching_routes_the_start_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(pos, conv):
        calls.append(pos)
        return poly_solve(pos, conv)

    monkeypatch.setattr("mgg.cli.poly_solve", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    path = write(tmp_path, "p.pos", EDGE_BIP)
    assert main(["play", path, "--engine-first", "--method", "matching"]) == EXIT_INPUT
    assert "engine plays: 0 1" in capsys.readouterr().out
    assert len(calls) == 1


def test_poly_solve_dispatch():
    g = build_graph("undirected", 2, [(0, 1)])
    p = Position("nimg-rm", g, 0, (1, 1))
    outcome, _, name = poly_solve(p, Convention.MISERE)
    assert outcome is Outcome.N and name == "matching-weight1"
    outcome, _, name = poly_solve(
        Position("nimg-rm", g, 0, (2, 1)), Convention.MISERE
    )
    assert name == "matching-bipartite"
    loops = build_graph("undirected", 1, [(0, 0)])
    _, _, name = poly_solve(Position("nimg-rm", loops, 0, (2,)), Convention.MISERE)
    assert name == "matching-loops"
    _, _, name = poly_solve(Position("vgeo", g, 0), Convention.NORMAL)
    assert name == "matching-vgeo"
    with pytest.raises(NotApplicable):
        poly_solve(Position("vgeo", g, 0), Convention.MISERE)
    with pytest.raises(NotApplicable):
        poly_solve(Position("egeo", g, 0), Convention.NORMAL)


@pytest.mark.parametrize("text", [SINGLE, EDGE_BIP, ODD_HEAVY, VGEO_TRI])
def test_auto_matches_exhaustive(tmp_path, capsys, text):
    path = write(tmp_path, "p.pos", text)
    assert main(["solve", path, "--method", "auto"]) == EXIT_OK
    auto_out = capsys.readouterr().out
    assert main(["solve", path, "--method", "exhaustive"]) == EXIT_OK
    exhaustive_out = capsys.readouterr().out
    pick = lambda s: next(l for l in s.splitlines() if l.startswith("outcome"))
    assert pick(auto_out) == pick(exhaustive_out)


def test_move_round_trip_formats():
    assert parse_move("nimg-rm", "2 1") == Move(1, 2)
    assert format_move("nimg-rm", Move(1, 2)) == "2 1"
    assert parse_move("nimg-mr", "1 0") == Move(1, 0)
    assert format_move("nimg-mr", Move(1, 0)) == "1 0"
    assert parse_move("vgeo", "3") == Move(3)
    assert format_move("egeo", Move(3)) == "3"
    with pytest.raises(ValueError):
        parse_move("nimg-rm", "1")
    with pytest.raises(ValueError):
        parse_move("vgeo", "1 2")
