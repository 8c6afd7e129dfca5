"""The benchmark's tracer (`perfbench/tracer.py`) hooks `mgg` by name.

A name it hooks that the package no longer has makes every traced
benchmark run fail, so these tests install the tracer on the imported
package, as a traced run does, and check that it finds every name and
that uninstalling puts back every attribute it replaced.
"""

import importlib.util
import sys
from pathlib import Path

import mgg
import mgg.cli
from mgg.graphs import Graph, build_graph
from mgg.kernel import Convention, Position

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: (module, attribute) of every function the tracer wraps by name.
HOOKED = (
    ("posfile", "parse_position"),
    ("graphs", "induced_subgraph"),
    ("graphs", "bipartition"),
    ("graphs", "connected_component"),
    ("kernel", "legal_moves"),
    ("kernel", "apply_move"),
    ("search", "solve"),
    ("matching", "max_matching_bipartite"),
    ("matching", "max_matching_general"),
    ("matching", "covered_by_all_maximum_matchings"),
    ("polysolve", "preprocess_positive"),
    ("polysolve", "solve_bipartite_rm_misere"),
    ("arena", "check_reduction"),
    ("arena", "verify_strategy"),
    ("cli", "poly_solve"),
)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _attributes():
    """Every attribute the tracer may replace: the globals of each `mgg`
    module, and `Graph.__post_init__`."""
    found = {(name, attr): value
             for name, module in sys.modules.items()
             if name == "mgg" or name.startswith("mgg.")
             for attr, value in vars(module).items()}
    found["Graph", "__post_init__"] = Graph.__post_init__
    return found


def test_tracer_finds_every_name_and_uninstall_restores_each():
    before = _attributes()
    tracer = _tracer()
    try:
        tracer.install()  # an AttributeError here names a hook whose target is gone
        for module, attr in HOOKED:
            wrapper = getattr(sys.modules[f"mgg.{module}"], attr)
            assert wrapper.__wrapped__ is before[f"mgg.{module}", attr]
        assert Graph.__post_init__.__wrapped__ is before["Graph", "__post_init__"]
        # a traced solve leaves a sample for the table check below
        p = Position("vgeo", build_graph("undirected", 3, [(0, 1), (1, 2)]), 0)
        mgg.search.solve(p, Convention.NORMAL)
    finally:
        tracer.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    tracer.measure_tables()  # reads `search.solve_with_table`, as a traced run does
    assert tracer.counts["search.sampled_solves"] == 1
