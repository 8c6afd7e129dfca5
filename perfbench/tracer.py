"""Layer spans for a traced run, recorded from outside the package.

`Tracer.install()` wraps the public functions of each `mgg` module and
patches every module global that refers to the original, because the package
binds its helpers with from-imports (`arena.solve`, `cli.read_position`,
`polysolve.covered_by_all_maximum_matchings`, ...).  A span's self time is its
duration minus the spans it caused.  Checks that re-derive a quantity (the
Hopcroft-Karp phase count, table sizes) run outside every span, and their
time is subtracted from the item and span that enclosed them.
"""

from __future__ import annotations

import math
import sys
import time
import tracemalloc
from collections import defaultdict

now = time.perf_counter

#: Re-derive table sizes for the first solves only, so tracemalloc stays cheap.
TABLE_SAMPLE_STATES = 150_000
TABLE_SAMPLE_CALLS = 64


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # [start, excluded at start, child time]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, self s, total s
        self.counts = defaultdict(float)
        self.excluded = 0.0  # time spent in checks that belong to no span
        self.top_level = 0.0  # time covered by spans with no parent
        self.violations: list[str] = []
        self.import_ms: list[float] = []
        self.solve_samples: list[tuple] = []
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Span `name` around `fn`; `after(result, exc, args)` runs outside it.

        `after` may return a replacement result (used to wrap policies).
        """
        stack, stats = self.stack, self.stats

        def wrapper(*args, **kwargs):
            frame = [now(), self.excluded, 0.0]
            stack.append(frame)
            exc = result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
            stack.pop()
            dur = now() - frame[0] - (self.excluded - frame[1])
            st = stats[name]
            st[0] += 1
            st[1] += dur - frame[2]
            st[2] += dur
            if stack:
                stack[-1][2] += dur
            else:
                self.top_level += dur
            if after is not None:
                t0 = now()
                try:
                    replaced = after(result, exc, args)
                finally:
                    self.excluded += now() - t0
                if replaced is not None:
                    result = replaced
            if exc is not None:
                raise exc
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def merge(self, other: dict) -> None:
        """Fold in the summary a traced child process wrote (see summary())."""
        for name, (calls, self_s, total_s) in other["stats"].items():
            st = self.stats[name]
            st[0] += calls
            st[1] += self_s
            st[2] += total_s
        for name, value in other["counts"].items():
            self.counts[name] += value
        self.top_level += other["top_level"]
        self.violations.extend(other["violations"])
        self.import_ms.extend(other["import_ms"])

    def summary(self) -> dict:
        return {
            "stats": dict(self.stats),
            "counts": dict(self.counts),
            "top_level": self.top_level,
            "violations": self.violations,
            "import_ms": self.import_ms,
        }

    # -- installation -------------------------------------------------------

    def _patch(self, orig, wrapper) -> None:
        """Point every module global at `wrapper`, also inside tuples such
        as the router's `(name, solver)` table."""
        def swap(value):
            if value is orig:
                return wrapper
            if type(value) is tuple:
                return tuple(swap(v) for v in value)
            return value

        for modname, mod in list(sys.modules.items()):
            if modname != "mgg" and not modname.startswith("mgg."):
                continue
            for attr, value in list(vars(mod).items()):
                new = swap(value)
                if new is not value and new != value:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, value))

    def install(self) -> None:
        m = {name: sys.modules[f"mgg.{name}"] for name in (
            "graphs", "kernel", "search", "matching", "polysolve", "posfile",
            "reductions", "arena")}
        graphs, matching, polysolve, search = (
            m["graphs"], m["matching"], m["polysolve"], m["search"])
        counts = self.counts
        with_phases = matching.max_matching_bipartite_with_phases
        Policy, NotApplicable = search.Policy, polysolve.NotApplicable

        def on_parse(result, exc, args):
            counts["posfile.bytes"] += len(args[0])

        def on_solve(report, exc, args):
            if report is None:
                return
            counts["search.states_expanded"] += report.states_expanded
            counts["search.budget_exhausted"] += report.budget_exhausted
            if len(self.solve_samples) < TABLE_SAMPLE_CALLS:
                self.solve_samples.append((args, report.states_expanded))

        def on_bipartite(result, exc, args):
            g, b = args
            _, phases = with_phases(g, b)
            counts["matching.hk_phases"] += phases
            bound = 2 * math.isqrt(g.n) + 2
            if phases > bound:
                self.violations.append(
                    f"Hopcroft-Karp used {phases} phases on n={g.n}, bound {bound}")

        def on_reduce(out, exc, args):
            if out is not None:
                counts["reductions.target_vertices"] += out.position.graph.n
                counts["reductions.target_arcs"] += len(out.position.graph.edges)

        choose_span = lambda policy: Policy(  # noqa: E731
            self.wrap("polysolve.choose", policy.choose), policy.provenance)

        def on_poly(result, exc, args):
            if isinstance(exc, NotApplicable):
                counts["polysolve.declined"] += 1
                return None
            if exc is None:
                counts["polysolve.answered"] += 1
                outcome, policy = result
                if policy is not None:
                    return outcome, choose_span(policy)
            return None

        def on_router(result, exc, args):
            if isinstance(exc, NotApplicable):
                counts["cli.poly_solve_declines"] += 1

        targets = [
            ("posfile", "parse_position", "posfile.parse", on_parse),
            ("graphs", "induced_subgraph", "graphs.induced_subgraph", None),
            ("graphs", "bipartition", "graphs.bipartition", None),
            ("graphs", "connected_component", "graphs.connected_component", None),
            ("kernel", "legal_moves", "kernel.legal_moves", None),
            ("kernel", "apply_move", "kernel.apply_move", None),
            ("search", "solve", "search.solve", on_solve),
            ("matching", "max_matching_bipartite", "matching.bipartite", on_bipartite),
            ("matching", "max_matching_general", "matching.general", None),
            ("matching", "covered_by_all_maximum_matchings", "matching.coverage", None),
            ("polysolve", "preprocess_positive", "polysolve.preprocess", None),
            ("arena", "check_reduction", "arena.check_reduction", None),
            ("arena", "verify_strategy", "arena.verify_strategy", None),
        ]
        targets += [("polysolve", f, "polysolve.solve", on_poly) for f in (
            "solve_vgeo_undirected_normal", "solve_weight1_rm_misere",
            "solve_bipartite_rm_misere", "solve_loops_rm_misere")]
        targets += [("reductions", f, "reductions.apply", on_reduce)
                    for f in vars(m["reductions"]) if f.startswith("reduce_")]
        if "mgg.cli" in sys.modules:
            targets.append(("cli", "poly_solve", "cli.poly_solve", on_router))
            m["cli"] = sys.modules["mgg.cli"]
        for mod, attr, name, after in targets:
            orig = getattr(m[mod], attr)
            self._patch(orig, self.wrap(name, orig, after))
        # Every Graph construction, through build_graph or the constructor.
        post_init = graphs.Graph.__post_init__
        graphs.Graph.__post_init__ = self.wrap("graphs.build_graph", post_init)
        self._undo.append((graphs.Graph, "__post_init__", post_init))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    # -- checks run after the traced phase ---------------------------------

    def measure_tables(self) -> None:
        """Re-solve the first traced solves to count table entries and bytes.

        Runs with the wrappers removed; tracemalloc sees the table and its
        keys while the table is still alive.
        """
        solve_with_table = sys.modules["mgg.search"].solve_with_table
        states = 0
        for args, expanded in self.solve_samples:
            if states and states + expanded > TABLE_SAMPLE_STATES:
                break
            states += expanded
            tracemalloc.start()
            try:
                _, table = solve_with_table(*args)
                current, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            self.counts["search.sampled_solves"] += 1
            self.counts["search.sampled_entries"] += len(table)
            self.counts["search.sampled_bytes"] += current
            del table


def layer_metrics(t: Tracer, items: int, unattributed_s: float,
                  overhead: float) -> dict:
    """Per-layer metrics, named `<module>.<what>`, from one traced phase."""
    per_item = 1.0 / max(items, 1)

    def calls(name):
        return t.stats[name][0] * per_item

    def self_s(name):
        return t.stats[name][1] * per_item

    def ratio(a, b):
        return a / b if b else 0.0

    c = t.counts
    poly_calls = t.stats["polysolve.solve"][0]
    sampled = c["search.sampled_entries"]
    out = {
        "posfile.parse_calls": (calls("posfile.parse"), "count/item"),
        "posfile.parse_s": (self_s("posfile.parse"), "s/item"),
        "posfile.bytes": (c["posfile.bytes"] * per_item, "B/item"),
        "cli.import_ms": (ratio(sum(t.import_ms), len(t.import_ms)), "ms"),
        "cli.poly_solve_s": (self_s("cli.poly_solve"), "s/item"),
        "cli.poly_solve_declines": (c["cli.poly_solve_declines"] * per_item, "count/item"),
    }
    for layer, what in (
        ("graphs", "build_graph"), ("graphs", "induced_subgraph"),
        ("kernel", "legal_moves"), ("kernel", "apply_move"),
        ("matching", "bipartite"), ("matching", "general"), ("matching", "coverage"),
        ("polysolve", "solve"), ("polysolve", "choose"),
        ("reductions", "apply"), ("arena", "verify_strategy"),
    ):
        out[f"{layer}.{what}_calls"] = (calls(f"{layer}.{what}"), "count/item")
        out[f"{layer}.{what}_s"] = (self_s(f"{layer}.{what}"), "s/item")
    out.update({
        "graphs.bipartition_s": (self_s("graphs.bipartition"), "s/item"),
        "graphs.connected_component_s": (self_s("graphs.connected_component"), "s/item"),
        "search.solve_calls": (calls("search.solve"), "count/item"),
        "search.solve_s": (self_s("search.solve"), "s/item"),
        "search.states_expanded": (c["search.states_expanded"] * per_item, "count/item"),
        "search.states_per_s": (
            ratio(c["search.states_expanded"], t.stats["search.solve"][2]), "1/s"),
        "search.table_entries": (ratio(sampled, c["search.sampled_solves"]), "count/call"),
        "search.bytes_per_entry": (ratio(c["search.sampled_bytes"], sampled), "B"),
        "search.budget_exhausted": (c["search.budget_exhausted"] * per_item, "count/item"),
        "matching.hk_phases": (
            ratio(c["matching.hk_phases"], t.stats["matching.bipartite"][0]), "count/call"),
        "polysolve.declined": (c["polysolve.declined"] * per_item, "count/item"),
        "polysolve.useful_ratio": (ratio(c["polysolve.answered"], poly_calls), "ratio"),
        "polysolve.preprocess_calls": (calls("polysolve.preprocess"), "count/item"),
        "reductions.target_vertices": (
            ratio(c["reductions.target_vertices"], t.stats["reductions.apply"][0]),
            "count/call"),
        "reductions.target_arcs": (
            ratio(c["reductions.target_arcs"], t.stats["reductions.apply"][0]),
            "count/call"),
        "arena.check_reduction_s": (self_s("arena.check_reduction"), "s/item"),
        "bench.unattributed_s": (unattributed_s, "s/item"),
        "bench.trace_overhead": (overhead, "ratio"),
    })
    return out
