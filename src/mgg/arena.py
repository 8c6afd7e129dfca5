"""Randomized instance generation, reduction cross-checks and strategy
certification.

Every random draw flows from an explicit seed; per-trial seeds derive from
(master seed, trial index) through a fixed mixer, so a suite produces the
same trials whether run serially, in parallel or re-run for one index.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from .graphs import DIRECTED, UNDIRECTED, Graph, build_graph
from .kernel import NIMG_VARIANTS, VARIANTS, Convention, KeyView, Position, _Engine
from .posfile import serialize_position
from .reductions import (
    REDUCTIONS, SOURCE_CONVENTION, TARGET_CONVENTION, Grid, ReductionOutput)
from .search import DEFAULT_BUDGET, Policy, SolveReport, StrategyBreakdown, solve

LOOP_MODES = ("none", "all", "free")

_MIX = 0x9E3779B97F4A7C15


def mix_seed(master: int, index: int) -> int:
    """SplitMix64-style mixing of (master seed, trial index)."""
    x = (master * _MIX + index + 1) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def random_graph(kind: str, n: int, m: int, loops: str, rng: random.Random) -> Graph:
    """Uniform simple graph with `m` sampled edges.

    loops="all" forces a loop on every vertex (on top of the m ordinary
    edges), "free" lets loops join the candidate pool, "none" forbids them.
    """
    if loops not in LOOP_MODES:
        raise ValueError(f"loops must be one of {LOOP_MODES}")
    if kind == DIRECTED:
        candidates = [(i, j) for i in range(n) for j in range(n) if i != j]
    elif kind == UNDIRECTED:
        candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    if loops == "free":
        candidates += [(v, v) for v in range(n)]
    if m > len(candidates):
        raise ValueError(f"cannot place {m} edges, only {len(candidates)} available")
    edges = rng.sample(candidates, m)
    if loops == "all":
        edges += [(v, v) for v in range(n)]
    return build_graph(kind, n, edges)


def random_instance(
    variant: str,
    kind: str,
    n: int,
    m: int,
    weight_bound: int,
    loops: str,
    seed: int,
) -> Position:
    """Deterministic random position; weights are uniform in [1, weight_bound],
    then the start is drawn uniformly."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown game variant {variant!r}")
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    g = random_graph(kind, n, m, loops, rng)
    weights = None
    if variant in NIMG_VARIANTS:
        if weight_bound < 1:
            raise ValueError("weight bound must be >= 1")
        weights = tuple(rng.randint(1, weight_bound) for _ in range(n))
    return Position(variant, g, rng.randrange(n), weights)


@dataclass(frozen=True)
class TrialReport:
    """One cross-check: the source's solve under `SOURCE_CONVENTION`, the
    target's under `TARGET_CONVENTION`, and whether their outcomes agree."""

    reduction: str
    seed: int
    source: SolveReport
    target: SolveReport
    agree: bool | None


def check_reduction(
    name: str,
    instance: Position,
    budget: int = DEFAULT_BUDGET,
    seed: int = -1,
) -> tuple[TrialReport, ReductionOutput]:
    """Solve a source position and its reduced image, report agreement.

    `agree` stays None when either side ran out of budget; an exhausted solve
    is never reported as a disagreement.
    """
    entry = REDUCTIONS[name]
    entry.check_source(instance)
    out = entry.apply(instance)
    src = solve(instance, SOURCE_CONVENTION, budget)
    tgt = solve(out.position, TARGET_CONVENTION, budget)
    agree = None
    if not (src.budget_exhausted or tgt.budget_exhausted):
        agree = src.outcome == tgt.outcome
    return TrialReport(name, seed, src, tgt, agree), out


def verify_strategy(
    p: Position, c: Convention, policy: Policy, budget: int = DEFAULT_BUDGET
) -> bool | None:
    """Certify a claimed winning policy against every adversary line.

    Fixes the policy's move wherever the policy is to move and branches over
    all replies.  A node is the engine's packed key, and each side keeps its
    own `seen` set, so each distinct (key, side to move) node is visited
    once.  Only adversary nodes wait on the stack: a policy node is settled
    where the walk meets it, by its terminal test, one question to the
    policy and an `encode` check of the answer, which leaves one adversary
    child.  The policy gets the token's vertex and a `KeyView` of the node,
    so a `Position` is decoded only if it asks for one.
    True iff every line ends at a terminal where the adversary-to-move loses
    under `c`.  False when some line does not, when the policy plays an
    illegal move, or when it raises StrategyBreakdown, the one exception
    `Policy`'s contract allows; any other exception propagates.  None when
    more than `budget` distinct nodes would be needed (indeterminate, never
    reported as false).
    """
    engine = _Engine(p)
    move_bits, child, encode = engine.move_bits, engine.child, engine.encode
    choose, view, cur_mask = policy.choose, KeyView(engine), engine.cur_mask
    # the player to move at a terminal loses exactly under normal play
    stuck_loses = c is Convention.NORMAL
    met = [engine.root]  # policy nodes met and not yet settled
    policy_seen, adversary_seen = set(met), set()
    stack = []  # adversary nodes
    expanded = 0
    while True:
        for key in met:
            expanded += 1
            if expanded > budget:
                return None
            if not move_bits(key):
                if stuck_loses:
                    return False
                continue
            view.key = key
            try:
                move = choose(key & cur_mask, view)
            except StrategyBreakdown:
                return False
            i = encode(key, move)
            if i is None:  # not a legal move here
                return False
            key = child(key, i)
            if key not in adversary_seen:
                adversary_seen.add(key)
                stack.append(key)
        if not stack:
            return True
        key = stack.pop()
        expanded += 1
        if expanded > budget:
            return None
        bits = move_bits(key)
        if not bits and not stuck_loses:
            return False
        met = []
        while bits:  # every reply, in canonical order
            bit = bits & -bits
            bits ^= bit
            reply = child(key, bit.bit_length() - 1)
            if reply not in policy_seen:
                policy_seen.add(reply)
                met.append(reply)


def run_reduction_grid(
    name: str,
    n: int,
    m: int,
    weight_bound: int,
    trials: int,
    master_seed: int,
    budget: int = DEFAULT_BUDGET,
    loops: str = "none",
    all_starts: bool = False,
):
    """Deterministic trial suite for one reduction; yields TrialReports.

    Each trial draws sizes up to (n, m) from its own mixed seed.  With
    all_starts every vertex of the drawn graph is checked under the same
    descriptor.  A grid that leaves no trial to draw raises InfeasibleGrid
    before the first draw.
    """
    Grid(n, m, weight_bound, trials, loops, all_starts)
    entry = REDUCTIONS[name]
    kind = entry.source_kind if entry.source_kind != "any" else UNDIRECTED
    for index in range(trials):
        seed = mix_seed(master_seed, index)
        rng = random.Random(seed)
        nn = rng.randint(1, n)
        cap = _edge_capacity(kind, nn, loops)
        mm = rng.randint(0, min(m, cap))
        instance = random_instance(
            entry.source_variant, kind, nn, mm, weight_bound, loops, seed
        )
        starts = range(nn) if all_starts else [instance.current]
        for start in starts:
            pos = instance if start == instance.current else Position(
                instance.variant, instance.graph, start, instance.weights
            )
            report, out = check_reduction(name, pos, budget, seed)
            yield report, pos, out


def _edge_capacity(kind: str, n: int, loops: str) -> int:
    base = n * (n - 1) if kind == DIRECTED else n * (n - 1) // 2
    return base + (n if loops == "free" else 0)


def write_counterexample(
    directory: str,
    report: TrialReport,
    source: Position,
    out: ReductionOutput,
) -> str:
    """Persist a disagreeing trial as a replayable bundle.

    Layout: source.pos, target.pos, namemap.txt (`src-entity -> tgt-vertex`),
    report.txt, in `{reduction}-seed{seed}-start{start}` under `directory`:
    every start of one trial shares its seed.  Returns the bundle directory.
    """
    bundle = os.path.join(
        directory, f"{report.reduction}-seed{report.seed}-start{source.current}")
    os.makedirs(bundle, exist_ok=True)
    with open(os.path.join(bundle, "source.pos"), "w", encoding="utf-8") as fh:
        fh.write(serialize_position(source, SOURCE_CONVENTION))
    with open(os.path.join(bundle, "target.pos"), "w", encoding="utf-8") as fh:
        fh.write(serialize_position(out.position, TARGET_CONVENTION))
    write_name_map(os.path.join(bundle, "namemap.txt"), out.name_map)
    with open(os.path.join(bundle, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(
            f"reduction {report.reduction}\nseed {report.seed}\n"
            f"source outcome {report.source.outcome}\n"
            f"target outcome {report.target.outcome}\n"
            f"states {report.source.states_expanded} / {report.target.states_expanded}\n"
        )
    return bundle


def write_name_map(path: str, name_map: dict[str, int]) -> None:
    """Write `label -> vid` lines in target-vertex order."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, vid in sorted(name_map.items(), key=lambda kv: kv[1]):
            fh.write(f"{label} -> {vid}\n")
