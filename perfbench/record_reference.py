#!/usr/bin/env python3
"""Record the reference outcomes that benchmark items are checked against.

Usage, from the repository root:

    python3 perfbench/record_reference.py SEED [SEED ...]

Writes one string of N/P outcomes per workload and seed, in pool order, into
perfbench/reference.json and keeps the seeds already there.  Outcomes only:
state counts are not recorded, since a correct pruning change alters them.

* search-deep: the exhaustive solver.
* solve-files: the matching router with the exhaustive solver as fall-back,
  as `mgg solve` does; the small files are solved exhaustively.
* policy-certify: the matching router; every N is certified against all
  adversary lines, and every P is confirmed by the exhaustive solver.

Record only at a commit whose outcomes are trusted, never to make a failing
check pass.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import SRC, policy_pool, search_pool, solve_file_positions  # noqa: E402

sys.path.insert(0, SRC)

import mgg.cli  # noqa: E402
from mgg.arena import verify_strategy  # noqa: E402
from mgg.polysolve import NotApplicable  # noqa: E402
from mgg.search import solve  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def exhaustive(p, conv) -> str:
    report = solve(p, conv)
    if report.budget_exhausted:
        raise RuntimeError("budget exhausted while recording a reference")
    return report.outcome.value


def routed(p, conv) -> str:
    try:
        outcome, _, _ = mgg.cli.poly_solve(p, conv)
    except NotApplicable:
        return exhaustive(p, conv)
    return outcome.value


def certified(p, conv) -> str:
    outcome, policy, solver = mgg.cli.poly_solve(p, conv)
    if outcome.value == "N":
        if verify_strategy(p, conv, policy) is not True:
            raise RuntimeError(f"{solver} policy failed certification")
    elif exhaustive(p, conv) != "P":
        raise RuntimeError(f"{solver} says P, the exhaustive solver says N")
    return outcome.value


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    for seed in seeds:
        rows = {
            "search-deep": [exhaustive(p, c) for p, c in search_pool(seed)],
            "solve-files": [routed(p, c) for _, p, c in solve_file_positions(seed)],
            "policy-certify": [certified(p, c) for p, c in policy_pool(seed)],
        }
        for workload, outcomes in rows.items():
            reference.setdefault(workload, {})[str(seed)] = "".join(outcomes)
        print(f"seed {seed}: recorded", flush=True)
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
