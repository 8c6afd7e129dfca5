"""A winning policy built on the package's own exhaustive solver.

It is code under test, not a reference: certifying it checks `search.solve`
and `arena.verify_strategy` against each other.
"""

from mgg.kernel import Convention
from mgg.search import Outcome, Policy, StrategyBreakdown, solve


def exhaustive_policy(conv: Convention) -> Policy:
    """Plays `solve`'s principal move at each position it is asked about;
    StrategyBreakdown at a position that `solve` does not call N."""

    def choose(current, position):
        report = solve(position(), conv)
        if report.outcome is not Outcome.N:
            raise StrategyBreakdown("no winning move: position is not an N position")
        return report.principal_move

    return Policy(choose, "exhaustive")
