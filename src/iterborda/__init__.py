"""Iterative Borda preference elicitation with strategic voters.

A voting center elicits pairwise comparisons one query at a time, publishing
the shrinking set of possible winners after every round, until the Borda
winner is certain.  Voters may answer truthfully or strategically: a
manipulative voter rewrites her working ranking by the smallest number of
swaps that safely (in the local-dominance sense) biases the outcome, without
ever contradicting her earlier answers.  A careful center counters by
preferring queries that are provably immune to such rewrites.
"""

from .center import Policy, is_safe, run_election
from .manipulation import find_manipulation, is_locally_dominant, order_pw
from .preflib import bundled, bundled_path, sample_profiles
from .prefs import LinearOrder, PartialOrder, swap_distance

__all__ = [
    "LinearOrder",
    "PartialOrder",
    "Policy",
    "bundled",
    "bundled_path",
    "find_manipulation",
    "is_locally_dominant",
    "is_safe",
    "order_pw",
    "run_election",
    "sample_profiles",
    "swap_distance",
]
__version__ = "0.1.0"
