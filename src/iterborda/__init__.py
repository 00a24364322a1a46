"""Iterative Borda preference elicitation with strategic voters.

A voting center elicits pairwise comparisons one query at a time, publishing
the shrinking set of possible winners after every round, until the Borda
winner is certain.  Voters may answer truthfully or strategically: a
manipulative voter rewrites her working ranking by the smallest number of
swaps that safely (in the local-dominance sense) biases the outcome, without
ever contradicting her earlier answers.  A careful center counters by
preferring queries that are provably immune to such rewrites.
"""

from .borda import (
    borda_scores,
    borda_winner,
    necessary_winner,
    pair_diff_matrix,
    possible_winners,
)
from .center import (
    CenterState,
    ElectionResult,
    NoQueriesLeftError,
    Policy,
    Query,
    TraceInvariantError,
    TraceStep,
    is_safe,
    run_election,
)
from .manipulation import (
    ManipulationOutcome,
    PreconditionViolationError,
    find_manipulation,
    is_locally_dominant,
    order_pw,
    precheck,
    segment_total,
)
from .oracle import (
    CapExceededError,
    closest_extensions,
    enumerate_extensions,
    oracle_manipulation,
    random_instance,
)
from .prefs import (
    CandidateId,
    InconsistencyError,
    LinearOrder,
    PartialOrder,
    add_preference,
    close,
    is_extension,
    project,
    swap_distance,
)
from .preflib import (
    Dataset,
    ParseError,
    bundled,
    bundled_path,
    load_soc,
    parse_soc,
    sample_profiles,
    serialize_soc,
)
from .voter import BEHAVIORS, MANIPULATIVE, TRUTHFUL, VoterState

__version__ = "0.1.0"
