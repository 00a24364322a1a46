"""Voter agents.

Each voter keeps her private true ranking and the current ranking she answers
from, which drifts away from the truth only through adopted manipulations.
She holds no copy of what she has revealed: the center's transitively closed
relation for her is passed in with every query, and she answers and searches
for a manipulation against it.  Her current ranking always extends that
relation, so the center never catches one of these agents contradicting
itself.
"""

from __future__ import annotations

from typing import Iterable

from .manipulation import PreconditionViolationError, find_manipulation
# add_preference is unused here; it stays bound because perfbench/tracer.py patches it by name
from .prefs import CandidateId, LinearOrder, PartialOrder, add_preference  # noqa: F401

TRUTHFUL = "truthful"
MANIPULATIVE = "manipulative"
BEHAVIORS = (TRUTHFUL, MANIPULATIVE)


class VoterState:
    """One voter's private state across an election run."""

    def __init__(self, p_true: LinearOrder):
        self.p_true = p_true
        self.p_current = p_true

    def respond(
        self,
        cj: CandidateId,
        ck: CandidateId,
        q: PartialOrder,
        pw: Iterable[CandidateId],
        behavior: str,
    ) -> tuple[tuple[CandidateId, CandidateId], bool]:
        """Answer a pairwise query, possibly rewriting the current ranking.

        ``q`` is the relation the voter has revealed so far, as the center
        holds it; it is read, never changed.  Returns the submitted ordered
        pair (preferred, other) and whether the answer came from a freshly
        adopted manipulation.  A truthful voter reads the answer off her
        unchanged ranking.  A manipulative voter first orients the query by
        her current ranking, then adopts the closest locally dominant rewrite
        consistent with ``q`` if one exists and answers the inverted pair.
        """
        if behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {behavior!r}")
        if q.holds(cj, ck) or q.holds(ck, cj):
            raise PreconditionViolationError(
                f"query ({cj}, {ck}) already resolved for this voter"
            )

        preferred, other = (cj, ck) if self.p_current.prefers(cj, ck) else (ck, cj)
        if behavior == MANIPULATIVE:
            outcome = find_manipulation(self.p_current, q, pw, preferred, other)
            if outcome.changed:
                self.p_current = outcome.new_order
                return (other, preferred), True
        return (preferred, other), False
