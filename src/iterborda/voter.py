"""Voter agents.

Each voter holds her behaviour, truthful or manipulative, and the current
ranking she answers from, which starts as her true ranking and drifts from it
only through adopted manipulations.  She holds no copy of what she has
revealed: the center's transitively closed relation for her is passed in with
every query, and she answers and searches for a manipulation against it.  Her
answer carries the ranking she adopted for it, if any.  Her current ranking
always extends that relation, so the center never catches one of these agents
contradicting itself.
"""

from __future__ import annotations

from typing import Collection

import numpy as np

from .manipulation import PreconditionViolationError, find_manipulation
# add_preference is unused here; it stays bound because perfbench/tracer.py patches it by name
from .prefs import CandidateId, LinearOrder, add_preference  # noqa: F401

TRUTHFUL = "truthful"
MANIPULATIVE = "manipulative"
BEHAVIORS = (TRUTHFUL, MANIPULATIVE)


class VoterState:
    """One voter's behaviour and current ranking across an election run."""

    def __init__(self, p: LinearOrder, behavior: str):
        if behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {behavior!r}")
        self.p_current = p
        self.behavior = behavior

    def respond(
        self,
        cj: CandidateId,
        ck: CandidateId,
        q: np.ndarray,
        pw: Collection[CandidateId],
    ) -> tuple[tuple[CandidateId, CandidateId], LinearOrder | None]:
        """Answer a pairwise query, possibly rewriting the current ranking.

        ``q`` is the relation the voter has revealed so far, as the center
        holds it; it is read, never changed.  Returns the submitted ordered
        pair (preferred, other) and the ranking she adopted for this answer,
        or None if she kept hers.  A truthful voter reads the answer off her
        unchanged ranking.  A manipulative voter first orients the query by
        her current ranking, then adopts the closest locally dominant rewrite
        consistent with ``q`` if one exists and answers the inverted pair.
        """
        preferred, other = (cj, ck) if self.p_current.prefers(cj, ck) else (ck, cj)
        if self.behavior == MANIPULATIVE:
            # find_manipulation rejects an already resolved pair itself
            outcome = find_manipulation(self.p_current, q, pw, preferred, other)
            if outcome.changed:
                self.p_current = outcome.new_order
                return (other, preferred), outcome.new_order
        elif q.item(cj, ck) or q.item(ck, cj):
            raise PreconditionViolationError(
                f"query ({cj}, {ck}) already resolved for this voter"
            )
        return (preferred, other), None
