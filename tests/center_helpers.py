"""Test-side views of a ``CenterState``'s private caches."""

import numpy as np

from iterborda.center import Query


def unresolved(state):
    """Every query the center could still usefully ask, in draw order (pair
    lexicographic, then voter ascending), read from its voter-by-pair open
    mask."""
    return [
        Query(v, a, b)
        for a, b, voters in zip(state._first.tolist(), state._second.tolist(), state._open.T)
        for v in np.flatnonzero(voters).tolist()
    ]
