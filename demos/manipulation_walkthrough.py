"""A three-candidate walkthrough of a single strategic answer.

A voter truthfully prefers candidate 0 over 1 over 2.  Mid-election the
center announces that only {1, 2} can still win, then asks her: 0 or 1?
Her favourite is out of the race, so answering honestly ("0 over 1") would
waste influence, while answering "1 over 0" boosts her preferred contender 1
against 2.  The engine finds exactly that rewrite, with a single swap.

Run:  python demos/manipulation_walkthrough.py
"""

from iterborda import (
    LinearOrder,
    PartialOrder,
    find_manipulation,
    is_locally_dominant,
    order_pw,
    swap_distance,
)

truthful = LinearOrder([0, 1, 2])
revealed = PartialOrder(3)  # nothing committed yet
possible_winners = {1, 2}

print("true ranking     :", list(truthful.ranking))
print("possible winners :", sorted(possible_winners))
print("query            : candidate 0 vs candidate 1")
print()

outcome = find_manipulation(truthful, revealed, possible_winners, 0, 1)
print("rewrite found    :", outcome.changed)
print("new ranking      :", list(outcome.new_order.ranking))
print("swap distance    :", outcome.distance)
print()

# why this rewrite qualifies: the possible winners keep their relative order,
# and between consecutive ones no gap shrinks and one grows (candidate 0 got
# buried between 1 and 2)
pw_ordered = order_pw(truthful, possible_winners)


def gaps(order):
    """Rank distances between consecutive possible winners in ``order``."""
    rank = order.rank_of
    return [rank[b] - rank[a] for a, b in zip(pw_ordered, pw_ordered[1:])]


print("pw order before  :", pw_ordered)
print("pw order after   :", order_pw(outcome.new_order, possible_winners))
print("gaps before/after:", gaps(truthful), "->", gaps(outcome.new_order))
print("locally dominant :", is_locally_dominant(outcome.new_order, truthful, pw_ordered))
print()

# a "safe" query names two possible winners; no rewrite can help, so the
# voter answers it truthfully
safe = find_manipulation(truthful, revealed, possible_winners, 1, 2)
print("safe query 1 vs 2:", "unchanged" if not safe.changed else "rewritten")

# distances are plain swap (Kendall tau) distances between rankings
print("d([0,1,2],[2,1,0]) =", swap_distance(LinearOrder([0, 1, 2]), LinearOrder([2, 1, 0])))
