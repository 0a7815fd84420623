"""The query-design problem as a linear program.

Privacy makes the query law r(q) the same for every pivot, and a scheme
with that query law and the request always inside the query exists exactly
when Hall's condition holds: for every proper set B of sources, the queries
inside B get no more probability than the least mass any pivot puts on B.
So minimizing the expected query size is an LP with one variable per query
and one row per set B.  The built-in two-phase simplex solves it exactly;
restricting the query sizes to {1, N} recovers a simple closed form, and the
constructive scheme matches the unrestricted optimum on these instances
without solving anything.

Run:  python demos/04_lp_oracle.py
"""

import numpy as np

from onoffpir import (ConditionalLaw, build_lp, build_query_distribution,
                      inner_bound_first_off_step, order_stats, outer_bound_2,
                      restricted_lp_singleton_optimum, solve)


def members(mask):
    """The sources of a query bitmask (bit i = source i), in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


law = ConditionalLaw(3, np.array([
    [0.1, 0.3, 0.6],
    [0.5, 0.4, 0.1],
    [0.2, 0.5, 0.3],
]))

problem = build_lp(law)
print(f"Full LP: {len(problem.columns)} query variables plus "
      f"{problem.eq_matrix.shape[1] - len(problem.columns)} Hall slacks, "
      f"{problem.eq_matrix.shape[0]} equality rows")
solution = solve(problem)
print(f"optimum {solution.optimum:.6f} (status {solution.status})")
print("support of the optimal query law r:")
for q, r in sorted(solution.assignment.items(),
                   key=lambda kv: (kv[0].bit_count(), members(kv[0]))):
    print(f"  q={{{','.join(map(str, members(q)))}}}  r={r:.3f}")
print()

stats = order_stats(law)
for cap in (1, 2, 3):
    capped = solve(build_lp(law, cardinality_cap=cap))
    print(f"cardinality cap {cap}: optimum {capped.optimum:.6f}")
closed = restricted_lp_singleton_optimum(stats)
print(f"cap-1 closed form: {closed.inverse_rate:.6f} (no solver needed)\n")

built = build_query_distribution(law, stats)
print("constructive scheme expected size:",
      f"{built.expected_multiset_cardinality():.6f}")
print("converse floor:", f"{outer_bound_2(law).inverse_rate:.6f}")
print("level-increment bound:",
      f"{inner_bound_first_off_step(law).inverse_rate:.6f}")
print("\nThe builder hits the LP optimum here in linear-ish time, which is")
print("the whole point: the LP has 2^N - 1 rows and stops scaling at N = 11.")
