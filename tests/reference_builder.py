"""Loop-form reference for the multiset builder in ``onoffpir.scheme``.

``_lane_take``, ``_merge_lanes`` and ``build_query_distribution`` below are
the per-entry form of the builder: lanes read and write the auxiliary matrix
one numpy scalar at a time, each merge round subtracts its weight lane by lane,
and every round appends its count vector and its n entries to Python lists
before one ``_assemble``.  The tests require ``onoffpir.scheme``'s builder to
return bit-identical distributions: the same ``counts``, ``qidx``, ``xs``,
``us`` and ``probs`` bytes and shapes.
"""

from __future__ import annotations

import numpy as np

from onoffpir.model import EPS, ZERO_TOL, ConditionalLaw, OrderStats, order_stats
from onoffpir.scheme import (InternalConsistencyError, QueryDistribution,
                             _assemble, _check_built)


def _lane_take(q_mat: np.ndarray, row_ptr: np.ndarray, u: int, amount: float):
    """Consume `amount` of mass from row u of the auxiliary matrix, scanning
    left to right, taking full cells until the last one is truncated.

    Returns a list of (column, value) pairs summing to `amount`.
    """
    n = q_mat.shape[0]
    out = []
    need = amount
    k = row_ptr[u]
    while need > ZERO_TOL:
        while k < n and q_mat[u, k] <= ZERO_TOL:
            k += 1
        if k == n:
            if need <= EPS:
                break  # float dust only
            raise InternalConsistencyError(
                f"auxiliary row {u} exhausted with {need!r} still to assign")
        avail = q_mat[u, k]
        if avail < need - ZERO_TOL:
            out.append((k, avail))
            q_mat[u, k] = 0.0
            need -= avail
            k += 1
        else:
            out.append((k, need))
            q_mat[u, k] = avail - need
            need = 0.0
    row_ptr[u] = k
    return out


def _merge_lanes(lanes):
    """Align the per-pivot (column, value) lanes into joint rounds.

    All lanes carry the same total mass.  Each round takes the minimum of the
    current lane fronts as its weight, records the tuple of front columns,
    subtracts the weight everywhere, and advances the (lowest-index) lane
    whose front was the minimum.  Zero-weight rounds advance exhausted ties
    without producing output.
    """
    m = len(lanes)
    idx = [0] * m
    cur = [lane[0][1] for lane in lanes]
    rounds = []
    while True:
        nu = min(cur)
        pick = cur.index(nu)
        if nu > ZERO_TOL:
            rounds.append((tuple(lanes[i][idx[i]][0] for i in range(m)), nu))
        for i in range(m):
            cur[i] -= nu
        idx[pick] += 1
        if idx[pick] == len(lanes[pick]):
            return rounds
        cur[pick] = lanes[pick][idx[pick]][1]


def build_query_distribution(law: ConditionalLaw,
                             stats: OrderStats | None = None) -> QueryDistribution:
    """Construct a feasible query distribution for one step.

    Deterministic throughout: likelihood orderings break ties toward the
    smaller pivot index, lanes scan the auxiliary matrix left to right, and
    merge rounds break ties toward the lowest lane.  The output satisfies
    decodability, pivot-independence, marginal consistency, and its multiset
    cardinality law equals the theta increments, so the expected multiset
    cardinality meets the inner bound with equality.
    """
    if stats is None:
        stats = order_stats(law)
    n = law.n
    table = law.table
    orderings = stats.orderings
    deltas = stats.deltas
    # sorted_likes[x, i] = p(x | u^(x, i+1))
    sorted_likes = np.take_along_axis(table.T, orderings, axis=1)

    q_mat = np.maximum(table - deltas[None, :], 0.0)
    row_ptr = np.zeros(n, dtype=np.int64)

    rows: list = []     # one count vector per merge round
    row_of: list = []
    out_x: list = []
    out_u: list = []
    out_p: list = []
    all_us = list(range(n))
    for card in range(1, min(stats.sigma + 1, n) + 1):
        for x in range(n):
            prev = sorted_likes[x, card - 2] if card >= 2 else 0.0
            target = min(deltas[x], sorted_likes[x, card - 1]) - prev
            if target <= ZERO_TOL:
                continue
            lane_us = [int(orderings[x, i]) for i in range(card - 1)]
            if card == 1:
                rounds = [((), target)]
            else:
                lanes = [_lane_take(q_mat, row_ptr, u, target) for u in lane_us]
                if any(not lane for lane in lanes):
                    continue  # target vanished to float dust inside the lanes
                rounds = _merge_lanes(lanes)
            lane_set = set(lane_us)
            others = [u for u in all_us if u not in lane_set]
            m = len(lane_us) + len(others)
            for zeta, nu in rounds:
                row_of.extend([len(rows)] * m)
                rows.append(np.bincount((x, *zeta), minlength=n))
                out_x.extend(zeta)
                out_x.extend([x] * len(others))
                out_u.extend(lane_us)
                out_u.extend(others)
                out_p.extend([nu] * m)

    dist = _assemble(n, np.zeros(len(rows), np.int64), rows, row_of, out_x, out_u, out_p)[0]
    _check_built(dist, np.zeros(len(dist.counts), np.int64), [law], [stats])
    return dist
