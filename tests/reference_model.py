"""Loop references for the stacked per-law arithmetic of a belief layer.

``law_from_joint`` and ``order_stats`` are the one-law forms that
``onoffpir.sim._law_from_joint`` and ``onoffpir.model.stacked_order_stats``
replace: each handles one table with its own numpy calls.  The tests require
the stacked forms to give the same bytes.
"""

from __future__ import annotations

import numpy as np

from onoffpir.model import ZERO_TOL, ConditionalLaw, OrderStats


def law_from_joint(pre_joint: np.ndarray) -> ConditionalLaw:
    """Row-normalize p(pivot, current) into p(current | pivot); pivot values
    carrying no mass get the current-request marginal."""
    row_mass = pre_joint.sum(axis=1, keepdims=True)
    marginal = pre_joint.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        table = np.where(row_mass > ZERO_TOL, pre_joint / row_mass,
                         marginal / marginal.sum())
    table = np.clip(table, 0.0, None)
    table /= table.sum(axis=1, keepdims=True)
    return ConditionalLaw(pre_joint.shape[0], table)


def order_stats(law: ConditionalLaw) -> OrderStats:
    """Sort each column of the law and derive the level sums, their clipped
    increments, the threshold level, and the greedy budget vector."""
    n = law.n
    t = law.table
    orderings = np.argsort(t, axis=0, kind="stable").T  # orderings[x, i] = u
    sorted_cols = t[orderings, np.arange(n)[:, None]]  # [x, i] = p(x | u^(x,i+1))
    lambdas = sorted_cols.sum(axis=0)
    clipped = np.minimum(1.0, lambdas)
    thetas = clipped.copy()
    thetas[1:] -= clipped[:-1]
    thetas = np.clip(thetas, 0.0, None)
    sigma = int(np.flatnonzero(lambdas <= 1.0 + 1e-12)[-1]) + 1

    if sigma == n:
        deltas = sorted_cols[:, n - 1].copy()
    else:
        a = sorted_cols[:, sigma - 1]
        b = sorted_cols[:, sigma]
        room = 1.0 - a.sum()
        deltas = a.copy()
        acc = 0.0
        for j in range(n):
            acc += b[j] - a[j]
            if acc <= room:
                deltas[j] = b[j]
            else:
                deltas[j] = 1.0 - b[:j].sum() - a[j + 1:].sum()
                break
    return OrderStats(n, orderings, lambdas, thetas, sigma, deltas)
