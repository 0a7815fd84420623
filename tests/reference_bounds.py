"""Per-branch references for the layer passes of ``onoffpir.bounds`` and
``onoffpir.sim``.

``branch_sums`` is the loop that ``bounds_over_horizon`` replaced with one
pass per candidate-count group: per branch one einsum, three scalar
entropies, one column-max sum and one ``arange @ thetas`` dot, summed in
branch order.  ``loop_enumerate_steps`` is ``enumerate_steps`` with one
``query_marginal`` einsum per node.  The tests require the layer forms to
give the same bits.
"""

from __future__ import annotations

import numpy as np

from onoffpir.model import ZERO_TOL
from onoffpir.sim import StepView, _BeliefGraph


def entropy_bits(p) -> float:
    """Shannon entropy in bits of the flattened ``p``, 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information_bits(joint: np.ndarray) -> float:
    """I(U; Y) of one joint table, via H(U) + H(Y) - H(U, Y)."""
    return (entropy_bits(joint.sum(axis=1)) + entropy_bits(joint.sum(axis=0))
            - entropy_bits(joint))


def branch_sums(view) -> tuple:
    """(outer1, inner, mi) of an OFF step's view, branch by branch."""
    outer1 = inner = mi = 0.0
    for br in view.branches:
        levels = np.arange(1, br.law.n + 1, dtype=float)
        outer1 += br.prob * float(br.law.table.max(axis=0).sum())
        inner += br.prob * float(levels @ br.stats.thetas)
        mi += br.prob * mutual_information_bits(
            np.einsum("ux,kux->uk", br.pre_joint, br.scheme.w))
    return float(outer1), float(inner), float(mi)


def loop_enumerate_steps(model, pattern, horizon: int, policy: str = "algorithm1"):
    """``enumerate_steps`` with each node's query marginal taken alone."""
    graph = _BeliefGraph(model, pattern, policy)
    layer = graph.root()
    for t in range(horizon + 1):
        yield StepView(t, pattern.flags[t], layer)
        if t == horizon:
            return
        weights = [node.scheme.query_marginal(node.pre_joint) for node in layer]
        ks = [np.flatnonzero(w > ZERO_TOL) for w in weights]
        masses = np.concatenate([node.prob * w[k] for node, w, k in zip(layer, weights, ks)])
        layer, index = graph.step(layer, ks)
        for node, prob in zip(layer, np.bincount(index, masses)):
            node.prob = prob
