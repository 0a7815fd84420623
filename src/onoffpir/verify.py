"""Exact checkers for the scheme's defining identities.

Everything here recomputes its quantities from the stored sparse support,
not from the builder's lanes and rounds, so a passing audit is evidence and
not an echo.  The gap measurements are the ones the builder's final
self-check reads (``scheme.identity_gaps``); the tests hold an independent
pure-Python oracle for them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bounds import bounds_over_horizon
from .model import EPS, ConditionalLaw, OrderStats, mutual_information_bits, numbers
from .scheme import QueryDistribution, _set_conditionals, identity_gaps


@dataclass(frozen=True)
class AuditReport:
    """Worst-case gaps of the five scheme identities plus a leakage summary.

    ``passed`` is True iff every gap is within the package tolerance and no
    entry violates decodability.
    """

    privacy_gap: float
    mutual_information: float
    decodability_violations: int
    marginal_gap: float
    cardinality_gap: float
    passed: bool
    worst_offenders: dict

    def to_json(self) -> str:
        return json.dumps({
            "privacy_gap": self.privacy_gap,
            "mutual_information_bits": self.mutual_information,
            "decodability_violations": self.decodability_violations,
            "marginal_gap": self.marginal_gap,
            "cardinality_gap": self.cardinality_gap,
            "passed": self.passed,
            "worst_offenders": self.worst_offenders,
        })


def audit_distribution(dist: QueryDistribution, law: ConditionalLaw,
                       stats: OrderStats) -> AuditReport:
    """Exact audit of a scheme against its law and pre-calculated stats.

    The gaps are :func:`~onoffpir.scheme.identity_gaps`, plus the privacy
    spread of the set projection: privacy is checked on both the multiset
    layer and its set projection, the cardinality law on the multiset layer
    where it is exact.  The mutual-information summary takes the pivot
    uniform.  Raises ValueError when ``dist`` and ``law`` differ in size.
    """
    gaps = identity_gaps(dist, np.zeros(len(dist.counts), np.int64), law.table[None],
                         stats.thetas[None])
    violations, marginal, cardinality = (int(gaps.violations[0]), gaps.marginal[0],
                                         gaps.cardinality[0])
    spread_z = gaps.spread
    set_rows, set_cond = _set_conditionals(dist)
    spread_y = set_cond.max(axis=1) - set_cond.min(axis=1)
    gap_z, gap_y = (float(s.max(initial=0.0)) for s in (spread_z, spread_y))
    privacy_gap = max(gap_z, gap_y)
    rows, spread = (dist.counts, spread_z) if gap_z >= gap_y else (set_rows, spread_y)
    privacy_query = rows[int(np.argmax(spread))].tolist() if len(spread) else None
    del set_rows, rows   # the set rows go before the leakage summary
    marginal_gap = float(marginal.max())
    mu, mx = np.unravel_index(int(np.argmax(marginal)), marginal.shape)
    cardinality_gap = float(cardinality.max())

    # leakage summary: joint of pivot and transmitted set, scaled in place
    # and read through the transpose, whose layout orders the marginal sums
    set_cond *= 1.0 / dist.n
    mi = mutual_information_bits(set_cond.T)

    passed = (privacy_gap <= EPS and marginal_gap <= EPS
              and cardinality_gap <= EPS and violations == 0)
    worst = {
        "privacy_query": privacy_query,
        "marginal_cell": [int(mu), int(mx)],
        "cardinality_level": int(np.argmax(cardinality)) + 1,
    }
    return AuditReport(privacy_gap, mi, violations, marginal_gap,
                       cardinality_gap, passed, worst)


def extension_mutual_informations(dist: QueryDistribution,
                                  chain_joint: np.ndarray):
    """I(pivot; query) and I(earlier protected request; query) under a given
    joint law of (earlier request, pivot).

    The query only touches the earlier request through the pivot, so the
    extended joint factors as p(x_b, u) * p(y | u).
    """
    chain_joint = numbers(chain_joint, "chain joint")
    if chain_joint.shape != (dist.n, dist.n):
        raise ValueError("chain joint must be n x n over (earlier request, pivot)")
    y_given_u = _set_conditionals(dist)[1].T   # [u, y]
    pivot_marg = chain_joint.sum(axis=0)
    mi_pivot = mutual_information_bits(pivot_marg[:, None] * y_given_u)
    joint_by = np.einsum("bu,uy->by", chain_joint, y_given_u)
    mi_earlier = mutual_information_bits(joint_by)
    return mi_pivot, mi_earlier


def markov_privacy_extension_check(dist: QueryDistribution,
                                   chain_joint: np.ndarray) -> bool:
    """True iff the query is independent of the pivot *and* of the earlier
    protected request, each mutual information within ``EPS`` bits; chain
    structure makes the first imply the second, and this verifies both by
    exact enumeration."""
    mi_pivot, mi_earlier = extension_mutual_informations(dist, chain_joint)
    return mi_pivot <= EPS and mi_earlier <= EPS


def conditional_query_mi(model, pattern, horizon: int,
                         policy: str = "algorithm1") -> list:
    """Exact per-step leakage I(pivot; query | history) in bits: the ``mi``
    column of :func:`bounds_over_horizon` (0 on ON steps)."""
    return [r.mi for r in bounds_over_horizon(model, pattern, horizon, policy)]
