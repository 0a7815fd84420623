import json
import math

import numpy as np
import pytest

from helpers import (mutual_information_kl_bits, query_conditionals, random_law,
                     scheme_bytes, traced_peak, worked_law, workload_table)
from onoffpir.bounds import bounds_over_horizon, outer_bound_2
from onoffpir.model import (ConditionalLaw, MarkovModel, PrivacyPattern,
                            entropy_bits, order_stats, step_law)
from onoffpir.scheme import QueryDistribution, build_query_distribution, project_to_sets
from onoffpir.sim import POLICIES
from onoffpir.verify import (audit_distribution, conditional_query_mi,
                             extension_mutual_informations,
                             markov_privacy_extension_check,
                             mutual_information_bits)


def binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def table_one_distribution() -> QueryDistribution:
    """The published two-source scheme at switching probability 0.2, stored
    as the joint p(q, x_t | x_tau)."""
    return QueryDistribution.from_items(2, [
        ((1, 0), 0, 0, 0.8 * 0.25),
        ((1, 1), 0, 0, 0.8 * 0.75),
        ((0, 1), 1, 0, 0.2 * 1.0),
        ((1, 0), 0, 1, 0.2 * 1.0),
        ((0, 1), 1, 1, 0.8 * 0.25),
        ((1, 1), 1, 1, 0.8 * 0.75),
    ])


def naive_distribution(law: ConditionalLaw) -> QueryDistribution:
    """The leaky baseline: always ask exactly for the desired source."""
    n = law.n
    items = []
    for u in range(n):
        for x in range(n):
            if law.table[u, x] > 0:
                counts = tuple(1 if i == x else 0 for i in range(n))
                items.append((counts, x, u, law.table[u, x]))
    return QueryDistribution.from_items(n, items)


# --------------------------------------------------------------------- audit

def test_audit_builder_output_is_clean():
    law = worked_law()
    stats = order_stats(law)
    report = audit_distribution(build_query_distribution(law, stats), law, stats)
    assert report.passed
    assert report.privacy_gap < 1e-12
    assert report.marginal_gap < 1e-12
    assert report.cardinality_gap < 1e-12
    assert report.decodability_violations == 0
    assert abs(report.mutual_information) < 1e-12


def test_audit_table_one_scheme():
    law = step_law(MarkovModel.two_state(0.2, 0.2), 1)
    stats = order_stats(law)
    dist = table_one_distribution()
    # each query's conditional is pivot-free: p({0}| pivot) = 0.2 both ways
    cond = query_conditionals(dist)
    assert np.allclose(cond[:, 0], cond[:, 1], atol=1e-12)
    report = audit_distribution(dist, law, stats)
    assert report.passed and report.privacy_gap < 1e-12
    assert abs(dist.query_law()[0] - 0.2) < 1e-12


def test_audit_flags_leaky_scheme():
    law = step_law(MarkovModel.two_state(0.2, 0.2), 1)
    stats = order_stats(law)
    report = audit_distribution(naive_distribution(law), law, stats)
    assert not report.passed
    assert report.privacy_gap > 0.1
    assert abs(report.mutual_information - (1 - binary_entropy(0.2))) < 1e-12


def test_audit_rejects_size_mismatch():
    law = worked_law()
    two = build_query_distribution(step_law(MarkovModel.two_state(0.2, 0.2), 1))
    with pytest.raises(ValueError, match="n=2 .* n=3"):
        audit_distribution(two, law, order_stats(law))


def test_audit_random_builder_outputs():
    rng = np.random.default_rng(50)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        law = random_law(rng, n)
        stats = order_stats(law)
        dist = build_query_distribution(law, stats)
        report = audit_distribution(dist, law, stats)
        assert report.passed
        assert outer_bound_2(law).inverse_rate <= dist.expected_set_cardinality() + 1e-9


def test_audit_leakage_reads_the_scaled_set_conditionals():
    # the summary is I(U; Y) of (1/n) p(set | u) transposed, as a view: its
    # marginal sums run along the axes of that layout, so a C-ordered copy
    # of the joint gives other last bits on some laws
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(3, 13))
        law = random_law(rng, n)
        stats = order_stats(law)
        dist = build_query_distribution(law, stats)
        cond = query_conditionals(project_to_sets(dist))
        want = mutual_information_bits((1.0 / n) * cond.T)
        assert audit_distribution(dist, law, stats).mutual_information == want


def test_audit_peak_stays_near_the_scheme():
    # n = 60: the audit reads p(set | u) from the merged cells, without a
    # projected distribution, and the leakage summary reads its joint once
    law = ConditionalLaw(60, workload_table(11, 60))
    stats = order_stats(law)
    dist = build_query_distribution(law, stats)
    report, peak = traced_peak(lambda: audit_distribution(dist, law, stats))
    assert report.passed
    assert peak < 0.9 * scheme_bytes(dist)


def test_audit_report_json():
    law = worked_law()
    stats = order_stats(law)
    report = audit_distribution(build_query_distribution(law, stats), law, stats)
    payload = json.loads(report.to_json())
    assert payload["passed"] is True
    assert set(payload) >= {"privacy_gap", "mutual_information_bits",
                            "decodability_violations", "marginal_gap",
                            "cardinality_gap"}


# --------------------------------------------------------- mutual information

def test_entropy_conventions():
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert entropy_bits([1.0, 0.0]) == 0.0


def test_mi_two_routes_agree():
    rng = np.random.default_rng(60)
    for _ in range(200):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 8)))
        joint = rng.random(shape)
        joint[rng.random(shape) < 0.3] = 0.0
        if joint.sum() == 0:
            continue
        joint /= joint.sum()
        direct = mutual_information_bits(joint)
        kl = mutual_information_kl_bits(joint)
        assert abs(direct - kl) < 1e-10


def test_mi_of_independent_and_identical():
    joint = np.outer([0.3, 0.7], [0.2, 0.8])
    assert abs(mutual_information_bits(joint)) < 1e-12
    perfectly = np.diag([0.5, 0.5])
    assert abs(mutual_information_bits(perfectly) - 1.0) < 1e-12


# ----------------------------------------------------- extension to earlier ON

def test_extension_trivial_single_epoch():
    law = step_law(MarkovModel.two_state(0.2, 0.2), 1)
    dist = build_query_distribution(law)
    chain_joint = np.diag([0.5, 0.5])  # the earlier request *is* the pivot
    mi_pivot, mi_earlier = extension_mutual_informations(dist, chain_joint)
    assert abs(mi_pivot - mi_earlier) < 1e-12
    assert markov_privacy_extension_check(dist, chain_joint)


def test_extension_two_epochs():
    m = MarkovModel.two_state(0.2, 0.2)
    law = step_law(m, 1)
    dist = build_query_distribution(law)
    # joint of (request at the first ON time, pivot two steps later)
    chain_joint = np.diag(m.pi0) @ np.linalg.matrix_power(m.p, 2)
    assert markov_privacy_extension_check(dist, chain_joint)


def test_extension_rejects_leaky_scheme():
    law = step_law(MarkovModel.two_state(0.2, 0.2), 1)
    leaky = naive_distribution(law)
    chain_joint = np.diag([0.5, 0.5]) @ law.table  # correlated earlier request
    mi_pivot, mi_earlier = extension_mutual_informations(leaky, chain_joint)
    assert mi_pivot > 1e-3 and mi_earlier > 1e-3
    assert not markov_privacy_extension_check(leaky, chain_joint)


def test_extension_reads_the_projection_bits():
    # both informations as the set projection's p(set | u) gives them
    rng = np.random.default_rng(35)
    for n in (2, 3, 7, 12):
        dist = build_query_distribution(random_law(rng, n, ties=n == 7))
        chain_joint = rng.random((n, n))
        chain_joint /= chain_joint.sum()
        y_given_u = query_conditionals(project_to_sets(dist)).T
        want = (mutual_information_bits(chain_joint.sum(axis=0)[:, None] * y_given_u),
                mutual_information_bits(np.einsum("bu,uy->by", chain_joint, y_given_u)))
        assert extension_mutual_informations(dist, chain_joint) == want


def test_extension_validates_shape():
    dist = build_query_distribution(worked_law())
    with pytest.raises(ValueError):
        extension_mutual_informations(dist, np.eye(2))


# ------------------------------------------------------------ horizon leakage

def test_horizon_mi_builder_is_private():
    m = MarkovModel.two_state(0.2, 0.2)
    mis = conditional_query_mi(m, PrivacyPattern.from_string("1000"), 3)
    assert all(abs(v) <= 1e-9 for v in mis)


def test_horizon_mi_three_state_private():
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    mis = conditional_query_mi(m, PrivacyPattern.from_string("1010"), 3)
    assert all(abs(v) <= 1e-9 for v in mis)


def test_horizon_mi_naive_leaks_exactly_one_step_information():
    m = MarkovModel.two_state(0.2, 0.2)
    mis = conditional_query_mi(m, PrivacyPattern.from_string("100"), 2,
                               policy="naive")
    assert abs(mis[1] - (1 - binary_entropy(0.2))) < 1e-9
    # given the previous request, the next one is conditionally independent
    # of the pivot, so the later naive step adds nothing new
    assert abs(mis[2]) < 1e-9


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("pattern", ["1001000", "10100", "1000110"])
def test_leakage_is_the_horizon_mi_column(policy, pattern):
    rng = np.random.default_rng(len(pattern))
    m = MarkovModel(4, random_law(rng, 4).table, rng.dirichlet(np.ones(4)))
    pat = PrivacyPattern.from_string(pattern)
    rows = bounds_over_horizon(m, pat, len(pat) - 1, policy=policy)
    mis = conditional_query_mi(m, pat, len(pat) - 1, policy=policy)
    assert [r.mi for r in rows] == mis
    assert all(r.mi == 0.0 for r in rows if r.f_on)


def test_horizon_mi_full_download_never_leaks():
    m = MarkovModel.two_state(0.1, 0.7)
    mis = conditional_query_mi(m, PrivacyPattern.from_string("100"), 2,
                               policy="full_download")
    assert all(v == 0.0 for v in mis)
