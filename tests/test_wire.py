"""The wire and output paths against their per-entry references in
``reference_wire``: identical ``to_json`` bytes, identical distributions read
back, the same inputs rejected, identical trace CSV bytes, and identical
chi-square audits (statistic and p-value within 1e-12 relative)."""

import math

import numpy as np
import pytest

import reference_wire as ref
import test_scheme
from helpers import random_law, worked_law
from onoffpir.cli import CSV_CHUNK, _trace_csv
from onoffpir.model import ConditionalLaw, MarkovModel, PrivacyPattern
from onoffpir.scheme import (QueryDistribution, build_query_distribution,
                             project_to_sets)
from onoffpir.sim import POLICIES, SimulationResult, empirical_privacy_audit, simulate


def _schemes():
    rng = np.random.default_rng(909)
    laws = [worked_law(), ConditionalLaw(4, test_scheme.TIES_ZEROS)]
    laws += [random_law(rng, n, ties=ties) for n in range(2, 13)
             for ties in (False, True)]
    for law in laws:
        dist = build_query_distribution(law)
        yield dist
        yield project_to_sets(dist)


SCHEMES = list(_schemes())


def test_to_json_bytes_match_reference():
    for dist in SCHEMES:
        assert dist.to_json() == ref.to_json(dist)


def test_from_json_matches_reference():
    for dist in SCHEMES:
        wire = dist.to_json()
        got, want = QueryDistribution.from_json(wire), ref.from_json(wire)
        assert got.entry_tuples() == want.entry_tuples() == dist.entry_tuples()
        assert got.to_json() == wire


def test_from_items_merges_like_reference():
    # shuffled entries, split probabilities and float-valued count vectors
    rng = np.random.default_rng(5)
    for dist in SCHEMES[::4]:
        items = []
        for z, x, u, p in dist.entry_tuples():
            z = [float(c) for c in z] if rng.random() < 0.5 else list(z)
            items += [(z, x, u, p / 4), (tuple(z), x, u, 3 * p / 4)]
        items = [items[i] for i in rng.permutation(len(items))]
        got = QueryDistribution.from_items(dist.n, items)
        assert got.entry_tuples() == ref.from_items(dist.n, items).entry_tuples()


MALFORMED = test_scheme.test_from_items_rejects_malformed_entries.pytestmark[0].args[1]


@pytest.mark.parametrize("entry", MALFORMED + [
    ((True, 0, 0), 0, 0, 0.5),      # behind the equal row (1, 0, 0) below
    ([1, np.False_, 0], 0, 0, 0.5),
    (b"\x00\x01\x00", 1, 0, 0.5),   # bytes iterate to ints
    ({0: 1, 1: 0, 2: 0}, 0, 0, 0.5),
    (3, 0, 0, 0.5),
])
def test_both_reject_malformed_entries(entry):
    items = [((1, 0, 0), 0, 1, 0.5), ((0, 1, 0), 1, 1, 0.5), entry]
    for from_items in (QueryDistribution.from_items, ref.from_items):
        with pytest.raises(ValueError):
            from_items(3, items)


def test_integral_floats_merge_with_ints():
    items = [((1, 0, 0), 0, 0, 0.5), ((1.0, 0, 0), 0, 0, 0.5)]
    got = QueryDistribution.from_items(3, items).entry_tuples()
    assert got == ref.from_items(3, items).entry_tuples() == [((1, 0, 0), 0, 0, 1.0)]


def _chain(n):
    t = np.random.default_rng([77, n]).uniform(0.5, 1.5, (n, n))
    return MarkovModel(n, t / t.sum(axis=1, keepdims=True), np.full(n, 1.0 / n))


@pytest.mark.parametrize("policy", POLICIES)
def test_trace_csv_bytes_match_reference(policy):
    res = simulate(_chain(3), PrivacyPattern.from_string("1001000"), 300, seed=4,
                   msg_bits=24, policy=policy)
    assert _trace_csv(res) == ref.trace_csv(res)


@pytest.mark.parametrize("episodes, pattern", [
    (1, "1001"), (CSV_CHUNK - 1, "10"), (CSV_CHUNK, "10"), (CSV_CHUNK + 1, "10"),
    (50, "1"),
])
def test_trace_csv_blocks_match_reference(episodes, pattern):
    res = simulate(_chain(4), PrivacyPattern.from_string(pattern), episodes, seed=8)
    assert _trace_csv(res) == ref.trace_csv(res)


def _same_audit(got, want):
    assert (got.dof, got.strata, got.samples, got.unreliable) == \
        (want.dof, want.strata, want.samples, want.unreliable)
    assert math.isclose(got.statistic, want.statistic, rel_tol=1e-12)
    assert math.isclose(got.p_value, want.p_value, rel_tol=1e-12)


@pytest.mark.parametrize("n, pattern, policy", [
    (2, "100000", "algorithm1"), (3, "1001000", "algorithm1"),
    (3, "1001000", "naive"), (4, "10100", "algorithm1"),
    (4, "1000", "full_download"),
])
def test_audit_matches_reference_on_seeded_runs(n, pattern, policy):
    res = simulate(_chain(n), PrivacyPattern.from_string(pattern), 3000,
                   seed=n, policy=policy)
    for t in range(len(pattern)):
        _same_audit(empirical_privacy_audit(res, t), ref.empirical_privacy_audit(res, t))


def test_audit_matches_reference_on_random_tables():
    # Thin strata: single rows or columns, zero cells and wide masks.
    rng = np.random.default_rng(31)
    for episodes, steps, n in ((40, 4, 3), (500, 5, 2), (2000, 3, 6)):
        masks = rng.integers(1, 1 << n, (episodes, steps))
        masks[:, 0] = (1 << n) - 1
        masks[rng.random(episodes) < 0.2, 2] = 1 << 62
        taus = rng.integers(0, n, (episodes, steps))
        res = SimulationResult(_chain(n), PrivacyPattern((True,) * steps), episodes,
                               0, 8, "algorithm1", masks, taus, taus,
                               np.ones(masks.shape, dtype=bool), 0)
        for t in range(steps):
            _same_audit(empirical_privacy_audit(res, t),
                        ref.empirical_privacy_audit(res, t))
