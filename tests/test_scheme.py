import dataclasses
import hashlib
import json
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest

import onoffpir.scheme as scheme_mod
import reference_builder
from helpers import (is_set_view, law_marginal, law_part, of_counts, query_conditionals,
                     random_law, scheme_bytes, traced_peak, worked_law, workload_table)
from onoffpir.model import (CapacityError, ConditionalLaw, MarkovModel, OrderStats,
                            order_stats, stacked_order_stats, step_law)
from onoffpir.scheme import (InternalConsistencyError, QueryDistribution, _assemble,
                             _check_built, _QueryCounts, _scan, _set_conditionals,
                             build_batch, build_query_distribution, policy_n2,
                             policy_n2_table, project_to_sets)
from onoffpir.sim import PrivacyPattern, enumerate_steps


def oracle_audit(dist, law, thetas, tol=1e-9):
    """Pure-python recomputation of all five distribution invariants straight
    from the entry tuples, independent of the package's array paths."""
    n = dist.n
    entries = dist.entry_tuples()
    per_u = defaultdict(float)
    marginal = defaultdict(float)
    per_zu = defaultdict(float)
    for z, x, u, p in entries:
        assert p > 0
        assert z[x] > 0, "entry not decodable"
        per_u[u] += p
        marginal[(u, x)] += p
        per_zu[(z, u)] += p
    for u in range(n):
        assert abs(per_u[u] - 1) < tol
        for x in range(n):
            assert abs(marginal[(u, x)] - law.table[u, x]) < tol
    for z in {z for z, _, _, _ in entries}:
        vals = [per_zu.get((z, u), 0.0) for u in range(n)]
        assert max(vals) - min(vals) < tol, f"query {z} depends on pivot"
    card = defaultdict(float)
    for (z, u), v in per_zu.items():
        if u == 0:
            card[sum(z)] += v
    for i in range(1, n + 1):
        assert abs(card.get(i, 0.0) - thetas[i - 1]) < tol


def python_expected_multiset_cardinality(dist):
    total = 0.0
    for z, _x, u, p in dist.entry_tuples():
        total += p * sum(z) / dist.n
    return total


# ------------------------------------------------------------------- builder

def test_builder_worked_example_table():
    """The full constructed distribution on the worked law, cell by cell."""
    law = worked_law()
    dist = build_query_distribution(law)
    expected = {
        ((0, 0, 1), 2, 0): 0.1, ((0, 0, 1), 2, 1): 0.1, ((0, 0, 1), 2, 2): 0.1,
        ((0, 1, 0), 1, 0): 0.3, ((0, 1, 0), 1, 1): 0.3, ((0, 1, 0), 1, 2): 0.3,
        ((1, 0, 0), 0, 0): 0.1, ((1, 0, 0), 0, 1): 0.1, ((1, 0, 0), 0, 2): 0.1,
        ((0, 1, 1), 1, 1): 0.1, ((0, 1, 1), 1, 2): 0.1, ((0, 1, 1), 2, 0): 0.1,
        ((1, 0, 1), 0, 1): 0.3, ((1, 0, 1), 0, 2): 0.1,
        ((1, 0, 1), 2, 0): 0.3, ((1, 0, 1), 2, 2): 0.2,
        ((1, 1, 1), 0, 1): 0.1, ((1, 1, 1), 1, 2): 0.1, ((1, 1, 1), 2, 0): 0.1,
    }
    got = {(z, x, u): p for z, x, u, p in dist.entry_tuples()}
    assert set(got) == set(expected)
    for key, val in expected.items():
        assert abs(got[key] - val) < 1e-12, key


IDENTITIES = [
    ("nonpositive", "nonpositive or undecodable"),
    ("x-outside-z", "nonpositive or undecodable"),
    ("pivot-mass-moved", "privacy"),
    ("marginal", "marginal"),
    ("thetas", "cardinality law"),
]


def _tamper(identity, whole, first, part, law, stats):
    """``whole`` with the worked law's part, ``part``, starting at entry
    ``first``, or that law or its stats, broken in one identity."""
    entry = {(z, x, u): first + e for e, (z, x, u, _p) in enumerate(part.entry_tuples())}
    probs, xs = whole.probs.copy(), whole.xs.copy()
    if identity == "nonpositive":
        probs[first] = 0.0
    elif identity == "x-outside-z":
        xs[entry[((1, 0, 1), 0, 1)]] = 1
    elif identity == "pivot-mass-moved":
        # pivot 1 asks for request 0 with {0, 2} less often and {0, 1, 2} more
        probs[entry[((1, 0, 1), 0, 1)]] -= 0.05
        probs[entry[((1, 1, 1), 0, 1)]] += 0.05
    elif identity == "marginal":
        law = ConditionalLaw(3, law.table + [[0.01, -0.01, 0], [0, 0, 0], [0, 0, 0]])
    else:
        stats = order_stats(ConditionalLaw(3, np.eye(3)))
    tampered = of_counts(3, whole.counts, whole.qidx, xs, whole.us, probs)
    return tampered, law, stats


@pytest.mark.parametrize("identity,message", IDENTITIES)
def test_builder_self_check_catches_each_identity(identity, message):
    law = worked_law()
    stats = order_stats(law)
    dist = build_query_distribution(law, stats)
    tampered, law, stats = _tamper(identity, dist, 0, dist, law, stats)
    with pytest.raises(InternalConsistencyError, match=message):
        _check_built(tampered, np.zeros(len(tampered.counts), np.int64), law.table[None],
                     stats.thetas[None])


def _stacks(laws, stats):
    """The laws' stacked tables and thetas, as the self-check takes them."""
    return (np.stack([law.table for law in laws]),
            np.stack([law_stats.thetas for law_stats in stats]))


@pytest.mark.parametrize("identity,message", IDENTITIES)
def test_batch_self_check_catches_each_identity_in_one_law(identity, message):
    """The batch's one self-check pass still holds each law to its own
    table and thetas: law 1 of three, broken alone, fails it by name."""
    rng = np.random.default_rng(5)
    laws = [random_law(rng, 3), worked_law(), random_law(rng, 3, ties=True)]
    stats = [order_stats(law) for law in laws]
    whole, row_law = build_batch(np.stack([law.table for law in laws]), stats)
    _check_built(whole, row_law, *_stacks(laws, stats))
    tampered, laws[1], stats[1] = _tamper(identity, whole,
                                          int(np.argmax(row_law[whole.qidx] == 1)),
                                          law_part(whole, row_law, 1),
                                          laws[1], stats[1])
    with pytest.raises(InternalConsistencyError, match=f"{message} .* in law 1$"):
        _check_built(tampered, row_law, *_stacks(laws, stats))


def test_builder_worked_example_rates():
    law = worked_law()
    dist = build_query_distribution(law)
    assert abs(dist.expected_multiset_cardinality() - 1.6) < 1e-12
    assert dist.expected_set_cardinality() <= 1.6 + 1e-12
    assert abs(1.0 / dist.expected_multiset_cardinality() - 5 / 8) < 1e-12


def test_builder_two_state_one_off_step():
    law = step_law(MarkovModel.two_state(0.2, 0.2), 1)
    dist = build_query_distribution(law)
    assert abs(dist.expected_multiset_cardinality() - 1.6) < 1e-12
    assert abs(1.0 / dist.expected_set_cardinality() - 0.625) < 1e-12


def test_builder_identical_rows_gives_singletons():
    row = [0.2, 0.3, 0.5]
    law = ConditionalLaw(3, np.tile(row, (3, 1)))
    dist = build_query_distribution(law)
    assert np.all(dist.counts.sum(axis=1) == 1)
    assert abs(dist.expected_set_cardinality() - 1.0) < 1e-12
    for z, x, u, p in dist.entry_tuples():
        assert abs(p - row[x]) < 1e-12 and z[x] == 1


def test_builder_identity_law_downloads_everything():
    n = 4
    dist = build_query_distribution(ConditionalLaw(n, np.eye(n)))
    assert dist.counts.tolist() == [[1] * n]
    assert abs(dist.expected_multiset_cardinality() - n) < 1e-12
    totals = np.bincount(dist.us, weights=dist.probs, minlength=n)
    assert np.allclose(totals, 1.0, atol=1e-12)


@pytest.mark.parametrize("seed,count", [(11, 250), (13, 250)])
def test_builder_invariants_random(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        law = random_law(rng, n, ties=bool(rng.integers(2)))
        stats = order_stats(law)
        dist = build_query_distribution(law, stats)
        oracle_audit(dist, law, stats.thetas)
        # the multiset layer meets the inner bound with equality
        levels = np.arange(1, n + 1, dtype=float)
        target = float(levels @ stats.thetas)
        assert abs(dist.expected_multiset_cardinality() - target) < 1e-9
        assert abs(python_expected_multiset_cardinality(dist) - target) < 1e-9
        # converse / achievability sandwich on the transmitted sets
        lower = float(law.table.max(axis=0).sum())
        ey = dist.expected_set_cardinality()
        assert lower - 1e-9 <= ey <= target + 1e-9


def test_builder_two_state_matches_closed_form_rate():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.random(), rng.random()
        law = step_law(MarkovModel.two_state(a, b), 1)
        dist = build_query_distribution(law)
        assert abs(dist.expected_set_cardinality() - (1 + abs(1 - a - b))) < 1e-9


def test_builder_deterministic_bit_for_bit():
    rng = np.random.default_rng(77)
    law = random_law(rng, 5, ties=True)
    d1 = build_query_distribution(law)
    d2 = build_query_distribution(law)
    assert d1.entry_tuples() == d2.entry_tuples()
    assert d1.probs.tobytes() == d2.probs.tobytes()
    assert d1.qidx.tobytes() == d2.qidx.tobytes()


def _reference_laws():
    """Random, tied, zero-cell and 1e-13-cell laws at n = 2..8, the belief
    laws of a short horizon walk, and the benchmark's tables at n = 12, 40
    and 100 (merge rounds of up to about 60 lanes)."""
    rng = np.random.default_rng(2024)
    laws = []
    for n in range(2, 9):
        for _ in range(6):
            laws += [random_law(rng, n), random_law(rng, n, ties=True)]
            for dust in (0.0, 1e-13):
                t = rng.random((n, n))
                t[rng.random((n, n)) < 0.3] = dust
                t[:, 0] += 1e-3
                laws.append(ConditionalLaw(n, t / t.sum(axis=1, keepdims=True)))
    chain = MarkovModel(5, workload_table(11, 5), np.full(5, 0.2))
    laws += [br.law for view in enumerate_steps(
                 chain, PrivacyPattern.from_string("1000"), 3)
             for br in view.branches if br.law is not None]
    return laws + [ConditionalLaw(n, workload_table(seed, n))
                   for n in (12, 40) for seed in (11, 21)] + [
        ConditionalLaw(100, workload_table(11, 100))]


def test_builder_matches_reference_bit_for_bit():
    for law in _reference_laws():
        got = build_query_distribution(law)
        want = reference_builder.build_query_distribution(law)
        for name in ("counts", "qidx", "xs", "us", "probs"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.dtype) == (b.shape, b.dtype), name
            assert a.tobytes() == b.tobytes(), name


def test_builder_lane_exhaustion_raises():
    # deltas of one leave the auxiliary matrix empty, so the first lane of
    # cardinality two has nothing to take
    law = random_law(np.random.default_rng(3), 5)
    stats = dataclasses.replace(order_stats(law), deltas=np.ones(5))
    with pytest.raises(InternalConsistencyError,
                       match=r"auxiliary row \d+ exhausted with [0-9.e-]+ still to assign"):
        build_query_distribution(law, stats)


def test_builder_support_growth_is_polynomial():
    rng = np.random.default_rng(15)
    for n in (4, 6, 8):
        law = random_law(rng, n)
        stats = order_stats(law)
        dist = build_query_distribution(law, stats)
        cards = dist.counts.sum(axis=1)
        for level in range(1, n + 1):
            distinct = int((cards == level).sum())
            assert distinct <= max(1, level - 1) * n * n


# ---------------------------------------------------------------- projection

def test_project_merges_equal_supports():
    dist = QueryDistribution.from_items(3, [
        ((2, 1, 0), 0, 0, 0.1),   # multiset {0,0,1}
        ((1, 1, 0), 0, 0, 0.2),   # set {0,1}
    ])
    merged = project_to_sets(dist)
    assert merged.entry_tuples() == [((1, 1, 0), 0, 0, pytest.approx(0.3, abs=1e-15))]


def test_project_leaves_plain_sets_alone():
    law = worked_law()
    dist = build_query_distribution(law)
    if is_set_view(dist):
        assert project_to_sets(dist).entry_tuples() == dist.entry_tuples()


def _random_builds(ties: bool) -> list:
    rng = np.random.default_rng(35)
    return [build_query_distribution(random_law(rng, n, ties=ties)) for n in (2, 3, 5, 8, 13)]


# Distributions whose set projection the audit reads; the hand-made ones
# repeat supports, merge one set's cells to dust, hold a count row without
# entries, or hold no entries at all.
SET_CASES = {
    "worked": lambda: [build_query_distribution(worked_law()),
                       build_query_distribution(ConditionalLaw(4, TIES_ZEROS))],
    "random": lambda: _random_builds(False),
    "random_ties": lambda: _random_builds(True),
    "workload60": lambda: [build_query_distribution(ConditionalLaw(60, workload_table(11, 60)))],
    "workload91": lambda: [build_query_distribution(ConditionalLaw(91, workload_table(11, 91)))],
    "hand_made": lambda: [
        QueryDistribution.from_items(3, [((2, 1, 0), 0, 0, 0.1), ((1, 1, 0), 1, 1, 0.2),
                                         ((1, 1, 0), 0, 0, 0.3), ((0, 0, 3), 2, 2, 1e-20),
                                         ((1, 0, 1), 2, 1, 0.4)]),
        QueryDistribution(2, [_QueryCounts((1, 1)), _QueryCounts((2, 0))],
                          [1, 1], [0, 0], [0, 1], [1e-20, 1e-20]),
        QueryDistribution(2, [_QueryCounts((1, 1)), _QueryCounts((0, 1))], [1], [1], [0], [0.5]),
        QueryDistribution.from_items(4, [])],
}


@pytest.mark.parametrize("name", list(SET_CASES))
def test_set_conditionals_equal_the_projection_bits(name):
    # the audit's set rows and p(set | u), without the projection's entries
    for dist in SET_CASES[name]():
        rows, table = _set_conditionals(dist)
        sets = project_to_sets(dist)
        want = query_conditionals(sets)
        assert rows.dtype == sets.counts.dtype and rows.shape == sets.counts.shape
        assert rows.tobytes() == sets.counts.tobytes()
        assert table.dtype == want.dtype and table.shape == want.shape
        assert table.tobytes() == want.tobytes()


def test_project_preserves_invariants_and_shrinks_cost():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        law = random_law(rng, n)
        stats = order_stats(law)
        dist = build_query_distribution(law, stats)
        sets = project_to_sets(dist)
        assert is_set_view(sets)
        assert sets.expected_set_cardinality() <= dist.expected_multiset_cardinality() + 1e-12
        n_ = sets.n
        per_u = np.bincount(sets.us, weights=sets.probs, minlength=n_)
        assert np.allclose(per_u, 1.0, atol=1e-9)
        assert np.max(np.abs(law_marginal(sets) - law.table)) < 1e-9
        cond = query_conditionals(sets)
        assert np.max(cond.max(axis=1) - cond.min(axis=1)) < 1e-9


# ------------------------------------------------------------ merge-key budget

def test_merge_key_budget_is_exact(monkeypatch):
    # 3 distinct count rows, n = 4 and 5 entries: 2 + 2 * 2 + 3 key bits
    items = [((1, 0, 0, 0), 0, 0, 0.5), ((1, 1, 0, 0), 1, 1, 0.25),
             ((1, 0, 0, 0), 0, 2, 0.5), ((0, 0, 1, 1), 3, 3, 1.0),
             ((1, 1, 0, 0), 0, 1, 0.25)]
    monkeypatch.setattr(scheme_mod, "KEY_BITS", 9)
    assert len(QueryDistribution.from_items(4, items)) == 5
    monkeypatch.setattr(scheme_mod, "KEY_BITS", 8)
    with pytest.raises(CapacityError, match="need 9 bits, above 8"):
        QueryDistribution.from_items(4, items)


def test_merge_key_guard_stops_build_projection_and_readers(monkeypatch):
    law = random_law(np.random.default_rng(5), 6)
    dist = build_query_distribution(law)
    wire = dist.to_json()
    indented = json.dumps(json.loads(wire), indent=1)   # read through json.loads
    monkeypatch.setattr(scheme_mod, "KEY_BITS", 8)
    for call in (lambda: build_query_distribution(law), lambda: project_to_sets(dist),
                 lambda: QueryDistribution.from_json(wire),
                 lambda: QueryDistribution.from_json(indented)):
        with pytest.raises(CapacityError, match="merge keys"):
            call()


def _assembly_peak_bytes(args) -> int:
    tracemalloc.start()
    try:
        try:
            _assemble(*args)
        except CapacityError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_merge_key_guard_fires_before_the_key_array(monkeypatch):
    # one count row broadcast to 200 x 100 entries, whose int64 keys take
    # 160 KB; the guard must fire before any entry-length array is made
    n, rounds = 100, 200
    args = (n, np.zeros(1, np.int64), np.eye(1, n, dtype=np.int64),
            np.zeros((rounds, 1), np.int64), np.zeros((1, n), np.int64), np.arange(n),
            np.full((rounds, 1), 1.0 / rounds))
    assert _assembly_peak_bytes(args) >= 8 * rounds * n
    monkeypatch.setattr(scheme_mod, "KEY_BITS", 28)
    assert _assembly_peak_bytes(args) < 8 * rounds * n // 8


def test_build_and_projection_peaks_stay_near_their_output():
    # n = 60, 212k entries: the assembly holds one entry-length temporary
    # at a time beside its inputs and output, and the build frees its
    # expansion before the self-check
    law = ConditionalLaw(60, workload_table(11, 60))
    stats = order_stats(law)
    dist, peak = traced_peak(lambda: build_query_distribution(law, stats))
    assert peak < 2.0 * scheme_bytes(dist)
    sets, peak = traced_peak(lambda: project_to_sets(dist))
    assert peak < 1.25 * scheme_bytes(sets)


# -------------------------------------------------------------------- policy

def test_policy_table_matches_published_two_source_example():
    table = policy_n2_table(0.2, 0.2)
    assert np.allclose(table, [[0.25, 0, 0.75],
                               [0, 1, 0],
                               [1, 0, 0],
                               [0, 0.25, 0.75]], atol=1e-12)


def test_policy_high_switching_even_parity():
    a, b = 0.7, 0.6  # alpha + beta > 1
    dist = policy_n2(a, b, 0, 0, 2, "even")
    assert abs(dist[0] - (1 - a) / b) < 1e-12
    assert abs(dist[2] - (a + b - 1) / b) < 1e-12
    # odd parity keeps the pivot: asking directly is free
    dist = policy_n2(a, b, 0, 0, 2, "odd")
    assert dist[0] == 1.0


def test_policy_singleton_state_is_absorbing():
    for a, b in [(0.2, 0.2), (0.9, 0.8), (0.5, 0.5)]:
        for x_tau in (0, 1):
            dist = policy_n2(a, b, x_tau, 1, 1)
            assert dist[1] == 1.0


def test_policy_independent_chain_asks_directly():
    dist = policy_n2(0.3, 0.7, 0, 1, 2)
    assert dist[1] == 1.0


def test_policy_degenerate_chains_download_both():
    assert policy_n2(0.0, 0.0, 0, 1, 2)[2] == 1.0
    assert policy_n2(1.0, 1.0, 0, 0, 2, "odd")[2] == 1.0


def test_policy_rows_are_distributions():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.random(), rng.random()
        for parity in ("even", "odd"):
            for x_tau in (0, 1):
                for x_t in (0, 1):
                    vals = policy_n2(a, b, x_tau, x_t, 2, parity)
                    assert np.all(vals >= -1e-12) and abs(vals.sum() - 1) < 1e-12


def test_policy_requests_are_0_or_1():
    for x_tau, x_t in [(0, 2), (-1, 0), (True, 0), (0, 0.5), ("0", 1)]:
        with pytest.raises(ValueError, match="x_tau and x_t"):
            policy_n2(0.2, 0.3, x_tau, x_t, 1)
    want = policy_n2(0.2, 0.3, 1, 0, 2)
    assert policy_n2(0.2, 0.3, 1.0, np.int64(0), 2).tolist() == want.tolist()


def test_policy_validates_arguments():
    with pytest.raises(ValueError):
        policy_n2(1.2, 0.0, 0, 0, 2)
    with pytest.raises(ValueError):
        policy_n2(0.2, 0.2, 0, 0, 3)
    with pytest.raises(ValueError):
        policy_n2(0.2, 0.2, 0, 0, 2, "sideways")


# ----------------------------------------------------------------- JSON

def test_distribution_json_round_trip():
    dist = build_query_distribution(worked_law())
    again = QueryDistribution.from_json(dist.to_json())
    assert again.entry_tuples() == dist.entry_tuples()
    assert again.n == dist.n


def test_distribution_canonical_ordering():
    # count-vector ordering at equal cardinality: (0,2,0) precedes (1,0,1)
    dist = QueryDistribution.from_items(3, [
        ((1, 0, 1), 0, 0, 0.5),
        ((0, 2, 0), 1, 0, 0.5),
    ])
    zs = [z for z, *_ in dist.entry_tuples()]
    assert zs == [(0, 2, 0), (1, 0, 1)]


# Built and projected worked-law, seeded n=12 and tie/zero laws, as sha256 of
# to_json(); pinned so that any change to the canonical bytes is caught.
TIES_ZEROS = np.array([[0.5, 0.5, 0.0, 0.0],
                       [0.25, 0.25, 0.25, 0.25],
                       [0.0, 0.5, 0.5, 0.0],
                       [0.5, 0.0, 0.0, 0.5]])
CANONICAL_SHA256 = {
    "worked": ("56d2b61c8268a8747301f095498ae2fc01ace4bfaec2b78e85e7525938a6fe67",
               "56d2b61c8268a8747301f095498ae2fc01ace4bfaec2b78e85e7525938a6fe67"),
    "random12": ("577167df58aa4bdffa09a494a4abf56333cf594fd4d7d8a67bebcac0e0bb3cdc",
                 "af4dc1b436b73bab52ac5e53a61b99da8d18f6ff2932497036bfa97edd1af837"),
    "ties_zeros": ("968278ed563deb8c7f7ba696a6fe29b2e18eb3cb48bb44fbd6d8f889d9730346",
                   "c437e5204c57d19dcfc10ae10747a1465bc0cd17100bcfd0228f0ef8dcdf4289"),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_SHA256))
def test_canonical_json_bytes_are_pinned(name):
    law = {"worked": worked_law,
           "random12": lambda: random_law(np.random.default_rng(2024), 12),
           "ties_zeros": lambda: ConditionalLaw(4, TIES_ZEROS)}[name]()
    dist = build_query_distribution(law)
    got = tuple(hashlib.sha256(d.to_json().encode()).hexdigest()
                for d in (dist, project_to_sets(dist)))
    assert got == CANONICAL_SHA256[name]


@pytest.mark.parametrize("entry", [
    ((0, 1, 0), 3, 0, 0.5),        # x == n would alias onto the next query
    ((0, 1, 0), -1, 0, 0.5),
    ((0, 1, 0), 1, 3, 0.5),        # u out of range
    ((0, 1, 0), 1.5, 0, 0.5),      # x not an integer
    ((0, 1), 1, 0, 0.5),           # count vector too short
    ((0, 1, 0, 0), 1, 0, 0.5),     # and too long
    ((0, 1.7, 0), 1, 0, 0.5),      # non-integral count
    ((-1, 2, 0), 1, 0, 0.5),       # negative count
    ((1, 2, 1), 1, 0, 0.5),        # cardinality above n
    ((0, 1, 0), 1, 0, float("nan")),
    ((0, 1, 0), 1, 0, float("inf")),
    ((0, 1, 0), 1, 0, -0.1),
    (("0", "1", "0"), 1, 0, 0.5),  # numpy would convert strings,
    ((False, True, False), 1, 0, 0.5),  # booleans
    ((0, 1, 0), "1", 0, 0.5),
    ((0, 1, 0), True, 0, 0.5),
    ((0, 1, 0), 1, np.True_, 0.5),  # numpy's too
    ((0, 1, 0), 1, 0, "0.5"),
    ((0, 1, 0), 1, 0, b"0.5"),     # and bytes
])
def test_from_items_rejects_malformed_entries(entry):
    good = ((0, 1, 0), 1, 1, 0.5)
    QueryDistribution.from_items(3, [good])
    with pytest.raises(ValueError):
        QueryDistribution.from_items(3, [good, entry])


def test_from_items_accepts_numpy_numbers():
    dist = QueryDistribution.from_items(np.int64(3), [
        (np.array([0, 1, 0]), np.int32(1), np.int64(1), np.float32(0.5)),
        ((0, 1, 0), 1, 1, np.float64(0.25)),
    ])
    assert dist.entry_tuples() == [((0, 1, 0), 1, 1, 0.75)]


def test_numpy_n_serializes():
    dist = QueryDistribution.from_items(np.int64(3), [((0, 1, 0), 1, 1, 1.0)])
    assert type(dist.n) is int
    wire = dist.to_json()
    assert QueryDistribution.from_json(wire).to_json() == wire


@pytest.mark.parametrize("wire", [
    '{"entries": []}',
    '{"n": 3}',
    '{"n": 3, "entries": [{"z": [0, 1, 0], "x": 1, "u": 1}]}',
])
def test_from_json_missing_key_is_value_error(wire):
    with pytest.raises(ValueError, match="malformed"):
        QueryDistribution.from_json(wire)


@pytest.mark.parametrize("n", [0, -1])
def test_readers_require_a_source(n):
    with pytest.raises(ValueError, match="n >= 1"):
        QueryDistribution(n, [], [], [], [], [])
    with pytest.raises(ValueError, match="n >= 1"):
        QueryDistribution.from_items(n, [])
    with pytest.raises(ValueError, match=r"\[1, "):
        QueryDistribution.from_json({"n": n, "entries": []})


def _read_all(n):
    """One distribution over the count row (0, 1, 1) through each reader."""
    items = [((0, 1, 1), x, u, 1.0) for x, u in ((1, 0), (2, 1), (1, 2))]
    entries = [{"z": list(z), "x": x, "u": u, "p": p} for z, x, u, p in items]
    return [lambda: QueryDistribution(n, **_constructor_args()),
            lambda: QueryDistribution.from_items(n, items),
            lambda: QueryDistribution.from_json({"n": n, "entries": entries})]


@pytest.mark.parametrize("n", ["3", True, 2.5, [3]])
def test_readers_require_an_integer_n(n):
    for read in _read_all(n):
        with pytest.raises(ValueError, match="n >= 1"):
            read()


@pytest.mark.parametrize("n", [3.0, np.int64(3), np.float64(3.0)])
def test_readers_accept_an_integral_n(n):
    for read, want in zip(_read_all(n), _read_all(3)):
        dist = read()
        assert type(dist.n) is int and dist.entry_tuples() == want().entry_tuples()
    wire = '{"n": 3.0, "entries": [{"z": [0, 1, 1], "x": 1, "u": 0, "p": 1.0}]}'
    assert QueryDistribution.from_json(wire).n == 3


def _constructor_args(**changes):
    """Arguments of a valid one-query, three-entry distribution, with some
    replaced."""
    args = dict(queries=[_QueryCounts((0, 1, 1))], qidx=[0, 0, 0], xs=[1, 2, 1],
                us=[0, 1, 2], probs=[1.0, 1.0, 1.0])
    args.update(changes)
    return args


def test_constructor_accepts_valid_arrays():
    dist = QueryDistribution(3, **_constructor_args())
    assert len(dist) == 3 and dist.counts.tolist() == [[0, 1, 1]]
    # structural invariants are the audit's: x outside z still constructs
    assert len(QueryDistribution(3, **_constructor_args(xs=[0, 2, 1]))) == 3


@pytest.mark.parametrize("changes", [
    {"xs": [1, 2]},                      # parallel arrays of unequal length
    {"qidx": [0, 4, 0]},                 # query index past the last query
    {"qidx": [0, -1, 0]},                # and below zero
    {"xs": [1, 7, 1]},                   # x outside [0, n)
    {"us": [0, -2, 2]},                  # u outside [0, n)
    {"queries": [_QueryCounts((-1, 1, 1))]},  # negative count
    {"queries": [_QueryCounts((0, 0, 5))]},   # cardinality above n
    {"probs": [1.0, float("nan"), 1.0]},
    {"probs": [1.0, float("inf"), 1.0]},
    {"probs": [1.0, -0.5, 1.0]},
    {"qidx": [0, 0.9, 0]},               # fractional, bool and string
    {"xs": [1, 1.7, 1]},                 # entries are not integers
    {"us": [0, True, 2]},
    {"queries": [_QueryCounts((0.5, 1.5, 0))]},
    {"xs": [1, "1", 1]},
    {"probs": [1.0, "1.0", 1.0]},
], ids=["lengths", "qidx-high", "qidx-negative", "x-range", "u-range",
        "negative-count", "cardinality", "nan-p", "inf-p", "negative-p",
        "qidx-fraction", "x-fraction", "u-bool", "count-fraction", "x-str",
        "p-str"])
def test_constructor_rejects_invalid_arrays(changes):
    with pytest.raises(ValueError):
        QueryDistribution(3, **_constructor_args(**changes))


# ------------------------------------------------------- unchecked records

INT64_FIELDS = {"counts", "qidx", "xs", "us", "orderings"}


def _assert_as_constructed(made, public):
    """``made``, a record built without its checks, holds read-only arrays of
    the dtypes the public constructor gives, and equals ``public``, that
    constructor's record, field by field."""
    assert type(made) is type(public)
    for spec in dataclasses.fields(made):
        got, want = getattr(made, spec.name), getattr(public, spec.name)
        if isinstance(want, np.ndarray):
            dtype = np.int64 if spec.name in INT64_FIELDS else np.float64
            assert not got.flags.writeable and not want.flags.writeable, spec.name
            assert got.dtype == want.dtype == dtype, spec.name
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), spec.name
        else:
            assert type(got) is type(want) is int and got == want, spec.name


def test_unchecked_records_are_as_constructed():
    """Every record the package makes without its checks: the laws of a
    stack, their stacked order statistics, and the distributions of a batch
    build, a projection, ``from_items`` and a scanned text."""
    rng = np.random.default_rng(71)
    tables = np.stack([random_law(rng, 5, ties=k % 2 == 1).table for k in range(4)]
                      + [np.eye(5), np.full((5, 5), 0.2)])
    laws = ConditionalLaw.stack(tables.copy())
    stats = stacked_order_stats(tables.copy())
    for law, law_stats in zip(laws, stats):
        _assert_as_constructed(law, ConditionalLaw(law.n, law.table.copy()))
        _assert_as_constructed(law_stats, OrderStats(
            law_stats.n, law_stats.orderings.copy(), law_stats.lambdas.copy(),
            law_stats.thetas.copy(), law_stats.sigma, law_stats.deltas.copy()))
    whole = build_batch(tables.copy(), stats)[0]
    dists = [whole, project_to_sets(whole),
             QueryDistribution.from_items(whole.n, whole.entry_tuples()),
             _scan(whole.to_json())]
    for dist in dists:
        _assert_as_constructed(dist, QueryDistribution(
            dist.n, dist.queries, dist.qidx.tolist(), dist.xs.tolist(),
            dist.us.tolist(), dist.probs.tolist()))
