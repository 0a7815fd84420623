"""Property tests on laws with ties, exact zeros, near-zero (1e-13) mass,
and on permutation and identity chains: the builder, its set projection and
the wire format, and at three sources the builder's cost against the LP
optimum; and, on such chains with point-mass starts, the exact
enumeration, its beliefs, its leakage and the Monte Carlo episodes against
it."""

import numpy as np
from hypothesis import given, settings, strategies as st

from onoffpir.bounds import inner_bound_first_off_step
from onoffpir.lp import build_lp, solve
from onoffpir.model import (ZERO_TOL, ConditionalLaw, MarkovModel, PrivacyPattern,
                            order_stats)
from onoffpir.scheme import QueryDistribution, build_query_distribution, project_to_sets
from onoffpir.sim import enumerate_steps, simulate
from onoffpir.verify import audit_distribution, conditional_query_mi

# Small integers make ties; 0.0 and 1e-13 make exact zeros and near-zero mass.
CELLS = st.one_of(st.just(0.0), st.just(1e-13), st.integers(1, 4).map(float),
                  st.floats(1e-3, 1.0))


@st.composite
def laws(draw, sizes=st.integers(2, 6),
         kinds=("cells", "permutation", "identity")):
    n = draw(sizes)
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        table = np.eye(n)
    elif kind == "permutation":
        table = np.eye(n)[draw(st.permutations(range(n)))]
    else:
        table = np.array(draw(st.lists(st.lists(CELLS, min_size=n, max_size=n),
                                       min_size=n, max_size=n)))
        empty = table.sum(axis=1) == 0
        table[empty, draw(st.integers(0, n - 1))] = 1.0
        table /= table.sum(axis=1, keepdims=True)
    return ConditionalLaw(n, table)


@settings(max_examples=150, deadline=None)
@given(laws())
def test_built_scheme_audits_and_round_trips(law):
    stats = order_stats(law)
    dist = build_query_distribution(law, stats)
    assert audit_distribution(dist, law, stats).passed
    sets = project_to_sets(dist)
    assert sets.is_set_view
    assert project_to_sets(sets).to_json() == sets.to_json()
    for d in (dist, sets):
        wire = d.to_json()
        assert QueryDistribution.from_json(wire).to_json() == wire
        assert not d.counts.flags.writeable
        for k, q in enumerate(d.queries):
            assert tuple(d.counts[k].tolist()) == q.counts


@settings(max_examples=200, deadline=None)
@given(laws(st.just(3)))
def test_builder_meets_lp_optimum_at_three_sources(law):
    # measured, not proved: the paper shows the builder optimal for N = 2
    # only, and at N >= 4 it sits above the optimum on most random laws
    opt = solve(build_lp(law)).optimum
    assert abs(inner_bound_first_off_step(law).inverse_rate - opt) <= 1e-9


@st.composite
def chains(draw):
    """Chains from :func:`laws`, mostly of drawn cells, sometimes with one
    row made one-hot (an identity or a permutation row), started from a
    point mass or from drawn cells."""
    n = draw(st.integers(2, 4))
    kinds = ("cells", "cells", "cells", "permutation", "identity")
    table = draw(laws(st.just(n), kinds)).table.copy()
    if draw(st.booleans()):
        table[draw(st.integers(0, n - 1))] = np.eye(n)[draw(st.integers(0, n - 1))]
    pi0 = np.array(draw(st.lists(CELLS, min_size=n, max_size=n)))
    if draw(st.booleans()) or pi0.sum() == 0:
        pi0 = np.eye(n)[draw(st.integers(0, n - 1))]
    return MarkovModel(n, table, pi0 / pi0.sum())


EPISODES = 2000
MEAN_SE_BAND = 5.0   # OFF-step mean set size vs the exact mean, in exact SEs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chains(), st.lists(st.sampled_from((False, False, True)), min_size=2,
                         max_size=4))
def test_enumeration_leakage_and_episodes_agree(model, flags):
    pattern = PrivacyPattern((True, *flags))
    horizon = len(pattern) - 1
    views = list(enumerate_steps(model, pattern, horizon))
    assert np.array_equal(views[0].branches[0].pre_joint, np.diag(model.pi0))
    moments = []
    for view in views:
        assert abs(sum(br.prob for br in view.branches) - 1.0) <= 1e-9
        m1 = m2 = 0.0
        for br in view.branches:
            if not view.f_on:
                weights = br.scheme.query_marginal(br.pre_joint)
                m1 += br.prob * float(weights @ br.scheme.set_sizes)
                m2 += br.prob * float(weights @ br.scheme.set_sizes ** 2)
                # a private scheme's query never moves the pivot marginal
                pivot = br.pre_joint.sum(axis=1)
                for k in np.flatnonzero(weights > ZERO_TOL):
                    post = br.pre_joint * br.scheme.w[k]
                    post /= post.sum()
                    assert np.abs(post.sum(axis=1) - pivot).max() <= 1e-9
        moments.append((m1, m2 - m1 * m1))
    assert max(conditional_query_mi(model, pattern, horizon)) <= 1e-9
    res = simulate(model, pattern, EPISODES, seed=3)
    assert res.decode_failures == 0
    for t, on in enumerate(pattern.flags):
        if not on:
            mean, var = moments[t]
            se = np.sqrt(max(var, 0.0) / EPISODES)
            assert abs(res.mean_cardinality(t) - mean) <= MEAN_SE_BAND * se + 1e-9
