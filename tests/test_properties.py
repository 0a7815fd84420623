"""Property tests on laws with ties, exact zeros, near-zero (1e-13) mass,
and on permutation and identity chains: the builder, its set projection and
the wire format, and at three sources the builder's cost against the LP
optimum; on stacks of such laws and of joints with zero-mass pivot rows,
the stacked laws and order statistics against their loop forms; on count
rows and entries with repeats and dust, the assembly against its frozen
form; and, on such chains with point-mass starts, the exact enumeration,
its beliefs, its leakage and the Monte Carlo episodes against it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_builder
import reference_model
from helpers import is_set_view
from onoffpir.bounds import inner_bound_first_off_step
from onoffpir.lp import build_lp, solve
from onoffpir.model import (ZERO_TOL, ConditionalLaw, MarkovModel, PrivacyPattern,
                            order_stats, stacked_order_stats)
from onoffpir.scheme import (QueryDistribution, _assemble, build_query_distribution,
                             project_to_sets)
from onoffpir.sim import _law_from_joint, enumerate_steps, simulate
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
    assert is_set_view(sets)
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


# n >= 9: numpy sums more than 8 terms pairwise, fewer one by one.
STACK_SIZES = st.sampled_from((2, 3, 4, 6, 9, 11))


@st.composite
def joint_stacks(draw):
    """One to four joints p(pivot, current) over one n, each cell an exact
    zero, 1e-15 dust, a small integer (ties) or uniform, and some pivot rows
    of zero mass, each joint normalized."""
    n, size = draw(STACK_SIZES), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = rng.integers(0, 4, (size, n, n))
    joints = np.select([kinds == 0, kinds == 1, kinds == 2],
                       [0.0, 1e-15, rng.integers(1, 4, kinds.shape).astype(float)],
                       rng.random(kinds.shape))
    for joint in joints:
        joint[rng.random(n) < draw(st.sampled_from((0.0, 0.3, 0.7)))] = 0.0
        if not joint.any():
            joint[tuple(rng.integers(0, n, 2))] = 1.0
        joint /= joint.sum()
    return joints


@st.composite
def law_stacks(draw):
    """One to four laws of :func:`laws` over one n."""
    n = draw(STACK_SIZES)
    return [draw(laws(st.just(n))) for _ in range(draw(st.integers(1, 4)))]


def _same_bytes(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _assert_stats_match_loop_form(got, law):
    want = reference_model.order_stats(law)
    for name in ("orderings", "lambdas", "thetas", "deltas"):
        assert _same_bytes(getattr(got, name), getattr(want, name)), name
    assert got.n == want.n and got.sigma == want.sigma and type(got.sigma) is int


@settings(max_examples=150, deadline=None)
@given(joint_stacks())
def test_stacked_laws_and_order_stats_match_loop_forms(joints):
    tables = _law_from_joint(joints)
    laws_made = ConditionalLaw.stack(tables)
    for joint, law, law_stats in zip(joints, laws_made, stacked_order_stats(tables),
                                     strict=True):
        want = reference_model.law_from_joint(joint)
        assert law.n == want.n and _same_bytes(law.table, want.table)
        assert not law.table.flags.writeable
        _assert_stats_match_loop_form(law_stats, want)
        _assert_stats_match_loop_form(order_stats(want), want)


@settings(max_examples=150, deadline=None)
@given(law_stacks())
def test_stacked_order_stats_of_laws_match_loop_form(stack):
    made = stacked_order_stats(np.stack([law.table for law in stack]))
    for law, law_stats in zip(stack, made, strict=True):
        _assert_stats_match_loop_form(law_stats, law)
        _assert_stats_match_loop_form(order_stats(law), law)


def _break_index(law):
    """The source where the loop form's budget runs out, or None."""
    cols = np.sort(law.table, axis=0, kind="stable")
    sigma = reference_model.order_stats(law).sigma
    if sigma == law.n:
        return None
    a, b = cols[sigma - 1], cols[sigma]
    over = np.cumsum(b - a) > 1.0 - a.sum()
    return int(np.argmax(over)) if over.any() else None


def _break_stack(rng, n, size):
    """``size`` laws over n: random, tied, constant-column, and random with
    cells at or around the dust threshold, in random order."""
    dust = [1e-13, ZERO_TOL, float(np.nextafter(ZERO_TOL, 1.0))]
    tables = []
    for k in range(size):
        t = rng.random((n, n)) + 1e-3
        if k % 4 == 1:
            t = np.ceil(t * 4.0)
        elif k % 4 == 2:
            t = np.tile(t[0], (n, 1))
        elif k % 4 == 3:
            t[rng.random((n, n)) < 0.3] = rng.choice(dust)
            t[:, 0] += 0.5
        tables.append(t / t.sum(axis=1, keepdims=True))
    return np.stack([tables[i] for i in rng.permutation(size)])


def test_stacked_break_points_match_loop_form_on_large_stacks():
    """Laws that run out of budget at one source take their budgets in one
    step, bit for bit as each law alone; the stacks share break points,
    some past 8 terms, where numpy sums pairwise."""
    rng = np.random.default_rng(41)
    shared = set()
    for n, size in ((3, 300), (6, 300), (9, 200), (17, 120), (40, 60), (100, 40)):
        tables = _break_stack(rng, n, size)
        laws = ConditionalLaw.stack(tables)
        for law, law_stats in zip(laws, stacked_order_stats(tables), strict=True):
            _assert_stats_match_loop_form(law_stats, law)
        breaks = [j for j in map(_break_index, laws) if j is not None]
        shared |= {j for j in breaks if breaks.count(j) >= 2}
    assert shared and max(shared) >= 8, shared


# Exact zeros, masses one ulp below, at and one ulp above the dust
# threshold, ties and uniform masses.
MASSES = st.one_of(st.sampled_from([0.0, float(np.nextafter(ZERO_TOL, 0.0)), ZERO_TOL,
                                    float(np.nextafter(ZERO_TOL, 1.0))]),
                   st.integers(1, 3).map(lambda k: k / 8), st.floats(0.0, 1.0))


@st.composite
def assemblies(draw):
    """Arguments of ``_assemble``: count rows of up to three laws over one
    n, drawn from a small pool so that equal rows meet within and across
    laws, passed as counts or as bools (as the set projection passes them);
    and entries of few distinct values, so that (row, x, u) triples repeat,
    listed one by one or broadcast as a build lays them out."""
    n = draw(st.integers(1, 5))
    multisets = st.lists(st.integers(0, n - 1), max_size=n)
    pool = draw(st.lists(multisets.map(lambda z: np.bincount(z, minlength=n)),
                         min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 8))
    rows = np.array([draw(st.sampled_from(pool)) for _ in range(n_rows)],
                    dtype=np.int64).reshape(n_rows, n)
    row_law = np.array(draw(st.lists(st.integers(0, 2), min_size=n_rows,
                                     max_size=n_rows)), dtype=np.int64)
    if draw(st.booleans()):
        rows = rows > 0
    ints = lambda hi, size: np.array(draw(st.lists(st.integers(0, max(hi - 1, 0)),
                                                   min_size=size, max_size=size)),
                                     dtype=np.int64)
    masses = lambda size: np.array(draw(st.lists(MASSES, min_size=size, max_size=size)))
    if n_rows and draw(st.booleans()):
        # one entry per (row, pivot), the row's mass shared by its pivots
        return (n, row_law, rows, np.arange(n_rows)[:, None],
                ints(n, n_rows * n).reshape(n_rows, n), np.arange(n),
                masses(n_rows)[:, None])
    size = draw(st.integers(0, 24)) if n_rows else 0
    return n, row_law, rows, ints(n_rows, size), ints(n, size), ints(n, size), masses(size)


def _assert_assembly_matches_frozen_form(args):
    got, got_law = _assemble(*args)
    want, want_law = reference_builder._assemble(*args)
    assert got.n == want.n
    for name in ("counts", "qidx", "xs", "us", "probs"):
        assert _same_bytes(getattr(got, name), getattr(want, name)), name
    assert _same_bytes(got_law, want_law)


@settings(max_examples=300, deadline=None)
@given(assemblies())
def test_assembly_matches_frozen_form(args):
    _assert_assembly_matches_frozen_form(args)


def _wide_assembly(n, laws, firsts):
    """One entry per count row, row i of law ``laws[i]`` holding
    ``firsts[i]`` of source 0 and the rest of its n sources in source 1."""
    rows = np.zeros((len(firsts), n), dtype=np.int64)
    rows[:, 0] = firsts
    rows[:, 1] = n - rows[:, 0]
    k = len(firsts)
    return (n, np.array(laws, dtype=np.int64), rows, np.arange(k), np.zeros(k, np.int64),
            np.arange(k) % n, np.full(k, 0.5))


@pytest.mark.parametrize("args", [
    # counts and cardinalities past one byte: a 1-byte field would read 256 as 0
    _wide_assembly(300, [0, 0, 0, 0], [256, 255, 0, 300]),
    # law indices past one byte
    _wide_assembly(3, [256, 255, 256, 0], [1, 2, 1, 3]),
    # one source, and no entries at all
    (1, np.zeros(3, np.int64), [[1], [0], [1]], [0, 2, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0],
     [0.25, 0.5, 0.125, 1.0]),
    (4, np.zeros(0, np.int64), np.zeros((0, 4), np.int64), [], [], [], []),
])
def test_assembly_matches_frozen_form_at_the_edges(args):
    _assert_assembly_matches_frozen_form(args)


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
