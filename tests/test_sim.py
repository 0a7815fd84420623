import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import onoffpir.scheme as scheme_mod
import onoffpir.sim as sim_mod
import reference_builder
import reference_model
from reference_sim import EpisodeServer, reference_simulate
from helpers import (law_key, law_part, never_the_request, random_law,
                     scheme_algorithm1, workload_table, worked_law)
from test_inputs import COUNTED
from onoffpir.bounds import bounds_over_horizon
from onoffpir.model import (ZERO_TOL, CapacityError, ConditionalLaw,
                            MarkovModel, PrivacyPattern, order_stats, tau_of)
from onoffpir.scheme import (build_batch, build_query_distribution, policy_n2,
                             project_to_sets)
from onoffpir.sim import (POLICIES, ServerState, _inverse_cdf, _scheme_full,
                          _scheme_naive, empirical_privacy_audit, enumerate_steps,
                          simulate)


def two_state():
    return MarkovModel.two_state(0.2, 0.2)


# ------------------------------------------------------------------- beliefs

def _walk(model, pattern, horizon, off_only=True):
    """The views of an exact enumeration and its edges (parent, incoming
    query mask, child), recorded from ``_BeliefGraph.step``, the graph's one
    Bayes step, which gives each edge's child in the next layer; with
    ``off_only`` just the edges out of OFF nodes."""
    edges = []
    step = sim_mod._BeliefGraph.step

    def recorded(graph, layer, ks):
        nxt, index = step(graph, layer, ks)
        parents = [(node, k) for node, node_ks in zip(layer, ks) for k in node_ks]
        edges.extend((node, node.scheme.y_masks[k], nxt[i])
                     for (node, k), i in zip(parents, index)
                     if not (off_only and pattern.flags[node.t]))
        return nxt, index

    with mock.patch.object(sim_mod._BeliefGraph, "step", recorded):
        views = list(enumerate_steps(model, pattern, horizon))
    return views, edges


def test_belief_initial_is_diagonal():
    m = MarkovModel(3, worked_law().table, [0.2, 0.3, 0.5])
    views = list(enumerate_steps(m, PrivacyPattern.from_string("10"), 1))
    (root,) = views[0].branches
    assert np.array_equal(root.pre_joint, np.diag([0.2, 0.3, 0.5]))


def test_belief_update_singleton_preserves_pivot_marginal():
    # observing the published scheme's singleton query tells the server
    # nothing about the pivot: posterior equals the 0.5/0.5 prior
    m = two_state()
    _views, edges = _walk(m, PrivacyPattern.from_string("100"), 2)
    (node, mask, child), = [e for e in edges if e[1] == 0b01]
    assert np.allclose(node.scheme.w[node.scheme.y_masks.index(mask)],
                       [[0.25, 0.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(child.pre_joint.sum(axis=1), [0.5, 0.5], atol=1e-12)
    assert abs(child.pre_joint.sum() - 1.0) < 1e-12


def test_belief_update_private_kernels_never_move_marginal():
    # a scheme whose query law is pivot-free leaks nothing into the belief:
    # whatever set is observed, the pivot marginal stays the prior
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = MarkovModel(n, random_law(rng, n).table, rng.dirichlet(np.ones(n)))
        _views, edges = _walk(m, PrivacyPattern.from_string("100"), 2)
        assert edges
        for _node, _mask, child in edges:
            assert np.allclose(child.pre_joint.sum(axis=1), m.pi0, atol=1e-9)
            assert np.all(child.pre_joint >= 0)
            assert abs(child.pre_joint.sum() - 1.0) < 1e-9


def test_enumeration_collapses_after_on_step():
    m = two_state()
    views = list(enumerate_steps(m, PrivacyPattern.from_string("110"), 2))
    # after the second ON step the pivot is the current request: the t=2
    # extended joint is diag(pi0 P) advanced one more step
    marg1 = m.pi0 @ m.p
    expected = np.diag(marg1) @ m.p
    assert len(views[2].branches) == 1
    assert np.allclose(views[2].branches[0].pre_joint, expected, atol=1e-12)


@pytest.mark.parametrize("pattern", ["1001000", "1101001", "100110"])
def test_on_nodes_reset_the_pivot(pattern):
    # an ON node holds the diagonal joint of its current request, now the
    # pivot, and the full download; its diagonals average to pi0 P^t
    pat = PrivacyPattern.from_string(pattern)
    rng = np.random.default_rng(15)
    models = [MarkovModel(n, random_law(rng, n).table, rng.dirichlet(np.ones(n)))
              for n in (2, 3, 4, 5)]
    models.append(MarkovModel(3, random_law(rng, 3).table, [0.0, 1.0, 0.0]))
    for m in models:
        checked = 0
        for view in enumerate_steps(m, pat, len(pat) - 1):
            if not view.f_on:
                continue
            marginal = np.zeros(m.n)
            for node in view.branches:
                joint = node.pre_joint
                assert np.all(joint[~np.eye(m.n, dtype=bool)] == 0.0)
                assert node.scheme.y_masks == ((1 << m.n) - 1,)
                marginal += node.prob * np.diag(joint)
            want = m.pi0 @ np.linalg.matrix_power(m.p, view.t)
            assert np.abs(marginal - want).max() <= 1e-12, (m.n, view.t)
            checked += 1
        assert checked == pattern.count("1")


def test_enumeration_first_off_step_law_is_transition_matrix():
    m = two_state()
    views = list(enumerate_steps(m, PrivacyPattern.from_string("10"), 1))
    (branch,) = views[1].branches
    assert np.allclose(branch.law.table, m.p, atol=1e-12)
    assert np.allclose(branch.pre_joint, np.diag(m.pi0) @ m.p, atol=1e-12)


def test_enumeration_branch_probabilities_sum_to_one():
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    for view in enumerate_steps(m, PrivacyPattern.from_string("1000"), 3):
        assert abs(sum(b.prob for b in view.branches) - 1.0) < 1e-9


def test_enumeration_capacity_guard(monkeypatch):
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    monkeypatch.setattr(sim_mod, "MAX_BELIEFS", 2)
    with pytest.raises(CapacityError):
        list(enumerate_steps(m, PrivacyPattern.from_string("1000"), 3))


def test_belief_cap_checked_before_each_new_node(monkeypatch):
    """The cap covers Monte Carlo too, and fires as the belief past it is
    interned: the enumeration makes no node of that step."""
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    pattern = PrivacyPattern.from_string("10000")
    monkeypatch.setattr(sim_mod, "MAX_BELIEFS", 2)
    with pytest.raises(CapacityError):
        simulate(m, pattern, 200, seed=1)
    made = []   # the step of every node made
    make = sim_mod._BeliefGraph.layer

    def counted(graph, t, joints):
        nodes = make(graph, t, joints)
        made.extend(node.t for node in nodes)
        return nodes
    monkeypatch.setattr(sim_mod._BeliefGraph, "layer", counted)
    with pytest.raises(CapacityError, match=r"at t=(\d+)$") as err:
        list(enumerate_steps(m, pattern, 4))
    capped = int(err.value.args[0].rsplit("=", 1)[1])
    assert made and capped not in made
    assert max(made.count(t) for t in made) <= 2


def test_enumeration_query_masks_exact_beyond_63_sources():
    n = 70   # identical rows: the scheme asks for the request alone
    model = MarkovModel(n, np.full((n, n), 1.0 / n), np.full(n, 1.0 / n))
    steps = list(enumerate_steps(model, PrivacyPattern.from_string("10"), 1))
    assert steps[1].branches[0].scheme.y_masks == tuple(1 << i for i in range(n))


# ------------------------------------------------------------- step schemes

def _sampling_table(tables: dict):
    """``(y_masks, w, cum, set_sizes)`` from a ``{mask: w[k]}`` dict, as the
    schemes were first assembled: masks sorted, tables stacked, then the
    cumulative sums along k moved last."""
    masks = tuple(sorted(tables))
    w = np.stack([tables[m] for m in masks])
    cum = np.ascontiguousarray(np.cumsum(w, axis=0).transpose(1, 2, 0))
    sizes = np.array([bin(m).count("1") for m in masks], dtype=np.int64)
    return masks, w, cum, sizes


def _projected_table(law, build=build_query_distribution):
    """Algorithm 1's sampling table by way of the set projection: scatter
    the projected entries into w and divide by p(x | u)."""
    dist = project_to_sets(build(law))
    n = law.n
    masks = dist.counts @ (1 << np.arange(n, dtype=object))
    w = np.zeros((len(masks), n, n))
    w[dist.qidx, dist.us, dist.xs] = dist.probs
    with np.errstate(invalid="ignore", divide="ignore"):
        w /= law.table
    w[~np.isfinite(w)] = 0.0
    np.clip(w, 0.0, 1.0, out=w)
    return _sampling_table(dict(zip(masks, w)))


def _assert_same_table(scheme, ref):
    masks, w, cum, sizes = ref
    assert scheme.y_masks == masks
    assert all(type(m) is int for m in scheme.y_masks)
    for got, want in ((scheme.w, w), (scheme.cum, cum), (scheme.set_sizes, sizes)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _edge_case_laws(rng, n):
    """A random, a tied, a zero-cell and a near-zero-column law over n sources."""
    zeros = rng.random((n, n)) * (rng.random((n, n)) > 0.3)
    zeros[np.arange(n), rng.integers(0, n, n)] += 0.1
    dust = random_law(rng, n).table.copy()
    dust[:, rng.integers(0, n)] = 1e-13
    return [random_law(rng, n), random_law(rng, n, ties=True),
            ConditionalLaw(n, zeros / zeros.sum(axis=1, keepdims=True)),
            ConditionalLaw(n, dust / dust.sum(axis=1, keepdims=True))]


def test_scheme_table_matches_set_projection_bytes():
    """Algorithm 1's sampling table, summed straight from the multiset
    entries, has the bytes of the table built from the set projection."""
    rng = np.random.default_rng(13)
    laws = [law for n in range(2, 9) for _ in range(5)
            for law in _edge_case_laws(rng, n)]
    walk = PrivacyPattern.from_string("10000")
    for n in (3, 4):
        m = MarkovModel(n, random_law(rng, n).table, rng.dirichlet(np.ones(n)))
        laws += [node.law for view in enumerate_steps(m, walk, 4)
                 for node in view.branches if node.law is not None]
    assert len(laws) > 160
    for law in laws:
        _assert_same_table(scheme_algorithm1(law), _projected_table(law))


# Near-tied likelihoods (ties jittered by ~1e-11): one lane's target is a
# few 1e-12, and the auxiliary row it reads holds only sub-1e-12 cells, so
# the lane comes back empty and the target vanishes to float dust.
DUST_LANES = [
    [0.25000000000027434, 0.16666666666557045, 0.16666666666654312,
     0.2500000000006997, 0.08333333333346063, 0.0833333333334517],
    [0.11111111111162263, 0.22222222222215515, 0.11111111111084475,
     0.2222222222218061, 0.22222222222261973, 0.1111111111109516],
    [0.15384615384588401, 0.1538461538464509, 0.0769230769230732,
     0.2307692307685875, 0.23076923076971034, 0.15384615384629413],
    [0.3333333333328678, 0.22222222222249255, 0.11111111111141912,
     0.11111111111121881, 0.11111111111114406, 0.11111111111085765],
    [0.23076923076852984, 0.1538461538468002, 0.23076923076884737,
     0.07692307692296856, 0.23076923076962, 0.07692307692323391],
    [0.08333333333326846, 0.1666666666667221, 0.2500000000000624,
     0.08333333333319289, 0.24999999999977562, 0.16666666666697844]]


def _layer_laws(rng, n):
    """One batch over n sources: the edge cases, a law whose columns are
    constant (sigma = n), and a law equal to the first on ``law_key`` but
    not in its bytes; at n = 6 also the vanishing-lane law.  Last come two
    permutation laws, whose one count row, all ones, is the same."""
    laws = _edge_case_laws(rng, n)
    laws.append(ConditionalLaw(n, np.tile(random_law(rng, n).table[0], (n, 1))))
    twin = laws[0].table.copy()
    twin[:, :2] += [1e-15, -1e-15]
    laws.append(ConditionalLaw(n, twin))
    assert law_key(laws[-1]) == law_key(laws[0]) and np.any(twin != laws[0].table)
    if n == 6:
        laws.append(ConditionalLaw(n, DUST_LANES))
    order = rng.permutation(len(laws))
    return [laws[i] for i in order] + [ConditionalLaw(n, np.eye(n)),
                                       ConditionalLaw(n, np.eye(n)[::-1])]


def test_layer_batch_matches_per_law_builds(monkeypatch):
    """A batch of laws gives each law the distribution and the scheme it
    gets alone, and that the loop-form builder gives, bit for bit; the
    loop form's lanes show that one law's lane vanishes to float dust."""
    vanished = []
    take = reference_builder._lane_take

    def counted(*args):
        lane = take(*args)
        vanished.append(not lane)
        return lane
    monkeypatch.setattr(reference_builder, "_lane_take", counted)
    rng = np.random.default_rng(29)
    for n in range(2, 9):
        laws = _layer_laws(rng, n)
        stats = [order_stats(law) for law in laws]
        assert any(st.sigma == n for st in stats)
        tables = np.stack([law.table for law in laws])
        cuts = build_batch(tables, stats)
        schemes = sim_mod._algorithm1_batch(tables, stats)
        assert len(schemes) == len(laws)
        for j, (law, scheme) in enumerate(zip(laws, schemes)):
            got = law_part(*cuts, j)
            want = reference_builder.build_query_distribution(law)
            for name in ("counts", "qidx", "xs", "us", "probs"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.shape, a.dtype) == (b.shape, b.dtype), (n, j, name)
                assert a.tobytes() == b.tobytes(), (n, j, name)
            alone = scheme_algorithm1(law)
            assert scheme.y_masks == alone.y_masks
            assert scheme.w.dtype == alone.w.dtype and scheme.w.shape == alone.w.shape
            assert scheme.w.tobytes() == alone.w.tobytes(), (n, j)
            _assert_same_table(scheme, _projected_table(
                law, reference_builder.build_query_distribution))
    assert any(vanished)


def test_layer_memo_keys_are_the_law_keys():
    """The memo keys of a layer, rounded at once, are ``law_key`` of each
    node, the twin law's too."""
    rng = np.random.default_rng(37)
    for n in (3, 6):
        laws = _layer_laws(rng, n)
        m = MarkovModel(n, laws[0].table, np.full(n, 1 / n))
        graph = sim_mod._BeliefGraph(m, PrivacyPattern.from_string("10"), "algorithm1")
        got = graph._schemes_of(np.stack([law.table for law in laws]),
                                [order_stats(law) for law in laws])
        keys = [law_key(law) for law in laws]
        assert len(set(keys)) < len(keys)   # the twin shares its key
        assert list(graph._schemes) == list(dict.fromkeys(keys))
        assert all(scheme is graph._schemes[key] for scheme, key in zip(got, keys))


def test_layer_memo_is_first_come_in_node_order():
    """Laws equal on ``law_key`` share the scheme of the first in node
    order, built once, the later ones' own bytes unread."""
    first = random_law(np.random.default_rng(31), 4)
    twin = ConditionalLaw(4, first.table + [[1e-15, -1e-15, 0, 0]] * 4)
    assert law_key(twin) == law_key(first)
    assert scheme_algorithm1(twin).w.tobytes() != scheme_algorithm1(first).w.tobytes()
    m = MarkovModel(4, first.table, np.full(4, 0.25))
    graph = sim_mod._BeliefGraph(m, PrivacyPattern.from_string("10"), "algorithm1")
    for laws in ([first, twin], [twin, first]):
        graph._schemes.clear()
        got = graph._schemes_of(np.stack([law.table for law in laws]),
                                [order_stats(law) for law in laws])
        assert got[0] is got[1] and len(graph._schemes) == 1
        assert got[0].w.tobytes() == scheme_algorithm1(laws[0]).w.tobytes()


def test_order_stats_one_stacked_pass_per_off_layer(monkeypatch):
    """Each OFF layer makes its nodes' order statistics in one stacked pass,
    never through ``order_stats``; every node's ``stats`` equals
    ``order_stats(node.law)`` bit for bit, and a law new to the memo is
    built from its first node's own ``stats`` object."""
    passes, handed = [], []

    def stacked(tables, make=sim_mod.stacked_order_stats):
        passes.append(make(tables))
        return passes[-1]

    def recorded_batch(laws, stats, make=sim_mod._algorithm1_batch):
        handed.extend(stats)
        return make(laws, stats)

    def no_single_law(law):
        raise AssertionError("the walk made order_stats of one law")
    monkeypatch.setattr(sim_mod, "stacked_order_stats", stacked)
    monkeypatch.setattr(sim_mod, "_algorithm1_batch", recorded_batch)
    monkeypatch.setattr(scheme_mod, "order_stats", no_single_law)
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    pattern = PrivacyPattern.from_string("1000100")
    views = list(enumerate_steps(m, pattern, len(pattern) - 1))
    off = [view for view in views if not view.f_on]
    assert [len(made) for made in passes] == [len(view.branches) for view in off]
    for view, made in zip(off, passes):
        for node, node_stats in zip(view.branches, made, strict=True):
            assert node.stats is node_stats
            want = order_stats(node.law)
            for name in ("orderings", "lambdas", "thetas", "deltas"):
                a, b = getattr(node.stats, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert node.stats.sigma == want.sigma
    assert all(node.stats is None for view in views if view.f_on for node in view.branches)
    owned = {id(node.stats) for view in off for node in view.branches}
    assert handed and all(id(stats) in owned for stats in handed)
    assert len(handed) < sum(len(view.branches) for view in off)   # memo hits
    passes.clear()
    simulate(m, pattern, 2000, seed=11)
    assert len(passes) == sum(not f for f in pattern.flags)


def test_step_interns_a_layer_in_edge_order(monkeypatch):
    """``step`` interns a layer's beliefs in edge order, node by node and
    query by query, with the bytes of one Bayes step per query: a query
    repeated within a node, and edges of two nodes reaching one belief,
    share its index.  One n = 20 layer covers more than the benchmark's
    sizes; with ``MAX_BELIEFS`` at a layer's belief count the step returns,
    and one below it raises before the next layer is made."""
    rng = np.random.default_rng(41)
    models = [MarkovModel(n, random_law(rng, n, ties=n > 3).table, rng.dirichlet(np.ones(n)))
              for n in (2, 3, 5, 9)]
    models.append(MarkovModel.symmetric(8, 0.3))
    models.append(MarkovModel(20, workload_table(11, 20), np.full(20, 1 / 20)))
    pattern = PrivacyPattern.from_string("1000")
    shared = 0   # children reached from more than one node
    made = []   # the layers step made, by their times
    layer_of = sim_mod._BeliefGraph.layer

    def recorded(graph, t, pres):
        made.append(t)
        return layer_of(graph, t, pres)
    monkeypatch.setattr(sim_mod._BeliefGraph, "layer", recorded)
    for m in models:
        views = list(enumerate_steps(m, pattern, 1 if m.n == 20 else 2))
        graph = sim_mod._BeliefGraph(m, pattern, "algorithm1")
        for layer in [view.branches for view in views[1:]]:
            ks = [np.flatnonzero(node.scheme.query_marginal(node.pre_joint) > ZERO_TOL)
                  for node in layer]
            ks[0] = np.concatenate([ks[0], ks[0][:1]])    # a repeated query
            made.clear()
            nxt, index = graph.step(layer, ks)
            assert made == [layer[0].t + 1]
            want: dict = {}   # rounded belief -> (index, pre-query joint)
            want_index, parents = [], {}
            for node, node_ks in zip(layer, ks):
                for k in node_ks:
                    post = node.pre_joint * node.scheme.w[k]
                    post /= post.sum()
                    key = np.round(post, 12).tobytes()
                    want.setdefault(key, (len(want), post @ m.p))
                    want_index.append(want[key][0])
                    parents.setdefault(want[key][0], set()).add(id(node))
            assert index.dtype == np.intp and index.tolist() == want_index
            assert index[len(ks[0]) - 1] == index[0]
            assert [node.t for node in nxt] == [layer[0].t + 1] * len(want)
            for node, (i, pre) in zip(nxt, want.values()):
                assert node is nxt[i] and node.pre_joint.tobytes() == pre.tobytes()
            shared += sum(len(ids) > 1 for ids in parents.values())
        if m.n == 20:
            assert len(index) == 336   # 335 edges and the repeated query
            monkeypatch.setattr(sim_mod, "MAX_BELIEFS", len(nxt))
            assert len(graph.step(layer, ks)[0]) == len(nxt)
            monkeypatch.setattr(sim_mod, "MAX_BELIEFS", len(nxt) - 1)
            made.clear()
            with pytest.raises(CapacityError, match=f"more than {len(nxt) - 1} belief"):
                graph.step(layer, ks)
            assert made == []
    assert shared > 0


@pytest.mark.parametrize("n, pattern", [(2, "100100"), (3, "10010"), (4, "1000"),
                                        (5, "1000"), (6, "1000"), (8, "1000")])
def test_enumeration_masses_add_in_edge_order(n, pattern):
    """Each node's probability is, bit for bit, the sum of its incoming
    edges' masses (parent probability times query probability) added one
    at a time in edge order; the n = 8 walk merges beliefs."""
    rng = np.random.default_rng(7 + n)
    m = (MarkovModel.symmetric(n, 0.3) if n == 8 else
         MarkovModel(n, random_law(rng, n).table, rng.dirichlet(np.ones(n))))
    steps = []
    step = sim_mod._BeliefGraph.step

    def recorded(graph, layer, ks):
        nxt, index = step(graph, layer, ks)
        steps.append((layer, ks, nxt, index))
        return nxt, index

    pat = PrivacyPattern.from_string(pattern)
    with mock.patch.object(sim_mod._BeliefGraph, "step", recorded):
        list(enumerate_steps(m, pat, len(pat) - 1))
    assert len(steps) == len(pat) - 1
    for layer, ks, nxt, index in steps:
        want = [0.0] * len(nxt)
        edges = ((node, k) for node, node_ks in zip(layer, ks) for k in node_ks)
        for (node, k), i in zip(edges, index.tolist()):
            weight = float(node.scheme.query_marginal(node.pre_joint)[k])
            want[i] += float(node.prob) * weight
        assert [float(node.prob).hex() for node in nxt] == [p.hex() for p in want]
    if n == 8:
        assert any(len(nxt) < len(index) for _l, _k, nxt, index in steps)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bad_joint_in_a_layer_raises_as_its_law_alone(bad):
    """A non-finite joint inside an OFF layer's stack raises the ValueError,
    text and all, that its law alone raises."""
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    graph = sim_mod._BeliefGraph(m, PrivacyPattern.from_string("10"), "algorithm1")
    good = np.diag(m.pi0) @ m.p
    broken = good.copy()
    broken[1, 2] = bad
    with pytest.raises(ValueError) as alone:
        reference_model.law_from_joint(broken)
    with pytest.raises(ValueError) as stacked:
        graph.layer(1, np.stack([good, broken, good]))
    assert str(stacked.value) == str(alone.value) == "law entries must be finite"


def test_batch_takes_one_stats_per_table():
    """A batch with more or fewer order statistics than law tables raises
    ValueError before any work."""
    laws = [random_law(np.random.default_rng(2), 3) for _ in range(3)]
    tables, stats = np.stack([law.table for law in laws]), [order_stats(law) for law in laws]
    for bad in (stats[:2], stats + stats[:1]):
        with pytest.raises(ValueError, match=f"{len(bad)} order statistics for 3 law tables"):
            build_batch(tables, bad)


@pytest.mark.parametrize("n", [2, 5, 70])
def test_fixed_policy_tables_match_dict_construction(n):
    naive = {}
    for x in range(n):
        tbl = np.zeros((n, n))
        tbl[:, x] = 1.0
        naive[1 << x] = tbl
    _assert_same_table(_scheme_naive(n), _sampling_table(naive))
    _assert_same_table(_scheme_full(n), _sampling_table({(1 << n) - 1: np.ones((n, n))}))


def test_only_sampling_builds_cumulative_sums(monkeypatch):
    """The exact enumeration reads ``w`` alone; ``cum`` is made for the
    schemes ``simulate`` samples from."""
    built = []
    for name in ("_scheme_naive", "_scheme_full"):
        def recorded(arg, make=getattr(sim_mod, name)):
            built.append(make(arg))
            return built[-1]
        monkeypatch.setattr(sim_mod, name, recorded)

    def recorded_batch(laws, stats, make=sim_mod._algorithm1_batch):
        schemes = make(laws, stats)
        built.extend(schemes)
        return schemes
    monkeypatch.setattr(sim_mod, "_algorithm1_batch", recorded_batch)
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    pattern = PrivacyPattern.from_string("10010")
    for policy in POLICIES:
        bounds_over_horizon(m, pattern, 4, policy=policy)
    assert len(built) > 3
    assert not any("cum" in vars(scheme) for scheme in built)
    built.clear()
    for policy in POLICIES:
        simulate(m, pattern, 200, seed=5, policy=policy)
    assert len(built) > 3
    assert all("cum" in vars(scheme) for scheme in built)


@pytest.mark.parametrize("pattern", ["1000000", "1010010", "1001000"])
def test_algorithm1_matches_closed_form_policy_per_node(pattern):
    # algorithm 1 specializes to the two-source closed form: every
    # OFF node's scheme is policy_n2 given the size of the query that led
    # to it and the parity of the gap since privacy was ON
    pat = PrivacyPattern.from_string(pattern)
    masks = (0b01, 0b10, 0b11)
    checked = 0
    for alpha, beta in ((0.3, 0.45), (0.35, 0.45), (0.1, 0.8), (0.4, 0.6),
                        (0.7, 0.6), (0.9, 0.85), (0.55, 0.95)):
        for pi0 in ([0.5, 0.5], [0.2, 0.8]):
            m = MarkovModel.two_state(alpha, beta, pi0)
            views, edges = _walk(m, pat, len(pat) - 1, off_only=False)
            incoming = {}
            for _node, mask, child in edges:
                incoming.setdefault(child, set()).add(mask)
            for view in views[1:]:
                if view.f_on:
                    continue
                gap = view.t - tau_of(pat, view.t)
                parity = "even" if gap % 2 == 0 else "odd"
                for node in view.branches:
                    got = np.array([node.scheme.w[node.scheme.y_masks.index(q)]
                                    if q in node.scheme.y_masks else np.zeros((2, 2))
                                    for q in masks])
                    live = node.pre_joint > ZERO_TOL
                    for prev in incoming[node]:
                        want = np.zeros((3, 2, 2))
                        for u in (0, 1):
                            for x in (0, 1):
                                want[:, u, x] = policy_n2(alpha, beta, u, x,
                                                          prev.bit_count(), parity)
                        assert np.abs(got - want)[:, live].max() <= 1e-12, \
                            (alpha, beta, pi0, view.t, prev)
                        checked += 1
    assert checked > 0


# ------------------------------------------------------------------ episodes

def test_server_state_regenerates_messages_each_step():
    rng = np.random.default_rng(0)
    for msg_bits in (13, 64, 100):
        episodes, n = 50, 5
        server = ServerState(n, msg_bits, np.random.default_rng(msg_bits))
        server.advance(episodes)
        first = server.messages.copy()
        values = [int.from_bytes(m.tobytes(), "big")
                  for m in first.reshape(episodes * n, -1)]
        assert all(0 <= v < 2 ** msg_bits for v in values)
        assert max(values) >= 2 ** (msg_bits - 1)   # the top bit is drawn too
        server.advance(episodes)
        assert server.messages.shape == first.shape
        assert not np.array_equal(server.messages, first)  # fresh each step
        member = rng.random((episodes, n)) < 0.5
        member[~member.any(axis=1), 2] = True
        payload, bits = server.answer(member)
        assert bits == int(member.sum()) * msg_bits
        for e in range(episodes):
            sel = np.flatnonzero(member[e])   # increasing source order
            assert np.array_equal(payload[e, :len(sel)], server.messages[e, sel])
            assert not payload[e, len(sel):].any()


@pytest.mark.parametrize("msg_bits", [0, -8])
def test_server_needs_a_message_bit(msg_bits):
    with pytest.raises(ValueError, match="msg_bits must be at least 1"):
        ServerState(3, msg_bits, np.random.default_rng(0))


@pytest.mark.parametrize("msg_bits", [1, 13, 64, 100])
def test_server_answers_match_per_episode_server(msg_bits):
    """Every episode's answer, read as the concatenation of its slots,
    is the per-episode server's, for empty, full and drawn queries."""
    episodes, n = 40, 5
    server = ServerState(n, msg_bits, np.random.default_rng(msg_bits))
    server.advance(episodes)
    member = np.random.default_rng(1).random((episodes, n)) < 0.5
    member[0], member[1] = False, True
    payload, bits = server.answer(member)
    assert payload.shape == server.messages.shape and payload.dtype == np.uint8
    ref = EpisodeServer(n, msg_bits, None)
    want_bits = 0
    for e in range(episodes):
        ref.messages = [int.from_bytes(m.tobytes(), "big") for m in server.messages[e]]
        want, size = ref.answer(tuple(np.flatnonzero(member[e]).tolist()))
        got = sum(int.from_bytes(slot.tobytes(), "big") << (pos * msg_bits)
                  for pos, slot in enumerate(payload[e]))
        assert got == want, e
        assert not payload[e, int(member[e].sum()):].any()
        want_bits += size
    assert bits == want_bits


def test_simulate_reproducible_and_seed_sensitive():
    m = two_state()
    pat = PrivacyPattern.from_string("100")
    a = simulate(m, pat, 300, seed=7)
    b = simulate(m, pat, 300, seed=7)
    c = simulate(m, pat, 300, seed=8)
    assert a.q_masks.tobytes() == b.q_masks.tobytes()
    assert a.xs.tobytes() == b.xs.tobytes()
    assert a.q_masks.tobytes() != c.q_masks.tobytes()


def test_simulate_decodes_every_step_all_policies():
    m = two_state()
    pat = PrivacyPattern.from_string("1010")
    for policy in POLICIES:
        res = simulate(m, pat, 500, seed=11, policy=policy, msg_bits=24)
        assert res.decode_failures == 0
        assert res.oks.all()


def test_simulate_counts_undecodable_queries_as_failures(monkeypatch):
    monkeypatch.setattr(sim_mod, "_scheme_naive", never_the_request)
    pat = PrivacyPattern.from_string("10010")
    res = simulate(MarkovModel(3, worked_law().table, np.full(3, 1 / 3)), pat,
                   200, seed=4, policy="naive")
    off = [t for t, on in enumerate(pat.flags) if not on]
    assert res.decode_failures == 200 * len(off)
    assert not res.oks[:, off].any() and res.oks[:, [0, 3]].all()
    assert res.summary()["decode_failures"] == 600


def test_simulate_full_download_costs_everything():
    m = two_state()
    res = simulate(m, PrivacyPattern.from_string("100"), 200, seed=1,
                   policy="full_download")
    assert np.all(res.cardinalities() == 2)
    audit = empirical_privacy_audit(res, 1)
    assert audit.dof == 0 and audit.p_value == 1.0


def test_simulate_empirical_rate_matches_analytic():
    m = two_state()
    episodes = 20000
    res = simulate(m, PrivacyPattern.from_string("10"), episodes, seed=2)
    cards = res.cardinalities(1)
    mean = cards.mean()
    halfwidth = 4 * cards.std() / np.sqrt(episodes)
    assert abs(mean - 1.6) <= halfwidth


def test_simulate_query_size_decays_geometrically():
    m = two_state()
    episodes = 20000
    res = simulate(m, PrivacyPattern.from_string("1000"), episodes, seed=3)
    for t in (1, 2, 3):
        p = res.p_cardinality(t, 2)
        expected = 0.6 ** t
        sigma = np.sqrt(expected * (1 - expected) / episodes)
        assert abs(p - expected) <= 3 * sigma


def test_simulate_singleton_state_is_absorbing():
    m = two_state()
    res = simulate(m, PrivacyPattern.from_string("10000"), 5000, seed=4)
    cards = res.cardinalities()
    for t in range(1, 4):
        went_back_up = (cards[:, t] == 1) & (cards[:, t + 1] == 2)
        assert not went_back_up.any()


def test_simulate_query_size_chain_transition():
    m = two_state()
    episodes = 20000
    res = simulate(m, PrivacyPattern.from_string("1000"), episodes, seed=12)
    cards = res.cardinalities()
    stay = ((cards[:, 1] == 2) & (cards[:, 2] == 2)).sum() / (cards[:, 1] == 2).sum()
    sigma = np.sqrt(0.6 * 0.4 / (cards[:, 1] == 2).sum())
    assert abs(stay - 0.6) <= 3 * sigma


def test_simulate_on_steps_reset_to_full_queries():
    m = two_state()
    res = simulate(m, PrivacyPattern.from_string("1010"), 300, seed=6)
    assert np.all(res.q_masks[:, 0] == 0b11)
    assert np.all(res.q_masks[:, 2] == 0b11)


def test_simulate_three_sources_with_builder():
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    episodes = 20000
    res = simulate(m, PrivacyPattern.from_string("10"), episodes, seed=13)
    cards = res.cardinalities(1)
    halfwidth = 4 * cards.std() / np.sqrt(episodes)
    assert abs(cards.mean() - 1.6) <= halfwidth
    assert res.decode_failures == 0


def test_simulate_rejects_bad_policy_configs():
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    # the two-source closed form is a test oracle, not a policy
    with pytest.raises(ValueError):
        simulate(m, PrivacyPattern.from_string("10"), 10, policy="n2_closed_form")
    with pytest.raises(ValueError):
        simulate(m, PrivacyPattern.from_string("10"), 10, policy="telepathy")


def test_simulate_rejects_bad_sizes():
    m = two_state()
    pat = PrivacyPattern.from_string("10")
    for episodes in (0, -3):
        with pytest.raises(ValueError):
            simulate(m, pat, episodes)
    with pytest.raises(ValueError):
        simulate(m, pat, 10, msg_bits=0)
    # query masks are int64 bitmasks: 63 sources is the most they hold
    with pytest.raises(CapacityError):
        simulate(MarkovModel.symmetric(64, 0.5), PrivacyPattern.from_string("1"), 1)
    res = simulate(MarkovModel.symmetric(63, 0.5), PrivacyPattern.from_string("1"), 1)
    assert res.q_masks[0, 0] == 2 ** 63 - 1
    # one step's messages are drawn in one piece: its size is bounded
    with pytest.raises(CapacityError):
        simulate(m, pat, 2, msg_bits=8 * sim_mod.PAYLOAD_BYTES // 4 + 1)


@pytest.mark.parametrize("bad", [1.5, "2", True, np.float64(2.5), -1, [2]],
                         ids=["fraction", "str", "bool", "np-fraction", "negative",
                              "list"])
@pytest.mark.parametrize("call", COUNTED)
def test_step_counts_are_whole_numbers(call, bad):
    """Step counts, episodes, message bits and the seed follow the readers'
    integer rule: an integral float is that integer; anything else, a list of one
    integer included, is a ValueError.  ``COUNTED`` is their part of the one
    table of numeric arguments in ``tests/test_inputs.py``."""
    read = COUNTED[call].call
    with pytest.raises(ValueError):
        read(bad)
    assert read(2.0) == read(np.int64(2)) == read(2)


def test_simulate_trajectory_capacity_guard():
    # 1e5 episodes x 1e4 steps would take about 41 GB of (episodes, T) arrays
    pat = PrivacyPattern.from_string("1" + "0" * 9_999)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="trajectory"):
            simulate(two_state(), pat, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    steps = sim_mod.TRAJECTORY_BYTES // (41 * 1000) + 1
    with pytest.raises(CapacityError):
        simulate(two_state(), PrivacyPattern((True,) * steps), 1000)


def test_inverse_cdf_clamps_rows_summing_below_one():
    # the model accepts rows 1e-12 short of one; a uniform above the last
    # cumulative sum must still draw an index inside the row
    row = [0.5, 0.5 - 5e-13]
    MarkovModel(2, [row, [0.5, 0.5]], [0.5, 0.5])
    cum = np.cumsum(row)
    assert np.searchsorted(cum, 1 - 1e-16, side="left") == 2
    r = np.array([1 - 1e-16, 0.25, 0.5, 0.75])
    assert _inverse_cdf(cum, r).tolist() == [1, 0, 0, 1]
    assert _inverse_cdf(np.stack([cum, cum]), r[:2]).tolist() == [1, 0]


# -------------------------------------------------------------- privacy audit

def test_privacy_audit_accepts_private_scheme():
    m = two_state()
    res = simulate(m, PrivacyPattern.from_string("100"), 20000, seed=14)
    for t in (1, 2):
        audit = empirical_privacy_audit(res, t)
        assert audit.p_value > 1e-3
        assert not audit.unreliable


def test_privacy_audit_rejects_naive_scheme():
    m = two_state()
    res = simulate(m, PrivacyPattern.from_string("10"), 3000, seed=15,
                   policy="naive")
    audit = empirical_privacy_audit(res, 1)
    assert audit.p_value < 1e-6


def test_privacy_audit_p_values_match_scipy_stats():
    from scipy import special, stats
    for stat, dof in ((0.0, 1), (3.84, 1), (12.5, 4), (80.0, 30), (1e3, 7)):
        assert special.chdtrc(dof, stat) == stats.chi2.sf(stat, dof)
    m = two_state()
    for policy, seed in (("algorithm1", 19), ("naive", 20)):
        res = simulate(m, PrivacyPattern.from_string("100"), 2000, seed=seed,
                       policy=policy)
        for t in (1, 2):
            audit = empirical_privacy_audit(res, t)
            assert audit.dof > 0
            assert math.isclose(audit.p_value,
                                float(stats.chi2.sf(audit.statistic, audit.dof)),
                                rel_tol=1e-12)


def test_chi2_sf_matches_scipy_on_dense_grid():
    from scipy.special import chdtrc
    rng = np.random.default_rng(34)
    ratios = np.concatenate([np.linspace(0.0, 30.0, 301), np.linspace(0.8, 1.2, 41)])
    dofs = [*range(1, 201), *rng.integers(201, 10 ** 5, 30).tolist()]
    checked = 0
    for dof in dofs:
        stats = dof * ratios
        want = chdtrc(dof, stats)
        for stat, ref in zip(stats.tolist(), want.tolist()):
            if ref >= 1e-20:
                checked += 1
                assert math.isclose(sim_mod._chi2_sf(dof, stat), ref, rel_tol=1e-12), \
                    (dof, stat)
    assert checked > 18000


# Q(dof / 2, stat / 2) at 50 digits (mpmath 1.3.0, ``gammainc(dof / 2,
# stat / 2, inf, regularized=True)``), rounded to double.  scipy's chdtrc is
# off by 1.4e-11 relative at (12567, 18850.5), by 2.7e-13 at (2000, 3000).
DEEP_TAIL = [
    (1, 100.0, 1.523970604832105e-23),
    (7, 200.0, 1.1477812240142598e-39),
    (80, 1400.0, 4.6554223982735486e-240),
    (2000, 3000.0, 2.204698611388996e-43),
    (12567, 18850.5, 1.064528770512798e-260),
    (10 ** 5, 1.1e5, 2.5841772471796377e-104),
    (10 ** 6, 1.03e6, 2.9406225421100605e-98),
    (10 ** 7, 1.01e7, 2.4852506801423715e-110),
]


@pytest.mark.parametrize("dof, stat, want", DEEP_TAIL)
def test_chi2_sf_deep_tail_matches_pinned_values(dof, stat, want):
    assert math.isclose(sim_mod._chi2_sf(dof, stat), want, rel_tol=1e-12)


def test_chi2_sf_edges():
    for dof in (1, 2, 7, 30, 10 ** 4):
        assert sim_mod._chi2_sf(dof, 0.0) == 1.0
        p = [sim_mod._chi2_sf(dof, dof * r) for r in np.linspace(0.0, 30.0, 601)]
        assert all(b <= a for a, b in zip(p, p[1:])), dof
    assert sim_mod._chi2_sf(2, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    start = time.perf_counter()
    p = sim_mod._chi2_sf(10 ** 7, 1e7)
    assert time.perf_counter() - start < 0.05
    assert 0.4999 < p < 0.5


def test_privacy_audits_linear_in_horizon():
    # the history strata are coded once for all steps, not again per audit
    rng = np.random.default_rng(5)
    m = MarkovModel(3, random_law(rng, 3).table, np.full(3, 1 / 3))
    pattern = PrivacyPattern((True, *(rng.random(999) < 0.3).tolist()))
    res = simulate(m, pattern, 20, seed=5)
    start = time.perf_counter()
    for t in range(1, len(pattern)):
        empirical_privacy_audit(res, t)
    assert time.perf_counter() - start <= 5.0


def test_privacy_audit_bounds_checks():
    m = two_state()
    res = simulate(m, PrivacyPattern.from_string("10"), 50, seed=17)
    with pytest.raises(IndexError):
        empirical_privacy_audit(res, 5)


def test_privacy_audit_rejects_negative_step():
    res = simulate(two_state(), PrivacyPattern.from_string("1000"), 50, seed=17)
    for t in (-1, -4, -5):
        with pytest.raises(IndexError):
            empirical_privacy_audit(res, t)


def test_simulate_reads_large_int_seeds_exactly():
    """An int seed past 2^53 reaches numpy exactly, as the per-episode
    reference passes it, and is echoed as that int; 2^128 is refused."""
    pattern = PrivacyPattern.from_string("100")
    with pytest.raises(ValueError, match="seed"):
        simulate(two_state(), pattern, 10, seed=1 << 128)
    for seed in ((1 << 53) + 1, 1 << 64):
        got = simulate(two_state(), pattern, 50, seed=seed)
        want = reference_simulate(two_state(), pattern, 50, seed=seed)
        assert got.summary()["seed"] == seed and type(got.seed) is int
        assert got.q_masks.tobytes() == want.q_masks.tobytes()
        assert got.xs.tobytes() == want.xs.tobytes()


@pytest.mark.parametrize("bad", [True, 1.5, "1", [1]])
def test_step_index_is_a_whole_number(bad):
    """``tau_of`` and ``empirical_privacy_audit`` read the step index by the
    integer rule: a non-integer raises ValueError, on one episode too,
    where a bool would index the arrays as a mask; 1.0 is step 1."""
    pattern = PrivacyPattern.from_string("1000")
    for episodes in (1, 50):
        res = simulate(two_state(), pattern, episodes, seed=17)
        with pytest.raises(ValueError, match="step t"):
            empirical_privacy_audit(res, bad)
        assert empirical_privacy_audit(res, 1.0) == empirical_privacy_audit(res, 1)
    with pytest.raises(ValueError, match="step t"):
        tau_of(pattern, bad)
    assert tau_of(pattern, 2.0) == tau_of(pattern, 2) == 0


def test_summary_fields():
    m = two_state()
    res = simulate(m, PrivacyPattern.from_string("10"), 500, seed=18)
    summary = res.summary()
    assert summary["decode_failures"] == 0
    assert summary["pattern"] == "10"
    assert summary["mean_query_size"][0] == 2.0
    assert 0.5 < summary["empirical_rate"][1] < 0.75
