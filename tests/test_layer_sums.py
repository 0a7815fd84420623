"""The layer passes of ``bounds_over_horizon`` and ``enumerate_steps``
against their per-branch forms in ``reference_bounds``: node masses and
joints, and each OFF step's ``outer1``, ``inner`` and ``mi``, bit for bit;
``stacked_einsum`` against one einsum per node up to n = 100; and a group
of nodes that share a scheme reads its ``w`` in place."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import workload_table
from onoffpir.bounds import bounds_over_horizon
from onoffpir.model import MarkovModel, PrivacyPattern, mutual_information_bits
from onoffpir.sim import POLICIES, BranchView, StepScheme, enumerate_steps, stacked_einsum
from reference_bounds import branch_sums, loop_enumerate_steps, mutual_information_bits as mi

POINT_MASS = MarkovModel(3, np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5],
                                      [0.1, 0.6, 0.3]]), [1, 0, 0])


def _chain(seed: int, n: int) -> MarkovModel:
    return MarkovModel(n, workload_table(seed, n), np.full(n, 1 / n))


CHAINS = {f"random-{n}-{seed}": (_chain(seed, n), "10000" if n <= 6 else "1000")
          for n in range(2, 9) for seed in (11, 47)}
CHAINS.update({
    "random-20": (_chain(11, 20), "100"),
    "random-24": (_chain(21, 24), "100"),
    "tied-8": (MarkovModel.symmetric(8, 0.3), "1000"),
    "tied-5": (MarkovModel.symmetric(5, 0.2), "10000"),
    "point-mass": (POINT_MASS, "1000100"),
})


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", CHAINS)
def test_layer_pass_matches_per_branch_loop(name, policy):
    model, pattern = CHAINS[name]
    pat, horizon = PrivacyPattern.from_string(pattern), len(pattern) - 1
    rows = bounds_over_horizon(model, pat, horizon, policy)
    for row, view, ref in zip(rows, enumerate_steps(model, pat, horizon, policy),
                              loop_enumerate_steps(model, pat, horizon, policy),
                              strict=True):
        assert [float(br.prob).hex() for br in view.branches] == \
            [float(br.prob).hex() for br in ref.branches], view.t
        assert all(a.pre_joint.tobytes() == b.pre_joint.tobytes()
                   for a, b in zip(view.branches, ref.branches, strict=True)), view.t
        if not view.f_on:
            got = (row.outer1.hex(), row.inner.hex(), row.mi.hex())
            assert got == tuple(v.hex() for v in branch_sums(ref)), view.t


def _off_layers(name: str):
    model, pattern = CHAINS[name]
    return [view.branches for view in enumerate_steps(
        model, PrivacyPattern.from_string(pattern), len(pattern) - 1) if not view.f_on]


def test_cases_hold_lone_groups_and_mixed_positive_counts():
    # the cases above reach a layer of several K groups, one of them a lone
    # node, and a layer whose leakage joints differ in their positive cells
    for name in ("random-2-11", "random-20", "point-mass"):
        assert any(len(counts) > 1 and 1 in counts.values() for counts in (
            Counter(len(br.scheme.y_masks) for br in layer)
            for layer in _off_layers(name))), name
    assert any(len({int(np.count_nonzero(np.einsum("ux,kux->uk", br.pre_joint, br.scheme.w)))
                    for br in layer}) > 1 for layer in _off_layers("point-mass"))


def _peak_bytes(nodes: list, subscripts: str, then=None) -> int:
    tracemalloc.start()
    try:
        stacked_einsum(nodes, subscripts, then)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


LAYER_PASSES = [("bux,bkux->bk", None), ("bux,bkux->buk", mutual_information_bits)]


def test_lone_group_reads_its_scheme_in_place():
    # the first OFF step after an ON one holds one node; neither layer pass
    # may copy its K x n x n scheme table
    (node,) = _off_layers("random-20")[0]
    nbytes = node.scheme.w.nbytes
    for subscripts, then in LAYER_PASSES:
        assert _peak_bytes([node], subscripts, then) < nbytes / 2, subscripts


def test_shared_scheme_is_not_copied_per_node():
    # every node of a naive layer sends the one fixed scheme: a copy per
    # node would take len(layer) times its bytes
    model, _ = CHAINS["random-20"]
    views = list(enumerate_steps(model, PrivacyPattern.from_string("100"), 2, "naive"))
    layer = views[2].branches
    assert len(layer) > 4 and len({id(br.scheme) for br in layer}) == 1
    for subscripts, then in LAYER_PASSES:
        peak = _peak_bytes(layer, subscripts, then)
        assert peak < len(layer) * layer[0].scheme.w.nbytes / 2, subscripts


@pytest.mark.parametrize("n", [8, 91, 100])
def test_stacked_einsum_matches_one_call_per_node(n):
    # groups of one-set schemes (which go node by node: stacked, their
    # n x n sums take another order past 8192 cells), of one scheme shared
    # (a broadcast view), of shared and distinct schemes (a copied stack),
    # and of a lone node, against each node's own einsum
    rng = np.random.default_rng(n)

    def scheme(k):
        w = rng.random((k, n, n)) * (rng.random((k, n, n)) < 0.3)
        return StepScheme(tuple(range(1, k + 1)), w)

    shared, five, seven = scheme(3), scheme(5), scheme(7)
    schemes = [scheme(1), scheme(1), shared, scheme(3), five, shared, five, seven,
               scheme(1)]
    nodes = [BranchView(1, rng.dirichlet(np.ones(n * n)).reshape(n, n), None, None, s)
             for s in schemes]
    marginals = stacked_einsum(nodes, "bux,bkux->bk")
    assert [a.tobytes() for a in marginals] == \
        [node.scheme.query_marginal(node.pre_joint).tobytes() for node in nodes]
    joints = [np.einsum("ux,kux->uk", node.pre_joint, node.scheme.w) for node in nodes]
    assert [a.tobytes() for a in stacked_einsum(nodes, "bux,bkux->buk")] == \
        [joint.tobytes() for joint in joints]
    assert [float(a).hex() for a in stacked_einsum(nodes, "bux,bkux->buk",
                                                    mutual_information_bits)] == \
        [mi(joint).hex() for joint in joints]
