"""Property tests of the builder, its set projection and the wire format on
laws with ties, exact zeros, near-zero (1e-13) mass, and on permutation and
identity chains."""

import numpy as np
from hypothesis import given, settings, strategies as st

from onoffpir.model import ConditionalLaw, order_stats
from onoffpir.scheme import QueryDistribution, build_query_distribution, project_to_sets
from onoffpir.verify import audit_distribution

# Small integers make ties; 0.0 and 1e-13 make exact zeros and near-zero mass.
CELLS = st.one_of(st.just(0.0), st.just(1e-13), st.integers(1, 4).map(float),
                  st.floats(1e-3, 1.0))


@st.composite
def laws(draw):
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(("cells", "permutation", "identity")))
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
