"""One bad-input battery for every public entry point's numeric arguments.

Every number the package takes follows one rule: it is an int or a float,
Python's or numpy's, never a bool or a string; it is finite and in its
argument's range; an integer argument takes an integral float as that
integer; and a scalar argument is not a list of one.  Anything else raises
ValueError.  Real values are read by ``model.numbers``, integers by
``model.whole_number`` and ``model.whole_numbers``.

Each row of the tables names one argument with a call that returns that
argument's output, its range and a good value.  The battery feeds each
argument its bad values, and checks that the spellings of one good value give
one output.
"""

import dataclasses
import math
from functools import cache
from typing import Callable, NamedTuple

import numpy as np
import pytest

from helpers import WORKED_TABLE, worked_law
from onoffpir.bounds import (bounds_over_horizon, exact_rate_n2, symmetric_bound_grid,
                             two_source_rate_grid)
from onoffpir.lp import LpProblem, build_lp, build_lps
from onoffpir.model import (ConditionalLaw, MarkovModel, OrderStats, PrivacyPattern,
                            entropy_bits, mutual_information_bits, order_stats,
                            step_law, tau_of)
from onoffpir.scheme import (QueryDistribution, _QueryCounts, build_query_distribution,
                             policy_n2, policy_n2_table)
from onoffpir.sim import ServerState, empirical_privacy_audit, enumerate_steps, simulate
from onoffpir.verify import (extension_mutual_informations,
                             markov_privacy_extension_check)


class Arg(NamedTuple):
    """One numeric argument: ``call(value)`` gives the output of its entry
    point, in [lo, hi) for an integer and [lo, hi] for a real value."""

    call: Callable
    lo: float = -math.inf
    hi: float = math.inf
    good: object = 2


def two_state():
    return MarkovModel.two_state(0.2, 0.2)


def _ten_episodes(**kw):
    res = simulate(two_state(), PrivacyPattern.from_string("100"), **kw, seed=5)
    return repr((res.episodes, res.msg_bits, res.q_masks.tolist(), res.oks.tolist()))


def _server_messages(n, msg_bits, episodes=4):
    server = ServerState(n, msg_bits, np.random.default_rng(0))
    server.advance(episodes)
    return repr((server.n, server.msg_bits)), server.messages.tobytes()


@cache
def _episodes():
    return simulate(two_state(), PrivacyPattern.from_string("1000"), 50, seed=3)


@cache
def _worked_scheme():
    return build_query_distribution(worked_law())


P2 = [[0.8, 0.2], [0.3, 0.7]]
STATS2 = order_stats(ConditionalLaw(2, P2))
WORKED_JOINT = (np.diag([0.2, 0.3, 0.5]) @ WORKED_TABLE).tolist()
LP_PARTS = {"objective": [1.0, 2.0], "eq_matrix": [[1.0, 1.0]], "eq_rhs": [1.0]}


def _order_stats(**change):
    fields = {"n": 2, "orderings": STATS2.orderings.tolist(),
              "lambdas": STATS2.lambdas.tolist(), "thetas": STATS2.thetas.tolist(),
              "sigma": STATS2.sigma, "deltas": STATS2.deltas.tolist()}
    return OrderStats(**{**fields, **change})


def _lp(**change):
    return LpProblem(**{**LP_PARTS, **change})


def _distribution(**change):
    fields = {"qidx": [0, 0], "xs": [0, 1], "us": [0, 1], "probs": [0.5, 0.5]}
    return QueryDistribution(2, [_QueryCounts((1, 1))], **{**fields, **change})


# Each call's output, given one integer.  ``COUNTED`` are the step counts,
# episodes, message bits and seed: ``tests/test_sim.py`` runs its own battery
# on them too.
COUNTED = {
    "step_law-k": Arg(lambda k: step_law(two_state(), k).table.tobytes(), 1, 2**53),
    "bounds-horizon": Arg(lambda h: bounds_over_horizon(
        two_state(), PrivacyPattern.from_string("1000"), h), 0, 4),
    "enumerate-horizon": Arg(lambda h: [(v.t, len(v.branches)) for v in enumerate_steps(
        two_state(), PrivacyPattern.from_string("1000"), h)], 0, 4),
    "simulate-episodes": Arg(lambda e: _ten_episodes(episodes=e), 1, 2**53),
    "simulate-msg_bits": Arg(lambda b: _ten_episodes(episodes=10, msg_bits=b), 1, 2**53),
    "simulate-seed": Arg(lambda s: repr(simulate(
        two_state(), PrivacyPattern.from_string("100"), 10, seed=s).summary()), 0, 2**128),
    "server-n": Arg(lambda n: _server_messages(n, 8), 1, 2**31),
    "server-msg_bits": Arg(lambda b: _server_messages(3, b), 1, 2**53),
}

INTEGERS = {
    **COUNTED,
    "MarkovModel-n": Arg(lambda n: MarkovModel(n, P2, [0.5, 0.5]), 2, 2**31),
    "symmetric-n": Arg(lambda n: MarkovModel.symmetric(n, 0.3), 2, 2**31),
    "ConditionalLaw-n": Arg(lambda n: ConditionalLaw(n, P2), 1, 2**31),
    "OrderStats-n": Arg(lambda n: _order_stats(n=n), 1, 2**31),
    "tau_of-t": Arg(lambda t: tau_of(PrivacyPattern.from_string("1010"), t),
                    -2**63, 2**63),
    "build_lp-cap": Arg(lambda c: build_lp(worked_law(), c).columns, 1, 2**62),
    "build_lps-cap": Arg(lambda c: [p.columns for p in build_lps([worked_law()], c)],
                         1, 2**62),
    "exact_rate_n2-gap": Arg(lambda g: exact_rate_n2(0.2, 0.3, g), 0, 2**53),
    "two_source_rate_grid-max_gap": Arg(lambda g: two_source_rate_grid([0.4], g),
                                        0, 2**53),
    "symmetric_bound_grid-n": Arg(lambda n: symmetric_bound_grid(n, [0.3]), 2, 2**31),
    "policy_n2-x_tau": Arg(lambda x: policy_n2(0.2, 0.3, x, 0, 2), 0, 2, 1),
    "policy_n2-x_t": Arg(lambda x: policy_n2(0.2, 0.3, 0, x, 2), 0, 2, 1),
    "policy_n2-prev_card": Arg(lambda c: policy_n2(0.2, 0.3, 0, 1, c), 1, 3),
    "from_items-n": Arg(lambda n: QueryDistribution.from_items(
        n, [((1, 1), 0, 0, 1.0)]), 1, 2**31),
    "from_items-x": Arg(lambda x: QueryDistribution.from_items(
        3, [((1, 1, 1), x, 0, 1.0)]), 0, 3),
    "from_items-u": Arg(lambda u: QueryDistribution.from_items(
        3, [((1, 1, 1), 0, u, 1.0)]), 0, 3),
    "empirical_privacy_audit-t": Arg(lambda t: empirical_privacy_audit(_episodes(), t),
                                     -2**63, 2**63),
    "server.advance-episodes": Arg(lambda e: _server_messages(3, 8, e), 1, 2**53),
    "cardinalities-t": Arg(lambda t: _episodes().cardinalities(t), -2**63, 2**63),
    "mean_cardinality-t": Arg(lambda t: _episodes().mean_cardinality(t), -2**63, 2**63),
    "p_cardinality-t": Arg(lambda t: _episodes().p_cardinality(t, 2), -2**63, 2**63),
    "p_cardinality-c": Arg(lambda c: _episodes().p_cardinality(1, c), 0, 2**31),
}

REALS = {
    "two_state-alpha": Arg(lambda a: MarkovModel.two_state(a, 0.2), 0, 1),
    "two_state-beta": Arg(lambda b: MarkovModel.two_state(0.2, b), 0, 1),
    "symmetric-alpha": Arg(lambda a: MarkovModel.symmetric(3, a), 0, 1),
    "exact_rate_n2-alpha": Arg(lambda a: exact_rate_n2(a, 0.2, 3), 0, 1),
    "exact_rate_n2-beta": Arg(lambda b: exact_rate_n2(0.2, b, 3), 0, 1),
    "policy_n2-alpha": Arg(lambda a: policy_n2(a, 0.2, 0, 1, 2), 0, 1),
    "policy_n2-beta": Arg(lambda b: policy_n2(0.2, b, 0, 1, 2), 0, 1),
    "policy_n2_table-alpha": Arg(lambda a: policy_n2_table(a, 0.2), 0, 1),
    "policy_n2_table-beta": Arg(lambda b: policy_n2_table(0.2, b, "odd"), 0, 1),
    "from_items-p": Arg(lambda p: QueryDistribution.from_items(
        2, [((1, 1), 0, 0, p)]), 0),
}

# Each array argument's good value, nested lists of numbers.
ARRAYS = {
    "MarkovModel-p": Arg(lambda p: MarkovModel(2, p, [0.5, 0.5]), 0, 1, P2),
    "MarkovModel-pi0": Arg(lambda q: MarkovModel(2, P2, q), 0, 1, [0.25, 0.75]),
    "two_state-pi0": Arg(lambda q: MarkovModel.two_state(0.2, 0.3, q), 0, 1, [0.25, 0.75]),
    "ConditionalLaw-table": Arg(lambda t: ConditionalLaw(2, t), good=P2),
    "ConditionalLaw.stack-tables": Arg(ConditionalLaw.stack, good=[P2, P2]),
    "OrderStats-lambdas": Arg(lambda a: _order_stats(lambdas=a),
                              good=STATS2.lambdas.tolist()),
    "OrderStats-thetas": Arg(lambda a: _order_stats(thetas=a), good=STATS2.thetas.tolist()),
    "OrderStats-deltas": Arg(lambda a: _order_stats(deltas=a), good=STATS2.deltas.tolist()),
    "LpProblem-objective": Arg(lambda a: _lp(objective=a), good=LP_PARTS["objective"]),
    "LpProblem-eq_matrix": Arg(lambda a: _lp(eq_matrix=a), good=LP_PARTS["eq_matrix"]),
    "LpProblem-eq_rhs": Arg(lambda a: _lp(eq_rhs=a), good=LP_PARTS["eq_rhs"]),
    "QueryDistribution-probs": Arg(lambda p: _distribution(probs=p), 0, good=[0.5, 0.5]),
    "two_source_rate_grid-sums": Arg(two_source_rate_grid, 0, 2, [0.4, 1.5]),
    "symmetric_bound_grid-alphas": Arg(lambda a: symmetric_bound_grid(3, a), 0, 1,
                                       [0.2, 0.7]),
    "extension_mutual_informations-chain_joint": Arg(
        lambda j: extension_mutual_informations(_worked_scheme(), j), good=WORKED_JOINT),
    "markov_privacy_extension_check-chain_joint": Arg(
        lambda j: markov_privacy_extension_check(_worked_scheme(), j), good=WORKED_JOINT),
    "mutual_information_bits-joint": Arg(mutual_information_bits,
                                         good=[[0.1, 0.2], [0.3, 0.4]]),
    "entropy_bits-p": Arg(entropy_bits, good=[0.25, 0.75]),
}

# The integer arrays, read by ``whole_numbers``.
WHOLE_ARRAYS = {
    "OrderStats-orderings": Arg(lambda a: _order_stats(orderings=a), 0, 2,
                                STATS2.orderings.tolist()),
    "QueryDistribution-qidx": Arg(lambda a: _distribution(qidx=a), 0, 1, [0, 0]),
    "QueryDistribution-xs": Arg(lambda a: _distribution(xs=a), 0, 2, [0, 1]),
    "QueryDistribution-us": Arg(lambda a: _distribution(us=a), 0, 2, [0, 1]),
}


def _out(value):
    """``value`` as a comparable: arrays by dtype, shape and bytes, records
    and sequences item by item, anything else by its repr (so a numpy float
    does not pass for a Python float)."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_out(getattr(value, spec.name))
                                           for spec in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(map(_out, value))
    return repr(value)


def _out_of_range(arg, whole):
    """One value past each finite end of ``arg``'s range, and -1 when it is
    below the range."""
    bad = {}
    if math.isfinite(arg.lo):
        bad["below"] = arg.lo - 1 if whole else np.nextafter(arg.lo, -math.inf)
    if math.isfinite(arg.hi):
        bad["above"] = arg.hi if whole else np.nextafter(arg.hi, math.inf)
    if -1 < arg.lo:
        bad["negative"] = -1
    return bad


def _scalar_cases():
    for table, whole in ((INTEGERS, True), (REALS, False)):
        for name, arg in table.items():
            good = arg.good if whole else 0.3
            bad = {"bool": True, "np-bool": np.bool_(True), "str": str(good),
                   "list": [good], "nan": math.nan, "inf": math.inf,
                   "-inf": -math.inf, **_out_of_range(arg, whole)}
            if whole:
                bad["fraction"] = good + 0.5
            for label, value in bad.items():
                yield pytest.param(arg, value, id=f"{name}-{label}")


def _with_first(value, first):
    """Nested lists ``value`` with their first number replaced."""
    if isinstance(value, list):
        return [_with_first(value[0], first), *value[1:]]
    return first


def _array_cases():
    for table, whole in ((ARRAYS, False), (WHOLE_ARRAYS, True)):
        for name, arg in table.items():
            bad = {"bool": True, "np-bool": np.bool_(False), "str": "0.5",
                   "nan": math.nan, "inf": math.inf, **_out_of_range(arg, whole)}
            if whole:
                bad["fraction"] = 0.5
            for label, value in bad.items():
                yield pytest.param(arg, _with_first(arg.good, value),
                                   id=f"{name}-{label}-element")
            yield pytest.param(arg, np.array(arg.good, dtype=bool), id=f"{name}-bool-array")
            yield pytest.param(arg, np.array(arg.good, dtype=str), id=f"{name}-str-array")


@pytest.mark.parametrize("arg,bad", [*_scalar_cases(), *_array_cases()])
def test_bad_number_raises_value_error(arg, bad):
    with pytest.raises(ValueError):
        arg.call(bad)


def _mapped(value, kind):
    """Nested lists ``value`` with each number converted by ``kind``."""
    return [_mapped(v, kind) for v in value] if isinstance(value, list) else kind(value)


@pytest.mark.parametrize("name", INTEGERS)
def test_integer_spellings_agree(name):
    call, good = INTEGERS[name].call, INTEGERS[name].good
    assert (_out(call(float(good))) == _out(call(np.int64(good))) == _out(call(good))
            == _out(call(np.float64(good))))


@pytest.mark.parametrize("name", REALS)
def test_real_spellings_agree(name):
    call = REALS[name].call
    assert _out(call(np.float64(0.3))) == _out(call(0.3))
    assert _out(call(1)) == _out(call(1.0)) == _out(call(np.int64(1)))


@pytest.mark.parametrize("name", [*ARRAYS, *WHOLE_ARRAYS])
def test_array_spellings_agree(name):
    arg = ARRAYS.get(name) or WHOLE_ARRAYS[name]
    want = _out(arg.call(arg.good))
    assert _out(arg.call(np.array(arg.good))) == want
    assert _out(arg.call(_mapped(arg.good, np.float64))) == want


# ----------------------------------------------------- copies and freezes

def test_records_copy_what_they_read_and_share_what_they_build():
    """A public constructor reads a fresh read-only copy, a function that
    only reads leaves its caller's array as it was, and the problems of one
    ``build_lps`` call share one read-only matrix and objective."""
    p, pi0 = WORKED_TABLE.copy(), np.full(3, 1 / 3)
    model = MarkovModel(3, p, pi0)
    assert p.flags.writeable and pi0.flags.writeable
    assert not (model.p.flags.writeable or model.pi0.flags.writeable)
    p[0, 0] = 0.5
    assert model.p[0, 0] == WORKED_TABLE[0, 0]

    joint = np.array(WORKED_JOINT)
    mutual_information_bits(joint)
    extension_mutual_informations(_worked_scheme(), joint)
    assert joint.flags.writeable

    problems = build_lps([worked_law(), step_law(MarkovModel(3, WORKED_TABLE, pi0), 2)])
    first = problems[0]
    assert not (first.eq_matrix.flags.writeable or first.objective.flags.writeable)
    for problem in problems:
        assert problem.eq_matrix is first.eq_matrix and problem.objective is first.objective
        assert not problem.eq_rhs.flags.writeable
    copied = LpProblem(first.objective, first.eq_matrix, first.eq_rhs)
    assert not np.shares_memory(copied.eq_matrix, first.eq_matrix)
