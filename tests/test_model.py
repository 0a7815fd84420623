import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import onoffpir.model as model_mod
from helpers import law_key, random_law, worked_law
from onoffpir.model import (CapacityError, ConditionalLaw, MarkovModel,
                            PrivacyPattern, order_stats, step_law, tau_of,
                            whole_number)


# ---------------------------------------------------------------- validation

def test_markov_model_rejects_bad_rows():
    with pytest.raises(ValueError):
        MarkovModel(2, [[0.5, 0.6], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError):
        MarkovModel(2, [[1.0, 0.0], [0.0, 1.0]], [0.7, 0.7])
    with pytest.raises(ValueError):
        MarkovModel(1, [[1.0]], [1.0])
    with pytest.raises(ValueError):
        MarkovModel(2, [[1.2, -0.2], [0.0, 1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        MarkovModel(2, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        MarkovModel(2, [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            MarkovModel(2, [[bad, 0.5], [0.5, 0.5]], [0.5, 0.5])
        with pytest.raises(ValueError):
            MarkovModel(2, [[0.5, 0.5], [0.5, 0.5]], [bad, 0.5])


@pytest.mark.parametrize("n", ["2", True, 2.5, [2]])
def test_model_and_law_require_an_integer_n(n):
    with pytest.raises(ValueError, match="n >= 2"):
        MarkovModel(n, np.full((2, 2), 0.5), [0.5, 0.5])
    with pytest.raises(ValueError, match="n >= 1"):
        ConditionalLaw(n, np.full((2, 2), 0.5))


def test_model_and_law_store_an_integral_n_as_int():
    for n in (2.0, np.int64(2), np.float64(2.0)):
        for made in (MarkovModel(n, np.full((2, 2), 0.5), [0.5, 0.5]),
                     ConditionalLaw(n, np.full((2, 2), 0.5))):
            assert type(made.n) is int and made.n == 2


def test_whole_number_reads_ints_exactly():
    """An int, Python's or numpy's, is read without a float round trip;
    floats, bools, strings and lists keep their rules and messages."""
    for value in (2**53 + 1, np.int64(2**53 + 1), np.uint64(2**53 + 1)):
        got = whole_number(value, "x", 0, 1 << 62)
        assert type(got) is int and got == 9007199254740993
    assert whole_number(2**62 - 1, "x", 0, 1 << 62) == 2**62 - 1
    assert whole_number(4.0, "x", 0, 5) == 4
    for value in (2**62, np.int64(-1), 10**400, 2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"x must be at least 0, one integer in"):
            whole_number(value, "x", 0, 1 << 62)
    for value, kind in ((True, "bool"), (np.bool_(True), "bool"), ("3", "str")):
        with pytest.raises(ValueError, match=f"x must be numbers, not {kind}"):
            whole_number(value, "x", 0, 5)
    with pytest.raises(ValueError, match=r"got \[2\]"):
        whole_number([2], "x", 0, 5)


def test_symmetric_model_needs_two_sources():
    with pytest.raises(ValueError, match="two sources"):
        MarkovModel.symmetric(1, 0.5)


def test_symmetric_model_takes_n_through_source_count():
    made = MarkovModel.symmetric(3.0, 0.5)
    assert type(made.n) is int and made.n == 3 and made.p.shape == (3, 3)
    for n in ("3", 2.5, True, None, 0):
        with pytest.raises(ValueError, match="two sources"):
            MarkovModel.symmetric(n, 0.5)


def test_symmetric_model_capacity_guard():
    # the n x n table is checked before it is allocated
    with pytest.raises(CapacityError, match="transition matrix"):
        MarkovModel.symmetric(100_000, 0.5)
    with pytest.raises(CapacityError):
        MarkovModel.symmetric(math.isqrt(model_mod.TABLE_BYTES // 8) + 1, 0.5)


def test_model_json_round_trip(tmp_path):
    m = MarkovModel(3, worked_law().table, [0.2, 0.3, 0.5])
    again = MarkovModel.from_json(m.to_json())
    assert again.n == 3
    assert np.array_equal(again.p, m.p)
    assert np.array_equal(again.pi0, m.pi0)
    path = tmp_path / "model.json"
    path.write_text(m.to_json())
    assert np.array_equal(MarkovModel.load(path).p, m.p)


@pytest.mark.parametrize("change", [
    {"n": "2"}, {"n": True}, {"n": 2.5},
    {"p": [["0.5", 0.5], [0.5, 0.5]]}, {"p": [[True, False], [0.5, 0.5]]},
    {"pi0": [True, False]}, {"pi0": np.array([True, False])},
    {"pi0": "10"}, {"pi0": b"\x01\x00"},
], ids=["n-str", "n-bool", "n-frac", "p-str", "p-bool", "pi0-bool",
        "pi0-numpy-bool", "pi0-str", "pi0-bytes"])
def test_model_json_rejects_non_numbers(change):
    good = {"n": 2, "p": [[0.5, 0.5], [0.5, 0.5]], "pi0": [1.0, 0]}
    MarkovModel.from_json(good)
    with pytest.raises(ValueError):
        MarkovModel.from_json({**good, **change})


@pytest.mark.parametrize("text", [
    '{"n": 2, "p": ' + "[" * 100_000 + "]" * 100_000 + ', "pi0": [1, 0]}',
    b'{"n": 2, "p": [[1, 0], [0, 1]], "pi0": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
], ids=["str", "bytes"])
def test_model_json_too_deep_is_value_error(text):
    with pytest.raises(ValueError, match="nested too deeply"):
        MarkovModel.from_json(text)


@pytest.mark.parametrize("obj", [{"p": [[1.0]], "pi0": [1.0]}, {"n": 2}, {}])
def test_model_json_missing_key_is_value_error(obj):
    with pytest.raises(ValueError, match="malformed"):
        MarkovModel.from_json(obj)


def test_model_json_accepts_numpy_numbers():
    m = MarkovModel.from_json({"n": np.int32(2),
                               "p": np.array([[0.5, 0.5], [0.25, 0.75]]),
                               "pi0": [np.float32(0.5), np.int64(0) + 0.5]})
    assert np.array_equal(m.p, [[0.5, 0.5], [0.25, 0.75]])
    assert np.array_equal(m.pi0, [0.5, 0.5])


def test_pattern_parsing():
    pat = PrivacyPattern.from_string("1000")
    assert len(pat) == 4 and str(pat) == "1000"
    with pytest.raises(ValueError):
        PrivacyPattern.from_string("0100")  # step 0 must be ON
    with pytest.raises(ValueError):
        PrivacyPattern.from_string("1x0")
    with pytest.raises(ValueError):
        PrivacyPattern.from_string("")
    with pytest.raises(ValueError):
        PrivacyPattern(())
    assert str(PrivacyPattern((True, np.True_, 1, 0, np.False_, np.int64(0)))) == "111000"
    for flags in ("1000", (1, 0.5, None, [], 2), (1, "0"), (True, 2)):
        with pytest.raises(ValueError):
            PrivacyPattern(flags)


# -------------------------------------------------------------------- tau_of

def test_tau_of_examples():
    assert tau_of(PrivacyPattern.from_string("100"), 2) == 0
    assert tau_of(PrivacyPattern.from_string("1010"), 3) == 2
    assert tau_of(PrivacyPattern.from_string("1"), 0) == 0


def test_tau_of_range_errors():
    pat = PrivacyPattern.from_string("10")
    with pytest.raises(IndexError):
        tau_of(pat, 2)
    with pytest.raises(IndexError):
        tau_of(pat, -1)


@given(st.lists(st.booleans(), min_size=0, max_size=12))
def test_tau_of_matches_definition(tail):
    flags = (True, *tail)
    pat = PrivacyPattern(flags)
    for t in range(len(flags)):
        expected = max(i for i in range(t + 1) if flags[i])
        assert tau_of(pat, t) == expected


def _tau_scan(flags, t):
    return next(i for i in range(t, -1, -1) if flags[i])


def test_tau_of_matches_scan_on_random_patterns():
    rng = np.random.default_rng(7)
    for length in (1, 2, 5, 40, 300):
        for p_on in (0.0, 0.1, 0.5, 1.0):
            flags = (True, *(rng.random(length - 1) < p_on))
            pat = PrivacyPattern(flags)
            assert all(tau_of(pat, t) == _tau_scan(flags, t)
                       for t in range(length))
            assert pat.taus.tolist() == [_tau_scan(flags, t) for t in range(length)]
            assert not pat.taus.flags.writeable


def test_tau_of_is_constant_time_on_long_off_runs():
    # 2**15 steps after one ON step: a backward scan per call is O(T**2)
    pat = PrivacyPattern((True,) + (False,) * (2 ** 15 - 1))
    start = time.perf_counter()
    taus = [tau_of(pat, t) for t in range(len(pat))]
    assert time.perf_counter() - start < 1.0
    assert taus == [0] * len(pat) and type(taus[-1]) is int


# ------------------------------------------------------------------ step_law

def test_step_law_one_step_is_p():
    m = MarkovModel.two_state(0.2, 0.2)
    assert np.allclose(step_law(m, 1).table, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)


def test_step_law_two_steps_hand_square():
    m = MarkovModel.two_state(0.2, 0.2)
    assert np.allclose(step_law(m, 2).table, [[0.68, 0.32], [0.32, 0.68]], atol=1e-12)


def test_step_law_identity_fixed_point():
    m = MarkovModel(2, np.eye(2), [0.5, 0.5])
    for k in (1, 5, 40):
        assert np.array_equal(step_law(m, k).table, np.eye(2))


def test_step_law_composition():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = MarkovModel(n, random_law(rng, n).table, np.full(n, 1 / n))
        j, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        lhs = step_law(m, j + k).table
        rhs = step_law(m, j).table @ step_law(m, k).table
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_step_law_rejects_zero():
    with pytest.raises(ValueError):
        step_law(MarkovModel.two_state(0.1, 0.1), 0)


# --------------------------------------------------------------- order_stats

def test_order_stats_worked_example_golden():
    st_ = order_stats(worked_law())
    # pivot orderings per requested source (0-indexed)
    assert st_.orderings.tolist() == [[0, 2, 1], [0, 1, 2], [1, 2, 0]]
    assert np.allclose(st_.lambdas, [0.5, 0.9, 1.6], atol=1e-12)
    assert np.allclose(st_.thetas, [0.5, 0.4, 0.1], atol=1e-12)
    assert st_.sigma == 2
    # greedy budget: the first level overshoots, so only the tail keeps its
    # lower bound: (0.3, 0.4, 0.3)
    assert np.allclose(st_.deltas, [0.3, 0.4, 0.3], atol=1e-12)


def test_order_stats_identical_rows():
    law = ConditionalLaw(4, np.tile([0.1, 0.2, 0.3, 0.4], (4, 1)))
    st_ = order_stats(law)
    assert st_.sigma == 4
    assert np.allclose(st_.lambdas, 1.0, atol=1e-12)
    assert np.allclose(st_.thetas, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(st_.deltas, [0.1, 0.2, 0.3, 0.4], atol=1e-12)


def test_order_stats_identity_law():
    n = 4
    law = ConditionalLaw(n, np.eye(n))
    st_ = order_stats(law)
    assert np.allclose(st_.lambdas[:-1], 0.0) and st_.lambdas[-1] == n
    assert st_.sigma == n - 1
    assert np.allclose(st_.thetas, [0, 0, 0, 1.0], atol=1e-12)
    assert np.allclose(st_.deltas, [1.0, 0, 0, 0], atol=1e-12)


def test_order_stats_tie_break_prefers_smaller_pivot():
    law = ConditionalLaw(3, np.full((3, 3), 1 / 3))
    st_ = order_stats(law)
    assert st_.orderings.tolist() == [[0, 1, 2]] * 3


@pytest.mark.parametrize("ties", [False, True])
def test_order_stats_invariants_random(ties):
    rng = np.random.default_rng(42 if ties else 24)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        law = random_law(rng, n, ties=ties)
        st_ = order_stats(law)
        lam = st_.lambdas
        assert np.all(np.diff(lam) >= -1e-12)
        assert lam[0] <= 1 + 1e-9 and lam[-1] >= 1 - 1e-9
        assert abs(st_.thetas.sum() - 1) < 1e-9
        assert 1 <= st_.sigma <= n
        sorted_cols = np.take_along_axis(law.table.T, st_.orderings, axis=1)
        assert np.all(np.diff(sorted_cols, axis=1) >= -1e-12)
        assert abs(st_.deltas.sum() - 1) < 1e-9
        if st_.sigma < n:
            a = sorted_cols[:, st_.sigma - 1]
            b = sorted_cols[:, st_.sigma]
            assert np.all(st_.deltas >= a - 1e-9)
            assert np.all(st_.deltas <= b + 1e-9)


def test_order_stats_deterministic():
    rng = np.random.default_rng(5)
    law = random_law(rng, 5, ties=True)
    a, b = order_stats(law), order_stats(law)
    assert a.orderings.tobytes() == b.orderings.tobytes()
    assert a.lambdas.tobytes() == b.lambdas.tobytes()
    assert a.thetas.tobytes() == b.thetas.tobytes()
    assert a.deltas.tobytes() == b.deltas.tobytes()
    assert a.sigma == b.sigma


def test_conditional_law_validation():
    with pytest.raises(ValueError):
        ConditionalLaw(2, [[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError):
        ConditionalLaw(2, [[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        ConditionalLaw(2, [[1, 0, 0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            ConditionalLaw(2, [[bad, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [
    [[0.5, 0.4], [0.5, 0.5]],          # a row off 1
    [[1.5, -0.5], [0.5, 0.5]],         # a negative entry
    [[np.nan, 0.5], [0.5, 0.5]],
    [[np.inf, 0.5], [0.5, 0.5]],
])
def test_law_stack_checks_as_each_law_does(bad):
    """A bad table anywhere in a stack raises the ValueError, text and
    all, that ``ConditionalLaw`` raises for it alone."""
    with pytest.raises(ValueError) as alone:
        ConditionalLaw(2, bad)
    good = np.full((2, 2), 0.5)
    with pytest.raises(ValueError) as stacked:
        ConditionalLaw.stack(np.array([good, bad, good]))
    assert str(stacked.value) == str(alone.value)


def test_law_stack_views_one_read_only_stack():
    tables = np.stack([worked_law().table, np.eye(3)])
    laws = ConditionalLaw.stack(tables)
    assert [law.n for law in laws] == [3, 3]
    assert all(np.shares_memory(law.table, tables) for law in laws)
    assert not tables.flags.writeable and not laws[1].table.flags.writeable
    assert law_key(laws[0]) == law_key(worked_law())
