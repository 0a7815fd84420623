import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import onoffpir.bounds as bounds_mod
import onoffpir.sim as sim_mod
from helpers import random_law, workload_table, worked_law
from onoffpir.bounds import (bounds_over_horizon, exact_rate_n2, grid_csv,
                             horizon_csv, inner_bound_first_off_step,
                             outer_bound_2, restricted_lp_singleton_optimum,
                             symmetric_bound_grid, two_source_rate_grid)
from onoffpir.lp import build_lp, solve
from onoffpir.model import (CapacityError, ConditionalLaw, MarkovModel,
                            PrivacyPattern, order_stats, step_law)
from onoffpir.sim import enumerate_steps


# ------------------------------------------------------------------- outer 2

def test_outer2_worked_example():
    assert abs(outer_bound_2(worked_law()).inverse_rate - 1.6) < 1e-12


def test_outer2_identity_forces_everything():
    for n in (2, 3, 5):
        assert outer_bound_2(ConditionalLaw(n, np.eye(n))).inverse_rate == n


def test_outer2_uniform_law_needs_one_message():
    uniform = ConditionalLaw(3, np.full((3, 3), 1 / 3))
    assert abs(outer_bound_2(uniform).inverse_rate - 1.0) < 1e-12


def test_outer2_two_state_closed_form_vs_matrix_power():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, b = rng.random(), rng.random()
        k = int(rng.integers(1, 12))
        m = MarkovModel.two_state(a, b)
        # independent route: explicit matrix power, column maxima
        direct = float(np.linalg.matrix_power(m.p, k).max(axis=0).sum())
        assert abs(outer_bound_2(step_law(m, k)).inverse_rate - direct) < 1e-9
        assert abs(direct - (1 + abs(1 - a - b) ** k)) < 1e-9


def test_outer2_shrinks_with_mixing():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        t = random_law(rng, n).table
        sym = (t + t.T) / 2
        sym /= sym.sum(axis=1, keepdims=True)
        m = MarkovModel(n, sym, np.full(n, 1 / n))
        vals = [outer_bound_2(step_law(m, k)).inverse_rate for k in range(1, 9)]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))
        assert vals[-1] >= 1 - 1e-9


# --------------------------------------------------------------------- inner

def test_inner_worked_example():
    assert abs(inner_bound_first_off_step(worked_law()).inverse_rate - 1.6) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 6])
def test_inner_symmetric_chain_both_regimes(n):
    for alpha in np.linspace(0.0, 1.0, 21):
        law = step_law(MarkovModel.symmetric(n, alpha), 1)
        inner = inner_bound_first_off_step(law).inverse_rate
        expected = n * alpha if alpha >= 1 / n else 2 - n * alpha
        assert abs(inner - expected) < 1e-9


# ------------------------------------------------------------------ exact N=2

def test_exact_n2_fig_points():
    assert abs(exact_rate_n2(0.1, 0.1, 1).rate - 0.555555555555556) < 1e-9
    assert abs(exact_rate_n2(0.2, 0.2, 2).rate - 0.735294117647059) < 1e-9
    assert abs(exact_rate_n2(0.35, 0.35, 1).rate - 0.769230769230769) < 1e-9
    assert exact_rate_n2(0.5, 0.5, 3).rate == 1.0
    assert exact_rate_n2(0.2, 0.2, 0).inverse_rate == 2.0


def test_exact_n2_rejects_negative_gap():
    # and any gap that is not one whole number
    for gap in (-1, 1.5, True, "2", [1], float("nan")):
        with pytest.raises(ValueError, match="gap"):
            exact_rate_n2(0.2, 0.2, gap)
    assert exact_rate_n2(0.2, 0.2, 2.0) == exact_rate_n2(0.2, 0.2, np.int64(2))


@pytest.mark.parametrize("alpha, beta", [(1.5, 1.5), (0.2, -0.1),
                                         (float("nan"), 0.2), (0.2, float("nan"))])
def test_exact_n2_rejects_probabilities_outside_unit_interval(alpha, beta):
    with pytest.raises(ValueError):
        exact_rate_n2(alpha, beta, 1)


def test_rate_grid_rejects_negative_max_gap():
    # and any max_gap that is not one whole number
    for max_gap in (-1, 1.5, True, "2", [1]):
        with pytest.raises(ValueError, match="max_gap"):
            two_source_rate_grid([0.4], max_gap)
    assert two_source_rate_grid([0.4], 2.0) == two_source_rate_grid([0.4], 2)


def test_rate_grid_capacity_guard():
    # one tuple per (sum, gap): checked before the first is made
    with pytest.raises(CapacityError, match="grid rows"):
        two_source_rate_grid([0.5], 10 ** 8)
    with pytest.raises(CapacityError):
        two_source_rate_grid([0.2, 0.4], bounds_mod.GRID_ROWS // 2)


def test_horizon_rejects_negative_horizon():
    m = MarkovModel.two_state(0.2, 0.2)
    with pytest.raises(ValueError):
        bounds_over_horizon(m, PrivacyPattern.from_string("100"), -1)


@given(st.floats(0, 1), st.floats(0, 1), st.integers(0, 30))
def test_exact_n2_reflection_symmetry(alpha, beta, gap):
    lhs = exact_rate_n2(alpha, beta, gap).inverse_rate
    rhs = exact_rate_n2(1 - beta, 1 - alpha, gap).inverse_rate
    assert abs(lhs - rhs) < 1e-12


def test_exact_n2_monotone_in_gap_when_ergodic():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = rng.random(), rng.random()
        if abs(1 - a - b) >= 1 - 1e-9:
            continue
        vals = [exact_rate_n2(a, b, g).inverse_rate for g in range(0, 12)]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


# ------------------------------------------------------------ cap-1 closed form

def test_singleton_optimum_worked_example():
    stats = order_stats(worked_law())
    assert abs(restricted_lp_singleton_optimum(stats).inverse_rate - 2.0) < 1e-12


def test_singleton_optimum_extremes():
    n = 4
    one = order_stats(ConditionalLaw(n, np.tile(np.full(n, 1 / n), (n, 1))))
    assert abs(restricted_lp_singleton_optimum(one).inverse_rate - 1.0) < 1e-12
    zero = order_stats(ConditionalLaw(n, np.eye(n)))
    assert abs(restricted_lp_singleton_optimum(zero).inverse_rate - n) < 1e-12


# ------------------------------------------------------------------- horizon

def test_horizon_two_state_first_step_tight():
    m = MarkovModel.two_state(0.2, 0.2)
    rows = bounds_over_horizon(m, PrivacyPattern.from_string("10"), 1)
    assert rows[1].outer1 == pytest.approx(1.6, abs=1e-12)
    assert rows[1].inner == pytest.approx(1.6, abs=1e-12)


def test_horizon_second_off_step_value():
    m = MarkovModel.two_state(0.2, 0.2)
    rows = bounds_over_horizon(m, PrivacyPattern.from_string("100"), 2)
    assert rows[2].outer1 == pytest.approx(1 + 0.6 ** 2, abs=1e-9)
    assert rows[2].inner == pytest.approx(1.36, abs=1e-9)


def test_horizon_on_steps_pin_full_download():
    m = MarkovModel(3, worked_law().table, [0.3, 0.3, 0.4])
    rows = bounds_over_horizon(m, PrivacyPattern.from_string("1010"), 3)
    for r in rows:
        if r.f_on:
            assert r.outer1 == 3.0 and r.inner == 3.0 and r.outer2 == 3.0


def test_horizon_two_state_tight_at_every_step():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b = rng.random(), rng.random()
        m = MarkovModel.two_state(a, b)
        rows = bounds_over_horizon(m, PrivacyPattern.from_string("100100"), 5)
        for r in rows:
            assert abs(r.outer1 - r.inner) < 1e-9
            assert abs(r.outer1 - r.exact_n2) < 1e-9


def test_horizon_ordering_with_lp():
    rng = np.random.default_rng(10)
    for _ in range(5):
        m = MarkovModel(3, random_law(rng, 3).table, np.full(3, 1 / 3))
        rows = bounds_over_horizon(m, PrivacyPattern.from_string("100"), 2,
                                   with_lp=True)
        for r in rows:
            assert r.outer2 <= r.outer1 + 1e-9
            assert r.outer1 <= r.lp_opt + 1e-6
            assert r.lp_opt <= r.inner + 1e-6
            stats = order_stats(step_law(m, max(r.t, 1)))
            if not r.f_on and r.t == 1:
                cap1 = restricted_lp_singleton_optimum(stats).inverse_rate
                assert r.inner <= cap1 + 1e-9


def test_horizon_rows_hold_python_floats():
    model = MarkovModel(3, worked_law().table, np.full(3, 1.0 / 3))
    rows = bounds_over_horizon(model, PrivacyPattern.from_string("10010"), 4,
                               with_lp=True)
    for row in rows:
        for name in ("outer2", "outer1", "inner", "lp_opt", "mi"):
            assert type(getattr(row, name)) is float, (row.t, name)


def test_horizon_values_pinned_bit_for_bit():
    # the benchmark's 6-state chain along 10000: 26, 118 and 367 beliefs at
    # t = 2, 3, 4; the digest was taken when each law's scheme was built alone
    chain = MarkovModel(6, workload_table(11, 6), np.full(6, 1 / 6))
    rows = bounds_over_horizon(chain, PrivacyPattern.from_string("10000"), 4)
    values = [(r.t, r.f_on, r.outer2.hex(), r.outer1.hex(), r.inner.hex(), r.mi.hex())
              for r in rows]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "baf98188812ab7acdbe3167b26e558790dd46312bcde37cb4695004774c8ae51")


def test_horizon_lp_column_is_the_per_belief_solves():
    # each OFF layer is solved in one lock-step batch; its lp_opt equals the
    # probability-weighted optima of the beliefs solved one at a time
    chain = MarkovModel(4, workload_table(11, 4), np.full(4, 1 / 4))
    pattern = PrivacyPattern.from_string("10000")
    rows = bounds_over_horizon(chain, pattern, 4, with_lp=True)
    for row, view in zip(rows, enumerate_steps(chain, pattern, 4), strict=True):
        if view.f_on:
            assert row.lp_opt == 4.0
            continue
        want = 0.0
        for br in view.branches:
            want += br.prob * solve(build_lp(br.law)).optimum
        assert row.lp_opt.hex() == float(want).hex()


def test_horizon_capacity_guard(monkeypatch):
    m = MarkovModel(3, worked_law().table, np.full(3, 1 / 3))
    monkeypatch.setattr(sim_mod, "MAX_BELIEFS", 2)
    with pytest.raises(CapacityError):
        bounds_over_horizon(m, PrivacyPattern.from_string("10000"), 4)


def test_horizon_rejects_short_pattern():
    m = MarkovModel.two_state(0.2, 0.2)
    with pytest.raises(ValueError):
        bounds_over_horizon(m, PrivacyPattern.from_string("10"), 5)


def test_horizon_csv_shape():
    m = MarkovModel.two_state(0.3, 0.4)
    rows = bounds_over_horizon(m, PrivacyPattern.from_string("100"), 2)
    text = horizon_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "t,F,outer2,outer1,inner,exact_n2"
    assert len(lines) == 4


# --------------------------------------------------------------------- grids

def test_two_source_grid_rates():
    rows = two_source_rate_grid([0.7], max_gap=2)
    assert rows[0] == (0.7, 0, 0.5)
    assert rows[1][2] == pytest.approx(0.769230769230769, abs=1e-12)
    assert rows[2][2] == pytest.approx(0.91743119266055, abs=1e-9)


def test_symmetric_grid_crossover():
    rows = symmetric_bound_grid(3, [0.0, 1 / 3, 0.5, 1.0])
    alpha0 = rows[0]
    assert alpha0[1] == pytest.approx(0.5, abs=1e-12)          # inner rate
    assert alpha0[2] == pytest.approx(2 / 3, abs=1e-12)        # outer rate
    crossover = rows[1]
    assert crossover[1] == pytest.approx(1.0, abs=1e-9)
    assert crossover[2] == pytest.approx(1.0, abs=1e-9)
    high = rows[2]
    assert high[1] == pytest.approx(1 / 1.5, abs=1e-12)
    assert high[1] == high[2]


def test_grid_csv_formatting():
    text = grid_csv([(0.5, 1, 0.625)], ["a", "g", "r"])
    assert text == "a,g,r\n0.5,1,0.625\n"
