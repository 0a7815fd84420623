import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import onoffpir.lp as lp_mod
import reference_lp
from helpers import random_law, worked_law
from onoffpir.bounds import restricted_lp_singleton_optimum
from onoffpir.lp import IterationLimitError, LpProblem, build_lp, solve
from onoffpir.model import (CapacityError, ConditionalLaw, MarkovModel,
                            PrivacyPattern, order_stats, step_law)
from onoffpir.sim import enumerate_steps


def brute_force_optimum(problem, tol=1e-9):
    """Independent oracle: enumerate every basic solution of the equality
    system and keep the feasible one with the best objective."""
    a, b, c = problem.eq_matrix, problem.eq_rhs, problem.objective
    rank = np.linalg.matrix_rank(a, tol=1e-10)
    best = None
    for cols in combinations(range(a.shape[1]), rank):
        sub = a[:, cols]
        if np.linalg.matrix_rank(sub, tol=1e-10) < rank:
            continue
        x_b, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.max(np.abs(sub @ x_b - b)) > 1e-8:
            continue
        if np.any(x_b < -tol):
            continue
        val = float(np.asarray(c)[list(cols)] @ x_b)
        if best is None or val < best:
            best = val
    return best


# ------------------------------------------------------------------ building

def test_build_lp_two_state_column_count():
    law = step_law(MarkovModel.two_state(0.2, 0.2), 1)
    problem = build_lp(law)
    assert len(problem.columns) == 8  # 2 pivots x (1 + 1 + 2) request slots


def test_build_lp_three_state_column_count():
    problem = build_lp(worked_law())
    # sum over subsets of |q| = 12, times three pivot values
    assert len(problem.columns) == 36


def test_build_lp_cap_one_queries():
    problem = build_lp(worked_law(), cardinality_cap=1)
    sizes = sorted({q.bit_count() for q, _x, _u in problem.columns})
    assert sizes == [1, 3]
    singles = {q for q, _x, _u in problem.columns if q.bit_count() == 1}
    assert singles == {0b001, 0b010, 0b100}


def test_build_lp_decodability_is_structural():
    problem = build_lp(worked_law())
    assert all(q >> x & 1 for q, x, _u in problem.columns)


def test_build_lp_guards():
    rng = np.random.default_rng(0)
    big = random_law(rng, 13)
    with pytest.raises(CapacityError):
        build_lp(big)
    with pytest.raises(ValueError):
        build_lp(worked_law(), cardinality_cap=0)
    with pytest.raises(ValueError):
        build_lp(worked_law(), prior=[1.0, 0.0, 0.0])


@pytest.mark.parametrize("n,cap,rows,cols", [
    (9, None, 4169, 20736), (10, None, 9307, 51200), (20, 2, 4409, 8400),
    (64, 1, 8191, 8192)])
def test_build_lp_tableau_guard(n, cap, rows, cols):
    # refused from the sizes alone, before any column is enumerated
    law = ConditionalLaw(n, np.full((n, n), 1.0 / n))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"{rows} rows x {cols} columns"):
            build_lp(law, cardinality_cap=cap)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_build_lp_tableau_guard_boundary(monkeypatch):
    # the worked law's LP: 9 + 7 * 2 rows, 36 columns, so a phase-1
    # tableau of 8 * 24 * 60 bytes
    monkeypatch.setattr(lp_mod, "TABLEAU_BYTES", 8 * 24 * 60)
    assert build_lp(worked_law()).eq_matrix.shape == (23, 36)
    monkeypatch.setattr(lp_mod, "TABLEAU_BYTES", 8 * 24 * 60 - 1)
    with pytest.raises(CapacityError):
        build_lp(worked_law())


def test_dump_text_mentions_legend():
    text = build_lp(step_law(MarkovModel.two_state(0.5, 0.5), 1)).dump_text()
    assert text.startswith("min c.x")
    assert "A x = b" in text and "-> col 0" in text


# ------------------------------------------------------------------- solving

def test_solve_two_state_example():
    law = step_law(MarkovModel.two_state(0.2, 0.2), 1)
    sol = solve(build_lp(law))
    assert sol.status == "optimal"
    assert abs(sol.optimum - 1.6) < 1e-7


def test_solve_worked_example_matches_bounds():
    sol = solve(build_lp(worked_law()))
    assert sol.status == "optimal"
    assert abs(sol.optimum - 1.6) < 1e-7


def test_solve_symmetric_three_state_bracket():
    law = step_law(MarkovModel.symmetric(3, 0.1), 1)
    sol = solve(build_lp(law))
    assert 1.35 - 1e-7 <= sol.optimum <= 1.7 + 1e-7


def test_solution_satisfies_constraints():
    law = worked_law()
    problem = build_lp(law)
    sol = solve(problem)
    assert np.max(np.abs(problem.eq_matrix @ sol.x - problem.eq_rhs)) < 1e-7
    assert np.all(sol.x >= -1e-9)
    assert abs(problem.objective @ sol.x - sol.optimum) < 1e-7
    assert all(v > 0 for v in sol.assignment.values())


def test_solve_infeasible_toy():
    problem = LpProblem([1.0], [[1.0], [1.0]], [1.0, 2.0])
    assert solve(problem).status == "infeasible"


def test_solve_unbounded_toy():
    # x1 - x2 free to drift: minimize -x1 with x1 - x2 = 0
    problem = LpProblem([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    assert solve(problem).status == "unbounded"


def test_solve_redundant_rows():
    # duplicated constraint row must not break phase 2
    problem = LpProblem([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
    sol = solve(problem)
    assert sol.status == "optimal" and abs(sol.optimum - 1.0) < 1e-9


def test_two_state_tightness_random():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a, b = rng.random(), rng.random()
        law = step_law(MarkovModel.two_state(a, b), 1)
        sol = solve(build_lp(law))
        assert abs(sol.optimum - (1 + abs(1 - a - b))) < 1e-6


def test_three_state_sandwich_random():
    rng = np.random.default_rng(16)
    for _ in range(100):
        law = random_law(rng, 3)
        stats = order_stats(law)
        sol = solve(build_lp(law))
        lower = float(law.table.max(axis=0).sum())
        upper = float(np.arange(1, 4) @ stats.thetas)
        assert lower - 1e-6 <= sol.optimum <= upper + 1e-6


def test_cap_one_matches_closed_form():
    rng = np.random.default_rng(26)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        law = random_law(rng, n)
        stats = order_stats(law)
        sol = solve(build_lp(law, cardinality_cap=1))
        closed = restricted_lp_singleton_optimum(stats).inverse_rate
        assert abs(sol.optimum - closed) < 1e-6


def test_restricted_optimum_monotone_in_cap():
    rng = np.random.default_rng(36)
    for _ in range(10):
        law = random_law(rng, 4)
        full = solve(build_lp(law)).optimum
        prev = np.inf
        for cap in (1, 2, 3, 4):
            val = solve(build_lp(law, cardinality_cap=cap)).optimum
            assert val <= prev + 1e-7
            assert val >= full - 1e-7
            prev = val


def test_simplex_matches_brute_force_two_state():
    rng = np.random.default_rng(46)
    for _ in range(25):
        a, b = rng.random(), rng.random()
        problem = build_lp(step_law(MarkovModel.two_state(a, b), 1))
        sol = solve(problem)
        oracle = brute_force_optimum(problem)
        assert oracle is not None
        assert abs(sol.optimum - oracle) < 1e-8


def test_prior_does_not_move_the_optimum():
    law = worked_law()
    base = solve(build_lp(law)).optimum
    skew = solve(build_lp(law, prior=[0.6, 0.3, 0.1])).optimum
    assert abs(base - skew) < 1e-7


# ------------------------------------------------- against the loop reference

def _workload_chain(seed: int, n: int) -> MarkovModel:
    """The benchmark's ``random_chain``: a fixed base table per size,
    jittered entrywise by +-1% from the seed, uniform pi0."""
    base = np.random.default_rng([25, n]).uniform(0.5, 1.5, (n, n))
    jitter = np.random.default_rng([seed, n]).uniform(0.99, 1.01, (n, n))
    table = base * jitter
    return MarkovModel(n, table / table.sum(axis=1, keepdims=True),
                       np.full(n, 1.0 / n))


def _random_problems():
    rng = np.random.default_rng(56)
    laws = [(random_law(rng, n, ties=bool(i % 2)), cap)
            for n in (2, 3, 4, 5) for i in range(4) for cap in (None, 1, 2)]
    return [(build_lp(law, cap), reference_lp.build_lp(law, cap))
            for law, cap in laws]


def _per_class_problems():
    # the 88 per-class laws of the horizon-exact workload's LP chain, seed 11
    chain = _workload_chain(11, 4)
    laws = [br.law for view in enumerate_steps(
                chain, PrivacyPattern.from_string("10000"), 4)
            for br in view.branches if br.law is not None]
    assert len(laws) == 88
    return [(build_lp(law), reference_lp.build_lp(law)) for law in laws]


def _toy_problems():
    toys = [([1.0], [[1.0], [1.0]], [1.0, 2.0]),
            ([-1.0, 0.0], [[1.0, -1.0]], [0.0]),
            ([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])]
    return [(LpProblem(*toy), LpProblem(*toy)) for toy in toys]


@pytest.mark.parametrize("problems", [_random_problems, _per_class_problems,
                                      _toy_problems],
                         ids=["random-caps", "horizon-classes", "toys"])
def test_matches_loop_reference_bit_for_bit(problems):
    statuses = set()
    for got, want in problems():
        for name in ("objective", "eq_matrix", "eq_rhs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
        assert got.columns == want.columns
        sol, ref = solve(got), reference_lp.solve(want)
        statuses.add(sol.status)
        assert sol.status == ref.status
        assert (sol.x is None and ref.x is None) or sol.x.tobytes() == ref.x.tobytes()
        assert repr(sol.optimum) == repr(ref.optimum)
        assert repr(sol.assignment) == repr(ref.assignment)
    assert statuses == ({"optimal", "infeasible", "unbounded"}
                        if problems is _toy_problems else {"optimal"})


def _tied_and_zero_laws():
    """Laws rounded to quarters and laws with exact zero cells (column 0
    kept positive), n = 3..5 under caps none/1/2.  Their degenerate pivots
    leave signed zeros in the tableau, which ``random_law`` never does."""
    rng = np.random.default_rng(76)
    laws = []
    for n, count in ((3, 60), (4, 36), (5, 6)):
        for i in range(count):
            if i % 2:
                t = np.round(rng.random((n, n)) * 4.0) / 4.0
            else:
                t = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            t[:, 0] = np.maximum(t[:, 0], 0.25)
            laws.append((ConditionalLaw(n, t / t.sum(axis=1, keepdims=True)),
                         (None, 1, 2)[i % 3]))
    return laws


def test_matches_loop_reference_on_tied_and_zero_laws():
    # the row-restricted pivot skips ``x - 0 * v`` and so can leave -0.0
    # where the dense update left +0.0; solve must map every zero of x to
    # +0.0 for the bytes to agree
    for law, cap in _tied_and_zero_laws():
        problem = build_lp(law, cap)
        sol, ref = solve(problem), reference_lp.solve(problem)
        assert sol.status == ref.status == "optimal"
        assert sol.x.tobytes() == ref.x.tobytes()
        assert repr(sol.optimum) == repr(ref.optimum)
        assert repr(sol.assignment) == repr(ref.assignment)


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(lp_mod, "MAX_PIVOTS", 1)
    with pytest.raises(IterationLimitError):
        solve(build_lp(worked_law()))
