from itertools import combinations

import numpy as np
import pytest

from helpers import random_law, worked_law
from onoffpir.bounds import restricted_lp_singleton_optimum
from onoffpir.lp import LpProblem, build_lp, solve
from onoffpir.model import CapacityError, MarkovModel, order_stats, step_law


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
