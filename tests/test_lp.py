import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import onoffpir.lp as lp_mod
import reference_lp
from helpers import random_law, run_fresh_python, worked_law, workload_table
from onoffpir.bounds import (inner_bound_first_off_step, outer_bound_2,
                             restricted_lp_singleton_optimum)
from onoffpir.lp import (IterationLimitError, LpProblem, build_lp, build_lps,
                         solve, solve_batch)
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
    # masks {0}, {1}, {0, 1}, then a slack for each of {0} and {1}
    assert problem.columns == (0b01, 0b10, 0b11)
    assert problem.eq_matrix.shape == (3, 5)


def test_build_lp_three_state_column_count():
    problem = build_lp(worked_law())
    # seven query masks by size, then six Hall slacks; 2^3 - 1 rows
    assert problem.columns == (0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
    assert problem.eq_matrix.shape == (7, 13)
    assert problem.objective.tolist() == [1, 1, 1, 2, 2, 2, 3] + [0] * 6


def test_build_lp_cap_one_queries():
    problem = build_lp(worked_law(), cardinality_cap=1)
    assert problem.columns == (0b001, 0b010, 0b100, 0b111)
    assert problem.eq_matrix.shape == (7, 10)


def test_build_lp_decodability_is_structural():
    # decodability lives in the Hall rows: row B sums exactly the queries
    # inside B, and its slack, against the least mass any pivot puts on B
    rng = np.random.default_rng(5)
    for law, cap in [(worked_law(), None), (random_law(rng, 4), 1),
                     (random_law(rng, 5, ties=True), 2),
                     (random_law(rng, 5), None)]:
        n = law.n
        problem = build_lp(law, cap)
        masks = problem.columns
        a = np.zeros((2 ** n - 1, len(masks) + 2 ** n - 2))
        b = np.zeros(2 ** n - 1)
        a[0, :len(masks)] = 1.0
        b[0] = 1.0
        for hall in range(1, 2 ** n - 1):
            for j, q in enumerate(masks):
                a[hall, j] = float(q & hall == q)
            a[hall, len(masks) + hall - 1] = 1.0
            b[hall] = min(sum(law.table[u, x] for x in range(n) if hall >> x & 1)
                          for u in range(n))
        assert problem.eq_matrix.tobytes() == a.tobytes()
        assert problem.eq_rhs.tobytes() == b.tobytes()
        assert problem.objective.tolist() == [q.bit_count() for q in masks] + \
            [0] * (2 ** n - 2)
        assert sorted(masks, key=lambda q: (q.bit_count(), q)) == list(masks)


def test_build_lp_guards():
    rng = np.random.default_rng(0)
    big = random_law(rng, 13)
    with pytest.raises(CapacityError):
        build_lp(big)
    with pytest.raises(ValueError):
        build_lp(worked_law(), cardinality_cap=0)


@pytest.mark.parametrize("n,cap,rows,cols", [
    (12, None, 4095, 8189), (12, 1, 4095, 4107), (20, 2, 1048575, 1048785),
    (64, 1, 2 ** 64 - 1, 2 ** 64 + 63)])
def test_build_lp_tableau_guard(n, cap, rows, cols):
    # refused from the sizes alone, before any mask is enumerated
    law = ConditionalLaw(n, np.full((n, n), 1.0 / n))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"{rows} rows x {cols} columns"):
            build_lp(law, cardinality_cap=cap)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_build_lp_tableau_guard_boundary(monkeypatch):
    # the worked law's LP: 7 rows, 7 + 6 columns, so a phase-1 tableau of
    # 8 * 8 * 21 bytes
    monkeypatch.setattr(lp_mod, "TABLEAU_BYTES", 8 * 8 * 21)
    assert build_lp(worked_law()).eq_matrix.shape == (7, 13)
    monkeypatch.setattr(lp_mod, "TABLEAU_BYTES", 8 * 8 * 21 - 1)
    with pytest.raises(CapacityError):
        build_lp(worked_law())


def test_dump_text_mentions_legend():
    text = build_lp(step_law(MarkovModel.two_state(0.5, 0.5), 1)).dump_text()
    assert text.startswith("min c.x")
    assert "A x = b" in text
    assert text.endswith("({0}) -> col 0\n({1}) -> col 1\n({0, 1}) -> col 2")


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
    r = sol.x[:len(problem.columns)]
    assert sol.assignment == {q: float(v) for q, v in zip(problem.columns, r) if v > 1e-9}


def test_solve_infeasible_toy():
    problem = LpProblem([1.0], [[1.0], [1.0]], [1.0, 2.0])
    assert solve(problem).status == "infeasible"


def test_lp_problem_rejects_inconsistent_shapes():
    with pytest.raises(ValueError, match="inconsistent LP shapes"):
        LpProblem([1.0], [[1.0, 1.0]], [1.0])


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
    # Hall's condition read backwards: the optimal query law r splits, for
    # every pivot u, into p(q, x | u) with x in q.  Together the splits are
    # a feasible point of the (q, x, u) LP, and its cost under a drawn pivot
    # prior is the optimum.
    rng = np.random.default_rng(66)
    laws = [worked_law()] + [random_law(rng, n, ties=bool(i % 2))
                             for n in (2, 3, 4, 5) for i in range(3)]
    for law in laws:
        n = law.n
        sol = solve(build_lp(law))
        support = list(sol.assignment)
        pairs = [(q, x) for q in support for x in range(n) if q >> x & 1]
        split_rows = np.zeros((len(support) + n, len(pairs)))
        for j, (q, x) in enumerate(pairs):
            split_rows[support.index(q), j] = 1.0
            split_rows[len(support) + x, j] = 1.0
        ref = reference_lp.build_lp(law, prior=rng.dirichlet(np.ones(n)))
        col = {label: j for j, label in enumerate(ref.columns)}
        point = np.zeros(len(ref.columns))
        for u in range(n):
            rhs = [*sol.assignment.values(), *law.table[u]]
            split = solve(LpProblem(np.zeros(len(pairs)), split_rows, rhs))
            assert split.status == "optimal"
            for j, (q, x) in enumerate(pairs):
                point[col[(q, x, u)]] = split.x[j]
        assert np.max(np.abs(ref.eq_matrix @ point - ref.eq_rhs)) < 1e-7
        assert abs(ref.objective @ point - sol.optimum) < 1e-9


# ------------------------------------------------- against the loop reference

def _workload_chain(seed: int, n: int) -> MarkovModel:
    """The benchmark's ``random_chain``: ``workload_table``, uniform pi0."""
    return MarkovModel(n, workload_table(seed, n), np.full(n, 1.0 / n))


def _random_laws():
    rng = np.random.default_rng(56)
    return [(random_law(rng, n, ties=bool(i % 2)), cap)
            for n in (2, 3, 4, 5) for i in range(4) for cap in (None, 1, 2)]


def _per_class_laws():
    # the 88 per-class laws of the horizon-exact workload's LP chain, seed 11
    chain = _workload_chain(11, 4)
    laws = [br.law for view in enumerate_steps(
                chain, PrivacyPattern.from_string("10000"), 4)
            for br in view.branches if br.law is not None]
    assert len(laws) == 88
    return [(law, None) for law in laws]


def _toy_problems():
    toys = [([1.0], [[1.0], [1.0]], [1.0, 2.0]),
            ([-1.0, 0.0], [[1.0, -1.0]], [0.0]),
            ([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])]
    return [LpProblem(*toy) for toy in toys]


@pytest.mark.parametrize("problems", [
    lambda: [reference_lp.build_lp(law, cap) for law, cap in _random_laws()],
    lambda: [reference_lp.build_lp(law, cap) for law, cap in _per_class_laws()],
    _toy_problems], ids=["random-caps", "horizon-classes", "toys"])
def test_matches_loop_reference_bit_for_bit(problems):
    statuses = set()
    for want in problems():
        sol, ref = solve(want), reference_lp.solve(want)
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
    # +0.0 for the bytes to agree.  Both formulations' matrices are solved,
    # the set-function one without its legend (the loop solver labels every
    # column).
    for law, cap in _tied_and_zero_laws():
        hall = build_lp(law, cap)
        for problem in (reference_lp.build_lp(law, cap),
                        LpProblem(hall.objective, hall.eq_matrix, hall.eq_rhs)):
            sol, ref = solve(problem), reference_lp.solve(problem)
            assert sol.status == ref.status == "optimal"
            assert sol.x.tobytes() == ref.x.tobytes()
            assert repr(sol.optimum) == repr(ref.optimum)
            assert repr(sol.assignment) == repr(ref.assignment)


@pytest.mark.parametrize("laws", [_random_laws, _tied_and_zero_laws,
                                  _per_class_laws],
                         ids=["random-caps", "tied-and-zero", "horizon-classes"])
def test_optimum_matches_reference_formulation(laws):
    # the set-function LP and the (q, x, u) LP have the same optimum
    for law, cap in laws():
        got = solve(build_lp(law, cap)).optimum
        want = solve(reference_lp.build_lp(law, cap)).optimum
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("law", [
    lambda: step_law(_workload_chain(11, 6), 1),
    lambda: step_law(_workload_chain(11, 7), 1),
    lambda: step_law(_workload_chain(11, 8), 1),
    lambda: step_law(MarkovModel.symmetric(8, 0.3), 1)],
    ids=["chain-6", "chain-7", "chain-8", "symmetric-8"])
def test_single_lp_matches_loop_reference_past_five_sources(law):
    # a stack of one broadcasts its pivot row over hundreds of pivots; the
    # loop solver gets the set-function LP without its legend
    problem = build_lp(law())
    sol = solve(problem)
    ref = reference_lp.solve(LpProblem(problem.objective, problem.eq_matrix,
                                       problem.eq_rhs))
    assert sol.status == ref.status == "optimal"
    assert sol.x.tobytes() == ref.x.tobytes()
    assert repr(sol.optimum) == repr(ref.optimum)


def test_degenerate_symmetric_six_source_lp_is_fast():
    # symmetric n=6, alpha=0.5: every likelihood ties, which made the
    # (q, x, u) LP take 7079 degenerate pivots; timed in a fresh interpreter,
    # where the first solve pays for every page the tableau touches
    code = ("import time\n"
            "from onoffpir import MarkovModel, build_lp, solve, step_law\n"
            "law = step_law(MarkovModel.symmetric(6, 0.5), 1)\n"
            "t0 = time.perf_counter()\n"
            "sol = solve(build_lp(law))\n"
            "print(sol.status, repr(sol.optimum), time.perf_counter() - t0)\n")
    out = run_fresh_python(code).split()
    assert out[0] == "optimal"
    assert abs(float(out[1]) - 3.0) < 1e-9
    assert float(out[2]) < 2.0


def test_pivot_cap_raises(monkeypatch):
    monkeypatch.setattr(lp_mod, "MAX_PIVOTS", 1)
    with pytest.raises(IterationLimitError):
        solve(build_lp(worked_law()))
    with pytest.raises(IterationLimitError):
        solve_batch(build_lps(_per_class_layers()[1]))


# ------------------------------------------------------- the lock-step batch

def _per_class_layers():
    # the 88 per-class laws of ``_per_class_laws``, as their OFF layers
    chain = _workload_chain(11, 4)
    layers = [[br.law for br in view.branches] for view in enumerate_steps(
                  chain, PrivacyPattern.from_string("10000"), 4) if not view.f_on]
    assert [len(layer) for layer in layers] == [1, 11, 27, 49]
    return layers


def _by_shape(laws):
    """(law, cap) pairs grouped by (n, cap), in first-seen order."""
    groups = {}
    for law, cap in laws:
        groups.setdefault((law.n, cap), []).append(law)
    return list(groups.items())


def _mixed_stack():
    """Equal-shaped 3 x 3 problems: optimal, with a negative rhs, infeasible,
    unbounded, and two with redundant rows (one all zero)."""
    rows = [
        ([1.0, 2.0, 0.0], [[1, 1, 0], [1, -1, 0], [0, 0, 1]], [1.0, 0.0, 0.5]),
        ([1.0, 1.0, 3.0], [[-1, -1, 0], [1, 0, -1], [0, 1, 1]], [-1.0, 0.25, 0.75]),
        ([1.0, 0.0, 0.0], [[1, 1, 0], [1, 1, 0], [0, 0, 1]], [1.0, 2.0, 1.0]),
        ([-1.0, 0.0, 0.0], [[1, -1, 0], [0, 0, 1], [0, 0, 1]], [0.0, 1.0, 1.0]),
        ([1.0, 2.0, 1.0], [[1, 1, 0], [1, 1, 0], [0, 1, 1]], [1.0, 1.0, 1.0]),
        ([2.0, 1.0, 0.0], [[1, 1, 1], [0, 0, 0], [1, 0, 0]], [1.0, 0.0, 0.25]),
    ]
    return [LpProblem(*row) for row in rows]


def _assert_batch_matches_reference(problems):
    """Each solution of the stack equals the loop solver's on its problem.
    The loop solver labels every column, so a set-function problem goes to
    it without its legend, and its assignment is read off its ``x``."""
    statuses = []
    for sol, problem in zip(solve_batch(problems), problems, strict=True):
        columns = problem.columns
        if columns is None or len(columns) == problem.eq_matrix.shape[1]:
            ref = reference_lp.solve(problem)
            assignment = ref.assignment
        else:
            ref = reference_lp.solve(LpProblem(problem.objective, problem.eq_matrix,
                                               problem.eq_rhs))
            assignment = {q: float(v) for q, v in zip(columns, ref.x) if v > 1e-9}
        assert sol.status == ref.status
        assert (sol.x is None and ref.x is None) or sol.x.tobytes() == ref.x.tobytes()
        assert repr(sol.optimum) == repr(ref.optimum)
        assert repr(sol.assignment) == repr(assignment)
        statuses.append(sol.status)
    return statuses


def test_solve_batch_per_class_layers_match_reference():
    layers = _per_class_layers()
    for layer in layers:
        assert _assert_batch_matches_reference(build_lps(layer)) == ["optimal"] * len(layer)
    everything = [law for layer in layers for law in layer]
    assert _assert_batch_matches_reference(build_lps(everything)) == ["optimal"] * 88


@pytest.mark.parametrize("laws", [_random_laws, _tied_and_zero_laws],
                         ids=["random-caps", "tied-and-zero"])
def test_solve_batch_grouped_laws_match_reference(laws):
    for (n, cap), group in _by_shape(laws()):
        _assert_batch_matches_reference(build_lps(group, cap))
        if n <= 4:
            _assert_batch_matches_reference(
                [reference_lp.build_lp(law, cap) for law in group])


def test_solve_batch_mixed_statuses_match_reference():
    statuses = _assert_batch_matches_reference(_mixed_stack())
    assert statuses == ["optimal", "optimal", "infeasible", "unbounded",
                        "optimal", "optimal"]
    # each problem alone gets what it gets in the stack
    for problem, sol in zip(_mixed_stack(), solve_batch(_mixed_stack())):
        alone = solve(problem)
        assert alone.status == sol.status and repr(alone.optimum) == repr(sol.optimum)


@pytest.mark.parametrize("budget", [1, 2 * 8 * 4 * 7])
def test_solve_batch_chunks_by_stack_bytes(monkeypatch, budget):
    # a budget of less than one or of two 3 x 3 phase-1 tableaus (4 x 7
    # cells) splits the stack into chunks; the solutions are those of the
    # whole stack
    whole = solve_batch(_mixed_stack())
    monkeypatch.setattr(lp_mod, "STACK_BYTES", budget)
    for sol, want in zip(solve_batch(_mixed_stack()), whole, strict=True):
        assert sol.status == want.status and repr(sol.optimum) == repr(want.optimum)


def test_solve_batch_edges():
    assert solve_batch([]) == []
    assert build_lps([]) == []
    with pytest.raises(ValueError, match="one shape"):
        solve_batch([build_lp(worked_law()), LpProblem([1.0], [[1.0]], [1.0])])
    with pytest.raises(ValueError, match="one source count"):
        build_lps([worked_law(), step_law(MarkovModel.two_state(0.2, 0.2), 1)])


@pytest.mark.parametrize("stack,rows", [([1], [2]), ([0, 2], [2, 4])], ids=["one", "two"])
def test_pivot_leaves_the_same_bytes_on_any_layout(stack, rows):
    # a column-major stack of three tableaus cannot be reshaped to rows
    # without a copy; the pivot (on the diagonal) must still land in it
    rng = np.random.default_rng(91)
    tab = rng.random((3, 6, 8)) * (rng.random((3, 6, 8)) < 0.7) + np.eye(6, 8)
    stack, rows = np.array(stack), np.array(rows)
    pivoted = []
    for order in "CF":
        t = np.array(tab, order=order)
        lp_mod._pivot(t, stack, rows, t[stack, :, rows])
        pivoted.append(t.tobytes())
    assert pivoted[0] == pivoted[1] != tab.tobytes()


def test_phase_two_tableaus_are_row_major(monkeypatch):
    layouts = []
    run_simplex = lp_mod._run_simplex

    def record(tab, basis):
        layouts.append(tab.flags.c_contiguous)
        return run_simplex(tab, basis)

    monkeypatch.setattr(lp_mod, "_run_simplex", record)
    solve(build_lp(worked_law()))
    solve_batch(build_lps(_per_class_layers()[2]))
    assert layouts == [True] * 4


def test_build_lps_shares_the_matrix_and_matches_one_law_builds():
    layer = _per_class_layers()[2]
    problems = build_lps(layer)
    assert all(p.eq_matrix is problems[0].eq_matrix for p in problems)
    assert all(p.objective is problems[0].objective for p in problems)
    for law, problem in zip(layer, problems, strict=True):
        alone = build_lp(law)
        for name in ("objective", "eq_matrix", "eq_rhs"):
            assert getattr(problem, name).tobytes() == getattr(alone, name).tobytes()
        assert problem.columns == alone.columns


# ------------------------------------------------------------ input checks

@pytest.mark.parametrize("objective,matrix,rhs", [
    ([1.0, 1.0], [[np.nan, 1.0]], [1.0]),
    ([1.0, np.inf], [[1.0, 1.0]], [1.0]),
    ([1.0, 1.0], [[1.0, 1.0]], [np.nan]),
    ([1.0, 1.0], [[1.0, 1.0]], [-np.inf]),
    ([np.nan], [[1.0]], [1.0])])
def test_lp_problem_rejects_non_finite_entries(objective, matrix, rhs):
    with pytest.raises(ValueError, match="finite"):
        LpProblem(objective, matrix, rhs)


@pytest.mark.parametrize("objective,matrix,rhs", [
    ([], np.zeros((1, 0)), [1.0]), ([1.0], np.zeros((0, 1)), []),
    ([], np.zeros((0, 0)), [])])
def test_lp_problem_rejects_empty_problems(objective, matrix, rhs):
    with pytest.raises(ValueError):
        LpProblem(objective, matrix, rhs)


def test_residual_check_fails_closed():
    # a NaN that reaches the solver past the constructor (here written into
    # the matrix afterwards) must not come back optimal: NaN > tol is False
    problem = LpProblem([1.0, 1.0], [[1.0, 1.0]], [1.0])
    problem.eq_matrix.setflags(write=True)
    problem.eq_matrix[0, 0] = np.nan
    with pytest.raises(AssertionError):
        solve(problem)


def test_build_lp_cap_is_a_whole_number():
    law = step_law(MarkovModel.symmetric(4, 0.3), 1)
    assert build_lp(law, 4.0).columns == build_lp(law, 4).columns
    assert build_lp(law, np.int64(2)).columns == build_lp(law, 2).columns
    for cap in (2.5, "2", True, 0, [2]):
        with pytest.raises(ValueError, match="cardinality cap"):
            build_lp(law, cap)
        with pytest.raises(ValueError, match="cardinality cap"):
            build_lps([law], cap)


def test_build_lp_reads_a_cap_near_two_to_the_62_exactly():
    """A cap just below 2**62 is in range and caps nothing; 2**62 is not."""
    law = step_law(MarkovModel.symmetric(4, 0.3), 1)
    capped, free = build_lp(law, 2**62 - 1), build_lp(law)
    assert capped.columns == free.columns
    for name in ("objective", "eq_matrix", "eq_rhs"):
        assert getattr(capped, name).tobytes() == getattr(free, name).tobytes()
    for cap in (2**62, np.uint64(2**62)):
        with pytest.raises(ValueError, match="cardinality cap"):
            build_lp(law, cap)


def _oracle_laws():
    rng = np.random.default_rng(34)
    return [random_law(rng, n, ties=bool(i % 2))
            for n, count in ((3, 30), (4, 30), (5, 20), (6, 12), (7, 8))
            for i in range(count)]


@pytest.mark.parametrize("laws, stacked", [
    (_oracle_laws, False), (lambda: [law for law, _ in _per_class_laws()], True)],
    ids=["random-and-tied", "horizon-classes"])
def test_optimum_matches_highs_and_the_closed_form_bracket(laws, stacked):
    # an independent solver, scipy's HiGHS, on the same matrices, and the
    # history-free bracket outer_bound_2 <= optimum <= the built scheme's
    # cost; the horizon's per-class laws are solved as one stack
    from scipy.optimize import linprog
    laws = laws()
    problems = build_lps(laws) if stacked else [build_lp(law) for law in laws]
    solutions = solve_batch(problems) if stacked else [solve(p) for p in problems]
    for law, problem, sol in zip(laws, problems, solutions, strict=True):
        highs = linprog(problem.objective, A_eq=problem.eq_matrix,
                        b_eq=problem.eq_rhs, bounds=(0, None), method="highs")
        assert sol.status == "optimal" and highs.status == 0
        assert abs(sol.optimum - highs.fun) <= 1e-9, (law.table, sol.optimum, highs.fun)
        outer = outer_bound_2(law).inverse_rate
        inner = inner_bound_first_off_step(law).inverse_rate
        assert outer - 1e-9 <= sol.optimum <= inner + 1e-9
