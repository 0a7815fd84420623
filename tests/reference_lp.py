"""Reference formulation and loop solver for the LP oracle in ``onoffpir.lp``.

``build_lp`` below is the per-pivot form of the one-step LP: a variable
p(q, x | u) for every request x inside every query q and every pivot u, mass
rows per (u, x) and privacy rows per (q, u), built through a ``col_of``
dict.  ``onoffpir.lp.build_lp`` solves the same problem in set-function form,
and the tests require the same optimum from both within 1e-12.  ``_pivot``,
``_run_simplex`` and ``solve`` are the straight-loop forms of the array
solver: Bland's entering scan and the ratio test as Python loops, a dense
rank-1 update, and one pivot budget shared by both phases.  The tests
require ``onoffpir.lp.solve`` to return bit-identical solutions.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from onoffpir.lp import IterationLimitError, LpProblem, LpSolution
from onoffpir.model import EPS, CapacityError, ConditionalLaw

_FEAS_TOL = 1e-7   # constraint satisfaction at optimality
_PIVOT_TOL = 1e-9  # reduced-cost / ratio-test threshold


def _query_sets(n: int, cardinality_cap: int | None):
    """Member tuples of all nonempty subsets, or of sizes {1..cap, n}."""
    sizes = range(1, n + 1) if cardinality_cap is None else \
        sorted(set(range(1, min(cardinality_cap, n) + 1)) | {n})
    return [members for size in sizes for members in combinations(range(n), size)]


def build_lp(law: ConditionalLaw, cardinality_cap: int | None = None,
             prior=None) -> LpProblem:
    """The one-step query-design LP for a given conditional law.

    Variables are p(q, x | u) for x in q (and |q| restricted when a cap is
    given, the full set always allowed so the problem stays feasible).  The
    objective is the expected transmitted-query size under a caller-supplied
    full-support prior over the pivot u (uniform by default); the
    pivot-independence constraints make the optimum prior-free.
    """
    n = law.n
    if cardinality_cap is None:
        if n > 12:
            raise CapacityError(f"full LP limited to n <= 12, got {n}")
    else:
        if cardinality_cap < 1:
            raise ValueError("cardinality cap must be >= 1")
        if n > 20:
            raise CapacityError(f"restricted LP limited to n <= 20, got {n}")
    if prior is None:
        prior = np.full(n, 1.0 / n)
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (n,) or np.any(prior <= 0) or abs(prior.sum() - 1.0) > 1e-9:
        raise ValueError("prior must be a full-support distribution over the pivot")

    queries = _query_sets(n, cardinality_cap)
    columns = []
    col_of = {}
    for qi, members in enumerate(queries):
        mask = sum(1 << i for i in members)
        for x in members:
            for u in range(n):
                col_of[(qi, x, u)] = len(columns)
                columns.append((mask, x, u))
    ncols = len(columns)

    nrows = n * n + len(queries) * (n - 1)
    a = np.zeros((nrows, ncols))
    b = np.zeros(nrows)
    # mass: sum_q p(q, x | u) = law[u, x]
    for u in range(n):
        for x in range(n):
            row = u * n + x
            b[row] = law.table[u, x]
            for qi, members in enumerate(queries):
                if x in members:
                    a[row, col_of[(qi, x, u)]] = 1.0
    # privacy: sum_x p(q, x | u) equal across u (u=0 as reference)
    row = n * n
    for qi, members in enumerate(queries):
        for u in range(1, n):
            for x in members:
                a[row, col_of[(qi, x, u)]] = 1.0
                a[row, col_of[(qi, x, 0)]] -= 1.0
            row += 1

    c = np.array([mask.bit_count() * prior[u] for mask, _x, u in columns])
    return LpProblem(c, a, b, tuple(columns))


def _pivot(tab: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])


def _run_simplex(tab: np.ndarray, basis: list, budget: list) -> str:
    """Bland's rule on a tableau whose last row is reduced costs and last
    column the rhs.  Returns "optimal" or "unbounded"."""
    ncols = tab.shape[1] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if tab[-1, j] < -_PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave, best, best_var = -1, np.inf, np.inf
        for i in range(tab.shape[0] - 1):
            aij = tab[i, enter]
            if aij > _PIVOT_TOL:
                ratio = tab[i, -1] / aij
                if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12
                                            and basis[i] < best_var):
                    leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(tab, leave, enter)
        basis[leave] = enter
        budget[0] -= 1
        if budget[0] <= 0:
            raise IterationLimitError("pivot cap exceeded")


def solve(problem: LpProblem, max_pivots: int = 10 ** 6) -> LpSolution:
    """Two-phase primal simplex with Bland's anti-cycling rule."""
    a = problem.eq_matrix.copy()
    b = problem.eq_rhs.copy()
    c = problem.objective
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    m, ncols = a.shape
    budget = [max_pivots]

    # phase 1: artificial basis, minimize total artificial mass
    tab = np.zeros((m + 1, ncols + m + 1))
    tab[:m, :ncols] = a
    tab[:m, ncols:ncols + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :ncols] = -a.sum(axis=0)
    tab[-1, -1] = -b.sum()
    basis = list(range(ncols, ncols + m))
    if _run_simplex(tab, basis, budget) != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    if -tab[-1, -1] > _FEAS_TOL:
        return LpSolution("infeasible", None, None, None)

    # drive leftover artificials out of the basis; all-zero rows are redundant
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            piv = next((j for j in range(ncols) if abs(tab[i, j]) > _PIVOT_TOL), None)
            if piv is None:
                continue
            _pivot(tab, i, piv)
            basis[i] = piv
        keep.append(i)

    # phase 2 tableau on the original columns
    rows = len(keep)
    tab2 = np.zeros((rows + 1, ncols + 1))
    for r, i in enumerate(keep):
        tab2[r, :ncols] = tab[i, :ncols]
        tab2[r, -1] = tab[i, -1]
    basis2 = [basis[i] for i in keep]
    tab2[-1, :ncols] = c
    for r in range(rows):
        tab2[-1] -= c[basis2[r]] * tab2[r]
    status = _run_simplex(tab2, basis2, budget)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, None)

    x = np.zeros(ncols)
    for r, var in enumerate(basis2):
        x[var] = tab2[r, -1]
    x = np.where(x < 0, 0.0, x)
    residual = problem.eq_matrix @ x - problem.eq_rhs
    if np.max(np.abs(residual)) > _FEAS_TOL:
        raise AssertionError("optimal tableau violates constraints beyond tolerance")
    optimum = float(c @ x)
    assignment = None
    if problem.columns is not None:
        assignment = {problem.columns[j]: float(x[j])
                      for j in range(ncols) if x[j] > EPS}
    return LpSolution("optimal", optimum, x, assignment)
