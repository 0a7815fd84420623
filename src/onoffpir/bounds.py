"""Rate bounds: closed forms and scheme-conditional horizon evaluation.

All bounds are reported as *inverse* rates, i.e. expected downloaded message
lengths per step (1 = just the desired message, N = everything).  The
history-averaged pair (outer1, inner) is evaluated under the history law the
built scheme itself induces, which makes the outer value a checkable
certificate for the scheme rather than an abstract optimum.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import lp as _lp
from .model import (CapacityError, ConditionalLaw, MarkovModel, OrderStats,
                    PrivacyPattern, mutual_information_bits, order_stats,
                    step_law, tau_of, whole_number)
from .sim import enumerate_steps, stacked_einsum

# Most (sum, gap) rows ``two_source_rate_grid`` may return.
GRID_ROWS = 1 << 20


@dataclass(frozen=True)
class RateBound:
    """Expected download per message length, in [1, N]."""

    inverse_rate: float

    @property
    def rate(self) -> float:
        return 1.0 / self.inverse_rate


def outer_bound_2(law: ConditionalLaw) -> RateBound:
    """History-free converse: summed column maxima of the gap law."""
    return RateBound(float(law.table.max(axis=0).sum()))


def inner_bound_first_off_step(law: ConditionalLaw) -> RateBound:
    """Achievable cost of the built scheme on the first OFF step, where the
    query history is the single deterministic full-set class."""
    return RateBound(_inner_costs([order_stats(law)])[0])


def _inner_costs(stats: list) -> list:
    """Each built scheme's expected multiset size, sum_i i * theta_i, one
    dot per law: one matmul over the stack gives other bits."""
    levels = np.arange(1, stats[0].n + 1, dtype=float)
    return [float(levels @ s.thetas) for s in stats]


def exact_rate_n2(alpha: float, beta: float, gap: int) -> RateBound:
    """Optimal inverse rate for two sources at a given gap since the pivot:
    1 + |1 - alpha - beta|**gap (gap 0 forces both messages)."""
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("transition probabilities must lie in [0, 1]")
    gap = whole_number(gap, "gap", 0, 1 << 53)
    return RateBound(1.0 + abs(1.0 - alpha - beta) ** gap)


def restricted_lp_singleton_optimum(stats: OrderStats) -> RateBound:
    """Closed-form optimum when the query is either the single desired source
    or everything: theta_1 + N (1 - theta_1)."""
    th1 = float(stats.thetas[0])
    return RateBound(th1 + stats.n * (1.0 - th1))


@dataclass(frozen=True)
class HorizonRow:
    """Per-step bound evaluations and exact leakage in bits along a pattern."""

    t: int
    f_on: bool
    outer2: float
    outer1: float
    inner: float
    exact_n2: float | None = None
    lp_opt: float | None = None
    mi: float = 0.0


def bounds_over_horizon(model: MarkovModel, pattern: PrivacyPattern,
                        horizon: int, policy: str = "algorithm1",
                        with_lp: bool = False) -> list:
    """Evaluate the history-averaged outer and inner bounds and the exact
    leakage I(pivot; query | history) in bits (``mi``) per step.

    Exact enumeration of realized query-history classes under the chosen
    policy, merged where they reach the same belief; each belief contributes
    its probability times its bounds and its pivot/query mutual information.
    ON steps pin both bounds at N and leak nothing.  ``with_lp`` additionally
    solves the exact query-design LP per belief, all of a step's beliefs in
    one lock-step batch, and averages the optima.
    """
    n = model.n
    alpha = beta = None
    if n == 2:
        alpha, beta = float(model.p[0, 1]), float(model.p[1, 0])
    rows = []
    for view in enumerate_steps(model, pattern, horizon, policy=policy):
        t = view.t
        gap = t - tau_of(pattern, t)
        outer2 = float(n) if gap == 0 else outer_bound_2(step_law(model, gap)).inverse_rate
        exact = None
        if n == 2:
            exact = exact_rate_n2(alpha, beta, gap).inverse_rate
        if view.f_on:
            rows.append(HorizonRow(t, True, outer2, float(n), float(n), exact,
                                   float(n) if with_lp else None))
            continue
        # each branch's bounds and leakage, with the bits it gives alone, in
        # one pass per layer or K group; the sums over branches in branch order
        outer1s = np.array([br.law.table for br in view.branches]).max(axis=1).sum(axis=1)
        inners = _inner_costs([br.stats for br in view.branches])
        leaks = stacked_einsum(view.branches, "bux,bkux->buk", mutual_information_bits)
        outer1 = inner = lp_opt = mi = 0.0
        for br, bound, cost, leak in zip(view.branches, outer1s.tolist(), inners, leaks):
            outer1 += br.prob * bound
            inner += br.prob * cost
            mi += br.prob * leak
        if with_lp:
            sols = _lp.solve_batch(_lp.build_lps([br.law for br in view.branches]))
            for br, sol in zip(view.branches, sols):
                if sol.status != "optimal":
                    raise AssertionError(f"per-class LP came back {sol.status}")
                lp_opt += br.prob * sol.optimum
        rows.append(HorizonRow(t, False, outer2, float(outer1), float(inner),
                               exact, float(lp_opt) if with_lp else None,
                               float(mi)))
    return rows


def horizon_csv(rows) -> str:
    """CSV columns: t, F_t, outer2, outer1, inner, exact_n2?, lp_opt?."""
    with_exact = any(r.exact_n2 is not None for r in rows)
    with_lp = any(r.lp_opt is not None for r in rows)
    out = io.StringIO()
    header = ["t", "F", "outer2", "outer1", "inner"]
    if with_exact:
        header.append("exact_n2")
    if with_lp:
        header.append("lp_opt")
    out.write(",".join(header) + "\n")
    for r in rows:
        cells = [str(r.t), "1" if r.f_on else "0", f"{r.outer2:.12g}",
                 f"{r.outer1:.12g}", f"{r.inner:.12g}"]
        if with_exact:
            cells.append("" if r.exact_n2 is None else f"{r.exact_n2:.12g}")
        if with_lp:
            cells.append("" if r.lp_opt is None else f"{r.lp_opt:.12g}")
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def two_source_rate_grid(sums, max_gap: int = 20) -> list:
    """Optimal two-source rate versus gap for each switching-probability sum.

    Returns (sum, gap, rate) triples; the rate depends on (alpha, beta) only
    through |1 - alpha - beta|, so the sum alone indexes a curve.
    """
    max_gap = whole_number(max_gap, "max_gap", 0, 1 << 53)
    if len(sums) * (max_gap + 1) > GRID_ROWS:
        raise CapacityError(f"{len(sums)} sums x {max_gap + 1} gaps exceed "
                            f"{GRID_ROWS} grid rows")
    return [(float(s), gap, exact_rate_n2(s / 2.0, s / 2.0, gap).rate)
            for s in sums for gap in range(max_gap + 1)]


def symmetric_bound_grid(n: int, alphas) -> list:
    """Inner/outer first-OFF-step rates for the symmetric n-source chain.

    Returns (alpha, inner_rate, outer_rate) triples; the two curves meet for
    alpha >= 1/n where the likelihood ordering flips.
    """
    rows = []
    for a in alphas:
        law = step_law(MarkovModel.symmetric(n, float(a)), 1)
        inner = inner_bound_first_off_step(law)
        outer = outer_bound_2(law)
        rows.append((float(a), inner.rate, outer.rate))
    return rows


def grid_csv(rows, header) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(f"{v:.15g}" if isinstance(v, float) else str(v)
                           for v in row) + "\n")
    return out.getvalue()
