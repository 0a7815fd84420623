"""Per-entry references for the wire and output paths of ``onoffpir``.

``to_json``, ``from_json`` and ``from_items`` are the per-entry forms of the
``QueryDistribution`` wire: every entry built as a dict and handed to
``json.dumps``, every count vector checked and interned once per entry.
``trace_csv`` formats one f-string per (episode, step) cell, and
``empirical_privacy_audit`` builds one contingency table per history
stratum in a loop.  ``numbers`` and ``whole_numbers`` are the input rules
they read.  The tests require the package to write identical bytes, read
identical distributions, reject the same inputs, and return identical audits
(the statistic and p-value within 1e-12 relative).
"""

from __future__ import annotations

import io
import json

import numpy as np
from scipy.special import chdtrc

from onoffpir.scheme import QueryDistribution, _assemble
from onoffpir.sim import ChiSquareAudit, SimulationResult


def numbers(values, what: str) -> np.ndarray:
    """``values``, a number or nested lists of numbers, as a float array.

    Only ints and floats pass, Python's or numpy's (numpy's bool is neither):
    ``np.asarray`` would silently turn strings, bytes and booleans into
    numbers, so they raise ValueError like any other type.
    """
    arr = np.asarray(values, dtype=object)
    for kind in set(map(type, arr.ravel().tolist())):
        if issubclass(kind, bool) or not issubclass(
                kind, (int, float, np.integer, np.floating)):
            raise ValueError(f"{what} must be numbers, not {kind.__name__}")
    return arr.astype(float)


def whole_numbers(values, what: str, lo: int, hi: int) -> np.ndarray:
    """``values`` as int64 after checking they are integers in [lo, hi)."""
    arr = numbers(values, what)
    if not np.all((arr == np.floor(arr)) & (arr >= lo) & (arr < hi)):
        raise ValueError(f"{what} must be integers in [{lo}, {hi})")
    return arr.astype(np.int64)


def to_json(self) -> str:
    entries = [{"z": list(z), "x": x, "u": u, "p": p}
               for z, x, u, p in self.entry_tuples()]
    return json.dumps({"n": self.n, "entries": entries})


def from_json(obj) -> "QueryDistribution":
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    try:
        items = [(e["z"], e["x"], e["u"], e["p"]) for e in obj["entries"]]
        n = int(whole_numbers(obj["n"], "n", 0, 1 << 31))
        return from_items(n, items)
    except TypeError as exc:
        raise ValueError(f"malformed query distribution: {exc}") from exc


def from_items(n: int, items) -> "QueryDistribution":
    """Build from (counts, x, u, prob) tuples, merging duplicates and
    dropping sub-threshold mass, in canonical order.

    Raises ValueError unless every count vector holds n nonnegative
    integers summing to at most n, x and u are integers in [0, n), and
    every probability is finite and nonnegative; booleans and strings
    are not numbers here.
    """
    items = list(items)
    zs, xs, us, ps = zip(*items) if items else (np.zeros((0, n)), (), (), ())
    zs = whole_numbers(zs, "counts", 0, n + 1)
    if zs.shape != (len(items), n):
        raise ValueError(f"count vectors must have length n={n}")
    if np.any(zs.sum(axis=1) > n):
        raise ValueError("multiset cardinality cannot exceed the number of sources")
    ps = numbers(ps, "p")
    if not np.all(np.isfinite(ps) & (ps >= 0)):
        raise ValueError("probabilities must be finite and nonnegative")
    return _assemble(n, np.zeros(len(zs), np.int64), zs, np.arange(len(items)),
                     whole_numbers(xs, "x", 0, n), whole_numbers(us, "u", 0, n), ps)[0]


def trace_csv(result) -> str:
    out = io.StringIO()
    out.write("episode,t,F,x,q,len_bits,decode_ok\n")
    horizon = result.q_masks.shape[1] - 1
    sizes = result.cardinalities()
    for ep in range(result.episodes):
        for t in range(horizon + 1):
            out.write(f"{ep},{t},{int(result.pattern.flags[t])},"
                      f"{result.xs[ep, t]},{result.q_masks[ep, t]},"
                      f"{sizes[ep, t] * result.msg_bits},"
                      f"{int(result.oks[ep, t])}\n")
    return out.getvalue()


def empirical_privacy_audit(result: SimulationResult, t: int) -> ChiSquareAudit:
    """Chi-square test for independence of pivot and query at step t.

    Episodes are stratified by their realized query history before t; the
    pooled statistic sums per-stratum Pearson contributions.  Expected cells
    thinner than 5 flag the result unreliable instead of failing.
    """
    masks, taus = result.q_masks, result.x_taus
    if t >= masks.shape[1]:
        raise IndexError(f"step {t} beyond simulated horizon")

    hist = masks[:, :t]
    qt = masks[:, t]
    xt = taus[:, t]
    strata, inverse = (np.unique(hist, axis=0, return_inverse=True)
                       if t > 0 else (np.zeros((1, 0)), np.zeros(len(qt), dtype=int)))
    stat, dof, min_expected = 0.0, 0, np.inf
    for s in range(len(strata)):
        m = inverse == s
        rows, ri = np.unique(xt[m], return_inverse=True)
        cols, ci = np.unique(qt[m], return_inverse=True)
        if len(rows) < 2 or len(cols) < 2:
            continue
        table = np.zeros((len(rows), len(cols)))
        np.add.at(table, (ri, ci), 1.0)
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        min_expected = min(min_expected, float(expected.min()))
        stat += float(((table - expected) ** 2 / expected).sum())
        dof += (len(rows) - 1) * (len(cols) - 1)
    p_value = float(chdtrc(dof, stat)) if dof > 0 else 1.0
    unreliable = dof > 0 and min_expected < 5.0
    return ChiSquareAudit(stat, dof, p_value, len(qt), int(len(strata)), unreliable)
