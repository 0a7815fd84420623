"""Per-step query distributions.

Two constructions live here: the general sparse builder that turns any
conditional law into a feasible query distribution meeting the inner bound,
and the closed-form two-source policy.  The transmitted query is a *set* of
sources; the builder works with multisets (whose cardinality law is exactly
the theta increments), held as per-source count rows, and exposes the set
projection for the wire.  Outside a distribution a set of sources is a
Python-int bitmask, bit i standing for source i.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .model import (EPS, ZERO_TOL, ConditionalLaw, OrderStats,
                    check_number_types, load_json, numbers, order_stats,
                    whole_numbers)


class InternalConsistencyError(AssertionError):
    """The builder produced a distribution violating its own guarantees.

    The construction is feasible for every valid law, so this signals an
    implementation bug, never bad input.
    """


class _QueryCounts(NamedTuple):
    """One distinct query of a :class:`QueryDistribution`: its count row."""

    counts: tuple


@dataclass(frozen=True, init=False)
class QueryDistribution:
    """Sparse conditional law p(z, x | u) over multiset queries.

    Stored as parallel arrays over the nonzero support: entry ``e`` carries
    probability ``probs[e]`` on ``(counts[qidx[e]], xs[e], us[e])``, where the
    read-only ``(Q, n)`` matrix ``counts`` holds one count vector per distinct
    query.  Entries are canonically ordered by (cardinality, count vector, x,
    u), so equal inputs produce bit-identical objects.  ``queries`` views the
    rows of ``counts`` as tuples, one ``.counts`` field each.

    Invariants (checked by the builder and audited independently):
      * all stored probabilities are strictly positive,
      * for each u the probabilities sum to one,
      * summing out z recovers the conditional law p(x | u),
      * x is always an element of z (decodability),
      * p(z | u) does not depend on u (privacy),
      * the cardinality law P(|Z| = i) equals the theta increments.
    """

    n: int
    counts: np.ndarray
    qidx: np.ndarray
    xs: np.ndarray
    us: np.ndarray
    probs: np.ndarray

    def __init__(self, n: int, queries, qidx, xs, us, probs):
        """Raises ValueError unless n >= 1, the arrays are parallel, every
        count row holds n nonnegative integers summing to at most n, every
        index is an integer in range, and every probability is finite and
        nonnegative.  As in :meth:`from_items`, booleans, strings and
        fractional values are not integers.  Structural invariants (x in z,
        privacy, ...) are left to the audit."""
        n = _source_count(n)
        rows = [q.counts for q in queries]
        counts = whole_numbers(rows or np.zeros((0, n)), "counts", 0, n + 1)
        if counts.shape != (len(rows), n):
            raise ValueError(f"count vectors must have length n={n}")
        self._freeze(n, counts, whole_numbers(qidx, "query indices", 0, len(rows)),
                     whole_numbers(xs, "x", 0, n), whole_numbers(us, "u", 0, n),
                     numbers(probs, "probabilities"))
        if not len(self.qidx) == len(self.xs) == len(self.us) == len(self.probs):
            raise ValueError("qidx, xs, us and probs must have equal lengths")
        if np.any(self.counts.sum(axis=1) > self.n):
            raise ValueError("counts must sum to at most n per query")
        if not np.all(np.isfinite(self.probs) & (self.probs >= 0)):
            raise ValueError("probabilities must be finite and nonnegative")

    @classmethod
    def _of_counts(cls, n: int, counts, qidx, xs, us, probs) -> "QueryDistribution":
        dist = cls.__new__(cls)
        dist._freeze(n, counts, qidx, xs, us, probs)
        return dist

    def _freeze(self, n, counts, qidx, xs, us, probs):
        object.__setattr__(self, "n", int(n))
        for name, arr, dtype in (("counts", counts, np.int64), ("qidx", qidx, np.int64),
                                 ("xs", xs, np.int64), ("us", us, np.int64),
                                 ("probs", probs, float)):
            arr = np.ascontiguousarray(arr, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.probs)

    @cached_property
    def queries(self) -> tuple:
        """The distinct queries, each a ``.counts`` tuple (row of ``counts``)."""
        return tuple(_QueryCounts(tuple(row)) for row in self.counts.tolist())

    def query_law(self) -> np.ndarray:
        """p(z) per distinct query, the pivot u uniform over the n sources."""
        return np.bincount(self.qidx, weights=self.probs * (1.0 / self.n),
                           minlength=len(self.counts))

    def expected_multiset_cardinality(self) -> float:
        return float(self.query_law() @ self.counts.sum(axis=1, dtype=float))

    def expected_set_cardinality(self) -> float:
        return float(self.query_law() @ (self.counts > 0).sum(axis=1, dtype=float))

    @property
    def is_set_view(self) -> bool:
        return bool(np.all(self.counts <= 1))

    def law_marginal(self) -> np.ndarray:
        """table[u, x] = sum_z p(z, x | u); equals the input law when valid."""
        flat = np.bincount(self.us * self.n + self.xs, weights=self.probs,
                           minlength=self.n * self.n)
        return flat.reshape(self.n, self.n)

    def query_conditionals(self) -> np.ndarray:
        """table[qid, u] = p(z | u); rows are constant for a private scheme."""
        flat = np.bincount(self.qidx * self.n + self.us, weights=self.probs,
                           minlength=len(self.counts) * self.n)
        return flat.reshape(len(self.counts), self.n)

    def entry_tuples(self):
        """Entries as plain (counts, x, u, p) tuples in canonical order."""
        rows = [tuple(row) for row in self.counts.tolist()]
        return [(rows[q], x, u, p) for q, x, u, p in
                zip(self.qidx.tolist(), self.xs.tolist(), self.us.tolist(),
                    self.probs.tolist())]

    def to_json(self) -> str:
        """What ``json.dumps`` writes for the entries as objects, formatting
        each distinct count row once (``repr`` is its format for a float)."""
        rows = [json.dumps(row) for row in self.counts.tolist()]
        entries = ", ".join([
            f'{{"z": {rows[q]}, "x": {x}, "u": {u}, "p": {p!r}}}'
            for q, x, u, p in zip(self.qidx.tolist(), self.xs.tolist(),
                                  self.us.tolist(), self.probs.tolist())])
        return f'{{"n": {self.n}, "entries": [{entries}]}}'

    @staticmethod
    def from_json(obj) -> "QueryDistribution":
        """Read a JSON text (str or bytes) or its parsed dict.  What
        ``to_json`` and ``onoffpir build`` write is scanned directly; any
        other text goes through ``json.loads``, with the same checks."""
        if isinstance(obj, str) and (dist := _scan(obj)) is not None:
            return dist
        if isinstance(obj, (str, bytes)):
            obj = load_json(obj)
        try:
            items = [(e["z"], e["x"], e["u"], e["p"]) for e in obj["entries"]]
            return QueryDistribution.from_items(obj["n"], items)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed query distribution: {exc}") from exc

    @staticmethod
    def from_items(n: int, items) -> "QueryDistribution":
        """Build from (counts, x, u, prob) tuples, merging duplicates and
        dropping sub-threshold mass, in canonical order.

        Raises ValueError unless n is an integer >= 1, each count vector holds
        n nonnegative integers summing to at most n, x and u are integers in
        [0, n), and every probability is finite and nonnegative (booleans and
        strings are not numbers here).  Count vectors are lists, tuples or
        arrays; each count's type is checked, its value once per distinct vector.
        """
        items = list(items)
        zs, xs, us, ps = zip(*items) if items else ((), (), (), ())
        if not all(issubclass(kind, (list, tuple, np.ndarray))
                   for kind in set(map(type, zs))):
            raise ValueError("count vectors must be lists, tuples or arrays")
        check_number_types(set(map(type, chain.from_iterable(zs))), "counts")
        # Interned only now: True == 1 and hash(1.0) == hash(1), so before the
        # type check [true, 0] would hide behind an earlier [1, 0].
        index_of: dict = {}
        row_of = [index_of.setdefault(tuple(z), len(index_of)) for z in zs]
        return _checked_assemble(n, list(index_of), row_of, xs, us, ps)


def _source_count(n) -> int:
    """``n`` as an int; ValueError unless it is one integer in [1, 2**31)."""
    try:
        return int(whole_numbers(n, "n", 1, 1 << 31))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"a query distribution needs n >= 1 sources: {exc}") from None


def _checked_assemble(n, rows: list, row_of, xs, us, ps) -> QueryDistribution:
    """:func:`_assemble` after the readers' checks: ``n`` an integer >= 1,
    each distinct count row in ``rows`` n nonnegative integers summing to at
    most n, every p finite and nonnegative, and x and u integers in [0, n)."""
    n = _source_count(n)
    counts = whole_numbers(rows or np.zeros((0, n)), "counts", 0, n + 1)
    if counts.shape != (len(rows), n):
        raise ValueError(f"count vectors must have length n={n}")
    if np.any(counts.sum(axis=1) > n):
        raise ValueError("multiset cardinality cannot exceed the number of sources")
    ps = numbers(ps, "p")
    if not np.all(np.isfinite(ps) & (ps >= 0)):
        raise ValueError("probabilities must be finite and nonnegative")
    return _assemble(n, counts, row_of, whole_numbers(xs, "x", 0, n),
                     whole_numbers(us, "u", 0, n), ps)


# The text to_json writes, in the JSON grammar: integers and numbers with
# ASCII digits only, every entry followed by ", " or the end of the list.  A
# count row's text holds digits, commas and spaces only, so that findall does
# not rescan the rest of the text from each entry after an unclosed row.
_INT = r"-?(?:0|[1-9][0-9]*)"
_NUM = _INT + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_HEAD = re.compile(rf'\{{"n": ({_INT}), "entries": \[')
_ENTRY = re.compile(rf'\{{"z": (\[[0-9, ]*\]), "x": ({_INT}), "u": ({_INT}), '
                    rf'"p": ({_NUM})\}}(?:, |\Z)')
_TAIL = re.compile(rf'\](?:, "expected_[a-z_]+": {_NUM})*\}}[ \t\n\r]*')


def _scan(text: str) -> QueryDistribution | None:
    """``text`` read as ``to_json`` writes it, or None when it has any other
    shape.  Each entry has 30 fixed characters (28 the last), so the entries
    tile the list when these and their groups add up to its length.  Count
    rows are parsed once per distinct text; ``float`` is json's own call for
    a number, and exact on an integer (-0 aside, which merging drops)."""
    head = _HEAD.match(text)
    end = text.rfind("]")
    if head is None or not _TAIL.fullmatch(text, end):
        return None
    start = head.end()
    found = _ENTRY.findall(text, start, end)
    if sum(map(len, chain.from_iterable(found))) + 30 * len(found) - 2 != end - start:
        return None
    zs, xs, us, ps = zip(*found)
    index_of: dict = {}
    row_of = [index_of.setdefault(z, len(index_of)) for z in zs]
    try:
        rows = [json.loads(z) for z in index_of]
    except ValueError:
        return None
    return _checked_assemble(int(head[1]), rows, row_of, list(map(int, xs)),
                             list(map(int, us)), list(map(float, ps)))


def _assemble(n: int, rows, row_of, xs, us, ps) -> QueryDistribution:
    """Intern count vectors, merge duplicate (z, x, u) triples, drop dust,
    and order canonically: :func:`_assemble_laws` for one law."""
    return _assemble_laws(n, None, rows, row_of, xs, us, ps)[0]


def _assemble_laws(n: int, row_law, rows, row_of, xs, us, ps):
    """:func:`_assemble` for several laws at once: one distribution with
    each law's part, as it alone gives it, after the last law's, and the law
    of each count row.

    Entry ``e`` has count vector ``rows[row_of[e]]`` (repeats allowed) of
    law ``row_law[row_of[e]]`` (0 when ``row_law`` is None); ``row_of``,
    ``xs``, ``us`` and ``ps`` broadcast together, entries in C order.  One
    ``lexsort`` ranks the distinct (law, vector) pairs by law, cardinality
    and vector, so the merge key sorts entries straight into canonical order
    law by law, and every cell is summed in entry order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    rows = rows.reshape(len(rows), n)
    keys = [rows.T[::-1], rows.sum(axis=1)]
    if row_law is not None:
        keys.append(row_law)
    order = np.lexsort(np.vstack(keys))
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    if row_law is not None:
        new[1:] |= row_law[order[1:]] != row_law[order[:-1]]
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    distinct = ranked[new]
    del ranked   # a batch of laws is large

    key = rank[np.asarray(row_of, dtype=np.int64)] * n + np.asarray(xs, dtype=np.int64)
    key *= n
    key += np.asarray(us, dtype=np.int64)
    uniq, inverse = np.unique(key, return_inverse=True)
    sums = np.bincount(inverse.ravel(), minlength=len(uniq), weights=np.broadcast_to(
        np.asarray(ps, dtype=float), key.shape).ravel())
    keep = sums > ZERO_TOL
    uniq, sums = uniq[keep], sums[keep]
    # uniq is sorted, so its distinct ranks start where the rank changes
    ranks = uniq // (n * n)
    first = np.ones(len(ranks), dtype=bool)
    first[1:] = ranks[1:] != ranks[:-1]
    present = ranks[first]
    qidx = np.cumsum(first) - 1
    xs, us = uniq // n, uniq % n
    xs %= n
    return (QueryDistribution._of_counts(n, distinct[present], qidx, xs, us, sums),
            None if row_law is None else row_law[order][new][present])


def project_to_sets(dist: QueryDistribution) -> QueryDistribution:
    """Merge multisets with equal support; the wire-level view of a scheme."""
    return _assemble(dist.n, dist.counts > 0, dist.qidx, dist.xs, dist.us,
                     dist.probs)


def _lane_take(q_mat: list, row_ptr: list, u: int, amount: float):
    """Consume `amount` of mass from row u of the auxiliary matrix, scanning
    left to right, taking full cells until the last one is truncated.

    Returns a list of (column, value) pairs summing to `amount`.
    """
    row = q_mat[u]
    n = len(row)
    out = []
    need = amount
    k = row_ptr[u]
    while need > ZERO_TOL:
        while k < n and row[k] <= ZERO_TOL:
            k += 1
        if k == n:
            if need <= EPS:
                break  # float dust only
            raise InternalConsistencyError(
                f"auxiliary row {u} exhausted with {need!r} still to assign")
        avail = row[k]
        if avail < need - ZERO_TOL:
            out.append((k, avail))
            row[k] = 0.0
            need -= avail
            k += 1
        else:
            out.append((k, need))
            row[k] = avail - need
            need = 0.0
    row_ptr[u] = k
    return out


def _merge_lanes(lanes):
    """Align the per-pivot (column, value) lanes into joint rounds.

    All lanes carry the same total mass.  Each round takes the minimum of the
    current lane fronts as its weight, records the tuple of front columns,
    subtracts the weight everywhere, and advances the (lowest-index) lane
    whose front was the minimum.  Zero-weight rounds advance exhausted ties
    without producing output.
    """
    idx = [0] * len(lanes)
    cols = [lane[0][0] for lane in lanes]
    cur = [lane[0][1] for lane in lanes]
    rounds = []
    while True:
        nu = min(cur)
        pick = cur.index(nu)
        if nu > ZERO_TOL:
            rounds.append((tuple(cols), nu))
        cur = [c - nu for c in cur]
        idx[pick] += 1
        if idx[pick] == len(lanes[pick]):
            return rounds
        cols[pick], cur[pick] = lanes[pick][idx[pick]]


def build_query_distribution(law: ConditionalLaw,
                             stats: OrderStats | None = None) -> QueryDistribution:
    """Construct a feasible query distribution for one step.

    Deterministic throughout: likelihood orderings break ties toward the
    smaller pivot index, lanes scan the auxiliary matrix left to right, and
    merge rounds break ties toward the lowest lane.  The output satisfies
    decodability, pivot-independence, marginal consistency, and its multiset
    cardinality law equals the theta increments, so the expected multiset
    cardinality meets the inner bound with equality.
    """
    return build_batch([law], [order_stats(law) if stats is None else stats])[0]


def build_batch(laws: list, stats: list):
    """:func:`build_query_distribution` of laws over one n, given their
    order statistics: the lane loop per law, then one expansion and one
    assembly for all.  Returns ``(whole, row_cut, entry_cut)``: law j's
    count rows are ``row_cut[j]:row_cut[j + 1]`` of ``whole`` and its entries
    ``entry_cut[j]:entry_cut[j + 1]``; :func:`law_part` cuts out the
    self-checked distribution that law's build alone gives."""
    n = laws[0].n
    # Per merge round its request and weight; per lane entry its round,
    # pivot and column.  Every other pivot of a round asks for the request.
    round_x, round_nu, lane_round, lane_pivot, lane_col = [], [], [], [], []
    law_rounds = []
    for law, law_stats in zip(laws, stats, strict=True):
        if law.n != n:
            raise ValueError(f"a batch of laws over n={n} holds one over n={law.n}")
        _take_rounds(law, law_stats, round_x, round_nu, lane_round, lane_pivot,
                     lane_col)
        law_rounds.append(len(round_x))

    # Expand each round to its n entries in one pass: row r of xs holds
    # round r's requests, pivot u's in column u.  The entries of a round
    # differ in u, so _assemble sums every merge key in round order.
    n_rounds = len(round_x)
    round_x = np.asarray(round_x, dtype=np.int64)
    lane_round = np.asarray(lane_round, dtype=np.int64)
    lane_col = np.asarray(lane_col, dtype=np.int64)
    counts = np.bincount(np.concatenate([np.arange(n_rounds) * n + round_x,
                                         lane_round * n + lane_col]),
                         minlength=n_rounds * n).reshape(n_rounds, n)
    xs = np.repeat(round_x, n).reshape(n_rounds, n)
    xs[lane_round, np.asarray(lane_pivot, dtype=np.int64)] = lane_col
    round_law = np.repeat(np.arange(len(laws)), np.diff(law_rounds, prepend=0))
    whole, law_of_row = _assemble_laws(n, round_law, counts, np.arange(n_rounds)[:, None],
                                       xs, np.arange(n), np.asarray(round_nu)[:, None])
    row_cut = np.searchsorted(law_of_row, np.arange(len(laws) + 1))
    _check_built(whole, row_cut, laws, stats)
    return whole, row_cut, np.searchsorted(whole.qidx, row_cut)


def law_part(whole: QueryDistribution, row_cut, entry_cut, j: int) -> QueryDistribution:
    """Law j's distribution in a :func:`build_batch` result."""
    r0, e0, e1 = row_cut[j], entry_cut[j], entry_cut[j + 1]
    qidx = whole.qidx[e0:e1]
    return QueryDistribution._of_counts(whole.n, whole.counts[r0:row_cut[j + 1]],
                                        qidx - r0 if r0 else qidx, whole.xs[e0:e1],
                                        whole.us[e0:e1], whole.probs[e0:e1])


def _take_rounds(law: ConditionalLaw, stats: OrderStats, round_x: list,
                 round_nu: list, lane_round: list, lane_pivot: list, lane_col: list):
    """Algorithm 1's lane loop for one law: append its merge rounds to the
    lists, numbering them on from the rounds already there."""
    n = law.n
    table = law.table
    # sorted_likes[x][i] = p(x | u^(x, i+1)); the lanes run on Python floats,
    # which round exactly as numpy's float64 scalars do.
    sorted_likes = table[stats.orderings, np.arange(n)[:, None]].tolist()
    q_mat = np.maximum(table - stats.deltas[None, :], 0.0).tolist()
    orderings, deltas = stats.orderings.tolist(), stats.deltas.tolist()
    row_ptr = [0] * n
    for card in range(1, min(stats.sigma + 1, n) + 1):
        for x in range(n):
            prev = sorted_likes[x][card - 2] if card >= 2 else 0.0
            target = min(deltas[x], sorted_likes[x][card - 1]) - prev
            if target <= ZERO_TOL:
                continue
            lane_us = orderings[x][:card - 1]
            if card == 1:
                merged = [((), target)]
            else:
                lanes = [_lane_take(q_mat, row_ptr, u, target) for u in lane_us]
                if any(not lane for lane in lanes):
                    continue  # target vanished to float dust inside the lanes
                merged = _merge_lanes(lanes)
            for zeta, nu in merged:
                lane_round.extend([len(round_x)] * len(zeta))
                lane_pivot.extend(lane_us)
                lane_col.extend(zeta)
                round_x.append(x)
                round_nu.append(nu)


class IdentityGaps(NamedTuple):
    """Per-law gaps of a batch of distributions from the identities their
    laws fix, all zero for exact schemes: law j's count of nonpositive or
    undecodable (x not in z) entries, per pivot |sum p(z, x | u) - 1|, per
    (u, x) cell |sum_z p(z, x | u) - law[u, x]|, and per level i = 1..n
    |P(|Z| = i) - theta_i|; and per count row, max_u p(z | u) - min_u p(z | u)."""

    violations: np.ndarray   # (L,)
    totals: np.ndarray       # (L, n)
    marginal: np.ndarray     # (L, n, n)
    spread: np.ndarray       # (Q,), law j's rows row_cut[j]:row_cut[j + 1]
    cardinality: np.ndarray  # (L, n)


def identity_gaps(dist: QueryDistribution, row_cut, tables, thetas) -> IdentityGaps:
    """How far the stored arrays of ``dist`` are from the identities that
    each law's table ``tables[j]`` and theta increments ``thetas[j]`` fix,
    where law j owns the count rows ``row_cut[j]:row_cut[j + 1]`` and their
    entries.  Every cell is summed in entry order, as for that law alone.
    Raises ValueError when ``dist`` and the laws differ in size."""
    n = dist.n
    if np.shape(tables)[-1] != n:
        raise ValueError(f"distribution over n={n} sources audited "
                         f"against a law over n={np.shape(tables)[-1]}")
    n_laws = len(tables)
    row_law = np.repeat(np.arange(n_laws), np.diff(row_cut))
    qidx, probs = dist.qidx, dist.probs
    # One entry-length key at a time, each freed before the next is made:
    # (query, x), then (query, u), then (law, u) and (law, u, x), then
    # (law, |z|).
    key = qidx * n
    key += dist.xs
    undecodable = dist.counts.ravel()[key] <= 0
    violations = (np.bincount(row_law[qidx[probs <= 0]], minlength=n_laws)
                  + np.bincount(row_law[qidx[undecodable]], minlength=n_laws))
    del undecodable
    key -= dist.xs
    key += dist.us
    cond = np.bincount(key, probs, len(dist.counts) * n).reshape(-1, n)
    spread = cond.max(axis=1) - cond.min(axis=1)
    del cond, key
    key = (row_law * n)[qidx]
    key += dist.us
    totals = np.bincount(key, probs, n_laws * n).reshape(n_laws, n)
    key *= n
    key += dist.xs
    marginal = np.bincount(key, probs, n_laws * n * n).reshape(n_laws, n, n)
    del key
    key = (row_law * (n + 1) + dist.counts.sum(axis=1))[qidx]
    card_law = np.bincount(key, probs / n, n_laws * (n + 1)).reshape(n_laws, n + 1)
    return IdentityGaps(violations, np.abs(totals - 1.0), np.abs(marginal - tables),
                        spread, np.abs(card_law[:, 1:] - thetas))


def _check_built(dist: QueryDistribution, row_cut, laws: list, stats: list):
    """Cheap structural self-check of a batch, each law against its own
    table and thetas in one pass; failures are builder bugs by construction."""
    gaps = identity_gaps(dist, row_cut, np.stack([law.table for law in laws]),
                         np.stack([law_stats.thetas for law_stats in stats]))
    if gaps.violations.any():
        j = int(np.argmax(gaps.violations))
        raise InternalConsistencyError(
            f"{gaps.violations[j]} nonpositive or undecodable entries stored in law {j}")
    privacy = np.zeros(len(laws))
    np.maximum.at(privacy, np.repeat(np.arange(len(laws)), np.diff(row_cut)), gaps.spread)
    for what, gap in (("per-pivot totals", gaps.totals.max(axis=1)),
                      ("marginal", gaps.marginal.max(axis=(1, 2))),
                      ("privacy", privacy),
                      ("cardinality law", gaps.cardinality.max(axis=1))):
        if np.any(gap > EPS):
            j = int(np.argmax(gap > EPS))
            raise InternalConsistencyError(f"{what} gap {gap[j]!r} above {EPS} in law {j}")


_EVEN, _ODD = "even", "odd"


def policy_n2(alpha: float, beta: float, x_tau: int, x_t: int,
              prev_card: int, parity: str = _EVEN) -> np.ndarray:
    """Closed-form two-source policy for one OFF step.

    Returns the distribution of the next query over {0}, {1}, {0,1} as a
    length-3 array, indexed by bitmask - 1, given the pivot request
    ``x_tau``, the current request ``x_t``, the cardinality of the previous
    query, and the parity of the gap since the pivot.  Once a singleton has
    been sent the state is absorbing: the current request is asked for
    directly with probability one.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ValueError("transition probabilities must lie in [0, 1]")
    if prev_card not in (1, 2):
        raise ValueError(f"previous query cardinality must be 1 or 2, got {prev_card}")
    if parity not in (_EVEN, _ODD):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    w1 = 1.0   # p({x_t}); the rest goes to {0, 1}
    s = alpha + beta
    if prev_card == 2 and s != 1.0:
        p = np.array([[1 - alpha, alpha], [beta, 1 - beta]])
        if s < 1.0:
            eff_prev = x_tau
        else:
            # With a length-2 query the pivot pins the previous request
            # exactly; above the independence line it alternates, so the
            # effective previous request flips when the gap is even.
            eff_prev = 1 - x_tau if parity == _EVEN else x_tau
        denom = p[eff_prev, x_t]
        # A request pattern impossible under the (degenerate) chain gets the
        # safe query, everything.
        w1 = 0.0 if denom <= ZERO_TOL else min(1.0, p.min(axis=0)[x_t] / denom)
    out = np.zeros(3)
    out[x_t] = w1
    out[2] = 1.0 - w1
    return out


def policy_n2_table(alpha: float, beta: float, parity: str = _EVEN) -> np.ndarray:
    """The length-2-history policy as a 4x3 table.

    Rows iterate (x_tau, x_t) in order (0,0), (0,1), (1,0), (1,1); columns are
    the queries {0}, {1}, {0,1}.
    """
    return np.array([policy_n2(alpha, beta, x_tau, x_t, 2, parity)
                     for x_tau in (0, 1) for x_t in (0, 1)])
