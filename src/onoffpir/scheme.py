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

import codecs
import json
import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .model import (EPS, ZERO_TOL, CapacityError, ConditionalLaw, OrderStats,
                    _unchecked, check_number_types, load_json, number, numbers,
                    order_stats, source_count, whole_number, whole_numbers)

# Most bits the int64 merge key of ``_assemble`` may pack (its sign bit
# clear): count-row rank, x, u and entry index, each in the fewest bits that
# hold it.  At n = 100, 990,089 entries over 9,901 rows need 48.
KEY_BITS = 63


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
        """Raises ValueError unless the arrays are parallel, every query
        index is an integer in range, and the rest passes the checks of
        :meth:`from_items`.  Structural invariants (x in z, privacy, ...)
        are left to the audit."""
        n, counts, xs, us, probs = _checked(n, [q.counts for q in queries], xs, us, probs)
        qidx = whole_numbers(qidx, "query indices", 0, len(counts))
        if not qidx.shape == xs.shape == us.shape == probs.shape:
            raise ValueError("qidx, xs, us and probs must have equal lengths")
        object.__setattr__(self, "n", n)
        # the checks' own arrays: fresh, contiguous int64 and float64
        for name, arr in zip(("counts", "qidx", "xs", "us", "probs"),
                             (counts, qidx, xs, us, probs)):
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

    def query_conditionals(self) -> np.ndarray:
        """table[qid, u] = p(z | u); rows are constant for a private scheme."""
        key = self.qidx * self.n
        key += self.us
        flat = np.bincount(key, weights=self.probs, minlength=len(self.counts) * self.n)
        return flat.reshape(len(self.counts), self.n)

    def entry_tuples(self):
        """Entries as plain (counts, x, u, p) tuples in canonical order."""
        rows = [tuple(row) for row in self.counts.tolist()]
        return [(rows[q], x, u, p) for q, x, u, p in
                zip(self.qidx.tolist(), self.xs.tolist(), self.us.tolist(),
                    self.probs.tolist())]

    def to_json(self) -> str:
        """What ``json.dumps`` writes for the entries as objects, formatting
        each distinct count row, index and probability once (``repr`` is its
        format for a float).  Probabilities are told apart by their bits, not
        their values, so that ``-0.0`` keeps its sign."""
        rows = [json.dumps(row) for row in self.counts.tolist()]
        ints, int_of = np.unique(np.concatenate([self.xs, self.us]), return_inverse=True)
        ints = list(map(str, ints.tolist()))
        bits, p_of = np.unique(self.probs.view(np.int64), return_inverse=True)
        ps = list(map(repr, bits.view(float).tolist()))
        m = len(self)
        entries = ", ".join([
            f'{{"z": {rows[q]}, "x": {ints[x]}, "u": {ints[u]}, "p": {ps[p]}}}'
            for q, x, u, p in zip(self.qidx.tolist(), int_of[:m].tolist(),
                                  int_of[m:].tolist(), p_of.tolist())])
        return f'{{"n": {self.n}, "entries": [{entries}]}}'

    @staticmethod
    def from_json(obj) -> "QueryDistribution":
        """Read a JSON text (str or bytes) or its parsed dict.  What
        ``to_json`` and ``onoffpir build`` write is scanned directly; any
        other text goes through ``json.loads``, with the same checks."""
        if isinstance(obj, (str, bytes)):
            if (dist := _scan(obj)) is not None:
                return dist
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
        n, counts, xs, us, ps = _checked(n, list(index_of), xs, us, ps)
        return _assemble(n, np.zeros(len(counts), np.int64), counts, row_of, xs, us, ps)[0]


def _checked(n, rows: list, xs, us, ps):
    """The readers' checks of :meth:`QueryDistribution.from_items`, with
    ``rows`` the distinct count rows: ``(n, counts, xs, us, ps)``, n an int."""
    n = source_count(n)
    counts = whole_numbers(rows or np.zeros((0, n)), "counts", 0, n + 1)
    if counts.shape != (len(rows), n):
        raise ValueError(f"count vectors must have length n={n}")
    if np.any(counts.sum(axis=1) > n):
        raise ValueError("multiset cardinality cannot exceed the number of sources")
    ps = numbers(ps, "p", 0)
    xs, us = whole_numbers(xs, "x", 0, n), whole_numbers(us, "u", 0, n)
    if not xs.ndim == us.ndim == ps.ndim == 1:
        raise ValueError("each entry's x, u and p must be one number")
    return n, counts, xs, us, ps


# The text to_json writes, in the JSON grammar: integers and numbers with
# ASCII digits only, every entry followed by ", " or the end of the list.  A
# count row's text holds digits, commas and spaces only, so that findall does
# not rescan the rest of the text from each entry after an unclosed row.
_INT = rb"-?(?:0|[1-9][0-9]*)"
_NUM = _INT + rb"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
_HEAD = re.compile(rb'\{"n": (' + _INT + rb'), "entries": \[')
_ENTRY = re.compile(rb'\{"z": (\[[0-9, ]*\]), "x": (' + _INT + rb'), "u": (' + _INT
                    + rb'), "p": (' + _NUM + rb')\}(?:, |\Z)')
_TAIL = re.compile(rb'\](?:, "expected_[a-z_]+": ' + _NUM + rb')*\}[ \t\n\r]*')
# Where one entry ends and the next begins; the scan cuts its chunks there.
_SEPARATOR = b'}, {"z": '
# About how many bytes of the entry list one findall of the scan reads; its
# matches are all of the text's fields that the scan holds at a time.
SCAN_CHUNK = 1 << 18


def _scan(text) -> QueryDistribution | None:
    """``text`` (str or bytes) read as ``to_json`` writes it, or None when
    it has any other shape.  A str is encoded once; bytes are read as they
    are, after a UTF-8 BOM.  Only ASCII matches, so bytes that are not UTF-8
    (UTF-16 too) and a str that starts with a BOM fail here and reach
    json.loads as they are.

    The entry list is read in chunks of about ``SCAN_CHUNK`` bytes, each
    cut after the ", " between two entries, and each chunk's field texts
    are interned in the running tables of their field before the next chunk
    is read.  Each entry has 30 fixed bytes (28 the last), so the entries
    tile a chunk when these and their groups add up to its length.  Each
    field's distinct texts are converted and checked once, then gathered per
    entry: the count rows with one ``json.loads``, x and u with ``int``, and
    p with ``float``, json's own call for a number, exact on an integer (-0
    aside, which merging drops)."""
    if isinstance(text, str):
        data, pos = text.encode("utf-8", "surrogatepass"), 0
    else:
        data, pos = text, len(codecs.BOM_UTF8) if text.startswith(codecs.BOM_UTF8) else 0
    head = _HEAD.match(data, pos)
    end = data.rfind(b"]")
    if head is None or not _TAIL.fullmatch(data, end):
        return None
    n, pos = head[1], head.end()
    del head   # it holds the text
    tables = [{} for _ in range(4)]        # per field, each distinct text's index
    ofs = [array("q") for _ in range(4)]   # per field, each entry's index
    while True:
        cut = data.find(_SEPARATOR, pos + SCAN_CHUNK, end)
        stop = end if cut < 0 else cut + 3   # after the "}, "
        found = _ENTRY.findall(data, pos, stop)
        tiled = 30 * len(found) - 2 * (stop == end)
        for index_of, of, texts in zip(tables, ofs, zip(*found)):
            tiled += sum(map(len, texts))
            of.extend([index_of.setdefault(t, len(index_of)) for t in texts])
        if tiled != stop - pos:
            return None
        if stop == end:
            break
        pos = stop
    del found, data
    zs, xs, us, ps = map(list, tables)
    del tables
    try:
        rows = json.loads(b"[" + b", ".join(zs) + b"]")
    except ValueError:
        return None
    n, counts, *values = _checked(int(n), rows, list(map(int, xs)),
                                  list(map(int, us)), list(map(float, ps)))
    # each field's values per entry, its index buffer emptied once gathered
    for k, of in enumerate(ofs[1:]):
        values[k] = values[k][np.frombuffer(of, np.int64)]
        del of[:]
    return _assemble(n, np.zeros(len(counts), np.int64), counts,
                     np.frombuffer(ofs[0], np.int64), *values)[0]


def _assemble(n: int, row_law, rows, row_of, xs, us, ps):
    """Intern count vectors, merge duplicate (z, x, u) triples, drop dust,
    and order canonically, law by law: one distribution with each law's
    part, as it alone gives it, after the last law's, and the law of each
    of its count rows.

    Entry ``e`` has count vector ``rows[row_of[e]]`` (repeats allowed) of
    law ``row_law[row_of[e]]`` (int64, all 0 for one law); ``row_of``,
    ``xs``, ``us`` and ``ps`` broadcast together, entries in C order.  One
    stable argsort of each row's big-endian bytes (law, cardinality, then
    vector) ranks the distinct (law, vector) pairs.  Each entry's merge key
    packs ``rank | x | u | e`` as bit fields of one int64, so one in-place
    sort puts the entries in canonical order law by law, the entries of a
    cell in entry order, and every cell is summed in entry order.  Raises
    :class:`CapacityError` when the key needs more than ``KEY_BITS`` bits.
    """
    rows = np.asarray(rows)   # int64 counts, or the projection's bool supports
    rows = rows.reshape(len(rows), n)
    # The narrowest big-endian field that holds a law index, a cardinality
    # and a count: byte order is then the order of the (law, |z|, z) keys.
    top = max(n, int(row_law.max(initial=0)))
    field = np.dtype(f">u{next(size for size in (1, 2, 4, 8) if top >> 8 * size == 0)}")
    packed = np.empty((len(rows), n + 2), dtype=field)
    packed[:, 0] = row_law
    packed[:, 1] = rows.sum(axis=1)
    packed[:, 2:] = rows
    packed = packed.view(np.dtype((np.void, field.itemsize * (n + 2)))).ravel()
    order = np.argsort(packed, kind="stable")
    packed = packed[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = packed[1:] != packed[:-1]
    del packed
    rank = np.empty(len(rows), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    firsts = order[new]   # the first row of each rank

    row_of, xs, us = (np.asarray(a, dtype=np.int64) for a in (row_of, xs, us))
    ps = np.asarray(ps, dtype=float)
    shape = np.broadcast(row_of, xs, us, ps).shape
    entries = math.prod(shape)
    x_bits = (n - 1).bit_length()
    e_bits = max(entries - 1, 0).bit_length()
    bits = max(len(firsts) - 1, 0).bit_length() + 2 * x_bits + e_bits
    if bits > KEY_BITS:
        raise CapacityError(f"{entries} entries over {len(firsts)} count rows of "
                            f"n={n}: their merge keys need {bits} bits, above {KEY_BITS}")
    # One entry-length temporary at a time beside the key: each shifted field.
    key = np.arange(entries, dtype=np.int64).reshape(shape)
    shifted = rank[row_of]
    shifted <<= 2 * x_bits + e_bits
    key |= shifted
    del shifted
    key |= xs << (x_bits + e_bits)
    key |= us << e_bits
    key = key.ravel()
    key.sort()
    entry = key & ((1 << e_bits) - 1)
    weights = np.broadcast_to(ps, shape).flat[entry]   # no copy of a broadcast ps
    del entry
    key >>= e_bits
    start = np.ones(len(key), dtype=bool)
    start[1:] = key[1:] != key[:-1]
    cells = key[start]
    del key
    segment = np.cumsum(start)
    del start
    segment -= 1
    sums = np.bincount(segment, weights)
    del segment, weights
    keep = sums > ZERO_TOL
    if not keep.all():
        cells = cells[keep]
        sums = sums[keep]
    # cells is sorted, so its distinct ranks start where the rank changes
    ranks = cells >> 2 * x_bits
    first = np.ones(len(ranks), dtype=bool)
    first[1:] = ranks[1:] != ranks[:-1]
    present = firsts[ranks[first]]
    del ranks
    qidx = np.cumsum(first)
    qidx -= 1
    mask = (1 << x_bits) - 1
    cell_xs = cells >> x_bits
    cell_xs &= mask
    cells &= mask   # now each cell's u
    stacks = [a[None] for a in (rows[present].astype(np.int64, copy=False), qidx,
                                cell_xs, cells, sums)]   # one row each
    return _unchecked(QueryDistribution, [n], *stacks)[0], row_law[present]


def project_to_sets(dist: QueryDistribution) -> QueryDistribution:
    """Merge multisets with equal support; the wire-level view of a scheme."""
    return _assemble(dist.n, np.zeros(len(dist.counts), np.int64), dist.counts > 0,
                     dist.qidx, dist.xs, dist.us, dist.probs)[0]


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
    return build_batch(law.table[None], [order_stats(law) if stats is None else stats])[0]


def build_batch(tables: np.ndarray, stats: list):
    """:func:`build_query_distribution` of an (L, n, n) stack of law tables,
    given their order statistics: the lane loop per law, then one expansion
    and one assembly for all.  Returns ``(whole, row_law)``: count row q of
    ``whole`` and its entries are law ``row_law[q]``'s, the laws in order,
    and each law's part is the self-checked distribution its build alone
    gives."""
    if len(stats) != len(tables):
        raise ValueError(f"{len(stats)} order statistics for {len(tables)} law tables")
    n = tables.shape[-1]
    orderings = np.stack([law_stats.orderings for law_stats in stats])
    deltas = np.stack([law_stats.deltas for law_stats in stats])
    # sorted_likes[l, x, i] = p(x | u^(x, i+1)) of law l.  targets[l, x, c - 1]
    # is min(delta_x, sorted_likes[l, x, c - 1]) less sorted_likes[l, x, c - 2]:
    # the mass request x sends at cardinality c, as one float step each gives.
    sorted_likes = np.take_along_axis(tables.transpose(0, 2, 1), orderings, axis=2)
    targets = np.minimum(deltas[:, :, None], sorted_likes)
    targets[:, :, 1:] -= sorted_likes[:, :, :-1]
    q_mats = np.maximum(tables - deltas[:, None, :], 0.0)
    # Per merge round (request, cardinality, weight); per lane entry its
    # column.  Every other pivot of a round asks for the request.
    rounds, lane_col, law_rounds = [], [], []
    for law_targets, q_mat, law_stats in zip(targets.transpose(0, 2, 1), q_mats, stats):
        _take_rounds(law_targets, q_mat, law_stats, rounds, lane_col)
        law_rounds.append(len(rounds))

    # Expand each round to its n entries in one pass.  A round of
    # cardinality c has c - 1 lanes, the pivots orderings[x, :c - 1] of its
    # law in lane order, so every lane's pivot is one gather from the
    # stacked orderings.  Row r of xs holds round r's requests, pivot u's
    # in column u.  The entries of a round differ in u, and _assemble breaks
    # ties between equal cells by entry index, so it sums each cell in
    # round order.
    n_rounds = len(rounds)
    round_x, lanes, round_nu = np.fromiter(   # ints are exact as floats
        chain.from_iterable(rounds), float, 3 * n_rounds).reshape(n_rounds, 3).T
    round_x, lanes = round_x.astype(np.int64), lanes.astype(np.int64) - 1
    del rounds, deltas, sorted_likes, targets, q_mats   # the entries come next
    round_law = np.repeat(np.arange(len(tables)), np.diff(law_rounds, prepend=0))
    lane_round = np.repeat(np.arange(n_rounds), lanes)
    lane_rank = np.arange(len(lane_round)) - np.repeat(np.cumsum(lanes) - lanes, lanes)
    lane_pivot = orderings[round_law[lane_round], round_x[lane_round], lane_rank]
    lane_col = np.asarray(lane_col, dtype=np.int64)
    counts = np.bincount(np.concatenate([np.arange(n_rounds) * n + round_x,
                                         lane_round * n + lane_col]),
                         minlength=n_rounds * n).reshape(n_rounds, n)
    xs = np.repeat(round_x, n).reshape(n_rounds, n)
    xs[lane_round, lane_pivot] = lane_col
    del lane_round, lane_rank, lane_pivot, lane_col
    whole, row_law = _assemble(n, round_law, counts, np.arange(n_rounds)[:, None],
                               xs, np.arange(n), round_nu[:, None])
    del counts, xs   # before the check
    _check_built(whole, row_law, tables,
                 np.stack([law_stats.thetas for law_stats in stats]))
    return whole, row_law


def _take_rounds(targets, q_mat, stats: OrderStats, rounds: list, lane_col: list):
    """Algorithm 1's lane loop for one law, given ``targets[c - 1][x]``, the
    mass request x sends at cardinality c: append its merge rounds, and
    their lane columns in lane order, to the lists.  It runs on Python
    floats, which round exactly as numpy's float64 scalars do, converted
    from this law's arrays alone.  A pivot's lane takes the target from its
    row of ``q_mat`` left to right, whole cells until the last one is cut.
    Each merge round weighs the least lane front, which then comes off
    every front, and the lowest lane at that least advances; rounds up to
    ``ZERO_TOL`` are dropped, so a lone lane's rounds are its pieces above it."""
    targets, q_mat, orderings = targets.tolist(), q_mat.tolist(), stats.orderings.tolist()
    n = len(q_mat)
    row_ptr = [0] * n
    for card, card_targets in enumerate(targets[:min(stats.sigma + 1, n)], 1):
        for x, target in enumerate(card_targets):
            if target <= ZERO_TOL:
                continue
            if card == 1:
                rounds.append((x, 1, target))
                continue
            lanes = [([], []) for _ in range(card - 1)]   # per pivot (columns, values)
            for u, (cols, vals) in zip(orderings[x], lanes):
                row = q_mat[u]
                need = target
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
                    cols.append(k)
                    if avail < need - ZERO_TOL:
                        vals.append(avail)
                        row[k] = 0.0
                        need -= avail
                        k += 1
                    else:
                        vals.append(need)
                        row[k] = avail - need
                        break
                row_ptr[u] = k
            if ([], []) in lanes:
                continue  # target vanished to float dust inside a lane
            idx = [0] * len(lanes)
            front = [cols[0] for cols, _vals in lanes]
            cur = [vals[0] for _cols, vals in lanes]
            while True:
                nu = min(cur)
                pick = cur.index(nu)
                if nu > ZERO_TOL:
                    lane_col.extend(front)
                    rounds.append((x, card, nu))
                cur = [c - nu for c in cur]
                i = idx[pick] = idx[pick] + 1
                cols, vals = lanes[pick]
                if i == len(cols):
                    break
                front[pick], cur[pick] = cols[i], vals[i]


class IdentityGaps(NamedTuple):
    """Per-law gaps of a batch of distributions from the identities their
    laws fix, all zero for exact schemes: law j's count of nonpositive or
    undecodable (x not in z) entries, per pivot |sum p(z, x | u) - 1|, per
    (u, x) cell |sum_z p(z, x | u) - law[u, x]|, and per level i = 1..n
    |P(|Z| = i) - theta_i|; and per count row, max_u p(z | u) - min_u p(z | u)."""

    violations: np.ndarray   # (L,)
    totals: np.ndarray       # (L, n)
    marginal: np.ndarray     # (L, n, n)
    spread: np.ndarray       # (Q,), per count row
    cardinality: np.ndarray  # (L, n)


def identity_gaps(dist: QueryDistribution, row_law, tables, thetas) -> IdentityGaps:
    """How far the stored arrays of ``dist`` are from the identities that
    each law's table ``tables[j]`` and theta increments ``thetas[j]`` fix,
    where law ``row_law[q]`` owns count row q and its entries.  Every cell
    is summed in entry order, as for that law alone.  Raises ValueError
    when ``dist`` and the laws differ in size."""
    n = dist.n
    if np.shape(tables)[-1] != n:
        raise ValueError(f"distribution over n={n} sources audited "
                         f"against a law over n={np.shape(tables)[-1]}")
    n_laws = len(tables)
    qidx, probs = dist.qidx, dist.probs
    # One entry-length key, rewritten in place for each cell index in turn:
    # (query, x), then (query, u), then (law, u) and (law, u, x), then
    # (law, |z|).  Every query index is in range, so np.take may "clip",
    # which writes into the key directly ("raise" goes through a buffer).
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
    del cond
    np.take(row_law * n, qidx, out=key, mode="clip")
    key += dist.us
    totals = np.bincount(key, probs, n_laws * n).reshape(n_laws, n)
    key *= n
    key += dist.xs
    marginal = np.bincount(key, probs, n_laws * n * n).reshape(n_laws, n, n)
    np.take(row_law * (n + 1) + dist.counts.sum(axis=1), qidx, out=key, mode="clip")
    card_law = np.bincount(key, probs / n, n_laws * (n + 1)).reshape(n_laws, n + 1)
    return IdentityGaps(violations, np.abs(totals - 1.0), np.abs(marginal - tables),
                        spread, np.abs(card_law[:, 1:] - thetas))


def _check_built(dist: QueryDistribution, row_law, tables, thetas):
    """Cheap structural self-check of a batch, each law against its own
    stacked table and thetas in one pass; failures are builder bugs by
    construction."""
    gaps = identity_gaps(dist, row_law, tables, thetas)
    if gaps.violations.any():
        j = int(np.argmax(gaps.violations))
        raise InternalConsistencyError(
            f"{gaps.violations[j]} nonpositive or undecodable entries stored in law {j}")
    privacy = np.zeros(len(tables))
    np.maximum.at(privacy, row_law, gaps.spread)
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
    alpha, beta = number(alpha, "alpha", 0, 1), number(beta, "beta", 0, 1)
    prev_card = whole_number(prev_card, "previous query cardinality", 1, 3)
    if parity not in (_EVEN, _ODD):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    x_tau, x_t = whole_numbers([x_tau, x_t], "the requests x_tau and x_t", 0, 2).tolist()
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
