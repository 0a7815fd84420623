"""Time-stepped user/server simulation with real bit payloads.

The user tracks a joint belief over (pivot request, latest request) given the
realized query history; that belief is a sufficient statistic for the
conditional law each per-step scheme is built from.  Histories that reach the
same rounded belief at the same step share one node of a lazily expanded
belief graph, the one place the Bayes step is written, and one scheme per
distinct law is built on first use.  The graph drives both the exact
enumeration consumed by the bound evaluators, which pushes probability mass
forward through it layer by layer, and the Monte Carlo episodes, which walk
it vectorized over episodes.  A simulation, payloads and decode checks
included, runs each step for all episodes at once and is held only as
``(episodes, T)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (ZERO_TOL, CapacityError, ConditionalLaw, MarkovModel,
                    OrderStats, PrivacyPattern, stacked_order_stats)
from .scheme import build_batch

POLICIES = ("algorithm1", "naive", "full_download")
# Most bytes one step's messages may take in ``simulate`` (all episodes).
PAYLOAD_BYTES = 1 << 27
# Most bytes the (episodes, T) arrays of ``simulate`` may take together.
TRAJECTORY_BYTES = 1 << 30
# Most belief nodes one step of the belief graph may hold.
MAX_BELIEFS = 10 ** 7


def _law_from_joint(pre_joints: np.ndarray) -> np.ndarray:
    """Row-normalize each p(pivot, current) of an (L, n, n) stack into the
    table of p(current | pivot), in one pass.

    Pivot values carrying no mass get the unconditional current-request
    marginal: any row works there (the pivot never takes that value), and the
    marginal keeps the law well formed without distorting the scheme.
    """
    row_mass = pre_joints.sum(axis=2, keepdims=True)
    marginal = pre_joints.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        tables = np.where(row_mass > ZERO_TOL, pre_joints / row_mass,
                          marginal / marginal.sum(axis=2, keepdims=True))
    tables = np.clip(tables, 0.0, None)
    tables /= tables.sum(axis=2, keepdims=True)
    return tables


@dataclass(frozen=True)
class StepScheme:
    """One step's query rule in sampling-ready form.

    ``w[k, u, x]`` is the probability of sending the set ``y_masks[k]``
    (masks increasing) given pivot u and current request x.  ``cum[u, x]``,
    its cumulative sums along k, is made on first read: only sampling needs it.
    """

    y_masks: tuple
    w: np.ndarray

    @cached_property
    def set_sizes(self) -> np.ndarray:
        return np.array([m.bit_count() for m in self.y_masks], dtype=np.int64)

    @cached_property
    def cum(self) -> np.ndarray:
        return np.ascontiguousarray(np.cumsum(self.w, axis=0).transpose(1, 2, 0))

    def query_marginal(self, pre_joint: np.ndarray) -> np.ndarray:
        """p(y_k | history) for a branch with the given extended joint."""
        return np.einsum("ux,kux->k", pre_joint, self.w)


def _algorithm1_batch(laws: list, stats: list) -> list:
    """Algorithm 1's schemes of laws over one n, built together: each
    multiset entry summed into its (support, u, x) cell in entry order, as
    the set projection sums it, over p(x | u)."""
    if not laws:
        return []
    dist, row_law = build_batch(laws, stats)
    n = dist.n
    # Each count row's law and support mask as one key, law * 2^n + mask, in
    # object dtype so that masks beyond 63 sources stay exact Python ints.
    supports = (row_law.astype(object) * (1 << n)
                + (dist.counts > 0) @ (1 << np.arange(n, dtype=object)))
    keys, k = np.unique(supports, return_inverse=True)
    cells, probs = (k[dist.qidx] * n + dist.us) * n + dist.xs, dist.probs
    del dist, row_law, supports, k   # the layer's entries go before its tables come
    w = np.bincount(cells, probs, len(keys) * n * n).reshape(len(keys), n, n)
    cut = np.searchsorted((keys >> n).astype(np.int64), np.arange(len(laws) + 1)).tolist()
    with np.errstate(invalid="ignore", divide="ignore"):
        for law, a, b in zip(laws, cut[:-1], cut[1:]):
            w[a:b] /= law.table
    w[~np.isfinite(w)] = 0.0
    np.clip(w, 0.0, 1.0, out=w)
    masks = (keys & ((1 << n) - 1)).tolist()
    return [StepScheme(tuple(masks[a:b]), w[a:b]) for a, b in zip(cut[:-1], cut[1:])]


def _scheme_naive(n: int) -> StepScheme:
    w = np.zeros((n, n, n))
    w[np.arange(n), :, np.arange(n)] = 1.0
    return StepScheme(tuple(1 << x for x in range(n)), w)


def _scheme_full(n: int) -> StepScheme:
    return StepScheme(((1 << n) - 1,), np.ones((1, n, n)))


def _inverse_cdf(cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Indices drawn at uniforms ``r`` from cumulative sums ``cum`` (last
    axis), clamped to the last index for rows summing to just under 1."""
    k = (cum < np.asarray(r)[..., None]).sum(axis=-1)
    return np.minimum(k, cum.shape[-1] - 1)


@dataclass(eq=False)
class BranchView:
    """One belief node: the realized histories that reach the same belief at
    step t, merged.  ``prob`` is their total probability, filled in by the
    exact enumeration.  An ON node's joint is already reset to the diagonal
    of its current-request marginal: that request is the pivot.  ``stats``
    is made with the node, in one pass over its layer."""

    t: int
    pre_joint: np.ndarray          # p(pivot, current | history) before this query
    law: ConditionalLaw | None     # None on ON steps (query carries no choice)
    stats: OrderStats | None       # order_stats(law); None on ON steps
    scheme: StepScheme             # the full download on ON steps
    prob: float = 0.0


@dataclass
class StepView:
    t: int
    f_on: bool
    branches: list


class _BeliefGraph:
    """Layered belief graph of one (model, pattern, policy).

    A node is one step's belief, the posterior joint rounded to 1e-12, so
    histories reaching the same belief share it.  The graph keeps no node:
    its walker holds the current layer and interns the next one's beliefs in
    a dict keyed on the rounded belief, then makes their nodes in one call,
    so a layer is freed once the walk has left it.  Algorithm 1's schemes
    are memoized by law, first come in node order, each layer's new laws
    built in one batch; the other policies send one fixed scheme.  Only
    ``layer`` reads the pattern: an ON node holds the pivot-reset joint and
    the full download, so every edge is one Bayes step.
    """

    def __init__(self, model: MarkovModel, pattern: PrivacyPattern, policy: str):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        self.model = model
        self.pattern = pattern
        self._full = _scheme_full(model.n)
        self._fixed = (_scheme_naive(model.n) if policy == "naive" else
                       self._full if policy == "full_download" else None)
        self._schemes: dict = {}   # law.key() -> algorithm 1's scheme

    def _schemes_of(self, nodes: list) -> list:
        """The schemes of OFF ``nodes``, in order; a law new to the memo is
        built from its first node's ``law`` and ``stats``."""
        if self._fixed is not None:
            return [self._fixed] * len(nodes)
        keys = [node.law.key() for node in nodes]
        new: dict = {}   # key -> its first node, for keys not memoized
        for key, node in zip(keys, nodes):
            if key not in self._schemes:
                new.setdefault(key, node)
        built = _algorithm1_batch([node.law for node in new.values()],
                                  [node.stats for node in new.values()])
        self._schemes.update(zip(new, built))
        return [self._schemes[key] for key in keys]

    def layer(self, t: int, pres: list) -> list:
        """Step t's nodes, one per belief in ``pres``, each the joint of the
        pivot and step t's request before step t's query, in order.  An OFF
        layer's laws and order statistics are made in one pass each."""
        if self.pattern.flags[t]:
            return [BranchView(t, np.diag(pre.sum(axis=0)), None, None, self._full)
                    for pre in pres]
        tables = _law_from_joint(np.stack(pres))
        laws = ConditionalLaw.stack(tables)
        stats = stacked_order_stats(tables)
        nodes = [BranchView(t, pre, law, law_stats, None)
                 for pre, law, law_stats in zip(pres, laws, stats)]
        for node, scheme in zip(nodes, self._schemes_of(nodes)):
            node.scheme = scheme
        return nodes

    def children(self, node: BranchView, ks, beliefs: dict) -> list:
        """The next layer's indices of the beliefs after ``node``'s
        candidate queries ``ks``, in order (the Bayes step; at an ON node the
        full set keeps the reset joint), each interned in ``beliefs`` as
        (index, pre-query joint) on the rounded belief.  Raises
        :class:`CapacityError` instead of interning more than
        ``MAX_BELIEFS`` beliefs."""
        posts = node.pre_joint * node.scheme.w[ks]
        flat = posts.reshape(len(posts), self.model.n ** 2)
        flat /= flat.sum(axis=1, keepdims=True)
        out = []
        for pre, rounded in zip(posts @ self.model.p, np.round(flat, 12)):
            key = rounded.tobytes()
            got = beliefs.get(key)
            if got is None:
                if len(beliefs) >= MAX_BELIEFS:
                    raise CapacityError(f"more than {MAX_BELIEFS} belief nodes "
                                        f"at t={node.t + 1}")
                # a copy: a view would keep every row of the stack alive
                got = beliefs[key] = (len(beliefs), pre.copy())
            out.append(got[0])
        return out


def enumerate_steps(model: MarkovModel, pattern: PrivacyPattern, horizon: int,
                    policy: str = "algorithm1"):
    """Exact enumeration of realized query histories under a policy.

    Yields one :class:`StepView` per t in 0..horizon.  Its branches are the
    belief nodes reached at t, each with the total probability of the
    histories merged into it; query outcomes of probability at most
    ``ZERO_TOL`` are dropped.  Raises :class:`CapacityError` when a step would
    hold more than ``MAX_BELIEFS`` nodes, as the belief past the cap is
    interned, before any node of that step is made (Monte Carlo simulation
    is the fallback at that size).
    """
    if not 0 <= horizon < len(pattern):
        raise ValueError(f"horizon {horizon} outside the pattern's steps 0..{len(pattern) - 1}")
    graph = _BeliefGraph(model, pattern, policy)
    layer = graph.layer(0, [np.diag(model.pi0)])
    layer[0].prob = 1.0
    for t in range(horizon + 1):
        yield StepView(t, pattern.flags[t], layer)
        if t == horizon:
            return
        beliefs: dict = {}   # rounded belief -> (index, pre-query joint) at t + 1
        probs: list = []
        for node in layer:
            weights = node.scheme.query_marginal(node.pre_joint)
            ks = np.flatnonzero(weights > ZERO_TOL)
            for i, weight in zip(graph.children(node, ks, beliefs), weights[ks]):
                if i == len(probs):
                    probs.append(0.0)
                probs[i] += node.prob * weight
        layer = graph.layer(t + 1, [pre for _i, pre in beliefs.values()])
        for node, prob in zip(layer, probs):
            node.prob = prob


class ServerState:
    """Every episode's server at once: at each step every source draws a
    fresh uniform ``msg_bits``-bit message, kept as big-endian bytes so any
    ``msg_bits`` is exact; an answer holds the requested messages in
    increasing source order."""

    def __init__(self, n: int, msg_bits: int, rng):
        if msg_bits < 1:
            raise ValueError(f"msg_bits must be at least 1, got {msg_bits}")
        self.n = n
        self.msg_bits = msg_bits
        self._rng = rng
        nbytes = (msg_bits + 7) // 8
        self._byte_mask = np.full(nbytes, 0xFF, dtype=np.uint8)
        self._byte_mask[0] = (1 << msg_bits - 8 * (nbytes - 1)) - 1
        self.messages = None   # (episodes, n, nbytes) uint8

    def advance(self, episodes: int):
        """Draw the current step's messages of all episodes in one call."""
        nbytes = len(self._byte_mask)
        raw = np.frombuffer(self._rng.bytes(episodes * self.n * nbytes), np.uint8)
        self.messages = raw.reshape(episodes, self.n, nbytes) & self._byte_mask

    def answer(self, member: np.ndarray):
        """Episode e's answer to the query ``member[e]`` (a length-n bool
        row): its requested messages in increasing source order, zero
        past its set size, and the total length in bits of all answers."""
        # requested source s goes to slot cumsum(member)[s] - 1; the others
        # all land in a spare slot n, cut off after one scatter
        slot = np.cumsum(member, axis=1)
        size = slot[:, -1].sum()
        slot -= 1
        slot[~member] = self.n
        payload = np.zeros((len(member), self.n + 1, self.messages.shape[2]), np.uint8)
        payload[np.arange(len(member))[:, None], slot] = self.messages
        return payload[:, :self.n], int(size) * self.msg_bits


@dataclass
class SimulationResult:
    """Aggregated episodes; compact arrays indexed [episode, t]."""

    model: MarkovModel
    pattern: PrivacyPattern
    episodes: int
    seed: int
    msg_bits: int
    policy: str
    q_masks: np.ndarray
    xs: np.ndarray
    x_taus: np.ndarray
    oks: np.ndarray
    decode_failures: int

    def cardinalities(self, t: int | None = None) -> np.ndarray:
        masks = self.q_masks if t is None else self.q_masks[:, t]
        return np.bitwise_count(masks.astype(np.uint64)).astype(np.int64)

    def mean_cardinality(self, t: int) -> float:
        return float(self.cardinalities(t).mean())

    def p_cardinality(self, t: int, c: int) -> float:
        return float((self.cardinalities(t) == c).mean())

    @cached_property
    def _history_strata(self) -> np.ndarray:
        """Column t: each episode's stratum, the rank of its query history
        before t, numbered in the histories' lexicographic order."""
        strata = np.zeros(self.q_masks.shape, dtype=np.int64)
        for t in range(1, strata.shape[1]):
            code = _dense_codes(self.q_masks[:, t - 1])
            strata[:, t] = _dense_codes(strata[:, t - 1] * (int(code.max()) + 1) + code)
        return strata

    def summary(self) -> dict:
        horizon = self.q_masks.shape[1] - 1
        return {
            "episodes": self.episodes,
            "seed": self.seed,
            "msg_bits": self.msg_bits,
            "policy": self.policy,
            "pattern": str(self.pattern),
            "decode_failures": self.decode_failures,
            "mean_query_size": [self.mean_cardinality(t) for t in range(horizon + 1)],
            "empirical_rate": [1.0 / self.mean_cardinality(t) for t in range(horizon + 1)],
        }


def simulate(model: MarkovModel, pattern: PrivacyPattern, episodes: int,
             seed: int = 0, msg_bits: int = 64,
             policy: str = "algorithm1") -> SimulationResult:
    """Run seeded episodes of the query/answer protocol.

    Request sampling and message payloads use independent child streams of
    the seed, so decode checks cannot perturb trajectory statistics.  Each
    step runs for all episodes at once: requests and queries are drawn
    grouped by the belief-graph node each episode has reached, then the
    server draws every episode's messages and answers every query, and each
    user decodes its request from the slot its query and request give.
    Raises :class:`CapacityError` past ``MAX_BELIEFS`` nodes at a step.
    """
    if episodes < 1 or msg_bits < 1:
        raise ValueError(f"episodes and msg_bits must be at least 1, "
                         f"got {episodes} and {msg_bits}")
    n = model.n
    if n > 63:
        raise CapacityError(f"{n} sources do not fit the int64 query masks (at most 63)")
    if episodes * n * ((msg_bits + 7) // 8) > PAYLOAD_BYTES:
        raise CapacityError(f"one step's {episodes} x {n} messages of {msg_bits} bits "
                            f"exceed {PAYLOAD_BYTES} bytes")
    # req_u, sch_u (float64), q_masks, xs, x_taus (int64) and oks (bool); the
    # audits' history strata, made on first audit, add 8 bytes more
    if 41 * episodes * len(pattern) > TRAJECTORY_BYTES:
        raise CapacityError(f"{episodes} episodes x {len(pattern)} steps exceed "
                            f"{TRAJECTORY_BYTES} bytes of trajectory arrays")
    graph = _BeliefGraph(model, pattern, policy)
    horizon = len(pattern) - 1
    rng_req = np.random.default_rng([seed, 0])
    server = ServerState(n, msg_bits, np.random.default_rng([seed, 1]))
    req_u = rng_req.random((episodes, horizon + 1))
    sch_u = rng_req.random((episodes, horizon + 1))

    p_cum = np.cumsum(model.p, axis=1)
    q_masks = np.empty((episodes, horizon + 1), dtype=np.int64)
    xs = np.empty_like(q_masks)
    oks = np.empty(q_masks.shape, dtype=bool)
    taus = pattern.taus
    rows = np.arange(episodes)
    layer = graph.layer(0, [np.diag(model.pi0)])
    at = np.zeros(episodes, dtype=np.intp)   # layer index of each episode's node
    for t in range(horizon + 1):
        x = xs[:, t] = _inverse_cdf(np.cumsum(model.pi0) if t == 0 else p_cum[x],
                                    req_u[:, t])
        beliefs: dict = {}   # rounded belief -> (index, pre-query joint) at t + 1
        at_next = np.empty_like(at)
        for i, node in enumerate(layer):
            group = np.flatnonzero(at == i)
            ks = _inverse_cdf(node.scheme.cum[xs[group, taus[t]], x[group]],
                              sch_u[group, t])
            q_masks[group, t] = np.array(node.scheme.y_masks)[ks]
            if t < horizon:
                kept, which = np.unique(ks, return_inverse=True)
                at_next[group] = np.array(graph.children(node, kept, beliefs))[which]
        if t < horizon:
            layer = graph.layer(t + 1, [pre for _i, pre in beliefs.values()])
            at = at_next

        # fresh messages, answers, and a bit-exact decode from x's slot
        mask = q_masks[:, t]
        member = (mask[:, None] >> np.arange(n) & 1).astype(bool)
        server.advance(episodes)
        payload, _bits = server.answer(member)
        pos = np.bitwise_count(mask & (1 << x) - 1)
        oks[:, t] = member[rows, x] & np.all(
            payload[rows, pos] == server.messages[rows, x], axis=1)

    return SimulationResult(model, pattern, episodes, seed, msg_bits, policy,
                            q_masks, xs, xs[:, taus], oks, int((~oks).sum()))


@dataclass(frozen=True)
class ChiSquareAudit:
    """Pooled independence test of (pivot, query) within history classes.
    The fields are Python scalars, so ``dataclasses.asdict`` gives its JSON
    object."""

    statistic: float
    dof: int
    p_value: float
    samples: int
    strata: int
    unreliable: bool


def empirical_privacy_audit(result: SimulationResult, t: int) -> ChiSquareAudit:
    """Chi-square test for independence of pivot and query at step t.

    Episodes are stratified by their realized query history before t; the
    pooled statistic sums per-stratum Pearson contributions.  Expected cells
    thinner than 5 flag the result unreliable instead of failing.
    """
    # imported here: scipy.special is most of the package's import time
    from scipy.special import chdtrc

    masks, taus = result.q_masks, result.x_taus
    if not 0 <= t < masks.shape[1]:
        raise IndexError(f"step {t} outside the simulated horizon")

    # Histories and queries as dense codes.  Every code below stays under
    # episodes^2 * n, far inside int64 for the episodes simulate allows.
    stratum = result._history_strata[:, t]
    qt = _dense_codes(masks[:, t])
    n_q, n_x = int(qt.max()) + 1, int(taus[:, t].max()) + 1
    # The observed (stratum, pivot, query) cells in increasing order: the
    # table of a stratum has its pivots as rows and its queries as columns.
    cells, observed = np.unique((stratum * n_x + taus[:, t]) * n_q + qt,
                                return_counts=True)
    cell_s = cells // (n_x * n_q)
    row_keys, row_of = np.unique(cells // n_q, return_inverse=True)
    col_keys, col_of = np.unique(cell_s * n_q + cells % n_q, return_inverse=True)
    row_s, col_s = row_keys // n_x, col_keys // n_q
    row_sum = np.bincount(row_of, weights=observed)
    col_sum = np.bincount(col_of, weights=observed)
    total = np.bincount(cell_s, weights=observed)
    expected = row_sum[row_of] * col_sum[col_of] / total[cell_s]
    # A zero cell adds its expected count: per row, the row sum times the
    # column mass the row misses (integral, so exact) over the total.
    missed = total[row_s] - np.bincount(row_of, weights=col_sum[col_of])
    per_stratum = (np.bincount(cell_s, weights=(observed - expected) ** 2 / expected)
                   + np.bincount(row_s, weights=row_sum * missed / total[row_s]))
    n_rows, n_cols = np.bincount(row_s), np.bincount(col_s)
    tested = (n_rows >= 2) & (n_cols >= 2)
    stat = float(per_stratum[tested].sum())
    dof = int(((n_rows - 1) * (n_cols - 1))[tested].sum())
    # The thinnest expected cell of a table: least row sum x least column sum.
    min_row, min_col = np.full(len(total), np.inf), np.full(len(total), np.inf)
    np.minimum.at(min_row, row_s, row_sum)
    np.minimum.at(min_col, col_s, col_sum)
    p_value = float(chdtrc(dof, stat)) if dof > 0 else 1.0
    unreliable = dof > 0 and float((min_row * min_col / total)[tested].min()) < 5.0
    return ChiSquareAudit(stat, dof, p_value, len(qt), len(total), unreliable)


def _dense_codes(values: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values."""
    return np.unique(values, return_inverse=True)[1].ravel()
