"""Loop references for the belief-graph engine in ``onoffpir.sim``.

``reference_enumerate_steps`` keeps one branch per realized query history and
never merges; ``reference_simulate`` walks one episode at a time with its own
per-episode belief memo, ``searchsorted`` draws and a per-episode server
that concatenates the requested messages into one integer.  Both are the
straight recursions the graph replaces: the tests require the graph's seeded
trajectories to equal these exactly and its per-step sums to agree within
1e-12.
"""

from __future__ import annotations

import numpy as np

from onoffpir.model import CapacityError
from onoffpir.sim import (POLICIES, BranchView, SimulationResult, StepView,
                          _scheme_full, _scheme_naive)
from helpers import law_key, scheme_algorithm1
from reference_model import law_from_joint, order_stats


class EpisodeServer:
    """One episode's server: every source regenerates a fresh uniform
    message of ``msg_bits`` bits at each step, and answers are the
    concatenation of the requested messages in increasing source order."""

    def __init__(self, n: int, msg_bits: int, rng):
        self.n = n
        self.msg_bits = msg_bits
        self._rng = rng
        self._nbytes = (msg_bits + 7) // 8
        self._mask = (1 << msg_bits) - 1
        self.messages = None

    def advance(self):
        """Generate the current step's messages (fresh randomness)."""
        raw = self._rng.bytes(self.n * self._nbytes)
        k = self._nbytes
        self.messages = [int.from_bytes(raw[i * k:(i + 1) * k], "big") & self._mask
                         for i in range(self.n)]

    def answer(self, members: tuple):
        """Concatenated payload for a set query and its length in bits."""
        payload = 0
        for pos, i in enumerate(members):
            payload |= self.messages[i] << (pos * self.msg_bits)
        return payload, len(members) * self.msg_bits


def _key(joint: np.ndarray) -> bytes:
    return np.round(joint, 12).tobytes()


def scheme_lookup(n: int, policy: str):
    """The policy's scheme for a law: algorithm 1's built once per law,
    the others' fixed."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy != "algorithm1":
        fixed = (_scheme_naive if policy == "naive" else _scheme_full)(n)
        return lambda law: fixed
    memo: dict = {}

    def lookup(law):
        if law_key(law) not in memo:
            memo[law_key(law)] = scheme_algorithm1(law)
        return memo[law_key(law)]
    return lookup


def reference_enumerate_steps(model, pattern, horizon: int,
                              policy: str = "algorithm1",
                              max_branches: int = 10 ** 7,
                              prune: float = 1e-12):
    """One :class:`StepView` per t; one branch per history class."""
    if horizon >= len(pattern):
        raise ValueError(f"pattern of length {len(pattern)} too short for horizon {horizon}")
    n = model.n
    scheme_for = scheme_lookup(model.n, policy)
    # branch state: (prob, posterior joint after previous step)
    branches = [(1.0, np.diag(model.pi0))]
    for t in range(horizon + 1):
        f_on = pattern.flags[t]
        views = []
        for prob, joint in branches:
            pre = joint if t == 0 else joint @ model.p
            if f_on:
                views.append(BranchView(t, pre, None, None, None, prob))
            else:
                law = law_from_joint(pre)
                views.append(BranchView(t, pre, law, order_stats(law),
                                        scheme_for(law), prob))
        yield StepView(t, f_on, views)

        children = []
        for view in views:
            pre = view.pre_joint
            if f_on:
                marg = pre.sum(axis=0)
                children.append((view.prob, np.diag(marg / marg.sum())))
            else:
                weights = view.scheme.query_marginal(pre)
                for k, mass in enumerate(weights):
                    if mass <= prune:
                        continue
                    post = pre * view.scheme.w[k]
                    children.append((view.prob * mass, post / post.sum()))
        if len(children) > max_branches:
            raise CapacityError(f"{len(children)} history branches at t={t}")
        branches = children


def reference_simulate(model, pattern, episodes: int, seed: int = 0,
                       msg_bits: int = 64, policy: str = "algorithm1"):
    """Seeded episodes, one at a time, from the same random streams, as a
    :class:`SimulationResult`."""
    n = model.n
    horizon = len(pattern) - 1
    rng_req = np.random.default_rng([seed, 0])
    rng_msg = np.random.default_rng([seed, 1])
    scheme_for = scheme_lookup(n, policy)
    full_mask = (1 << n) - 1

    pi0_cum = np.cumsum(model.pi0)
    p_cum = np.cumsum(model.p, axis=1)

    # belief nodes keyed by rounded joint bytes; transitions memoized
    root = np.diag(model.pi0)
    nodes = {_key(root): root}
    steps: dict = {}   # (node_key, t) -> (pre_joint, scheme or None)
    trans: dict = {}   # (node_key, t, y_mask) -> child node key

    q_masks = np.zeros((episodes, horizon + 1), dtype=np.int64)
    xs = np.zeros((episodes, horizon + 1), dtype=np.int64)
    x_taus = np.zeros((episodes, horizon + 1), dtype=np.int64)
    oks = np.ones((episodes, horizon + 1), dtype=bool)
    decode_failures = 0

    req_u = rng_req.random((episodes, horizon + 1))
    sch_u = rng_req.random((episodes, horizon + 1))

    for ep in range(episodes):
        key = _key(root)
        x = x_tau = -1
        server = EpisodeServer(n, msg_bits, rng_msg)
        for t in range(horizon + 1):
            f_on = pattern.flags[t]
            cum = pi0_cum if t == 0 else p_cum[x]
            x = int(np.searchsorted(cum, req_u[ep, t], side="left"))
            if f_on:
                x_tau = x
            step = steps.get((key, t))
            if step is None:
                joint = nodes[key]
                pre = joint if t == 0 else joint @ model.p
                if f_on:
                    step = (pre, None)
                else:
                    step = (pre, scheme_for(law_from_joint(pre)))
                steps[(key, t)] = step
            pre, scheme = step
            if f_on:
                mask = full_mask
                sel = tuple(range(n))
            else:
                k = int(np.searchsorted(scheme.cum[x_tau, x], sch_u[ep, t],
                                        side="left"))
                mask = scheme.y_masks[min(k, len(scheme.y_masks) - 1)]
                sel = tuple(i for i in range(n) if mask >> i & 1)

            child = trans.get((key, t, mask))
            if child is None:
                if f_on:
                    marg = pre.sum(axis=0)
                    nxt = np.diag(marg / marg.sum())
                else:
                    k = scheme.y_masks.index(mask)
                    post = pre * scheme.w[k]
                    nxt = post / post.sum()
                child = _key(nxt)
                nodes.setdefault(child, nxt)
                trans[(key, t, mask)] = child
            key = child

            server.advance()
            answer, _bits = server.answer(sel)
            slot = sel.index(x)
            mask_bits = (1 << msg_bits) - 1
            ok = (answer >> (slot * msg_bits)) & mask_bits == server.messages[x]
            if not ok:
                decode_failures += 1
                oks[ep, t] = False

            q_masks[ep, t] = mask
            xs[ep, t] = x
            x_taus[ep, t] = x_tau

    return SimulationResult(model, pattern, episodes, seed, msg_bits, policy,
                            q_masks, xs, x_taus, oks, decode_failures)
