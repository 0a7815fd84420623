"""Spans around the calls into each layer of ``onoffpir``, and the per-layer
metrics derived from them.

The wrappers live here, not in the package: :func:`install` replaces the
layer entry points on every loaded ``onoffpir`` module that holds them (and
``ServerState.advance``/``answer``, ``QueryDistribution.to_json``/
``from_json`` on their classes).  Only the traced worker process installs
them.  Spans are kept in memory as flat arrays and written when the run
ends.  A span's self time is its duration minus the durations of its direct
children; bookkeeping done by the wrappers themselves runs inside
``trace.bookkeeping`` spans so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

JOB = "job"
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory spans (name, start, end, parent, operation id) and counters."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack: list = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn, *args):
        """One closed-loop operation: a root ``job`` span under a new id."""
        self.op += 1
        self.active = True
        idx = self.open(JOB)
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.active = False

    def wrap(self, name: str, fn, count=None):
        """A traced stand-in for ``fn``; ``count(tracer, result, args)``
        runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer, result, args)
            return result
        return traced

    def wrap_generator(self, name: str, fn, count=None):
        """Like :meth:`wrap`, but one span per generator resume, so the
        consumer's work between items stays out of it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not tracer.active:
                    item = next(gen, _DONE)
                else:
                    idx = tracer.open(name)
                    try:
                        item = next(gen, _DONE)
                    finally:
                        tracer.close(idx)
                    if item is not _DONE and count is not None:
                        count(tracer, item, args)
                if item is _DONE:
                    return
                yield item
        return traced

    def bookkeeping(self, fn, *args):
        idx = self.open(BOOKKEEPING)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def save(self, path: str):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_ids, np.int32),
            parent=np.frombuffer(self.parents, np.int32), op=np.frombuffer(self.ops, np.int32),
            start=np.frombuffer(self.starts), end=np.frombuffer(self.ends))


_DONE = object()


# --- counters --------------------------------------------------------------

def _count_entries(tracer, dist, args):
    tracer.counters["scheme.build.entries"] += len(dist)


def _count_json_bytes(tracer, text, args):
    tracer.counters["scheme.json.bytes"] += len(text)


def _count_nonoptimal(tracer, sol, args):
    tracer.counters["lp.solve.nonoptimal"] += sol.status != "optimal"


def _count_payload(tracer, answer, args):
    tracer.counters["sim.server.payload_bytes"] += answer[1] // 8


def _count_strata(tracer, audit, args):
    tracer.counters["sim.chi2.strata"] += audit.strata


def _count_view(tracer, view, args):
    def distinct():
        keys = {np.round(br.pre_joint, 12).tobytes() for br in view.branches}
        tracer.counters["sim.enumerate.classes"] += len(view.branches)
        tracer.counters["sim.enumerate.beliefs"] += len(keys)
    tracer.bookkeeping(distinct)


def _count_simulation(tracer, result, args):
    def classes():
        masks = result.q_masks
        off = [t for t, on in enumerate(result.pattern.flags) if not on]
        tracer.counters["sim.simulate.episode_steps"] += masks.size
        tracer.counters["sim.simulate.history_classes"] += sum(
            len(np.unique(masks[:, :t], axis=0)) for t in off)
    tracer.bookkeeping(classes)


# (span name, module, attribute, counter); generators are marked by name.
TARGETS = (
    ("model.order_stats", "onoffpir.model", "order_stats", None),
    ("scheme.build", "onoffpir.scheme", "build_query_distribution", _count_entries),
    ("scheme.project", "onoffpir.scheme", "project_to_sets", None),
    ("verify.audit", "onoffpir.verify", "audit_distribution", None),
    ("verify.mi", "onoffpir.verify", "conditional_query_mi", None),
    ("lp.build", "onoffpir.lp", "build_lp", None),
    ("lp.solve", "onoffpir.lp", "solve", _count_nonoptimal),
    ("sim.enumerate", "onoffpir.sim", "enumerate_steps", _count_view),
    ("sim.simulate", "onoffpir.sim", "simulate", _count_simulation),
    ("sim.chi2", "onoffpir.sim", "empirical_privacy_audit", _count_strata),
    ("bounds.horizon", "onoffpir.bounds", "bounds_over_horizon", None),
    ("cli", "onoffpir.cli", "main", None),
)
GENERATORS = {"sim.enumerate"}


def install(tracer: Tracer):
    """Replace every layer entry point on all loaded ``onoffpir`` modules."""
    modules = [m for name, m in sys.modules.items()
               if name == "onoffpir" or name.startswith("onoffpir.")]
    for span, modname, attr, count in TARGETS:
        orig = getattr(sys.modules[modname], attr)
        wrapper = (tracer.wrap_generator if span in GENERATORS else tracer.wrap)
        traced = wrapper(span, orig, count)
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)
    sim = sys.modules["onoffpir.sim"]
    server = sim.ServerState
    server.advance = tracer.wrap("sim.server.advance", server.advance)
    server.answer = tracer.wrap("sim.server.answer", server.answer, _count_payload)
    qd = sys.modules["onoffpir.scheme"].QueryDistribution
    qd.to_json = tracer.wrap("scheme.json.encode", qd.to_json, _count_json_bytes)
    qd.from_json = staticmethod(tracer.wrap("scheme.json.decode", qd.from_json))


# --- per-layer metrics -----------------------------------------------------

def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-job layer metrics: sums over the traced operations divided by
    their number; latency percentiles over all calls."""
    name_id = np.frombuffer(tracer.name_ids, np.int32)
    parent = np.frombuffer(tracer.parents, np.int32)
    dur = np.frombuffer(tracer.ends) - np.frombuffer(tracer.starts)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(name):
        return name_id == ids.get(name, -1)

    def calls(name):
        return int(sel(name).sum()) / ops

    def self_s(name):
        return float(self_time[sel(name)].sum()) / ops

    def durations_ms(name):
        return dur[sel(name)] * 1e3

    def counter(name):
        return tracer.counters[name] / ops

    # builds issued from inside simulate: walk each build's parents
    names = tracer.names
    sim_builds = 0
    for idx in np.nonzero(sel("scheme.build"))[0]:
        p = parent[idx]
        while p >= 0 and names[name_id[p]] != "sim.simulate":
            p = parent[p]
        sim_builds += p >= 0

    build_ms = durations_ms("scheme.build")
    solve_ms = durations_ms("lp.solve")
    classes = counter("sim.enumerate.classes")
    steps = counter("sim.simulate.episode_steps")
    history = counter("sim.simulate.history_classes")
    simulate_s = float(dur[sel("sim.simulate")].sum()) / ops
    return {
        "model.order_stats.calls": calls("model.order_stats"),
        "model.order_stats.self_s": self_s("model.order_stats"),
        "scheme.build.calls": calls("scheme.build"),
        "scheme.build.self_s": self_s("scheme.build"),
        "scheme.build.p50_ms": _percentile(build_ms, 50),
        "scheme.build.entries": counter("scheme.build.entries"),
        "scheme.project.self_s": self_s("scheme.project"),
        "scheme.json.encode_s": self_s("scheme.json.encode"),
        "scheme.json.decode_s": self_s("scheme.json.decode"),
        "scheme.json.bytes": counter("scheme.json.bytes"),
        "verify.audit.calls": calls("verify.audit"),
        "verify.audit.self_s": self_s("verify.audit"),
        "verify.mi.self_s": self_s("verify.mi"),
        "lp.build.self_s": self_s("lp.build"),
        "lp.solve.calls": calls("lp.solve"),
        "lp.solve.self_s": self_s("lp.solve"),
        "lp.solve.p50_ms": _percentile(solve_ms, 50),
        "lp.solve.p90_ms": _percentile(solve_ms, 90),
        "lp.solve.max_ms": _percentile(solve_ms, 100),
        "lp.solve.nonoptimal": counter("lp.solve.nonoptimal"),
        "sim.enumerate.self_s": self_s("sim.enumerate"),
        "sim.enumerate.classes": classes,
        "sim.enumerate.beliefs": counter("sim.enumerate.beliefs"),
        "sim.enumerate.beliefs_per_class":
            counter("sim.enumerate.beliefs") / classes if classes else 0.0,
        "sim.simulate.self_s": self_s("sim.simulate"),
        "sim.simulate.episode_steps": steps,
        "sim.simulate.us_per_episode_step": simulate_s / steps * 1e6 if steps else 0.0,
        "sim.simulate.history_classes": history,
        "sim.simulate.classes_per_build":
            history / (sim_builds / ops) if sim_builds else 0.0,
        "sim.server.advance.self_s": self_s("sim.server.advance"),
        "sim.server.answer.self_s": self_s("sim.server.answer"),
        "sim.server.payload_bytes": counter("sim.server.payload_bytes"),
        "sim.chi2.self_s": self_s("sim.chi2"),
        "sim.chi2.strata": counter("sim.chi2.strata"),
        "bounds.horizon.self_s": self_s("bounds.horizon"),
        "cli.self_s": self_s("cli"),
    }
