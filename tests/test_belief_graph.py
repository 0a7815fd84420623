"""The belief graph behind ``enumerate_steps`` and ``simulate`` against the
loop references in ``reference_sim``: seeded trajectories bit-identical,
per-step bound and leakage sums within 1e-12, merged masses summing to one."""

import weakref

import numpy as np
import pytest

import onoffpir.bounds as bounds_mod
from helpers import WORKED_TABLE, random_law
from onoffpir.bounds import bounds_over_horizon
from onoffpir.model import MarkovModel, PrivacyPattern
from onoffpir.sim import POLICIES, enumerate_steps, simulate
from reference_sim import reference_enumerate_steps, reference_simulate

TOL = 1e-12


def _chain(n: int) -> MarkovModel:
    if n == 2:
        return MarkovModel.two_state(0.3, 0.45, [0.6, 0.4])
    if n == 3:
        return MarkovModel(3, WORKED_TABLE, [0.2, 0.3, 0.5])
    rng = np.random.default_rng(n)
    return MarkovModel(n, random_law(rng, n).table, rng.dirichlet(np.ones(n)))


CASES = [(n, pattern, policy)
         for n in (2, 3, 4) for pattern in ("1010", "1001000")
         for policy in POLICIES]


@pytest.mark.parametrize("n,pattern,policy", CASES)
def test_simulate_matches_per_episode_reference(n, pattern, policy):
    model, pat = _chain(n), PrivacyPattern.from_string(pattern)
    got = simulate(model, pat, 400, seed=n, msg_bits=20, policy=policy)
    ref = reference_simulate(model, pat, 400, seed=n, msg_bits=20,
                             policy=policy)
    for name in ("q_masks", "xs", "x_taus", "oks"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.decode_failures == ref.decode_failures == 0


def _reference_sums(monkeypatch, fn, *args, **kwargs):
    """``fn`` evaluated over the per-class reference enumeration."""
    with monkeypatch.context() as patch:
        patch.setattr(bounds_mod, "enumerate_steps", reference_enumerate_steps)
        return fn(*args, **kwargs)


def _close(a, b) -> bool:
    return a is None and b is None or abs(a - b) <= TOL


@pytest.mark.parametrize("n,pattern,with_lp", [
    (2, "1001000", True), (3, "1001000", False), (3, "10010", True),
    (4, "10010", False), (4, "1010", True)])
def test_horizon_sums_match_per_class_reference(monkeypatch, n, pattern, with_lp):
    model, pat = _chain(n), PrivacyPattern.from_string(pattern)
    horizon = len(pat) - 1
    rows = bounds_over_horizon(model, pat, horizon, with_lp=with_lp)
    ref = _reference_sums(monkeypatch, bounds_over_horizon, model, pat,
                          horizon, with_lp=with_lp)
    for got, want in zip(rows, ref, strict=True):
        for name in ("outer2", "outer1", "inner", "exact_n2", "lp_opt", "mi"):
            assert _close(getattr(got, name), getattr(want, name)), (got.t, name)


def _mass_by_belief(view, reset: bool = False) -> dict:
    """Mass per rounded joint; ``reset`` keys each joint on its pivot reset
    to the current request, as the graph holds an ON step's joint."""
    out: dict = {}
    for br in view.branches:
        pre = np.diag(br.pre_joint.sum(axis=0)) if reset else br.pre_joint
        key = np.round(pre, 12).tobytes()
        out[key] = out.get(key, 0.0) + br.prob
    return out


@pytest.mark.parametrize("n,pattern", [(2, "1001000"), (3, "1000100"),
                                       (4, "100010")])
def test_merged_masses(n, pattern):
    model, pat = _chain(n), PrivacyPattern.from_string(pattern)
    horizon = len(pat) - 1
    for view, ref in zip(enumerate_steps(model, pat, horizon),
                         reference_enumerate_steps(model, pat, horizon),
                         strict=True):
        assert abs(sum(br.prob for br in view.branches) - 1.0) <= TOL
        # every belief carries the summed mass of the classes reaching it
        got, want = _mass_by_belief(view), _mass_by_belief(ref, reset=view.f_on)
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= TOL for k in want)
        assert len(view.branches) <= len(ref.branches)


def test_walk_frees_past_layers():
    # the graph keeps no node: while the walk is at step t, every node of
    # steps before t - 1 is gone, and of step t - 1 at most the one the
    # walker's loop variable still holds
    refs = []
    for view in enumerate_steps(_chain(3), PrivacyPattern.from_string("100000000"), 8):
        refs.append([weakref.ref(br) for br in view.branches])
        alive = [sum(ref() is not None for ref in step) for step in refs[:-1]]
        assert alive[:-1] == [0] * (view.t - 1) and alive[-1:] <= [1], alive
    assert [len(step) for step in refs[:6]] == [1, 1, 6, 10, 16, 23]
