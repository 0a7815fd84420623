"""Shared fixtures-in-spirit: the worked three-source law, random laws, the
benchmark's random tables, a broken policy scheme and a fresh interpreter."""

import os
import subprocess
import sys

import numpy as np

from onoffpir.model import ConditionalLaw
from onoffpir.sim import StepScheme

# Three-source transition matrix of the worked example; every golden value in
# the tests below is derived from it.
WORKED_TABLE = np.array([
    [0.1, 0.3, 0.6],
    [0.5, 0.4, 0.1],
    [0.2, 0.5, 0.3],
])


def worked_law() -> ConditionalLaw:
    return ConditionalLaw(3, WORKED_TABLE)


def random_law(rng, n: int, ties: bool = False) -> ConditionalLaw:
    """A random row-stochastic law; `ties` quantizes entries so that equal
    likelihoods exercise the deterministic tie-breaking."""
    t = rng.random((n, n)) + 1e-3
    if ties:
        t = np.ceil(t * 4.0)
    t = t / t.sum(axis=1, keepdims=True)
    return ConditionalLaw(n, t)


def workload_table(seed: int, n: int) -> np.ndarray:
    """The benchmark's ``random_table``: a fixed base table per size,
    jittered entrywise by +-1% from the seed, rows normalized."""
    base = np.random.default_rng([25, n]).uniform(0.5, 1.5, (n, n))
    jitter = np.random.default_rng([seed, n]).uniform(0.99, 1.01, (n, n))
    table = base * jitter
    return table / table.sum(axis=1, keepdims=True)


def never_the_request(n: int) -> StepScheme:
    """A broken ``naive`` policy: asks for source x + 1 mod n instead of x."""
    w = np.zeros((n, n, n))
    w[np.arange(n), :, (np.arange(n) - 1) % n] = 1.0
    return StepScheme(tuple(1 << k for k in range(n)), w)


def run_fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports
    this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout
