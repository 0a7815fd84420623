"""Shared fixtures-in-spirit: the worked three-source law, random laws and
a broken policy scheme."""

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


def never_the_request(n: int) -> StepScheme:
    """A broken ``naive`` policy: asks for source x + 1 mod n instead of x."""
    tables = {}
    for x in range(n):
        tbl = np.zeros((n, n))
        tbl[:, x] = 1.0
        tables[1 << (x + 1) % n] = tbl
    return StepScheme.from_tables(n, tables)
