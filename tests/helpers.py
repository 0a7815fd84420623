"""Shared fixtures-in-spirit: the worked three-source law, random laws, the
benchmark's random tables, a broken policy scheme and a fresh interpreter;
and the readings of a scheme only the tests take: a law's memo key, a
distribution made of given arrays unchecked, its set-view flag, its law
marginal, one law's part of a batch build, Algorithm 1's scheme of one law,
mutual information as a KL divergence, a distribution's stored bytes, and
the traced peak of a call."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np

from onoffpir.model import ConditionalLaw, _unchecked, order_stats
from onoffpir.scheme import QueryDistribution
from onoffpir.sim import StepScheme, _algorithm1_batch

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


def law_key(law: ConditionalLaw) -> bytes:
    """The belief graph's memo key of a law: its table rounded to 1e-12, as
    bytes, insensitive to sub-tolerance float noise."""
    return np.round(law.table, 12).tobytes()


def of_counts(n: int, counts, qidx, xs, us, probs) -> QueryDistribution:
    """The distribution of these arrays as they are, unchecked, as the
    package's assembly makes one."""
    return _unchecked(QueryDistribution, [n], *(np.asarray(a)[None] for a in
                                               (counts, qidx, xs, us, probs)))[0]


def is_set_view(dist: QueryDistribution) -> bool:
    return bool(np.all(dist.counts <= 1))


def query_conditionals(dist: QueryDistribution) -> np.ndarray:
    """table[qid, u] = p(z | u), each cell summed in entry order; rows are
    constant for a private scheme."""
    key = dist.qidx * dist.n
    key += dist.us
    flat = np.bincount(key, weights=dist.probs, minlength=len(dist.counts) * dist.n)
    return flat.reshape(len(dist.counts), dist.n)


def law_marginal(dist: QueryDistribution) -> np.ndarray:
    """table[u, x] = sum_z p(z, x | u); equals the input law when valid."""
    flat = np.bincount(dist.us * dist.n + dist.xs, weights=dist.probs,
                       minlength=dist.n * dist.n)
    return flat.reshape(dist.n, dist.n)


def law_part(whole: QueryDistribution, row_law, j: int) -> QueryDistribution:
    """Law j's distribution in a ``build_batch`` result ``(whole, row_law)``:
    its count rows and their entries, each a contiguous run."""
    r0, r1 = np.searchsorted(row_law, [j, j + 1])
    e0, e1 = np.searchsorted(whole.qidx, [r0, r1])
    return of_counts(whole.n, whole.counts[r0:r1], whole.qidx[e0:e1] - r0,
                     whole.xs[e0:e1], whole.us[e0:e1], whole.probs[e0:e1])


def scheme_algorithm1(law: ConditionalLaw) -> StepScheme:
    """Algorithm 1's scheme of one law: ``sim._algorithm1_batch`` of one."""
    return _algorithm1_batch(law.table[None], [order_stats(law)])[0]


def mutual_information_kl_bits(joint: np.ndarray) -> float:
    """I(U; Y) as KL(joint || product of marginals); agrees with the direct
    definition and serves as its cross-check."""
    joint = np.asarray(joint, dtype=float)
    pu = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = joint[mask] / (pu @ py)[mask]
    return float((joint[mask] * np.log2(ratio)).sum())


def scheme_bytes(dist: QueryDistribution) -> int:
    """The bytes of a distribution's five stored arrays."""
    return sum(getattr(dist, name).nbytes for name in ("counts", "qidx", "xs", "us", "probs"))


def traced_peak(call):
    """``call()`` and the most bytes tracemalloc saw held at once during it
    beyond what was held before."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
