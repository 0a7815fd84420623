"""Markov request model, privacy patterns, and order-statistics pre-calculation.

Sources are 0-indexed throughout the package: a model with ``n`` sources uses
indices ``0 .. n-1``.  All probability objects are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# Audit tolerance for probability identities (sums to one, independence, ...).
EPS = 1e-9
# Mass below this threshold is dropped when pruning sparse supports.  Kept two
# orders below EPS so that pruned mass cannot push an EPS-level identity out
# of tolerance.
ZERO_TOL = 1e-12
# Most bytes of the n x n table ``MarkovModel.symmetric`` makes (n <= 1448).
TABLE_BYTES = 1 << 24


class CapacityError(RuntimeError):
    """Raised when an exact computation would exceed its size guard."""


def check_number_types(kinds, what: str):
    """Raise ValueError unless every type in ``kinds`` is a number type.

    Only ints and floats pass, Python's or numpy's (numpy's bool is neither):
    ``np.asarray`` would silently turn strings, bytes and booleans into
    numbers, so they raise ValueError like any other type.
    """
    for kind in kinds:
        if issubclass(kind, bool) or not issubclass(
                kind, (int, float, np.integer, np.floating)):
            raise ValueError(f"{what} must be numbers, not {kind.__name__}")


def numbers(values, what: str) -> np.ndarray:
    """``values``, a number or nested lists of numbers, as a float array,
    after :func:`check_number_types` on every element.  An int too large
    for a float raises ValueError too."""
    arr = np.asarray(values, dtype=object)
    check_number_types(set(map(type, arr.ravel().tolist())), what)
    try:
        return arr.astype(float)
    except OverflowError as exc:
        raise ValueError(f"{what}: {exc}") from None


def whole_numbers(values, what: str, lo: int, hi: int) -> np.ndarray:
    """``values`` as int64 after checking they are integers in [lo, hi)."""
    arr = numbers(values, what)
    if not np.all((arr == np.floor(arr)) & (arr >= lo) & (arr < hi)):
        raise ValueError(f"{what} must be integers in [{lo}, {hi})")
    return arr.astype(np.int64)


def source_count(n, lo: int = 1) -> int:
    """``n`` as an int; ValueError unless :func:`whole_numbers` finds it one
    integer in [lo, 2**31)."""
    try:
        return int(whole_numbers(n, "n", lo, 1 << 31))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"need n >= {lo} sources: {exc}") from None


def load_json(text):
    """``json.loads(text)``, with nesting too deep for the parser's
    recursion a ValueError like any other malformed text."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON text nested too deeply") from None


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MarkovModel:
    """An ``n``-state request chain: transition matrix ``p`` and initial
    distribution ``pi0``.

    Row ``i`` of ``p`` is the distribution of the next request given the
    current request is ``i``.
    """

    n: int
    p: np.ndarray
    pi0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", source_count(self.n, 2))
        p = _readonly(self.p)
        pi0 = _readonly(self.pi0)
        if p.shape != (self.n, self.n):
            raise ValueError(f"transition matrix must be {self.n}x{self.n}, got {p.shape}")
        if pi0.shape != (self.n,):
            raise ValueError(f"initial distribution must have length {self.n}")
        if not (np.isfinite(p).all() and np.isfinite(pi0).all()):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0) or np.any(p > 1) or np.any(pi0 < 0) or np.any(pi0 > 1):
            raise ValueError("probabilities must lie in [0, 1]")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("each transition-matrix row must sum to 1")
        if abs(pi0.sum() - 1.0) > 1e-12:
            raise ValueError("initial distribution must sum to 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "pi0", pi0)

    @staticmethod
    def two_state(alpha: float, beta: float, pi0=None) -> "MarkovModel":
        """Two-source chain with switch probabilities alpha (0->1) and beta (1->0)."""
        p = np.array([[1 - alpha, alpha], [beta, 1 - beta]], dtype=float)
        if pi0 is None:
            pi0 = np.array([0.5, 0.5])
        return MarkovModel(2, p, np.asarray(pi0, dtype=float))

    @staticmethod
    def symmetric(n: int, alpha: float) -> "MarkovModel":
        """n-source chain that stays put with probability alpha and moves to
        each other source with probability (1-alpha)/(n-1)."""
        if n < 2:
            raise ValueError(f"need at least two sources, got n={n}")
        if n * n * 8 > TABLE_BYTES:
            raise CapacityError(f"a {n} x {n} transition matrix exceeds "
                                f"{TABLE_BYTES} bytes")
        off = (1.0 - alpha) / (n - 1)
        p = np.full((n, n), off)
        np.fill_diagonal(p, alpha)
        return MarkovModel(n, p, np.full(n, 1.0 / n))

    @staticmethod
    def from_json(obj) -> "MarkovModel":
        """Parse ``{"n": int, "p": [[...]], "pi0": [...]}`` (dict or JSON text)."""
        if isinstance(obj, (str, bytes)):
            obj = load_json(obj)
        try:
            return MarkovModel(obj["n"], numbers(obj["p"], "p"),
                               numbers(obj["pi0"], "pi0"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed Markov model: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "p": self.p.tolist(), "pi0": self.pi0.tolist()})

    @staticmethod
    def load(path) -> "MarkovModel":
        with open(path) as fh:
            return MarkovModel.from_json(fh.read())


@dataclass(frozen=True)
class PrivacyPattern:
    """Privacy status flags per time step; index 0 is always ON.  A flag is
    anything equal to 0 or 1 (bools, numpy bools, the ints 0 and 1).

    ``taus[t]`` is the pivot of step t, the most recent step <= t whose flag
    is ON, as a read-only int64 array.
    """

    flags: tuple
    taus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bad = [f for f in self.flags if f not in (0, 1)]
        if bad:
            raise ValueError(f"privacy flags must be 0 or 1, got {bad[0]!r}")
        flags = tuple(bool(f) for f in self.flags)
        if not flags:
            raise ValueError("pattern must contain at least the step-0 flag")
        if not flags[0]:
            raise ValueError("privacy must be ON at step 0")
        steps = np.arange(len(flags))
        taus = np.maximum.accumulate(np.where(flags, steps, 0))
        taus.setflags(write=False)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "taus", taus)

    @staticmethod
    def from_string(s: str) -> "PrivacyPattern":
        """Parse a '1'/'0' string, index 0 first, e.g. "1000"."""
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"pattern must be a nonempty string of 0/1, got {s!r}")
        return PrivacyPattern(tuple(c == "1" for c in s))

    def __len__(self) -> int:
        return len(self.flags)

    def __str__(self) -> str:
        return "".join("1" if f else "0" for f in self.flags)


def tau_of(pattern: PrivacyPattern, t: int) -> int:
    """Most recent time <= t at which privacy was ON (defined since flag 0 is ON)."""
    if t < 0 or t >= len(pattern):
        raise IndexError(f"t={t} outside pattern of length {len(pattern)}")
    return int(pattern.taus[t])


@dataclass(frozen=True)
class ConditionalLaw:
    """A two-argument probability law: ``table[u, x] = p(X = x | U = u)``.

    In this package ``U`` is the pivot request (last time privacy was ON) and
    ``X`` the current request, so the one-step instance is the transition
    matrix itself and the gap-k instance is its k-th power, possibly
    reconditioned on an observed query history.
    """

    n: int
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", source_count(self.n))
        table = _readonly(self.table)
        _check_tables(self.n, table[None])
        object.__setattr__(self, "table", table)

    @classmethod
    def stack(cls, tables: np.ndarray) -> list:
        """The laws of an (L, n, n) stack of tables, checked once as a
        whole; each law's table is a read-only view of the stack."""
        tables = _readonly(tables)
        n = tables.shape[-1]
        _check_tables(n, tables)
        laws = []
        for table in tables:
            law = cls.__new__(cls)
            object.__setattr__(law, "n", n)
            object.__setattr__(law, "table", table)
            laws.append(law)
        return laws

    def key(self) -> bytes:
        """Stable hash key, insensitive to sub-tolerance float noise."""
        return np.round(self.table, 12).tobytes()


def _check_tables(n: int, tables: np.ndarray):
    """Raise ValueError unless ``tables`` is a stack of n x n laws: finite,
    nonnegative up to 1e-12, each row summing to 1 within 1e-12."""
    if tables.shape[1:] != (n, n):
        raise ValueError(f"law table must be {n}x{n}, got {tables.shape[1:]}")
    if not np.isfinite(tables).all():
        raise ValueError("law entries must be finite")
    if np.any(tables < -1e-12):
        raise ValueError("law entries must be nonnegative")
    if np.abs(tables.sum(axis=-1) - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("each law row must sum to 1")


def step_law(model: MarkovModel, k: int) -> ConditionalLaw:
    """The k-step law P^k as a ConditionalLaw (matrix power, k >= 1)."""
    if k < 1:
        raise ValueError(f"step count must be >= 1, got {k}")
    # np.linalg.matrix_power squares repeatedly, so large k stays cheap.
    pk = np.linalg.matrix_power(model.p, k)
    pk = np.clip(pk, 0.0, None)
    pk /= pk.sum(axis=1, keepdims=True)
    return ConditionalLaw(model.n, pk)


@dataclass(frozen=True)
class OrderStats:
    """Per-column likelihood orderings and the derived budget quantities.

    ``orderings[x, i]`` is the pivot value with the (i+1)-th smallest
    likelihood of producing ``x`` (ties broken toward the smaller pivot
    index).  ``lambdas[i]`` sums those i-th smallest likelihoods over ``x``;
    ``thetas`` are the increments of ``min(1, lambdas)``; ``sigma`` is the
    last level whose sum is still <= 1; ``deltas`` is the per-source budget
    vector chosen greedily between the sigma-th and (sigma+1)-th levels.
    """

    n: int
    orderings: np.ndarray
    lambdas: np.ndarray
    thetas: np.ndarray
    sigma: int
    deltas: np.ndarray

    def __post_init__(self):
        orderings = np.asarray(self.orderings, dtype=np.int64)
        orderings.setflags(write=False)
        object.__setattr__(self, "orderings", orderings)
        object.__setattr__(self, "lambdas", _readonly(self.lambdas))
        object.__setattr__(self, "thetas", _readonly(self.thetas))
        object.__setattr__(self, "deltas", _readonly(self.deltas))


def order_stats(law: ConditionalLaw) -> OrderStats:
    """Sort each column of the law and derive the level sums, their clipped
    increments, the threshold level, and the greedy budget vector:
    :func:`stacked_order_stats` of one."""
    return stacked_order_stats(law.table[None])[0]


def stacked_order_stats(tables: np.ndarray) -> list:
    """:func:`order_stats` of each law table in an (L, n, n) stack, sorted,
    summed and clipped in one pass; only each law's budget break point is
    found on its own.  Each result's arrays are read-only views."""
    n = tables.shape[-1]
    # argsort per column; stable sort keeps the smaller pivot index first on
    # ties.  ranks[l, i, x] = u^(x, i+1) and levels[l, i, x] = p(x | u^(x, i+1)).
    ranks = np.argsort(tables, axis=1, kind="stable")
    levels = np.ascontiguousarray(np.take_along_axis(tables, ranks, axis=1))
    lambdas = levels.sum(axis=2)
    clipped = np.minimum(1.0, lambdas)
    thetas = clipped.copy()
    thetas[:, 1:] -= clipped[:, :-1]   # the increments, the first from 0
    thetas = np.clip(thetas, 0.0, None)
    # lambdas is nondecreasing with lambda_1 <= 1, so the threshold exists;
    # the small slack absorbs float noise on laws given as short decimals.
    sigmas = n - np.argmax((lambdas <= 1.0 + 1e-12)[:, ::-1], axis=1)

    # Source j's budget is p(j | u^(j, sigma+1)) while the room level sigma
    # leaves lasts, in source order; the source where it runs out takes what
    # is left, and the sources after it keep p(j | u^(j, sigma)).  sigma = n
    # only when every column is constant (all level sums equal 1): the
    # budget is forced to the top level and already sums to 1.
    each = np.arange(len(tables))
    a = levels[each, sigmas - 1]
    b = levels[each, np.minimum(sigmas, n - 1)]
    moved = np.cumsum(b - a, axis=1) <= (1.0 - a.sum(axis=1))[:, None]
    moved[sigmas == n] = True
    deltas = np.where(moved, b, a)
    # b >= a, so each row of moved is True up to its break point only
    for law in np.flatnonzero(~moved.all(axis=1)).tolist():
        j = int(np.argmin(moved[law]))
        deltas[law, j] = 1.0 - b[law, :j].sum() - a[law, j + 1:].sum()

    orderings = ranks.transpose(0, 2, 1)   # orderings[l, x, i] = u^(x, i+1)
    for arr in (orderings, lambdas, thetas, deltas):
        arr.setflags(write=False)
    return [OrderStats(n, *fields) for fields in
            zip(orderings, lambdas, thetas, sigmas.tolist(), deltas)]


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information_bits(joint: np.ndarray) -> float:
    """I(U; Y) from a joint table, via H(U) + H(Y) - H(U, Y)."""
    joint = np.asarray(joint, dtype=float)
    return entropy_bits(joint.sum(axis=1)) + entropy_bits(joint.sum(axis=0)) \
        - entropy_bits(joint)
