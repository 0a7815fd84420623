"""The wire and output paths against their per-entry references in
``reference_wire``: identical ``to_json`` bytes, identical distributions read
back, the same inputs rejected, identical trace CSV bytes, and identical
chi-square audits (statistic and p-value within 1e-12 relative)."""

import codecs
import json
import math
import re
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import onoffpir.cli as cli_mod
import onoffpir.scheme as scheme_mod
import reference_wire as ref
import test_scheme
from helpers import random_law, traced_peak, worked_law
from onoffpir.cli import CSV_CHUNK, _trace_csv, main
from onoffpir.model import ConditionalLaw, MarkovModel, PrivacyPattern
from onoffpir.scheme import (QueryDistribution, _scan, build_query_distribution,
                             project_to_sets)
from onoffpir.sim import POLICIES, SimulationResult, empirical_privacy_audit, simulate


def _schemes():
    rng = np.random.default_rng(909)
    laws = [worked_law(), ConditionalLaw(4, test_scheme.TIES_ZEROS)]
    laws += [random_law(rng, n, ties=ties) for n in range(2, 13)
             for ties in (False, True)]
    for law in laws:
        dist = build_query_distribution(law)
        yield dist
        yield project_to_sets(dist)


SCHEMES = list(_schemes())


def test_to_json_bytes_match_reference():
    for dist in SCHEMES:
        assert dist.to_json() == ref.to_json(dist)


def _constructed(n, rows, entries):
    """A distribution made with the public constructor: count rows ``rows``
    and (row, x, u, p) ``entries``, stored as given."""
    qidx, xs, us, ps = zip(*entries)
    return QueryDistribution(n, [SimpleNamespace(counts=row) for row in rows],
                             qidx, xs, us, ps)


CONSTRUCTED = {
    "signed-zero": _constructed(2, [(1, 1), (0, 1)], [
        (0, 0, 0, 0.0), (0, 1, 0, -0.0), (1, 1, 0, 1.0), (0, 0, 1, -0.0),
        (0, 1, 1, 0.0), (1, 1, 1, 1.0)]),
    "repeated-p": _constructed(5, [(1, 1, 1, 1, 1), (2, 0, 0, 0, 1)], [
        (q, x, u, 0.2 if q == 0 else 0.125) for q in (0, 1) for x in (0, 4)
        for u in range(5)]),
    "exponents": _constructed(3, [(1, 1, 1)], [
        (0, 0, 2, 1e-05), (0, 1, 0, 2.5e-10), (0, 2, 2, 5e-324), (0, 0, 1, 1e16),
        (0, 1, 1, 1e22), (0, 2, 1, 1.7976931348623157e308)]),
    "last-index": _constructed(7, [(0, 0, 0, 0, 0, 0, 7)], [(0, 6, 6, 1.0), (0, 6, 0, 1.0)]),
    "one-source": _constructed(1, [(1,)], [(0, 0, 0, 1.0)]),
}


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_to_json_of_constructed_matches_reference(name):
    dist = CONSTRUCTED[name]
    assert dist.to_json() == ref.to_json(dist)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.tuples(
    st.integers(0, n - 1), st.integers(0, n - 1),
    st.sampled_from([0.0, -0.0, 0.5, 1e-05, 2.5e-10]) | st.floats(0, 1e300)),
    min_size=1, max_size=30))))
def test_to_json_of_random_constructed_matches_reference(drawn):
    n, entries = drawn
    dist = _constructed(n, [(1,) * n], [(0, x, u, p) for x, u, p in entries])
    assert dist.to_json() == ref.to_json(dist)


def test_from_json_matches_reference():
    for dist in SCHEMES:
        wire = dist.to_json()
        got, want = QueryDistribution.from_json(wire), ref.from_json(wire)
        assert got.entry_tuples() == want.entry_tuples() == dist.entry_tuples()
        assert got.to_json() == wire


@pytest.fixture(scope="module")
def built_texts(tmp_path_factory):
    """``onoffpir build`` files, the ``expected_...`` members spliced in."""
    tmp = tmp_path_factory.mktemp("built")
    texts = []
    for n in (3, 6):
        model = tmp / f"m{n}.json"
        model.write_text(_chain(n).to_json())
        for gap in ("1", "3"):
            out = tmp / f"d{n}-{gap}.json"
            assert main(["build", "--model", str(model), "--gap", gap,
                         "--out", str(out)]) == 0
            texts.append(out.read_text())
    return texts


def _dict_route(text):
    return QueryDistribution.from_json(json.loads(text))


def test_scanned_text_matches_dict_route(built_texts):
    for text in [dist.to_json() for dist in SCHEMES] + built_texts:
        got, want = QueryDistribution.from_json(text), _dict_route(text)
        for name in ("counts", "qidx", "xs", "us", "probs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_canonical_text_is_never_parsed_whole(built_texts, monkeypatch):
    seen = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, **kw: seen.append(s) or loads(s, **kw))
    for text in [dist.to_json() for dist in SCHEMES] + built_texts:
        for obj in (text, text.encode(), codecs.BOM_UTF8 + text.encode()):
            seen.clear()
            QueryDistribution.from_json(obj)
            assert seen and all(len(arg) < len(text) for arg in seen)
    # a str is read as it is given: a BOM in front is not JSON text
    with pytest.raises(ValueError):
        QueryDistribution.from_json("\ufeff" + built_texts[0])


def _first(pattern, new):
    return lambda text: re.sub(pattern, new, text, count=1)


def _tail(members):
    return lambda text: text.rstrip()[:-1] + members + "}"


def _reordered(text):
    obj = json.loads(text)
    return json.dumps({"entries": [dict(reversed(e.items())) for e in obj["entries"]],
                       "n": obj["n"]})


_P, _X, _U, _Z = r'"p": [^}]*', r'"x": (\d+)', r'"u": (\d+)', r'"z": \[[^\]]*\]'
MUTATIONS = {
    "indent": lambda text: json.dumps(json.loads(text), indent=1),
    "compact": lambda text: json.dumps(json.loads(text), separators=(",", ":")),
    "reordered": _reordered,
    "n-override": _tail(', "n": 7'),
    "entries-override": _tail(', "entries": []'),
    "newline": lambda text: text + "\n",
    "spaces": lambda text: text + "  \t\r\n ",
    "trailing-nbsp": lambda text: text + "\u00a0",
    "leading-space": lambda text: " " + text,
    "bytes": str.encode,
    "bytes-bom": lambda text: codecs.BOM_UTF8 + text.encode(),
    "bytes-utf16": lambda text: text.encode("utf-16"),
    "bytes-not-utf8": lambda text: (text + "\u00a0").encode("latin-1"),
    "p-int": _first(_P, '"p": 1'),
    "p-minus-zero": _first(_P, '"p": -0'),
    "p-exponent": _first(_P, '"p": 1E-5'),
    "p-huge-int": _first(_P, '"p": 1' + "0" * 400),
    "p-nan": _first(_P, '"p": NaN'),
    "p-infinity": _first(_P, '"p": Infinity'),
    "p-unicode-digit": _first(_P, '"p": 1\u0660'),
    "p-unicode-fraction": _first(_P, '"p": 0.\u0665'),
    "x-float": _first(_X, r'"x": \1.0'),
    "x-leading-zero": _first(_X, r'"x": 0\1'),
    "x-out-of-range": lambda text: _first(_X, f'"x": {json.loads(text)["n"]}')(text),
    "x-huge-int": _first(_X, '"x": 1' + "0" * 400),
    "u-float": _first(_U, r'"u": \1.0'),
    "u-leading-zero": _first(_U, r'"u": 0\1'),
    "u-out-of-range": lambda text: _first(_U, f'"u": {json.loads(text)["n"]}')(text),
    "u-huge-int": _first(_U, '"u": 1' + "0" * 400),
    "z-double-comma": _first(_Z, '"z": [1,,0]'),
    "z-empty-item": _first(r'"z": \[(\d+), ', r'"z": [\1,, '),
    "z-unterminated": _first(_Z, '"z": [1, 0'),
    "z-too-long": _first(r'"z": \[', '"z": [0, '),
    "z-float": _first(r'"z": \[(\d+)', r'"z": [\1.0'),
    "separator-moved": lambda text: _first(r'"entries": \[', '"entries": [, ')(
        _first(r'\}, \{', '}{')(text)),
    "entries-empty": _first(r'\[\{.*\}\]', "[]"),
}


def _outcome(read, text):
    try:
        return read(text).entry_tuples()
    except ValueError:
        return ValueError


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_text_reads_as_dict_route(mutation, built_texts):
    for text in [SCHEMES[0].to_json(), SCHEMES[-1].to_json()] + built_texts[:2]:
        mutated = MUTATIONS[mutation](text)
        assert mutated != text
        assert (_outcome(QueryDistribution.from_json, mutated)
                == _outcome(_dict_route, mutated))


def test_spellings_of_one_value_read_as_dict_route():
    # Distinct texts of equal values, two of them in one cell that merges.
    text = ('{"n": 2, "entries": [{"z": [1, 1], "x": 0, "u": 0, "p": 0.5}, '
            '{"z": [1, 1], "x": 1, "u": -0, "p": 5e-1}, '
            '{"z": [1, 1], "x": 0, "u": 1, "p": 0.50}, '
            '{"z": [1, 1], "x": 1, "u": 1, "p": 0.25}, '
            '{"z": [1, 1], "x": 1, "u": 1, "p": 2.5E-1}]}')
    got, want = _scan(text), _dict_route(text)
    for name in ("counts", "qidx", "xs", "us", "probs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.entry_tuples() == [((1, 1), x, u, 0.5) for x in (0, 1) for u in (0, 1)]


@pytest.mark.parametrize("field", ["x", "u"])
def test_scanned_index_out_of_range_names_its_field(field):
    text = SCHEMES[0].to_json()
    n = json.loads(text)["n"]
    with pytest.raises(ValueError, match=rf"^{field} must be integers in \[0, {n}\)"):
        _scan(_first(rf'"{field}": \d+', f'"{field}": {n}')(text))


def test_scan_stays_linear_on_unclosed_rows():
    # 30,000 entry starts whose count rows never close: a row pattern that
    # ran on to the final "]" made findall take seconds here.
    text = '{"n": 3, "entries": [' + '{"z": [' * 30000 + '0]}'
    start = time.perf_counter()
    assert _scan(text) is None
    assert time.perf_counter() - start < 1.0


def _read_or_raise(obj):
    """The entries ``from_json(obj)`` reads, or the type and message of what
    it raises."""
    try:
        return QueryDistribution.from_json(obj).entry_tuples()
    except Exception as exc:   # compared with the default chunk's, not handled
        return type(exc), str(exc)


class _SpyPattern:
    """A compiled pattern whose ``findall`` calls record their bounds."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, []

    def findall(self, data, pos, endpos):
        self.calls.append((pos, endpos))
        return self.pattern.findall(data, pos, endpos)


@pytest.mark.parametrize("chunk", [1, 97, 4096])
def test_scan_chunks_read_as_one(chunk, built_texts, monkeypatch):
    texts = [SCHEMES[0].to_json(), SCHEMES[-1].to_json()] + built_texts
    objs = texts + [MUTATIONS[name](text) for name in MUTATIONS for text in texts[:4]]
    want = list(map(_read_or_raise, objs))
    spy = _SpyPattern(scheme_mod._ENTRY)
    monkeypatch.setattr(scheme_mod, "_ENTRY", spy)
    monkeypatch.setattr(scheme_mod, "SCAN_CHUNK", chunk)
    # the chunks of a built file end after the ", " between two entries,
    # and some nominal cut falls inside an entry
    data = built_texts[-1].encode()
    assert _read_or_raise(data) == want[len(texts) - 1]
    cuts = spy.calls[:-1]
    assert cuts and all(data[stop - 3:stop] == b"}, " for _pos, stop in cuts)
    assert any(not data.startswith(b'{"z": ', pos + chunk) for pos, _stop in cuts)
    assert list(map(_read_or_raise, objs)) == want


def _chain40_file(tmp):
    """An ``onoffpir build`` file at n = 40, about 10 MB, and its model."""
    model = tmp / "m40.json"
    model.write_text(_chain(40).to_json())
    out = tmp / "d40.json"
    assert main(["build", "--model", str(model), "--out", str(out)]) == 0
    return model, out


def test_scan_holds_a_fraction_of_the_file(tmp_path):
    # the text is scanned as bytes, one chunk's matches at a time: no decoded
    # copy and no string per entry field at once
    data = _chain40_file(tmp_path)[1].read_bytes()
    dist, peak = traced_peak(lambda: QueryDistribution.from_json(data))
    assert len(dist) > 50_000
    assert peak < 0.75 * len(data)


def test_build_writes_no_second_copy_of_the_text(tmp_path, monkeypatch):
    # once to_json has returned, the writer holds one slice of the text at a
    # time beside it, never a second copy of the whole
    model, built = _chain40_file(tmp_path)
    encode = QueryDistribution.to_json
    held = []

    def to_json(dist):
        text = encode(dist)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return text

    monkeypatch.setattr(QueryDistribution, "to_json", to_json)
    monkeypatch.setattr(cli_mod, "WRITE_CHUNK", 1 << 16)
    out = tmp_path / "again.json"
    code, peak = traced_peak(lambda: main(["build", "--model", str(model),
                                           "--out", str(out)]))
    size = built.stat().st_size
    assert code == 0 and out.read_bytes() == built.read_bytes() and size > 8 << 20
    assert peak - held[0] < size / 16


def test_from_items_merges_like_reference():
    # shuffled entries, split probabilities and float-valued count vectors
    rng = np.random.default_rng(5)
    for dist in SCHEMES[::4]:
        items = []
        for z, x, u, p in dist.entry_tuples():
            z = [float(c) for c in z] if rng.random() < 0.5 else list(z)
            items += [(z, x, u, p / 4), (tuple(z), x, u, 3 * p / 4)]
        items = [items[i] for i in rng.permutation(len(items))]
        got = QueryDistribution.from_items(dist.n, items)
        assert got.entry_tuples() == ref.from_items(dist.n, items).entry_tuples()


MALFORMED = test_scheme.test_from_items_rejects_malformed_entries.pytestmark[0].args[1]


@pytest.mark.parametrize("entry", MALFORMED + [
    ((True, 0, 0), 0, 0, 0.5),      # behind the equal row (1, 0, 0) below
    ([1, np.False_, 0], 0, 0, 0.5),
    (b"\x00\x01\x00", 1, 0, 0.5),   # bytes iterate to ints
    ({0: 1, 1: 0, 2: 0}, 0, 0, 0.5),
    (3, 0, 0, 0.5),
])
def test_both_reject_malformed_entries(entry):
    items = [((1, 0, 0), 0, 1, 0.5), ((0, 1, 0), 1, 1, 0.5), entry]
    for from_items in (QueryDistribution.from_items, ref.from_items):
        with pytest.raises(ValueError):
            from_items(3, items)


@pytest.mark.parametrize("text", [
    '{"n": 3, "entries": [' + "[" * 100_000 + "]" * 100_000 + "]}",
    '{"n": 3, "entries": [{"z": [1, 0, 0], "x": 0, "u": 0, "p": '
    + "[" * 100_000 + "]" * 100_000 + "}]}",
], ids=["entries", "p"])
def test_from_json_too_deep_is_value_error(text):
    for obj in (text, text.encode()):
        with pytest.raises(ValueError, match="nested too deeply"):
            QueryDistribution.from_json(obj)


def test_integral_floats_merge_with_ints():
    items = [((1, 0, 0), 0, 0, 0.5), ((1.0, 0, 0), 0, 0, 0.5)]
    got = QueryDistribution.from_items(3, items).entry_tuples()
    assert got == ref.from_items(3, items).entry_tuples() == [((1, 0, 0), 0, 0, 1.0)]


def _chain(n):
    t = np.random.default_rng([77, n]).uniform(0.5, 1.5, (n, n))
    return MarkovModel(n, t / t.sum(axis=1, keepdims=True), np.full(n, 1.0 / n))


@pytest.mark.parametrize("policy", POLICIES)
def test_trace_csv_bytes_match_reference(policy):
    res = simulate(_chain(3), PrivacyPattern.from_string("1001000"), 300, seed=4,
                   msg_bits=24, policy=policy)
    assert _trace_csv(res) == ref.trace_csv(res)


@pytest.mark.parametrize("episodes, pattern", [
    (1, "1001"), (CSV_CHUNK - 1, "10"), (CSV_CHUNK, "10"), (CSV_CHUNK + 1, "10"),
    (50, "1"),
])
def test_trace_csv_blocks_match_reference(episodes, pattern):
    res = simulate(_chain(4), PrivacyPattern.from_string(pattern), episodes, seed=8)
    assert _trace_csv(res) == ref.trace_csv(res)


# Each mask's popcount c times the repunit (10^k - 1) / 9 gives a len_bits of
# 10^k - 1 at c = 9 and of k + 1 digits at c = 10, up to 19 digits at k = 18.
REPUNITS = [(10 ** k - 1) // 9 for k in range(1, 19)]
EDGE_MASKS = ([0, 2 ** 63 - 1, (1 << 9) - 1, (1 << 10) - 1]
              + [10 ** k + d for k in range(1, 19) for d in (-1, 0)])


@pytest.mark.parametrize("episodes", [9, 10, 11, 100, 1001, CSV_CHUNK - 1, CSV_CHUNK + 1])
def test_trace_csv_digit_widths_match_reference(episodes):
    """Every column crosses its digit boundaries: episode and t by count, x
    in [0, 63), q at each 10^k - 1 and 10^k up to 2^63 - 1, len_bits up to
    19 digits, and random widths mixed inside each block."""
    n, steps = 63, 11
    model = MarkovModel.symmetric(n, 0.5)
    rng = np.random.default_rng([episodes, 5])
    size = (episodes, steps)
    q = rng.integers(0, 2 ** 63, size, dtype=np.int64) >> rng.integers(0, 63, size)
    q.flat[:len(EDGE_MASKS)] = EDGE_MASKS
    xs = rng.integers(0, n, size)
    pattern = PrivacyPattern((True,) + tuple(rng.random(steps - 1) < 0.5))
    for msg_bits in [1] + REPUNITS:
        res = SimulationResult(model, pattern, episodes, 0, msg_bits, "algorithm1", q, xs,
                               xs[:, pattern.taus], rng.random(size) < 0.9, 0)
        assert _trace_csv(res) == ref.trace_csv(res), msg_bits


def _same_audit(got, want):
    assert (got.dof, got.strata, got.samples, got.unreliable) == \
        (want.dof, want.strata, want.samples, want.unreliable)
    assert math.isclose(got.statistic, want.statistic, rel_tol=1e-12)
    assert math.isclose(got.p_value, want.p_value, rel_tol=1e-12)


@pytest.mark.parametrize("n, pattern, policy", [
    (2, "100000", "algorithm1"), (3, "1001000", "algorithm1"),
    (3, "1001000", "naive"), (4, "10100", "algorithm1"),
    (4, "1000", "full_download"),
])
def test_audit_matches_reference_on_seeded_runs(n, pattern, policy):
    res = simulate(_chain(n), PrivacyPattern.from_string(pattern), 3000,
                   seed=n, policy=policy)
    for t in range(len(pattern)):
        _same_audit(empirical_privacy_audit(res, t), ref.empirical_privacy_audit(res, t))


def test_audit_matches_reference_on_random_tables():
    # Thin strata: single rows or columns, zero cells and wide masks.
    rng = np.random.default_rng(31)
    for episodes, steps, n in ((40, 4, 3), (500, 5, 2), (2000, 3, 6)):
        masks = rng.integers(1, 1 << n, (episodes, steps))
        masks[:, 0] = (1 << n) - 1
        masks[rng.random(episodes) < 0.2, 2] = 1 << 62
        taus = rng.integers(0, n, (episodes, steps))
        res = SimulationResult(_chain(n), PrivacyPattern((True,) * steps), episodes,
                               0, 8, "algorithm1", masks, taus, taus,
                               np.ones(masks.shape, dtype=bool), 0)
        for t in range(steps):
            _same_audit(empirical_privacy_audit(res, t),
                        ref.empirical_privacy_audit(res, t))
