import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import onoffpir.cli as cli_mod
import onoffpir.lp as lp_mod
import onoffpir.scheme as scheme_mod
import onoffpir.sim as sim_mod
from helpers import WORKED_TABLE, never_the_request, run_fresh_python
from onoffpir.cli import main
from onoffpir.lp import LpSolution
from onoffpir.model import CapacityError, MarkovModel, order_stats, step_law
from onoffpir.scheme import InternalConsistencyError, build_query_distribution
from onoffpir.sim import POLICIES


@pytest.fixture
def model3_path(tmp_path):
    m = MarkovModel(3, WORKED_TABLE, np.full(3, 1 / 3))
    path = tmp_path / "m3.json"
    path.write_text(m.to_json())
    return str(path)


@pytest.fixture
def model2_path(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(MarkovModel.two_state(0.2, 0.2).to_json())
    return str(path)


def test_bounds_csv(model2_path, capsys):
    assert main(["bounds", "--model", model2_path, "--pattern", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,F,outer2,outer1,inner,exact_n2"
    assert lines[1].startswith("0,1,2,2,2,2")
    cells = lines[2].split(",")
    assert float(cells[2]) == pytest.approx(1.6, abs=1e-9)


def test_bounds_json_format(model2_path, capsys):
    assert main(["bounds", "--model", model2_path, "--pattern", "10",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[1]["inner"] == pytest.approx(1.6, abs=1e-9)


def test_bounds_with_lp_csv(model3_path, capsys):
    assert main(["bounds", "--model", model3_path, "--pattern", "1000",
                 "--with-lp"]) == 0
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header == "t,F,outer2,outer1,inner,lp_opt"
    assert rows[0].endswith(",3")
    off = [[float(c) for c in row.split(",")] for row in rows[1:]]
    assert len(off) == 3 and all(cells[1] == 0 for cells in off)
    for _t, _f, _outer2, outer1, inner, lp_opt in off:
        assert outer1 - 1e-6 <= lp_opt <= inner + 1e-6


def test_bounds_deterministic_output(model2_path, capsys):
    main(["bounds", "--model", model2_path, "--pattern", "1000"])
    first = capsys.readouterr().out
    main(["bounds", "--model", model2_path, "--pattern", "1000"])
    assert capsys.readouterr().out == first


def test_bounds_capacity_exit_code(model3_path, capsys, monkeypatch):
    monkeypatch.setattr(sim_mod, "MAX_BELIEFS", 2)
    assert main(["bounds", "--model", model3_path, "--pattern", "10000"]) == 3


def test_build_verify_round_trip(model3_path, tmp_path, capsys):
    dist_path = str(tmp_path / "dist.json")
    assert main(["build", "--model", model3_path, "--out", dist_path]) == 0
    payload = json.loads(Path(dist_path).read_text())
    assert payload["expected_set_cardinality"] <= 1.6 + 1e-9
    assert payload["expected_multiset_cardinality"] == pytest.approx(1.6, abs=1e-9)

    assert main(["verify", "--dist", dist_path, "--model", model3_path]) == 0
    report1 = json.loads(capsys.readouterr().out)
    assert report1["passed"] is True

    # verifying the same artifact twice reproduces the audit exactly
    assert main(["verify", "--dist", dist_path, "--model", model3_path]) == 0
    report2 = json.loads(capsys.readouterr().out)
    assert report1 == report2


def test_build_output_pinned(model3_path, capsys):
    # the cardinality keys spliced onto the scheme's JSON, byte for byte
    for gap, digest in (
            ("1", "e2cf395667f39127bdcc43c50eca7b4c80210a8f91d6967dce0a5dc0f57e8f63"),
            ("2", "7e24da6b8b6ba8040d5b8e15e9c49fbdbceb16d3f82ef34a7fbc9cd17da55e24")):
        assert main(["build", "--model", model3_path, "--gap", gap]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_rejects_tampered_distribution(model3_path, tmp_path, capsys):
    dist_path = str(tmp_path / "dist.json")
    main(["build", "--model", model3_path, "--out", dist_path])
    payload = json.loads(Path(dist_path).read_text())
    payload["entries"][0]["p"] += 0.05
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    code = main(["verify", "--dist", str(tmp_path / "bad.json"),
                 "--model", model3_path])
    assert code == 1


def test_verify_rejects_out_of_range_entry(model3_path, tmp_path, capsys):
    dist_path = str(tmp_path / "dist.json")
    main(["build", "--model", model3_path, "--out", dist_path])
    payload = json.loads(Path(dist_path).read_text())
    entry = next(e for e in payload["entries"]
                 if e["z"] == [0, 1, 0] and e["x"] == 1)
    # x = n + 1 on (0,0,1) used to alias onto x = 1 of the next interned
    # query, (0,1,0), and pass the audit
    entry["z"], entry["x"] = [0, 0, 1], 4
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    code = main(["verify", "--dist", str(tmp_path / "bad.json"),
                 "--model", model3_path])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("payload", [
    {"n": 3, "entries": [[0, 0, 1]]},
    {"n": 3, "entries": [{"z": {"a": 1}, "x": 0, "u": 0, "p": 1.0}]},
    {"n": 3, "entries": {"z": [1, 0, 0], "x": 0, "u": 0, "p": 1.0}},
    [{"n": 3}],
    {"n": "3", "entries": [{"z": [1, 0, 0], "x": 0, "u": 0, "p": 1.0}]},
    {"n": 3, "entries": [{"z": ["1", "0", "0"], "x": 0, "u": 0, "p": 1.0}]},
    {"n": 3, "entries": [{"z": [1, 0, 0], "x": "0", "u": 0, "p": 1.0}]},
    {"n": 3, "entries": [{"z": [1, 0, 0], "x": 0, "u": True, "p": 1.0}]},
    {"n": 3, "entries": [{"z": [1, 0, 0], "x": 0, "u": 0, "p": "1.0"}]},
    {"n": 0, "entries": []},
    {"n": 2, "entries": [{"z": [1, 0], "x": 0, "u": 0, "p": 1.0},
                         {"z": [1, 0], "x": 0, "u": 1, "p": 1.0}]},
    {"n": 3, "entries": [{"z": [0, 1], "x": 1, "u": 0, "p": 1.0}]},
], ids=["entry-list", "z-object", "entries-object", "top-list", "n-str",
        "z-str", "x-str", "u-bool", "p-str", "n-zero", "n-mismatch", "z-short"])
def test_verify_rejects_wrongly_typed_json(model3_path, tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "--dist", str(path), "--model", model3_path]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("payload", [
    {"n": 2, "p": {"a": 1}, "pi0": [0.5, 0.5]},
    [2, [[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5]],
    {"n": "2", "p": [[0.5, 0.5], [0.5, 0.5]], "pi0": [0.5, 0.5]},
    {"n": 2, "p": [["0.5", 0.5], [0.5, 0.5]], "pi0": [0.5, 0.5]},
    {"n": 2, "p": [[0.5, 0.5], [0.5, 0.5]], "pi0": [True, False]},
], ids=["p-object", "top-list", "n-str", "p-str", "pi0-bool"])
def test_build_rejects_wrongly_typed_model(tmp_path, capsys, payload):
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps(payload))
    assert main(["build", "--model", str(path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["sweep", "--kind", "fig5", "--format", "json"],
    ["build", "--model", "m.json", "--seed", "1"],
    ["simulate", "--model", "m.json", "--pattern", "10", "--format", "csv"],
    ["bounds", "--model", "m.json", "--pattern", "10", "--max-branches", "2"],
], ids=["sweep-format", "build-seed", "simulate-format", "bounds-max-branches"])
def test_flags_exist_only_where_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_lp_expected_value(model3_path, capsys):
    assert main(["lp", "--model", model3_path, "--expect", "1.6"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.6, abs=1e-6)
    assert main(["lp", "--model", model3_path, "--cap", "1",
                 "--expect", "2.0"]) == 0
    capsys.readouterr()
    assert main(["lp", "--model", model3_path, "--expect", "1.0"]) == 1


def test_build_internal_inconsistency_exits_one(model3_path, capsys, monkeypatch):
    def broken_check(*_args):
        raise InternalConsistencyError("injected")

    monkeypatch.setattr(scheme_mod, "_check_built", broken_check)
    assert main(["build", "--model", model3_path]) == 1
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("internal consistency")


def test_lp_non_optimal_status_exits_one(model3_path, capsys, monkeypatch):
    monkeypatch.setattr(lp_mod, "solve",
                        lambda _problem: LpSolution("infeasible", None, None, None))
    assert main(["lp", "--model", model3_path]) == 1
    err = capsys.readouterr()
    assert err.out == "" and "LP status: infeasible" in err.err


def test_lp_dump(model2_path, model3_path, capsys):
    # the matrix and the mask legend, "({members}) -> col j", are pinned
    # byte for byte
    for argv, digest in (
            ([model2_path],
             "04b2f8a3b0e1d7740a8d787591ac0ce5cf1bfd1532d9eb7a93b6f860ae8f0058"),
            ([model3_path],
             "f8eebfc13e5f50448ab4b95adbc3e48783748b159318fc95a9138b168e65687b"),
            ([model3_path, "--cap", "1"],
             "cf84ecbc3b6f2782e91826b8b6d4124d0926608e2f54a4702ea7fde825b6f33a")):
        assert main(["lp", "--dump", "--model", *argv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("min c.x") and "-> col" in out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,cap", [(12, None), (20, "2")], ids=["full-n12", "cap2-n20"])
def test_lp_tableau_guard_exits_capacity(tmp_path, capsys, n, cap):
    path = tmp_path / "sym.json"
    path.write_text(MarkovModel.symmetric(n, 0.5).to_json())
    argv = ["lp", "--model", str(path)] + ([] if cap is None else ["--cap", cap])
    assert main(argv) == 3
    err = capsys.readouterr()
    assert err.out == "" and "tableau exceeds" in err.err


def test_cli_import_leaves_scipy_special_out():
    # scipy.special is imported by the chi-square audit when it runs
    code = "import sys, onoffpir.cli\nprint('scipy.special' in sys.modules)\n"
    assert run_fresh_python(code).strip() == "False"


def test_sweep_fig5_spot_values(capsys):
    assert main(["sweep", "--kind", "fig5", "--sums", "0.2,0.7",
                 "--max-gap", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sum_alpha_beta,gap,rate"
    table = {(row.split(",")[0], row.split(",")[1]): float(row.split(",")[2])
             for row in lines[1:]}
    assert table[("0.2", "1")] == pytest.approx(0.555555555555556, abs=1e-9)
    assert table[("0.7", "1")] == pytest.approx(0.769230769230769, abs=1e-9)


def test_sweep_fig3b_grid(capsys):
    assert main(["sweep", "--kind", "fig3b", "--points", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "alpha,inner_rate,outer_rate"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["--kind", "fig5", "--sums", "3"],
    ["--kind", "fig5", "--sums", "-0.5"],
    ["--kind", "fig5", "--sums", "nan"],
    ["--kind", "fig5", "--max-gap", "-2"],
    ["--kind", "fig3b", "--n", "1"],
    ["--kind", "fig3b", "--points", "0"],
])
def test_sweep_rejects_out_of_range_inputs(argv, capsys):
    assert main(["sweep", *argv]) == 2
    err = capsys.readouterr()
    assert err.out == "" and "configuration error" in err.err


@pytest.mark.parametrize("argv", [
    ["sweep", "--kind", "fig3b", "--n", "100000", "--points", "1"],
    ["sweep", "--kind", "fig5", "--max-gap", "100000000"],
    ["bounds", "--pattern", "bernoulli:0.5:100000000000"],
    ["sweep", "--kind", "fig3b", "--points", "10000000000"],
], ids=["fig3b-n", "fig5-max-gap", "bernoulli-steps", "fig3b-points"])
def test_oversized_inputs_exit_capacity(argv, model2_path, capsys):
    if argv[0] == "bounds":
        argv = argv + ["--model", model2_path]
    assert main(argv) == 3
    err = capsys.readouterr()
    assert err.out == "" and "capacity guard" in err.err


def test_bernoulli_pattern_step_cap():
    # T is checked against the cap before any flag is drawn
    steps = cli_mod.PATTERN_STEPS
    with pytest.raises(CapacityError, match="steps"):
        cli_mod._load_pattern(f"bernoulli:0.5:{steps + 1}", 0)
    assert len(cli_mod._load_pattern(f"bernoulli:0.5:{steps}", 0)) == steps + 1


@pytest.mark.parametrize("spec", ["bernoulli:0.5", "bernoulli:0.5:3:4"])
def test_malformed_bernoulli_pattern_names_the_form(spec, model2_path, capsys):
    assert main(["simulate", "--model", model2_path, "--pattern", spec]) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err == (f"configuration error: pattern {spec!r}: "
                                         "expected the form bernoulli:p:T\n")


def test_simulate_summary_and_trace(model2_path, tmp_path, capsys):
    trace_path = str(tmp_path / "trace.csv")
    assert main(["simulate", "--model", model2_path, "--pattern", "10",
                 "--episodes", "400", "--seed", "3", "--out", trace_path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["decode_failures"] == 0
    assert summary["mean_query_size"][0] == 2.0
    assert "1" in summary["privacy_audit"]
    lines = Path(trace_path).read_text().strip().splitlines()
    assert lines[0] == "episode,t,F,x,q,len_bits,decode_ok"
    assert len(lines) == 1 + 400 * 2


def test_simulate_config_file(model2_path, tmp_path, capsys):
    cfg = {"model": model2_path, "pattern": "10", "episodes": 50,
           "seed": 9, "L": 16, "policy": "full_download"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["msg_bits"] == 16 and summary["policy"] == "full_download"
    assert summary["mean_query_size"] == [2.0, 2.0]


@pytest.mark.parametrize("fields", [
    {"episodes": True, "seed": "9", "L": "16"},
    {"episodes": True}, {"seed": "9"}, {"L": "16"}, {"episodes": 2.7},
    {"pattern": 10}, {"model": None}, {"model": ["m.json"]},
    {"seed": []}, {"episodes": [3]}, {"L": [16, 16]},
])
def test_simulate_config_rejects_wrongly_typed_fields(model2_path, tmp_path,
                                                      capsys, fields):
    cfg = {"model": model2_path, "pattern": "10", "episodes": 5, **fields}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_simulate_config_must_be_an_object(model2_path, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([model2_path, "10"]))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


# Nesting deeper than json's parser recurses: a RecursionError inside
# json.loads, which each reader turns into ValueError (exit 2).
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv,name,text", [
    (["verify", "--model", "MODEL", "--dist", "FILE"], "deep.json",
     '{"n": 3, "entries": [' + DEEP + ']}'),
    (["build", "--model", "FILE"], "deep_model.json",
     '{"n": 3, "p": ' + DEEP + ', "pi0": [1, 0, 0]}'),
    (["simulate", "--config", "FILE"], "deep_cfg.json",
     '{"model": "MODEL", "pattern": "10", "seed": ' + DEEP + '}'),
], ids=["verify-dist", "model", "simulate-config"])
def test_deeply_nested_json_exits_config(model3_path, tmp_path, capsys, argv,
                                         name, text):
    path = tmp_path / name
    path.write_text(text.replace("MODEL", model3_path))
    argv = [model3_path if a == "MODEL" else str(path) if a == "FILE" else a
            for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr()
    assert err.out == "" and "nested too deeply" in err.err


def test_simulate_undecodable_queries_exit_one(model3_path, monkeypatch, capsys):
    monkeypatch.setattr(sim_mod, "_scheme_naive", never_the_request)
    code = main(["simulate", "--model", model3_path, "--pattern", "1000",
                 "--episodes", "50", "--policy", "naive"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["decode_failures"] == 50 * 3


def test_simulate_requires_model_and_pattern():
    assert main(["simulate", "--episodes", "5"]) == 2


def test_simulate_bad_sizes_exit_codes(model2_path, tmp_path, capsys):
    base = ["simulate", "--model", model2_path, "--pattern", "10"]
    assert main(base + ["--episodes", "0"]) == 2
    assert main(base + ["--msg-bits", "0"]) == 2
    wide = tmp_path / "m64.json"
    wide.write_text(MarkovModel.symmetric(64, 0.5).to_json())
    assert main(["simulate", "--model", str(wide), "--pattern", "1",
                 "--episodes", "1"]) == 3
    assert capsys.readouterr().out == ""


def test_missing_model_file_is_config_error(tmp_path):
    assert main(["bounds", "--model", str(tmp_path / "nope.json"),
                 "--pattern", "10"]) == 2


def test_bad_pattern_is_config_error(model2_path):
    assert main(["bounds", "--model", model2_path, "--pattern", "0101"]) == 2


@pytest.mark.parametrize("spec", ["bernoulli:2:3", "bernoulli:-0.1:3",
                                  "bernoulli:nan:5", "bernoulli:inf:5"])
def test_bernoulli_pattern_rejects_bad_probability(model2_path, spec, capsys):
    assert main(["bounds", "--model", model2_path, "--pattern", spec]) == 2
    assert capsys.readouterr().out == ""


def test_bounds_rejects_horizon_outside_pattern(model2_path, capsys):
    for horizon in ("-1", "3"):
        assert main(["bounds", "--model", model2_path, "--pattern", "100",
                     "--horizon", horizon]) == 2
    assert capsys.readouterr().out == ""


def test_bernoulli_pattern_spec(model2_path, capsys):
    assert main(["bounds", "--model", model2_path,
                 "--pattern", "bernoulli:0.4:6", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8  # header + 7 steps
    assert lines[1].split(",")[1] == "1"  # step 0 forced ON


# ------------------------------------------------------------------ fuzzing

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("01n", max_size=2)
    | st.sampled_from([0.5, -0.5, 1.5, float("nan"), float("inf"), 1e300]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "p", "pi0", "z", "x", "u"]), inner,
                      max_size=3),
    max_leaves=8)
_MODELS = [MarkovModel.two_state(0.2, 0.2),
           MarkovModel(3, WORKED_TABLE, np.full(3, 1 / 3)),
           MarkovModel(2, np.eye(2), np.array([1.0, 0.0])),
           MarkovModel(3, np.full((3, 3), 1 / 3), np.array([0.0, 0.5, 0.5]))]
# the first five are valid
_PATTERNS = ["100", "1", "10", "1001", "bernoulli:0.5:3", "0", "", "12", "x",
             "bernoulli:nan:2", "bernoulli:0.5", "bernoulli:2:3", "bernoulli:0.5:-1",
             "bernoulli:a:b", "bernoulli:0.5:2097152"]


def _pick(draw, good, bad):
    """One of ``good`` three times in four, else one of ``bad``."""
    return draw(st.sampled_from(good if draw(st.integers(0, 3)) else bad))


def _model_json(draw) -> str:
    kind = _pick(draw, ["good"], ["shape", "junk", "text"])
    if kind == "good":
        return draw(st.sampled_from(_MODELS)).to_json()
    if kind == "text":
        return draw(st.sampled_from(["", "{", "NaN", "[]", '"model.json"']))
    if kind == "shape":  # the right keys, wrong values
        return json.dumps({"n": draw(st.integers(-1, 3) | _JUNK),
                           "p": draw(st.sampled_from([[[0.5, 0.5]] * 2, [[1.0]], []])
                                     | _JUNK),
                           "pi0": draw(st.sampled_from([[0.5, 0.5], [1.0], []]) | _JUNK)})
    return json.dumps(draw(_JUNK))


def _dist_json(draw, model_text) -> str:
    kind = _pick(draw, ["built"], ["entries", "junk"])
    if kind == "built":
        try:
            model = MarkovModel.from_json(model_text)
        except ValueError:
            model = draw(st.sampled_from(_MODELS))
        law = step_law(model, 1)
        return build_query_distribution(law, order_stats(law)).to_json()
    if kind == "entries":
        entries = draw(st.lists(st.fixed_dictionaries(
            {"z": st.lists(st.integers(-1, 3), max_size=4) | _JUNK,
             "x": st.integers(-1, 3) | _JUNK, "u": st.integers(-1, 3) | _JUNK,
             "p": st.sampled_from([0.5, 1.0, 0.0, -1.0, float("nan")]) | _JUNK}),
            max_size=3))
        return json.dumps({"n": draw(st.integers(-1, 4) | _JUNK), "entries": entries})
    return json.dumps(draw(_JUNK))


@st.composite
def _cli_inputs(draw, command):
    """argv for one subcommand (options as ``--name=value``, so a value may
    start with '-'), and the texts of the files it names."""
    files = {"model.json": _model_json(draw)}
    model = "--model=" + _pick(draw, ["model.json"], ["missing.json"])
    ints = ["0", "1", "2"], ["-1", "3"]  # good, bad
    argv = [command]
    if command == "bounds":
        argv += [model, "--pattern=" + _pick(draw, _PATTERNS[:5], _PATTERNS[5:]),
                 "--seed=" + _pick(draw, *ints),
                 "--format=" + draw(st.sampled_from(["csv", "json"]))]
        argv += draw(st.sampled_from([[], ["--with-lp"], ["--policy=naive"]]))
        argv += draw(st.sampled_from([[], ["--horizon=" + _pick(draw, *ints)]]))
    elif command == "sweep":
        if draw(st.booleans()):
            sums = _pick(draw, ["0.2,1.0", "0,2"], ["", "nan", "-1", "2.5", "a,0.5", "inf"])
            argv += ["--kind=fig5", "--sums=" + sums,
                     "--max-gap=" + _pick(draw, ["0", "3"], ["-1", "100000000"])]
        else:
            argv += ["--kind=fig3b",
                     "--n=" + _pick(draw, ["2", "4"], ["-1", "0", "1", "100000"]),
                     "--points=" + _pick(draw, ["1", "5"], ["-1", "0"])]
    elif command in ("build", "verify", "lp"):
        argv += [model, "--gap=" + _pick(draw, ["1", "3", "1000000"], ["-1", "0"])]
        if command == "verify":
            files["dist.json"] = _dist_json(draw, files["model.json"])
            argv += ["--dist=" + _pick(draw, ["dist.json"], ["missing.json"])]
        if command == "lp":
            argv += draw(st.sampled_from(
                [[], ["--dump"], ["--cap=" + _pick(draw, ["1", "2", "9"], ["-1", "0"])],
                 ["--expect=" + _pick(draw, ["1.6"], ["nan", "inf", "-1"])]]))
    else:
        if draw(st.booleans()):
            cfg = {key: draw(strategy) for key, strategy in (
                ("model", st.sampled_from(["model.json", "missing.json"]) | _JUNK),
                ("pattern", st.sampled_from(_PATTERNS) | _JUNK),
                ("episodes", st.integers(-1, 5) | _JUNK),
                ("seed", st.integers(-1, 5) | _JUNK), ("L", st.integers(-1, 70) | _JUNK),
                ("policy", st.sampled_from(POLICIES + ("n2_closed_form",)) | _JUNK))
                if _pick(draw, [True], [False])}
            files["cfg.json"] = _pick(draw, [json.dumps(cfg)], ["{", "[]"])
            argv += ["--config=cfg.json"]
        else:
            argv += [model, "--pattern=" + _pick(draw, _PATTERNS[:5], _PATTERNS[5:])]
        argv += ["--episodes=" + _pick(draw, ["1", "7"], ["-1", "0"]),
                 "--msg-bits=" + _pick(draw, ["1", "9"], ["-1", "0"]),
                 "--seed=" + _pick(draw, *ints),
                 "--policy=" + draw(st.sampled_from(POLICIES))]
    if draw(st.booleans()):
        argv += ["--out=" + _pick(draw, ["out.txt"], ["no/such/dir/out.txt"])]
    return argv, files


@pytest.mark.parametrize("command", ["bounds", "sweep", "build", "verify", "lp",
                                     "simulate"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_fuzz_returns_exit_code(command, data, tmp_path, monkeypatch):
    argv, files = data.draw(_cli_inputs(command))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) in (0, 1, 2, 3), argv
