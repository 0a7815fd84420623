"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

A tiny-size pass of each workload must emit every metric BENCHMARK.json
names, and the correctness checks must fail on corrupted outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import onoffpir  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_emits_every_metric(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        info, last = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in last["metrics"].items()}
        assert got == want
        digests.append(info["digests"])
    # the same seed reproduces every output digest
    assert digests[0] == digests[1] and digests[0]


def test_missing_source_exits_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = run_bench("mc-episodes", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _tiny_law(n=5):
    return onoffpir.ConditionalLaw(n, workloads.random_table(7, n))


def test_scheme_check_fails_on_tampered_distribution():
    law = _tiny_law()
    stats = onoffpir.order_stats(law)
    dist = onoffpir.build_query_distribution(law, stats)
    tally = workloads.Tally()
    report = onoffpir.audit_distribution(dist, law, stats)
    workloads.check_wire_rep(tally, 0, {"audit_passed": report.passed,
                                        "build_code": 0, "verify_code": 0})
    assert tally.failed == 0

    # move one entry's x outside its query z
    e = 0
    z = dist.queries[dist.qidx[e]].counts
    outside = next(x for x in range(law.n) if z[x] == 0)
    xs = np.array(dist.xs)
    xs[e] = outside
    tampered = onoffpir.QueryDistribution(dist.n, dist.queries, dist.qidx, xs,
                                          dist.us, dist.probs)
    report = onoffpir.audit_distribution(tampered, law, stats)
    workloads.check_wire_rep(tally, 0, {"audit_passed": report.passed,
                                        "build_code": 0, "verify_code": 0})
    assert tally.failed > 0 and tally.failed / tally.attempted > 0


@pytest.mark.parametrize("policy, leaks", [("algorithm1", False), ("naive", True)])
def test_horizon_check_fails_on_leaking_policy(policy, leaks):
    inp = workloads.make_inputs("horizon-exact", 3, "tiny", workdir=".")
    rep = workloads.summarize(inp, workloads.job_horizon(inp))
    rep["mi"] = onoffpir.conditional_query_mi(inp["chain_exact"], inp["pattern"],
                                              inp["horizon"], policy=policy)
    lp_classes = workloads.off_classes(inp["chain_lp"], inp["pattern"],
                                       inp["horizon"])
    tally = workloads.Tally()
    workloads.check_horizon(tally, rep, lp_classes, inp["chain_exact"])
    assert tally.attempted > lp_classes
    assert (tally.failed > 0) == leaks
