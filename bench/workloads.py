"""Seeded inputs, jobs, correctness checks and output digests of the three
benchmark workloads.

Each workload is a fixed job that a user waits on as a whole:

* ``mc-episodes``   -- ``onoffpir simulate`` with a trace CSV and the
  chi-square audit, on a random 3-state chain;
* ``horizon-exact`` -- exact history-averaged bounds and leakage along an OFF
  run, per-class LPs on a 4-state chain, one full LP;
* ``scheme-wire``   -- an n=100 build, projection and audit in memory, then
  the ``build`` -> ``verify`` round trip through JSON files at n=40.

Jobs call the package through attribute lookups on ``onoffpir`` and
``onoffpir.cli`` at call time, so the tracer's wrappers see every call.
Checks run outside the timed region and feed ``error_rate``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import onoffpir
import onoffpir.cli

WORKLOADS = ("mc-episodes", "horizon-exact", "scheme-wire")

MC_PATTERN = "1001000"
HORIZON_PATTERN = "10000"
# Chi-square tests fail only when reliable and below this p-value.
CHI2_ALPHA = 1e-6
# OFF-step mean set sizes must lie within this many standard errors of the
# exact expectation.
MEAN_SE_BAND = 5.0

SIZES = {
    "full": {"episodes": 10000, "n_exact": 6, "n_lp": 4, "horizon": 4,
             "n_law": 100, "n_wire": 40},
    "tiny": {"episodes": 300, "n_exact": 3, "n_lp": 3, "horizon": 3,
             "n_law": 12, "n_wire": 6},
}

# Seed of the per-size base tables that every workload seed jitters.
_BASE_SEED = 25
_JITTER = 0.01


def random_table(seed: int, n: int) -> np.ndarray:
    """A row-stochastic n x n table with every entry bounded away from 0.

    A fixed base table per size is jittered entrywise by +-1% from the seed.
    The jitter changes every value but keeps the likelihood orderings, and so
    the number of history classes and scheme entries, within a few percent
    from seed to seed: the work per job hardly depends on the seed.  The base
    seed is chosen so that the 6-state chain has about 2.8k history classes
    at t=4 and the 4-state chain about 480 per-class LPs.
    """
    base = np.random.default_rng([_BASE_SEED, n]).uniform(0.5, 1.5, (n, n))
    jitter = np.random.default_rng([seed, n]).uniform(1 - _JITTER, 1 + _JITTER,
                                                      (n, n))
    table = base * jitter
    return table / table.sum(axis=1, keepdims=True)


def random_chain(seed: int, n: int) -> onoffpir.MarkovModel:
    """A random chain with uniform ``pi0``."""
    return onoffpir.MarkovModel(n, random_table(seed, n), np.full(n, 1.0 / n))


def make_inputs(workload: str, seed: int, size: str, workdir: str) -> dict:
    """Everything a workload's job reads, generated from the seed."""
    sz = SIZES[size]
    inp = {"workload": workload, "seed": seed, "size": size, "workdir": workdir}
    if workload == "mc-episodes":
        model = random_chain(seed, 3)
        inp["model"] = model
        inp["pattern"] = onoffpir.PrivacyPattern.from_string(MC_PATTERN)
        inp["model_path"] = _write_model(workdir, "mc_model.json", model)
        inp["csv_path"] = os.path.join(workdir, "mc_trace.csv")
        inp["episodes"] = sz["episodes"]
    elif workload == "horizon-exact":
        inp["chain_exact"] = random_chain(seed, sz["n_exact"])
        inp["chain_lp"] = random_chain(seed, sz["n_lp"])
        inp["pattern"] = onoffpir.PrivacyPattern.from_string(HORIZON_PATTERN)
        inp["horizon"] = sz["horizon"]
    elif workload == "scheme-wire":
        n_law, n_wire = sz["n_law"], sz["n_wire"]
        inp["law"] = onoffpir.ConditionalLaw(n_law, random_table(seed, n_law))
        inp["wire_model"] = random_chain(seed, n_wire)
        inp["model_path"] = _write_model(workdir, "wire_model.json",
                                         inp["wire_model"])
        inp["dist_path"] = os.path.join(workdir, "wire_dist.json")
        inp["report_path"] = os.path.join(workdir, "wire_report.json")
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return inp


def _write_model(workdir: str, name: str, model) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(model.to_json())
    return path


def _cli(argv) -> tuple:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = onoffpir.cli.main(argv)
    return code, buf.getvalue()


# --- jobs (timed) ----------------------------------------------------------

def job_mc(inp: dict) -> dict:
    code, out = _cli(["simulate", "--model", inp["model_path"],
                      "--pattern", MC_PATTERN,
                      "--episodes", str(inp["episodes"]),
                      "--seed", str(inp["seed"]), "--msg-bits", "64",
                      "--policy", "algorithm1", "--out", inp["csv_path"]])
    return {"code": code, "stdout": out}


def job_horizon(inp: dict) -> dict:
    chain, pattern, horizon = inp["chain_exact"], inp["pattern"], inp["horizon"]
    rows_exact = onoffpir.bounds_over_horizon(chain, pattern, horizon)
    mi = onoffpir.conditional_query_mi(chain, pattern, horizon)
    lp_error = None
    try:
        rows_lp = onoffpir.bounds_over_horizon(inp["chain_lp"], pattern, horizon,
                                               with_lp=True)
    except AssertionError as exc:  # a per-class LP came back non-optimal
        rows_lp, lp_error = None, str(exc)
    full = onoffpir.solve(onoffpir.build_lp(onoffpir.step_law(chain, 1)))
    return {"rows_exact": rows_exact, "mi": mi, "rows_lp": rows_lp,
            "lp_error": lp_error, "full_lp": full}


def job_wire(inp: dict) -> dict:
    law = inp["law"]
    stats = onoffpir.order_stats(law)
    dist = onoffpir.build_query_distribution(law, stats)
    sets = onoffpir.project_to_sets(dist)
    report = onoffpir.audit_distribution(dist, law, stats)
    build_code, _ = _cli(["build", "--model", inp["model_path"], "--gap", "1",
                          "--out", inp["dist_path"]])
    verify_code, _ = _cli(["verify", "--model", inp["model_path"],
                           "--dist", inp["dist_path"], "--gap", "1",
                           "--out", inp["report_path"]])
    return {"dist": dist, "sets": sets, "report": report,
            "build_code": build_code, "verify_code": verify_code}


JOBS = {"mc-episodes": job_mc, "horizon-exact": job_horizon,
        "scheme-wire": job_wire}


# --- digests and per-rep summaries (untimed) --------------------------------

def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dist_digest(dist) -> str:
    """Digest of a QueryDistribution's canonical arrays."""
    counts = np.array([q.counts for q in dist.queries], dtype=np.int64)
    return sha256_arrays(counts, dist.qidx, dist.xs, dist.us, dist.probs)


def _row_values(rows) -> np.ndarray:
    nan = float("nan")
    return np.array([[r.outer2, r.outer1, r.inner,
                      nan if r.lp_opt is None else r.lp_opt] for r in rows],
                    dtype=np.float64)


def summarize(inp: dict, out: dict) -> dict:
    """Reduce a job's outputs to what the checks and digests need, so that
    large outputs do not stay alive into the next repetition."""
    workload = inp["workload"]
    if workload == "mc-episodes":
        return {"code": out["code"], "summary": out["stdout"],
                "out_bytes": len(out["stdout"]) + os.path.getsize(inp["csv_path"]),
                "digests": {"trace_csv": sha256_file(inp["csv_path"])}}
    if workload == "horizon-exact":
        rows_exact, rows_lp, full = out["rows_exact"], out["rows_lp"], out["full_lp"]
        digests = {"bounds": sha256_arrays(_row_values(rows_exact)),
                   "mi": sha256_arrays(np.array(out["mi"], dtype=np.float64)),
                   "lp_full": sha256_arrays(np.array([np.nan if full.optimum is None
                                                      else full.optimum]))}
        if rows_lp is not None:
            digests["bounds_lp"] = sha256_arrays(_row_values(rows_lp))
        return {"rows_exact": rows_exact, "mi": out["mi"], "rows_lp": rows_lp,
                "lp_error": out["lp_error"], "full_status": full.status,
                "full_optimum": full.optimum, "out_bytes": 0, "digests": digests}
    report = out["report"]
    return {"audit_passed": bool(report.passed), "build_code": out["build_code"],
            "verify_code": out["verify_code"],
            "out_bytes": (os.path.getsize(inp["dist_path"])
                          + os.path.getsize(inp["report_path"])),
            "digests": {"scheme_n_law": dist_digest(out["dist"]),
                        "scheme_json": sha256_file(inp["dist_path"])}}


# --- correctness checks (untimed) ------------------------------------------

class Tally:
    """Counts attempted and failed operations, keeping the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def add(self, attempted: int, failed: int, what: str):
        self.attempted += int(attempted)
        self.failed += int(failed)
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str):
        self.add(1, 0 if ok else 1, what)


def check_digests_repeat(tally: Tally, reps: list):
    """Every repetition of a seeded job must reproduce the first one's outputs."""
    first = reps[0]["digests"]
    for i, rep in enumerate(reps[1:], start=1):
        tally.check(rep["digests"] == first, f"rep {i} outputs differ from rep 0")


def read_trace_csv(path: str, pattern) -> dict:
    """Parse the simulate trace CSV into [episode, t] arrays."""
    steps = len(pattern)
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    if data.shape[0] % steps:
        raise ValueError(f"trace CSV has {data.shape[0]} rows, not a multiple of {steps}")
    data = data.reshape(-1, steps, data.shape[1])
    xs = data[:, :, 3]
    taus = [max(i for i in range(t + 1) if pattern.flags[i]) for t in range(steps)]
    return {"q_masks": data[:, :, 4], "xs": xs, "x_taus": xs[:, taus],
            "decode_ok": data[:, :, 6]}


def exact_set_size_moments(model, pattern, horizon: int) -> list:
    """Mean and variance of the transmitted-set size per step, by exact
    history enumeration."""
    out = []
    for view in onoffpir.enumerate_steps(model, pattern, horizon):
        if view.f_on:
            out.append((float(model.n), 0.0))
            continue
        m1 = m2 = 0.0
        for br in view.branches:
            weights = br.scheme.query_marginal(br.pre_joint)
            sizes = br.scheme.set_sizes
            m1 += br.prob * float(weights @ sizes)
            m2 += br.prob * float(weights @ sizes ** 2)
        out.append((m1, m2 - m1 * m1))
    return out


def check_mc(tally: Tally, inp: dict, reps: list, trace: dict, moments: list):
    pattern = inp["pattern"]
    episodes = inp["episodes"]
    steps = len(pattern)
    for i, rep in enumerate(reps):
        tally.check(rep["code"] == 0, f"rep {i}: simulate exit code {rep['code']}")
    # one operation per episode-step: the bit-exact decode
    ok = trace["decode_ok"]
    tally.add(episodes * steps, episodes * steps - int(ok.sum()),
              "bit-exact decode (trace decode_ok)")
    sizes = np.bitwise_count(trace["q_masks"].astype(np.uint64))
    for t in range(steps):
        if pattern.flags[t]:
            continue
        mean, var = moments[t]
        se = np.sqrt(max(var, 0.0) / episodes)
        got = float(sizes[:, t].mean())
        tally.check(abs(got - mean) <= MEAN_SE_BAND * se + 1e-9,
                    f"t={t}: mean set size {got:.6f} vs exact {mean:.6f} "
                    f"(se {se:.2e})")
    audits = json.loads(reps[-1]["summary"])["privacy_audit"]
    for t, audit in audits.items():
        failed = (not audit["unreliable"]) and audit["p_value"] < CHI2_ALPHA
        tally.check(not failed, f"t={t}: chi-square p={audit['p_value']:.3g}")


def off_classes(model, pattern, horizon: int) -> int:
    """History classes over the OFF steps: one per-class LP each."""
    return sum(len(v.branches)
               for v in onoffpir.enumerate_steps(model, pattern, horizon)
               if not v.f_on)


def check_horizon(tally: Tally, rep: dict, lp_classes: int, chain_exact):
    rows, mi = rep["rows_exact"], rep["mi"]
    tally.check(len(mi) == len(rows), "MI rows differ from bound rows")
    # one operation per step row: leakage and the bound sandwich
    for row, leak in zip(rows, mi):
        ok = leak <= 1e-9 and (row.f_on or row.outer1 <= row.inner + 1e-9)
        tally.check(ok, f"t={row.t}: MI {leak:.3g}, outer1 {row.outer1!r}, "
                        f"inner {row.inner!r}")
    if rep["rows_lp"] is None:
        tally.add(lp_classes, 1, f"per-class LP: {rep['lp_error']}")
    else:
        tally.add(lp_classes, 0, "per-class LP status")
        for row in rep["rows_lp"]:
            ok = (row.outer1 - row.lp_opt <= 1e-6
                  and row.lp_opt - row.inner <= 1e-6)
            tally.check(ok, f"t={row.t}: outer1 {row.outer1!r} lp "
                            f"{row.lp_opt!r} inner {row.inner!r}")
    law = onoffpir.step_law(chain_exact, 1)
    lo = onoffpir.outer_bound_2(law).inverse_rate
    hi = onoffpir.inner_bound_first_off_step(law).inverse_rate
    opt = rep["full_optimum"]
    tally.check(rep["full_status"] == "optimal" and lo - 1e-6 <= opt <= hi + 1e-6,
                f"full LP {rep['full_status']} optimum {opt!r} outside [{lo}, {hi}]")


def check_wire_rep(tally: Tally, i: int, rep: dict):
    tally.check(rep["audit_passed"], f"rep {i}: audit of the n-law build failed")
    tally.check(rep["build_code"] == 0, f"rep {i}: build exit code {rep['build_code']}")
    tally.check(rep["verify_code"] == 0, f"rep {i}: verify exit code {rep['verify_code']}")


def check_wire_roundtrip(tally: Tally, inp: dict):
    """The n=40 scheme survives ``to_json``/``from_json`` and the CLI's file
    holds exactly the in-memory build."""
    dist = onoffpir.build_query_distribution(onoffpir.step_law(inp["wire_model"], 1))
    want = dist.entry_tuples()
    back = onoffpir.QueryDistribution.from_json(dist.to_json())
    tally.check(back.entry_tuples() == want, "to_json/from_json round trip")
    with open(inp["dist_path"]) as fh:
        wired = onoffpir.QueryDistribution.from_json(fh.read())
    tally.check(wired.entry_tuples() == want, "CLI build file differs from the build")


def check_all(inp: dict, reps: list) -> tuple:
    """Run every check of a workload; returns (tally, extra digests)."""
    tally = Tally()
    digests = {}
    check_digests_repeat(tally, reps)
    workload = inp["workload"]
    if workload == "mc-episodes":
        pattern = inp["pattern"]
        trace = read_trace_csv(inp["csv_path"], pattern)
        digests["trajectories"] = sha256_arrays(trace["q_masks"], trace["xs"],
                                                trace["x_taus"])
        moments = exact_set_size_moments(inp["model"], pattern, len(pattern) - 1)
        check_mc(tally, inp, reps, trace, moments)
    elif workload == "horizon-exact":
        lp_classes = off_classes(inp["chain_lp"], inp["pattern"], inp["horizon"])
        for rep in reps:
            check_horizon(tally, rep, lp_classes, inp["chain_exact"])
    else:
        for i, rep in enumerate(reps):
            check_wire_rep(tally, i, rep)
        check_wire_roundtrip(tally, inp)
    return tally, digests
