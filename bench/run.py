"""Benchmark of the onoffpir package: seeded workloads driven through the
public API and CLI, end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload mc-episodes --seed 1 --seconds 20 --trace 0

Run it from the repository root.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics ``wall_s``
(90th percentile of the run's job times), ``setup_s`` (median of
fresh-interpreter import plus input generation, probed before and after the
timed loop) and ``peak_rss_mb``.  With ``--trace 1`` it carries
the per-layer metrics of a separate traced process instead, including the
tracing overhead and ``error_rate``.  ``attempted`` and ``failed`` count the
correctness checks.  The full record (environment, output digests, every
repetition) is written to ``bench/results/``.  Exits non-zero without a
result when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc-episodes", "horizon-exact", "scheme-wire")
# Set-up probes, half before and half after the timed loop, so that their
# median spans the run rather than its first seconds.
SETUP_PROBES = 6
# Every child is killed once the whole run has taken this long.
RUN_TIMEOUT_S = 170
# Single-threaded children: BLAS pools would otherwise compete for the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), BENCH_DIR])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(root: str, env: dict, workdir: str, deadline: float,
               argv: list) -> dict:
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *argv,
           "--workdir", workdir, "--result", result_path]
    proc = subprocess.run(cmd, cwd=root, env=env,
                          timeout=max(deadline - time.monotonic(), 1.0),
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {argv[0]} exited with {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "onoffpir")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha(root: str):
    """HEAD of the repository rooted at ``root``; None in a plain checkout
    (``src_sha256`` identifies the source there)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, timeout=10, capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def job_time(walls: list) -> float:
    """The 90th percentile of a run's job times.

    On a shared host (measured on a 2-vCPU VM) neighbours slow the program
    most of the time and leave it brief fast spells.  How many of them a run
    catches moves its median more than its upper decile, which stays near
    the common, loaded speed."""
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=10, method="inclusive")[-1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_UNITS = {"calls": "count", "entries": "count", "bytes": "bytes",
               "classes": "count", "beliefs": "count", "strata": "count",
               "nonoptimal": "count", "episode_steps": "count",
               "history_classes": "count", "payload_bytes": "bytes",
               "out_bytes": "bytes", "beliefs_per_class": "ratio",
               "classes_per_build": "ratio", "us_per_episode_step": "us",
               "error_rate": "ratio"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    return LAYER_UNITS[last]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="onoffpir benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long pass for the self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "onoffpir", "__init__.py")):
        sys.stderr.write("no package source at src/onoffpir; run from the "
                         "repository root\n")
        return 2
    env = child_env(root)
    work_root = os.path.join(BENCH_DIR, ".work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        probe = ["setup", *common]
        probes = [run_worker(root, env, workdir, deadline, probe)
                  for _ in range(SETUP_PROBES // 2)]
        # Trace mode splits the time between an untraced and a traced loop.
        seconds = args.seconds / 2 if args.trace else args.seconds
        min_reps = 2 if args.trace else 3
        plain = run_worker(root, env, workdir, deadline,
                           ["run", *common, "--seconds", str(seconds),
                            "--min-reps", str(min_reps)])
        traced = None
        if args.trace:
            os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
            spans = os.path.join(BENCH_DIR, "results",
                                 f"spans_{args.workload}_s{args.seed}.npz")
            traced = run_worker(root, env, workdir, deadline,
                                ["run", *common, "--seconds", str(seconds),
                                 "--min-reps", "1", "--trace", "--spans", spans])
        probes += [run_worker(root, env, workdir, deadline, probe)
                   for _ in range(SETUP_PROBES - len(probes))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    setups = [p["import_s"] + p["inputs_s"] for p in probes]
    attempted, failed = plain["attempted"], plain["failed"]
    notes = list(plain["notes"])
    if traced is not None:
        attempted += traced["attempted"] + 1
        same = traced["digests"] == plain["digests"]
        failed += traced["failed"] + (not same)
        notes += traced["notes"] + ([] if same else ["traced outputs differ"])
    correct = failed == 0 and bool(plain["walls"])

    if args.trace:
        layers = dict(traced.get("layers", {}))
        layers["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        layers["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
        if plain["walls"] and traced["walls"]:
            layers["trace.overhead_s"] = (job_time(traced["walls"])
                                          - job_time(plain["walls"]))
        layers["error_rate"] = failed / attempted
        metrics = {name: metric(v, layer_unit(name)) for name, v in layers.items()}
    else:
        metrics = {}
        if plain["walls"]:
            metrics["wall_s"] = metric(job_time(plain["walls"]), "s")
        metrics["setup_s"] = metric(statistics.median(setups), "s")
        metrics["peak_rss_mb"] = metric(plain["peak_rss_mb"], "MB")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "time": time.time(),
        "env": {"git_sha": git_sha(root), "src_sha256": source_digest(root),
                "nproc": os.cpu_count(), **plain["versions"],
                "threads": {v: env[v] for v in THREAD_VARS}},
        "digests": plain["digests"], "error_rate": failed / attempted,
        "failures": notes, "walls_s": plain["walls"], "setups_s": setups,
        "traced_walls_s": traced["walls"] if traced else None,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(BENCH_DIR, "results"), exist_ok=True)
    name = f"BENCH_{args.workload}_s{args.seed}_trace{args.trace}.json"
    with open(os.path.join(BENCH_DIR, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in ("env", "digests", "error_rate",
                                              "failures", "walls_s")}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
