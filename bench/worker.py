"""One benchmark process: a set-up probe, or a closed loop of jobs.

    python3 bench/worker.py setup --workload W --seed S --workdir D --result R
    python3 bench/worker.py run   --workload W --seed S --workdir D --result R
                                  --seconds X --min-reps K [--trace --spans P]

``setup`` times a fresh ``import onoffpir`` and the seeded input generation.
``run`` repeats the workload's job, each call starting after the previous
one returns, for about ``--seconds`` (a call starts only if it is expected
to end nearer to that mark than stopping now would) and at least
``--min-reps`` times; then it runs the correctness checks.  With ``--trace`` the
layer wrappers are installed first and per-layer metrics are added.  The
result is written as JSON to ``--result``.  ``run.py`` starts this script
with ``src`` and ``bench`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time


def _check_source(root: str):
    import onoffpir
    want = os.path.join(root, "src", "onoffpir")
    if os.path.dirname(os.path.abspath(onoffpir.__file__)) != want:
        raise SystemExit(f"onoffpir imported from {onoffpir.__file__}, not {want}")


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    importlib.import_module("onoffpir.cli")
    import_s = time.perf_counter() - t0
    _check_source(os.getcwd())
    import workloads
    t0 = time.perf_counter()
    workloads.make_inputs(args.workload, args.seed, args.size, args.workdir)
    inputs_s = time.perf_counter() - t0
    return {"import_s": import_s, "inputs_s": inputs_s}


def cmd_run(args) -> dict:
    import numpy
    import scipy
    _check_source(os.getcwd())
    import workloads
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    inp = workloads.make_inputs(args.workload, args.seed, args.size, args.workdir)
    job = workloads.JOBS[args.workload]

    walls, reps, error = [], [], None
    start = time.perf_counter()
    while (len(walls) < args.min_reps or time.perf_counter() - start
           + statistics.median(walls) / 2 < args.seconds):
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(job, inp) if tracer else job(inp)
        except Exception as exc:  # report the failure as a failed operation
            error = f"{type(exc).__name__}: {exc}"
            sys.stderr.write(f"job failed: {error}\n")
            break
        walls.append(time.perf_counter() - t0)
        reps.append(workloads.summarize(inp, out))
        del out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "walls": walls, "peak_rss_mb": peak_rss_mb,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "attempted": 1, "failed": 1, "notes": [error], "digests": {},
    }
    if error is None:
        tally, digests = workloads.check_all(inp, reps)
        result.update(attempted=tally.attempted, failed=tally.failed,
                      notes=tally.notes, digests={**reps[0]["digests"], **digests})
    if tracer is not None and walls:
        layers = tracing.layer_metrics(tracer, len(walls))
        layers["cli.out_bytes"] = statistics.fmean(r["out_bytes"] for r in reps)
        result["layers"] = layers
        tracer.save(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
