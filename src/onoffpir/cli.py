"""Command-line front end.

Subcommands: bounds, build, verify, lp, simulate, sweep.  Everything is
seeded and deterministic; figure-style outputs are raw CSV for external
plotting.  Exit codes: 0 ok, 1 audit/assertion failure, 2 configuration
error, 3 capacity guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import chain

import numpy as np

from . import bounds as _bounds
from . import lp as _lp
from .model import (CapacityError, MarkovModel, PrivacyPattern, load_json,
                    number, order_stats, step_law, whole_number)
from .scheme import (InternalConsistencyError, QueryDistribution,
                     build_query_distribution)
from .sim import POLICIES, empirical_privacy_audit, simulate
from .verify import audit_distribution

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_CAPACITY = 0, 1, 2, 3
# Most steps T a ``bernoulli:p:T`` pattern may draw.
PATTERN_STEPS = 1 << 20
# Episodes per block of the ``simulate --out`` trace CSV.
CSV_CHUNK = 1024
# 10^1..10^18: a nonnegative int64 v has one decimal digit more than the
# number of these powers at most v.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _write(text, out: str | None):
    """Write ``text``, a str or an iterable of strs, to ``out`` (stdout when
    None)."""
    pieces = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w") as fh:
            fh.writelines(pieces)


def _load_pattern(spec: str, seed: int) -> PrivacyPattern:
    """A '1'/'0' string, or 'bernoulli:p:T' for a random pattern with the
    step-0 flag forced ON."""
    if spec.startswith("bernoulli:"):
        fields = spec.split(":")
        if len(fields) != 3:
            raise ValueError(f"pattern {spec!r}: expected the form bernoulli:p:T")
        p = number(float(fields[1]), f"pattern {spec!r}: p", 0, 1)
        t = whole_number(int(fields[2]), f"pattern {spec!r}: T", 0, 1 << 63)
        if t > PATTERN_STEPS:
            raise CapacityError(f"pattern {spec!r}: T above {PATTERN_STEPS} steps")
        rng = np.random.default_rng([seed, 2])
        flags = (True,) + tuple(bool(b) for b in rng.random(t) < p)
        return PrivacyPattern(flags)
    return PrivacyPattern.from_string(spec)


def _cmd_bounds(args) -> int:
    model = MarkovModel.load(args.model)
    pattern = _load_pattern(args.pattern, args.seed)
    horizon = args.horizon if args.horizon is not None else len(pattern) - 1
    rows = _bounds.bounds_over_horizon(model, pattern, horizon,
                                       policy=args.policy, with_lp=args.with_lp)
    if args.format == "csv":
        _write(_bounds.horizon_csv(rows), args.out)
    else:
        payload = [{"t": r.t, "F": int(r.f_on), "outer2": r.outer2,
                    "outer1": r.outer1, "inner": r.inner,
                    "exact_n2": r.exact_n2, "lp_opt": r.lp_opt} for r in rows]
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.kind == "fig5":
        sums = [float(s) for s in args.sums.split(",")]
        rows = _bounds.two_source_rate_grid(sums, args.max_gap)
        _write(_bounds.grid_csv(rows, ["sum_alpha_beta", "gap", "rate"]), args.out)
    else:
        points = whole_number(args.points, "--points", 1, 1 << 63)
        if points > _bounds.GRID_ROWS:
            raise CapacityError(f"{points} points exceed {_bounds.GRID_ROWS} grid rows")
        rows = _bounds.symmetric_bound_grid(args.n, np.linspace(0.0, 1.0, points))
        _write(_bounds.grid_csv(rows, ["alpha", "inner_rate", "outer_rate"]), args.out)
    return EXIT_OK


def _cmd_build(args) -> int:
    model = MarkovModel.load(args.model)
    law = step_law(model, args.gap)
    stats = order_stats(law)
    dist = build_query_distribution(law, stats)
    extra = {"expected_multiset_cardinality": dist.expected_multiset_cardinality(),
             "expected_set_cardinality": dist.expected_set_cardinality()}
    # the scheme's JSON text a block of entries at a time, the extra members
    # before its closing brace, so that the whole text is never held
    _write(chain(dist._json_pieces(", " + json.dumps(extra)[1:-1]), ["\n"]), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = MarkovModel.load(args.model)
    with open(args.dist, "rb") as fh:   # as bytes, so a UTF-8 BOM is read too
        dist = QueryDistribution.from_json(fh.read())
    law = step_law(model, args.gap)
    stats = order_stats(law)
    report = audit_distribution(dist, law, stats)
    _write(report.to_json() + "\n", args.out)
    if not report.passed:
        sys.stderr.write(f"audit failed; worst offenders: {report.worst_offenders}\n")
        return EXIT_FAIL
    return EXIT_OK


def _cmd_lp(args) -> int:
    expect = None if args.expect is None else number(args.expect, "--expect")
    model = MarkovModel.load(args.model)
    law = step_law(model, args.gap)
    problem = _lp.build_lp(law, cardinality_cap=args.cap)
    if args.dump:
        _write(problem.dump_text() + "\n", args.out)
        return EXIT_OK
    solution = _lp.solve(problem)
    if solution.status != "optimal":
        sys.stderr.write(f"LP status: {solution.status}\n")
        return EXIT_FAIL
    _write(f"{solution.optimum:.12g}\n", args.out)
    if expect is not None and abs(solution.optimum - expect) > 1e-6:
        sys.stderr.write(f"optimum {solution.optimum!r} differs from "
                         f"expected {expect!r} beyond 1e-6\n")
        return EXIT_FAIL
    return EXIT_OK


def _csv_rows(cells: np.ndarray) -> str:
    """The rows of ``cells``, a C-contiguous array of nonnegative int64, as
    CSV text in decimal, made in numpy: every cell's width, then its offset,
    then its digits right to left, one pass per digit position.  ``cells``
    is overwritten."""
    cols = cells.shape[-1]
    rem = cells.reshape(-1)
    digits = np.searchsorted(_POWERS_OF_TEN, rem, side="right")
    digits += 1
    passes = int(digits.max())
    pos = np.cumsum(digits + 1)   # each cell ends in "," or "\n"
    del digits
    text = np.full(pos[-1], ord(","), dtype=np.uint8)
    text[pos[cols - 1::cols] - 1] = ord("\n")
    pos -= 2      # each cell's last digit
    for _ in range(passes):
        quot = rem // 10
        rem -= quot * 10   # rem % 10, a little faster on int64
        rem += ord("0")
        text[pos] = rem
        live = quot > 0    # the cells with a digit left
        pos, rem = pos[live] - 1, quot[live]
    return text.tobytes().decode("ascii")


def _trace_csv(result) -> str:
    """One row per (episode, step), formatted in blocks of ``CSV_CHUNK``
    episodes so that the temporary arrays stay small."""
    steps = result.q_masks.shape[1]
    blocks = ["episode,t,F,x,q,len_bits,decode_ok\n"]
    for lo in range(0, result.episodes, CSV_CHUNK):
        block = slice(lo, min(lo + CSV_CHUNK, result.episodes))
        cells = np.empty((block.stop - lo, steps, 7), dtype=np.int64)
        cells[..., 0] = np.arange(lo, block.stop)[:, None]
        cells[..., 1] = np.arange(steps)
        cells[..., 2] = result.pattern.flags[:steps]
        cells[..., 3] = result.xs[block]
        cells[..., 4] = result.q_masks[block]
        cells[..., 5] = np.bitwise_count(result.q_masks[block])   # set sizes
        cells[..., 5] *= result.msg_bits
        cells[..., 6] = result.oks[block]
        blocks.append(_csv_rows(cells))
    return "".join(blocks)


def _cmd_simulate(args) -> int:
    if args.config is not None:
        with open(args.config) as fh:
            cfg = load_json(fh.read())
        if not (isinstance(cfg, dict) and isinstance(cfg.get("pattern"), str)
                and isinstance(cfg.get("model"), (dict, str))):
            raise ValueError("a simulate config is a JSON object with a string "
                             "pattern and a model (an object or a file path)")
        model = (MarkovModel.from_json(cfg["model"]) if isinstance(cfg["model"], dict)
                 else MarkovModel.load(cfg["model"]))
        # the seed in simulate's range, [0, 2**128), before the pattern reads it
        episodes, seed, msg_bits = (
            whole_number(cfg.get(key, default), key, 0, 1 << bits)
            for key, default, bits in (("episodes", args.episodes, 53),
                                       ("seed", args.seed, 128), ("L", args.msg_bits, 53)))
        pattern = _load_pattern(cfg["pattern"], seed)
        policy = cfg.get("policy", args.policy)
    else:
        model = MarkovModel.load(args.model)
        pattern = _load_pattern(args.pattern, args.seed)
        episodes, seed = args.episodes, args.seed
        msg_bits, policy = args.msg_bits, args.policy
    result = simulate(model, pattern, episodes, seed=seed, msg_bits=msg_bits,
                      policy=policy)
    if args.out is not None:
        _write(_trace_csv(result), args.out)
    summary = result.summary()
    summary["privacy_audit"] = {
        str(t): dataclasses.asdict(empirical_privacy_audit(result, t))
        for t in range(1, len(pattern))}
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_FAIL if result.decode_failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onoffpir",
        description="Query schemes, rate bounds, LP oracle, audits and "
                    "simulation for private retrieval with toggleable privacy.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON path")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("bounds", help="per-step rate bounds along a pattern")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of a bernoulli pattern")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--pattern", required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--policy", choices=POLICIES, default="algorithm1")
    p.add_argument("--with-lp", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="figure-style rate grids as CSV")
    common(p, model=False)
    p.add_argument("--kind", choices=("fig5", "fig3b"), required=True)
    p.add_argument("--sums", default="0.2,0.4,0.7,1.0",
                   help="comma-separated alpha+beta values (fig5)")
    p.add_argument("--max-gap", type=int, default=20)
    p.add_argument("--n", type=int, default=3, help="sources (fig3b)")
    p.add_argument("--points", type=int, default=100, help="alpha grid (fig3b)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("build", help="construct a one-step query distribution")
    common(p)
    p.add_argument("--gap", type=int, default=1, help="steps since privacy was ON")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="audit a stored query distribution")
    common(p)
    p.add_argument("--dist", required=True, help="distribution JSON path")
    p.add_argument("--gap", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lp", help="solve the exact query-design LP")
    common(p)
    p.add_argument("--gap", type=int, default=1)
    p.add_argument("--cap", type=int, default=None, help="cardinality cap")
    p.add_argument("--expect", type=float, default=None)
    p.add_argument("--dump", action="store_true", help="print the LP, don't solve")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("simulate", help="seeded protocol episodes")
    common(p, model=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default=None)
    p.add_argument("--config", default=None, help="episode config JSON")
    p.add_argument("--pattern", default=None)
    p.add_argument("--episodes", type=int, default=10000)
    p.add_argument("--msg-bits", type=int, default=64)
    p.add_argument("--policy", choices=POLICIES, default="algorithm1")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and args.config is None and (
            args.model is None or args.pattern is None):
        sys.stderr.write("simulate needs --config or both --model and --pattern\n")
        return EXIT_CONFIG
    try:
        return args.func(args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity guard: {exc}\n")
        return EXIT_CAPACITY
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency: {exc}\n")
        return EXIT_FAIL
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
