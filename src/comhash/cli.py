"""Command-line benchmark runner.

    comhash bench --backend ec --sizes 4,8,16,32 --trials 10 --seed 1 \
        --out results.csv --fit
    comhash verify --table1 reference.csv

``bench`` times full in-process sessions and writes one CSV row per
participant count; ``--fit`` appends the least-squares line as JSON on
stdout. ``verify`` recomputes the fit over a stored reference table (the
bundled one by default) and prints both backends' coefficients.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench
from .errors import ComhashError
from .groups import ModpMode


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list: {text!r}") from None
    if not sizes or any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    return sizes


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _fit_json(fit: bench.LinearFit) -> dict:
    return {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r_squared}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="comhash",
                                     description="multiparty hashing benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="time sessions against participant count")
    b.add_argument("--backend", choices=("modp", "ec"), required=True)
    b.add_argument("--sizes", type=_parse_sizes, default=[4, 8, 16, 32, 64],
                   help="comma-separated participant counts")
    b.add_argument("--trials", type=_positive_int, default=100)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", help="CSV output path (stdout table if omitted)")
    b.add_argument("--fit", action="store_true",
                   help="print the least-squares line as JSON")
    b.add_argument("--bits", type=int, default=None,
                   help="group size override, e.g. 5 for the tiny test group")
    b.add_argument("--mode", choices=("subgroup", "primitive"), default="subgroup")

    v = sub.add_parser("verify", help="refit a stored reference table")
    v.add_argument("--table1", default=None,
                   help="reference CSV (participants,ec_seconds,modp_seconds); "
                        "bundled table if omitted")
    return parser


def _cmd_bench(args) -> int:
    if args.out:  # an unwritable path fails before any session runs
        bench.write_csv([], args.out)
    params = bench.bench_params(args.backend, args.bits,
                                ModpMode(args.mode))
    points = bench.run_bench(args.backend, args.sizes, args.trials,
                             seed=args.seed, params=params)
    bench.write_csv(points, args.out)
    if args.fit:
        print(json.dumps(_fit_json(bench.fit_points(points))))
    return 0


def _cmd_verify(args) -> int:
    rows = bench.read_reference_csv(args.table1) if args.table1 else bench.REFERENCE_TIMINGS
    report = {backend: _fit_json(bench.reference_fit(backend, rows))
              for backend in ("ec", "modp")}
    print(json.dumps(report, indent=2))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.fit and len(set(args.sizes)) < 2:
        parser.error("--fit needs at least two distinct sizes")
    if args.command == "bench" and args.backend == "ec" and args.mode == "primitive":
        parser.error("--mode primitive needs --backend modp")
    try:
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_verify(args)
    except ComhashError as exc:
        print(f"comhash: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
