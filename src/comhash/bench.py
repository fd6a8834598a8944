"""Benchmark runner: wall-times full in-process sessions against the
participant count and fits a line to the result.

The running time of one session is linear in the number of participants, so
an ordinary least-squares line fit captures it; R-squared close to 1 is the
check that the linear model holds. REFERENCE_TIMINGS carries a published
reference table for the two standard backends (secp256k1 and 2048-bit modp),
read from the bundled ``data/reference_timings.csv`` and used by the
``verify`` subcommand; absolute numbers are hardware-specific and are not
expected to be reproduced.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .errors import BenchError
from .groups import GroupParams, ModpMode, generate_group
from .hashing import ParticipantKeys, member_share
from .net import run_basic_session
from .protocol import Phase
from . import net, pke

CSV_HEADER = ("backend", "N", "trials", "mean_s", "stddev_s")


@dataclass(frozen=True)
class BenchPoint:
    backend: str
    n: int
    trials: int
    mean_s: float
    stddev_s: float


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def default_bits(backend: str) -> int:
    return 256 if backend == "ec" else 2048


def bench_params(backend: str, bits: Optional[int] = None,
                 mode: ModpMode = ModpMode.SUBGROUP) -> GroupParams:
    return generate_group(backend, bits if bits is not None else default_bits(backend),
                          seed=0, mode=mode)


def run_bench(backend: str, sizes: Sequence[int], trials: int, seed: int = 0,
              params: Optional[GroupParams] = None) -> list[BenchPoint]:
    """Average wall time of `trials` full sessions at each participant count.

    Setup (parameters, every size's keys and their member shares, the server
    key pair, every comb table and GLV constant a session uses, and the
    server's decode of every share encoding) happens outside the timer; the
    timed region is the protocol itself, upload request through digest.
    Trials run round-robin across the sizes, so a drift in host speed
    spreads over every size instead of lining up with N.
    """
    if trials < 1:
        raise BenchError("trials must be positive")
    if any(n < 1 for n in sizes):
        raise BenchError("participant counts must be positive")
    if params is None:
        params = bench_params(backend)
    rng = random.Random(seed)
    server_keypair = pke.generate_keypair(params, rng)
    inputs = []
    for n in sizes:
        keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
        for k in keys:
            member_share(params, k)  # kept on the key pair for every session
        inputs.append((n, keys, rng.randrange(params.exponent_modulus)))
    # one untimed session per size builds every table and constant the timed
    # ones read, and decodes each share encoding they send. Its own fixed
    # seed leaves the draws from rng as they were, and calling it as net's
    # leaves this module's name to the timed sessions
    for n, keys, m in inputs:
        net.run_basic_session(params, keys, m, seed=0, server_keypair=server_keypair)
    samples: list[list[float]] = [[] for _ in sizes]
    for _ in range(trials):
        for (n, keys, m), times in zip(inputs, samples):
            session_seed = rng.randrange(2**63)
            start = time.perf_counter()
            outcome = run_basic_session(params, keys, m, seed=session_seed,
                                        server_keypair=server_keypair)
            elapsed = time.perf_counter() - start
            if outcome.phase is not Phase.DONE:
                raise BenchError(
                    f"session failed at N={n}: {outcome.error_code}")
            times.append(elapsed)
    return [BenchPoint(backend, n, trials, statistics.fmean(times),
                       statistics.stdev(times) if len(times) > 1 else 0.0)
            for (n, _, _), times in zip(inputs, samples)]


def linear_fit(points: Sequence[tuple[float, float]]) -> LinearFit:
    """Least-squares line through (N, seconds) pairs, with R-squared."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    if not all(map(math.isfinite, xs + ys)):  # a nan would pass the R-squared clamp as 1
        raise ValueError("every point must be finite")
    if len(set(xs)) < 2:
        raise ValueError("all sizes equal; the fit is singular")
    reg = statistics.linear_regression(xs, ys)
    mean_y = statistics.fmean(ys)
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (reg.slope * x + reg.intercept)) ** 2
                 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return LinearFit(slope=reg.slope, intercept=reg.intercept,
                     r_squared=r_squared)


def fit_points(points: Sequence[BenchPoint]) -> LinearFit:
    return linear_fit([(p.n, p.mean_s) for p in points])


def reference_fit(backend: str,
                  rows: Optional[Sequence[tuple[int, float, float]]] = None) -> LinearFit:
    """Fit over the reference table's column for the given backend."""
    rows = REFERENCE_TIMINGS if rows is None else rows
    column = 1 if backend == "ec" else 2
    return linear_fit([(row[0], row[column]) for row in rows])


def write_csv(points: Sequence[BenchPoint], path: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for p in points:
                writer.writerow([p.backend, p.n, p.trials,
                                 f"{p.mean_s:.9f}", f"{p.stddev_s:.9f}"])
    except OSError as exc:
        raise BenchError(f"cannot write {path}: {exc.strerror or exc}") from None


def read_csv(path: str) -> list[BenchPoint]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [BenchPoint(row["backend"], int(row["N"]), int(row["trials"]),
                           float(row["mean_s"]), float(row["stddev_s"]))
                for row in reader]


def read_reference_csv(path: str) -> list[tuple[int, float, float]]:
    """Read a reference table CSV: participants,ec_seconds,modp_seconds."""
    columns = ("participants", "ec_seconds", "modp_seconds")
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise BenchError(f"{path}: missing column(s) {', '.join(missing)}")
            rows = []
            for row in reader:  # a short row reads None, a long one a None key
                if None in row or None in row.values():
                    raise BenchError(f"{path}: line {reader.line_num} has "
                                     f"{'more' if None in row else 'fewer'} fields than the header")
                n, ec, modp = (int(row["participants"]), float(row["ec_seconds"]),
                               float(row["modp_seconds"]))
                if n < 1 or not (math.isfinite(ec) and math.isfinite(modp)):
                    raise BenchError(f"{path}: line {reader.line_num} needs a positive "
                                     f"participant count and finite seconds")
                rows.append((n, ec, modp))
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise BenchError(f"{path}: {exc}") from None
    if len({n for n, _, _ in rows}) < 2:  # the line fit needs two
        raise BenchError(f"{path}: need rows at two or more participant counts")
    return rows


# (participants, seconds over ec backend, seconds over modp backend)
with resources.as_file(resources.files("comhash.data") / "reference_timings.csv") as _path:
    REFERENCE_TIMINGS = tuple(read_reference_csv(str(_path)))
