"""comhash session benchmark.

    python3 perfbench/run.py --workload ec-n64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

Runs one workload (or, with ``all``, each in its own process) as a closed
loop: one client, sessions back to back, each starting after the previous
digest is stored and checked. Keys and group parameters are built in
set-up; each session draws its message and session seed from the workload
seed. Every stored digest is checked against the oracle outside the timer.

Every timed step is bracketed by a fixed probe loop (see hostspeed.py), and
the time metrics are reported in reference seconds: wall time scaled to a
host on which the probe takes its reference time. The wall times are
printed beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced sessions and reports per-layer counts and self time
per session from the traced ones, plus the tracing overhead. The last line
of standard output is one JSON object; the exit code is 0 only if every
session was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = HERE / "out"

# the package under test is the checkout's own source tree, never an
# installed copy
sys.path.insert(0, str(ROOT / "src"))
import comhash  # noqa: E402

if Path(comhash.__file__).resolve().parent != ROOT / "src" / "comhash":
    raise ImportError(f"comhash found outside this checkout: {comhash.__file__}")

from comhash import bench, groups  # noqa: E402
from comhash.errors import ComhashError  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, self_times, write_spans  # noqa: E402
from workloads import CheckFailed, Link, RoutedBasic, Threshold  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# layer -> (what its metrics are predicted to move, its spans, its counters);
# every span reports calls and self time per traced session
LAYERS = {
    "groups.power": (
        "session_p50_s on ec-n64, threshold-ec-k128 and link-ec-n16",
        ("groups.power.fixed", "groups.power.key", "groups.power.var"),
        ("groups.power.per_share",)),
    "groups.element_valid": (
        "session_p50_s on modp-n8; no change on ec-n64",
        ("groups.element_valid",), ("groups.element_valid.per_share",)),
    "groups.combine": (
        "session_p50_s on ec-n64 and modp-n8", ("groups.combine",), ()),
    "hashing": (
        "session_p50_s on ec-n64 and modp-n8",
        ("hashing.cvhp", "hashing.combine_shares"), ()),
    "encoding": (
        "session_p50_s on modp-n8 (EC decode is about 5% of ec-n64)",
        ("encoding.element_to_bytes", "encoding.element_from_bytes"),
        ("encoding.element_from_bytes.rejected",)),
    "pke": (
        "session_p50_s on link-ec-n16 most, then on all the others",
        ("pke.encrypt", "pke.decrypt"), ("pke.decrypt.failed",)),
    "frames": (
        "nothing anywhere (under 1% today); frames.bytes tracks wire_bytes_per_session",
        ("frames.encode", "frames.decode"), ("frames.bytes",)),
    "net": (
        "nothing anywhere (under 1% today)",
        ("net.route",), ("net.route.deliveries",)),
    "protocol": (
        "nothing anywhere (under 1% today)",
        ("protocol.respond", "protocol.absorb", "protocol.finalize"),
        ("protocol.absorb.rejected",)),
    "transport": (
        "session_p50_s and wire_bytes_per_session on link-ec-n16 only",
        ("transport.send_frame", "transport.recv_frame"),
        ("transport.record_bytes", "transport.recv_frame.rejected")),
    "threshold": (
        "session_p50_s on threshold-ec-k128 only",
        ("threshold.lagrange_from_quotients", "threshold.run_multiply",
         "threshold.evaluator", "threshold.begin_round"), ()),
    "trace": (
        "nothing: traced / untraced session_p50_s - 1", (), ("trace.overhead_frac",)),
}


def _counter_unit(name: str) -> str:
    if name.endswith(".per_share"):
        return "count/share"
    if name.endswith("bytes"):
        return "B/session"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count/session"


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, grouped by layer."""
    units = {}
    for _, spans, counters in LAYERS.values():
        for span in spans:
            units[f"{span}.calls"] = "count/session"
            units[f"{span}.self_s"] = "s"
        for counter in counters:
            units[counter] = _counter_unit(counter)
    return units


END_TO_END_UNITS = {
    "session_p50_s": "s",
    "session_tail_s": "s",
    "shares_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire_bytes_per_session": "B",
}


# name -> (shape, the host-speed probe that slows down like it does)
WORKLOADS = {
    "ec-n64": (RoutedBasic(groups.secp256k1, 64), "interp"),
    "modp-n8": (RoutedBasic(lambda: groups.modp_group(2048), 8), "bigpow"),
    "threshold-ec-k128": (Threshold(groups.secp256k1, 128, 128), "interp"),
    "link-ec-n16": (Link(groups.secp256k1, 16), "interp"),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n  # 1-based
    return ordered[rank - 1], 100.0 * rank / n


class Timing(NamedTuple):
    wall_s: float
    ref_s: float  # wall_s scaled to the reference host speed


class Session(NamedTuple):
    traced: bool
    time: Timing
    ok: bool
    wire: int
    error: str | None


def timed_setup(shape, seed: int, speed: HostSpeed):
    speed.begin()
    start = time.perf_counter()
    ctx = shape.setup(seed)
    wall = time.perf_counter() - start
    return ctx, Timing(wall, speed.reference(wall))


def run_sessions(shape, ctx, name: str, seed: int, seconds: float,
                 setup_times: list, speed: HostSpeed, tracer=None) -> list[Session]:
    """Closed loop until the next session would end past the deadline.

    With a tracer, odd-numbered sessions are traced and at least one of
    each kind runs. Between sessions, outside the timer, the set-up is
    repeated and timed until setup_times holds SETUP_REPEATS samples, so
    its median spans the run rather than one instant. Returns one record
    per attempted session.
    """
    rng = random.Random(f"comhash-bench/{name}/{seed}/sessions")
    records = []
    at_least = 1 if tracer is None else 2  # a traced run compares both kinds
    deadline = time.perf_counter() + seconds
    while True:
        done = [r.time.wall_s for r in records]
        if (len(done) >= at_least
                and time.perf_counter() + statistics.median(done) > deadline):
            break
        inputs = shape.draw(ctx, rng)
        traced = tracer is not None and len(records) % 2 == 1
        gc.collect()  # the last session's garbage is not this one's cost
        speed.begin(done[-1] if done else 0.0)
        if traced:
            tracer.begin_session(len(records))
        start = time.perf_counter()
        try:
            outcome, error = shape.play(ctx, inputs), None
        except ComhashError as exc:
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced:
            tracer.end_session()
        took = Timing(elapsed, speed.reference(elapsed))
        wire = 0
        if error is None:
            try:
                wire = shape.check(ctx, inputs, outcome)
            except CheckFailed as exc:
                error = str(exc)
        if traced and shape.wire_counter:
            tracer.counts[shape.wire_counter] += wire
        records.append(Session(traced, took, error is None, wire, error))
        if len(setup_times) < SETUP_REPEATS:
            extra, setup_took = timed_setup(shape, seed, speed)
            shape.close(extra)
            setup_times.append(setup_took)
    return records


def end_to_end(shape, records, setup_times, speed: HostSpeed) -> tuple[dict, dict]:
    """Time metrics in reference seconds; the notes give the wall-time
    values beside them."""
    times = [r.time.ref_s for r in records]
    walls = [r.time.wall_s for r in records]
    ok = [r for r in records if r.ok]
    tail_value, tail_pct = tail(times)
    values = {
        "session_p50_s": statistics.median(times),
        "session_tail_s": tail_value,
        "shares_per_s": shape.shares * len(ok) / sum(times),
        "setup_s": statistics.median(t.ref_s for t in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wire_bytes_per_session": float(statistics.median(r.wire for r in ok)) if ok else 0.0,
    }
    probe_ms = 1000 * statistics.median(speed.samples)
    notes = {
        "session_p50_s": f"n={len(times)}; wall {statistics.median(walls):.4g} s; "
                         f"{speed.kind} probe median {probe_ms:.4g} ms, "
                         f"reference {1000 * speed.ref_s:.4g} ms",
        "session_tail_s": f"p{tail_pct:.1f} of n={len(times)}; wall {tail(walls)[0]:.4g} s",
        "shares_per_s": f"wall {shape.shares * len(ok) / sum(walls):.4g} 1/s",
        "setup_s": f"median of {len(setup_times)} set-ups; "
                   f"wall {statistics.median(t.wall_s for t in setup_times):.4g} s",
    }
    return values, notes


def per_layer(shape, records, tracer) -> dict:
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    sessions = len(traced)
    calls, self_s = {}, {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + own
    values = {}
    for metric in per_layer_units():
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls.get(name, 0) / sessions
        elif kind == "self_s":
            values[metric] = self_s.get(name, 0.0) / sessions
        elif kind == "per_share":
            total = sum(c for span, c in calls.items() if span.startswith(name))
            values[metric] = total / sessions / shape.shares
        elif metric == "trace.overhead_frac":
            values[metric] = (statistics.median(r.time.ref_s for r in traced)
                              / statistics.median(r.time.ref_s for r in plain) - 1)
        else:
            values[metric] = tracer.counts[metric] / sessions
    return values


def reference_note(name: str, p50: float, shape) -> str:
    """The paper's N=64 row beside this run, from the bundled table."""
    path = resources.files("comhash.data") / "reference_timings.csv"
    with resources.as_file(path) as csv_path:
        row = {n: (ec, modp) for n, ec, modp in bench.read_reference_csv(str(csv_path))}[64]
    if name == "ec-n64":
        return (f"paper N=64 secp256k1: {row[0]} s; this run session_p50_s "
                f"{p50:.4f} s ({p50 / row[0]:.2f}x)")
    if name == "modp-n8":
        scaled = p50 / shape.shares * 64
        return (f"paper N=64 modp-2048: {row[1]} s; this run per-share time x 64 "
                f"{scaled:.4f} s ({scaled / row[1]:.2f}x)")
    return ""


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    shape, probe = WORKLOADS[name]
    speed = HostSpeed(probe)
    ctx, took = timed_setup(shape, seed, speed)
    setup_times = [took]
    tracer = None
    if trace:
        tracer = Tracer(shape.known_keys(ctx))
    try:
        records = run_sessions(shape, ctx, name, seed, seconds, setup_times, speed,
                               tracer)
    finally:
        shape.close(ctx)

    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    print(f"workload {name}: seed {seed}, {attempted} sessions in a closed loop "
          f"of one client{' (odd sessions traced)' if trace else ''}")
    for r in records:
        if r.error is not None:
            print(f"  FAILED session: {r.error}")
    if trace:
        metrics = per_layer(shape, records, tracer)
        units = per_layer_units()
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{name}-seed{seed}.tsv"
        write_spans(tracer.spans, span_file)
        print(f"  {len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        for layer, (prediction, spans, counters) in LAYERS.items():
            print(f"  [{layer}] should move: {prediction}")
            for metric in units:
                if metric.startswith(tuple(spans) + tuple(counters)):
                    print(f"    {metric:40s} {metrics[metric]:.6g} {units[metric]}")
    else:
        units = END_TO_END_UNITS
        metrics, notes = end_to_end(shape, records, setup_times, speed)
        for metric, value in metrics.items():
            note = f"  ({notes[metric]})" if metric in notes else ""
            print(f"  {metric:24s} {value:.6g} {units[metric]}{note}")
        print(f"  {'failed_frac':24s} {failed / attempted:.6g} ratio  "
              f"({failed} of {attempted})")
        note = reference_note(name, metrics["session_p50_s"], shape)
        if note:
            print(f"  informational, no bound: {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stdout, end="")
            print(f"workload {name} printed no result (exit {proc.returncode})")
            return 1
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
