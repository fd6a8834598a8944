"""Smoke check for the benchmark harness on the toy groups.

    python3 perfbench/smoke.py

Runs each of the four workload shapes on ``toy_ec()`` or
``toy_modp_subgroup()`` for a fraction of a second, untraced and traced,
and fails unless every session matches the oracle, a wrong message is
caught by the oracle check, every span fits inside its parent, and the
per-share operation counts are the ones the real workloads have.
"""

from __future__ import annotations

import dataclasses
import random
import sys

import run  # puts the checkout's src/ on sys.path
from comhash import groups
from hostspeed import HostSpeed
from tracing import Tracer, nesting_errors
from workloads import CheckFailed, Link, RoutedBasic, Threshold

SECONDS = 0.3
SEED = 7

SHAPES = {
    "ec-n64": RoutedBasic(groups.toy_ec, 4),
    "modp-n8": RoutedBasic(groups.toy_modp_subgroup, 4),
    "threshold-ec-k128": Threshold(groups.toy_ec, 4, 4),
    "link-ec-n16": Link(groups.toy_ec, 4),
}


def check_shape(name: str, shape) -> list[str]:
    problems = []
    speed = HostSpeed("interp")
    ctx, took = run.timed_setup(shape, SEED, speed)
    setup_times = [took]
    try:
        inputs = shape.draw(ctx, random.Random(SEED))
        outcome = shape.play(ctx, inputs)
        try:
            shape.check(ctx, inputs, outcome)
        except CheckFailed as exc:
            problems.append(f"session failed: {exc}")
        wrong = dataclasses.replace(inputs, m=(inputs.m + 1) % ctx.params.exponent_modulus)
        try:
            shape.check(ctx, wrong, outcome)
            problems.append("the oracle check accepted a digest of another message")
        except CheckFailed:
            pass

        tracer = Tracer(shape.known_keys(ctx))
        records = run.run_sessions(shape, ctx, name, SEED, SECONDS, setup_times, speed,
                                   tracer)
    finally:
        shape.close(ctx)

    problems += [f"session failed: {r.error}" for r in records if not r.ok]
    if not any(r.traced for r in records) or all(r.traced for r in records):
        problems.append("a traced run needs traced and untraced sessions")
    problems += nesting_errors(tracer.spans)
    metrics = run.per_layer(shape, records, tracer)
    run.end_to_end(shape, records, setup_times, speed)

    if isinstance(shape, RoutedBasic):
        if metrics["groups.power.per_share"] != 5:
            problems.append(f"power per share {metrics['groups.power.per_share']}, want 5")
        if ctx.params.backend == "modp":
            want = 8 + 1 / shape.n
            if metrics["groups.element_valid.per_share"] != want:
                problems.append(f"element_valid per share "
                                f"{metrics['groups.element_valid.per_share']}, want {want}")
    if isinstance(shape, Link) and metrics["transport.record_bytes"] <= 0:
        problems.append("no record bytes counted on the link")
    if isinstance(shape, Threshold) and metrics["threshold.lagrange_from_quotients.calls"] != shape.k:
        problems.append("want one Lagrange coefficient per chosen participant")
    return [f"{name}: {p}" for p in problems]


def main() -> int:
    problems = []
    for name, shape in SHAPES.items():
        found = check_shape(name, shape)
        print(f"{name:18s} {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
