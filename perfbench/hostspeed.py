"""Host-speed reference for the benchmark's time metrics.

The benchmark runs on shared virtual machines whose CPU speed swings by up
to 1.7x over seconds to minutes, in wall time and CPU time alike. On a
2-vCPU Xeon VM the median ec-n64 session time of 30-second windows moved
by about 20%; the same session time divided by a short fixed loop run
right beside it moved by about 3%.

So every timed step (a session or a set-up) is bracketed by such a loop,
the probe. The probe uses no comhash code, so a change to the program
cannot speed it up or slow it down. On each side of a step the loop runs
for about PROBE_SHARE of the previous step's time, at least once, and the
median loop time is that side's probe time. A step's reference time is

    wall time * REF_S / mean(probe before, probe after)

that is, its wall time on a host where the probe takes ``REF_S``. Each
workload names the probe that slows down like it does: Python-level
256-bit arithmetic for the secp256k1 workloads, a 2048-bit modular
exponentiation for the modp one. ``REF_S`` is the probe's median time on
that VM (Python 3.11), so reference seconds there read close to wall
seconds.
"""

from __future__ import annotations

import statistics
import time

P25519 = (1 << 255) - 19
P2048 = (1 << 2048) - 1942289  # odd 2048-bit modulus; its primality is irrelevant
E2047 = (1 << 2046) + 0x9E3779B97F4A7C15


def _interp() -> None:
    x, acc = 3, 0
    for i in range(4000):
        x = (x * x + i) % P25519
        acc ^= x & 0xFFFF


def _bigpow() -> None:
    pow(5, E2047, P2048)


PROBE_SHARE = 0.01  # probing on each side of a step, as a share of the step

# kind -> (loop, its median seconds on the reference VM)
PROBES = {
    "interp": (_interp, 0.0036),
    "bigpow": (_bigpow, 0.033),
}


class HostSpeed:
    """Runs one kind of probe and turns wall times into reference times."""

    def __init__(self, kind: str):
        self.kind = kind
        self.loop, self.ref_s = PROBES[kind]
        self.samples: list[float] = []
        self.reps = 1
        self.before = None

    def sample(self) -> float:
        start = time.perf_counter()
        self.loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def probe(self) -> float:
        return statistics.median(self.sample() for _ in range(self.reps))

    def begin(self, expected_s: float = 0.0) -> None:
        """Probe right before a step expected to take about expected_s."""
        self.reps = max(1, round(PROBE_SHARE * expected_s / self.ref_s))
        self.before = self.probe()

    def reference(self, wall_s: float) -> float:
        """Reference time of the step that just ended: probe right after it
        and scale by the mean of the probes on either side."""
        after = self.probe()
        return wall_s * self.ref_s / ((self.before + after) / 2)
