"""Span tracer for the benchmark's traced runs.

The tracer wraps comhash's public functions and methods at the attribute
each caller looks them up through: a module-level function is replaced in
every ``comhash.*`` module that binds it (``protocol.combine_shares``,
``pke.element_to_bytes`` and so on), a method on its class
(``EcParams.power``). Each call records one span (name, start, end, parent
span, session id) in memory; counters record counts that are not spans
(bytes, rejections). Nothing is wrapped while the tracer is not installed,
so untraced sessions run the unmodified code.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Optional

from comhash import (encoding, frames, groups, hashing, net, pke, protocol,
                     threshold, transport)
from comhash.errors import AuthenticationError, EncodingError, TransportError

SESSION_SPAN = "session"

_clock = time.perf_counter


class Tracer:
    def __init__(self, known_keys=()):
        # span: [name, start, end, parent index (-1 for a root), session id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.known_keys = set(known_keys)
        self._stack: list[int] = []
        self._session: Optional[int] = None
        self._root = -1
        self._patches: list[tuple[object, str, object]] = []
        self._targets = _targets(self)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._session])
        self._stack.append(index)
        self.spans[index][1] = _clock()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    def wrap(self, name, fn: Callable, *, rejected: Optional[str] = None,
             errors: tuple = (), after: Optional[Callable] = None) -> Callable:
        """A traced stand-in for fn.

        name is a span name or a callable mapping the call's arguments to
        one; an exception in errors bumps the counter named rejected; after
        (args, result) records counters from a successful call.
        """
        tracer = self
        label = name if callable(name) else (lambda args: name)

        def traced(*args, **kwargs):
            index = tracer._open(label(args))
            try:
                result = fn(*args, **kwargs)
            except errors:
                tracer.counts[rejected] += 1
                raise
            finally:
                tracer._close(index)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def power_kind(self, args) -> str:
        params, base = args[0], args[1]
        if base == params.g or base == params.h:
            return "groups.power.fixed"
        if base in self.known_keys:
            return "groups.power.key"
        return "groups.power.var"

    # -- sessions ----------------------------------------------------------

    def begin_session(self, session_id: int) -> None:
        """Install the wrappers and open the session's root span."""
        self.install()
        self._session = session_id
        self._root = self._open(SESSION_SPAN)

    def end_session(self) -> None:
        self._close(self._root)
        self._session = None
        self.uninstall()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "comhash" or key.startswith("comhash."))]
        for target, wrapper in self._targets:
            if isinstance(target, tuple):  # (class, method name)
                cls, attr = target
                self._patches.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)
                continue
            bound = [(m, attr) for m in modules
                     for attr, value in vars(m).items() if value is target]
            if not bound:
                raise RuntimeError(f"no module binds {target.__qualname__}")
            for m, attr in bound:
                self._patches.append((m, attr, target))
                setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _targets(tracer: Tracer) -> list:
    """(function or (class, method), wrapper) for every traced boundary."""
    counts = tracer.counts
    wrap = tracer.wrap

    def count_route(args, result):
        counts["net.route.deliveries"] += len(result)

    def count_decoded(args, result):
        counts["frames.bytes"] += len(args[0])

    def count_absorb(args, result):
        if args[0].phase is protocol.Phase.FAILED:
            counts["protocol.absorb.rejected"] += 1

    out = []
    for cls in (groups.EcParams, groups.ModpParams):
        out += [
            ((cls, "power"), wrap(tracer.power_kind, cls.power)),
            ((cls, "element_valid"), wrap("groups.element_valid", cls.element_valid)),
            ((cls, "combine"), wrap("groups.combine", cls.combine)),
        ]
    out += [
        (hashing.cvhp, wrap("hashing.cvhp", hashing.cvhp)),
        (hashing.combine_shares, wrap("hashing.combine_shares", hashing.combine_shares)),
        (encoding.element_to_bytes,
         wrap("encoding.element_to_bytes", encoding.element_to_bytes)),
        (encoding.element_from_bytes,
         wrap("encoding.element_from_bytes", encoding.element_from_bytes,
              rejected="encoding.element_from_bytes.rejected",
              errors=(EncodingError,))),
        (pke.encrypt, wrap("pke.encrypt", pke.encrypt)),
        (pke.decrypt, wrap("pke.decrypt", pke.decrypt,
                           rejected="pke.decrypt.failed",
                           errors=(AuthenticationError,))),
        (frames.encode_frame, wrap("frames.encode", frames.encode_frame)),
        (frames.decode_frame, wrap("frames.decode", frames.decode_frame,
                                   after=count_decoded)),
        (net.route, wrap("net.route", net.route, after=count_route)),
        ((protocol.ParticipantSession, "respond"),
         wrap("protocol.respond", protocol.ParticipantSession.respond)),
        ((threshold.ThresholdParticipant, "respond"),
         wrap("protocol.respond", threshold.ThresholdParticipant.respond)),
        ((protocol.ServerSession, "absorb"),
         wrap("protocol.absorb", protocol.ServerSession.absorb, after=count_absorb)),
        ((protocol.ServerSession, "finalize"),
         wrap("protocol.finalize", protocol.ServerSession.finalize)),
        ((transport.SecureChannel, "send_frame"),
         wrap("transport.send_frame", transport.SecureChannel.send_frame)),
        ((transport.SecureChannel, "recv_frame"),
         wrap("transport.recv_frame", transport.SecureChannel.recv_frame,
              rejected="transport.recv_frame.rejected", errors=(TransportError,))),
        (threshold.lagrange_from_quotients,
         wrap("threshold.lagrange_from_quotients", threshold.lagrange_from_quotients)),
        (threshold.run_multiply, wrap("threshold.run_multiply", threshold.run_multiply)),
        ((threshold.ThresholdServer, "begin_round"),
         wrap("threshold.begin_round", threshold.ThresholdServer.begin_round)),
    ]
    evaluator = threshold.SealedPolynomialEvaluator
    for method in ("encrypt_input", "apply_poly", "decrypt_output"):
        out.append(((evaluator, method),
                    wrap("threshold.evaluator", getattr(evaluator, method))))
    return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    return [(end - start) - covered
            for (_, start, end, _, _), covered in zip(spans, children)]


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans whose interval does not fit inside their parent's, or whose
    children together outlast them."""
    problems = []
    covered = [0.0] * len(spans)
    for index, (name, start, end, parent, session) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} ({name}) ends before it starts")
        if parent < 0:
            continue
        p_name, p_start, p_end, _, p_session = spans[parent]
        if not p_start <= start <= end <= p_end or session != p_session:
            problems.append(f"span {index} ({name}) is not inside its parent "
                            f"{parent} ({p_name})")
        covered[parent] += end - start
    for index, (name, start, end, _, _) in enumerate(spans):
        if covered[index] > end - start + 1e-9:  # float rounding
            problems.append(f"children of span {index} ({name}) outlast it")
    return problems


def write_spans(spans: list[list], path) -> None:
    """One tab-separated line per span: index, name, start, end (seconds
    from the first span), parent, session."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\tsession\n")
        for index, (name, start, end, parent, session) in enumerate(spans):
            fh.write(f"{index}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}"
                     f"\t{parent}\t{session}\n")
