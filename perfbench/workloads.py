"""The benchmark's workload shapes, driven only through comhash's public API.

Each shape splits one workload into the steps the runner times separately:

- ``setup(seed)`` builds group parameters, keys and the long-lived server
  key pair (and, on the link, the handshaken channel pair);
- ``draw(ctx, rng)`` picks one session's inputs (message, owner, session
  seed) from the workload's session stream;
- ``play(ctx, inputs)`` is the timed session, upload request through the
  stored digest;
- ``check(ctx, inputs, outcome)`` compares the stored digest with the
  oracle outside the timer and returns the session's wire bytes.
"""

from __future__ import annotations

import random
import socket
import threading
from dataclasses import dataclass
from typing import Callable

from comhash import frames, hashing, net, pke, protocol, threshold, transport
from comhash.encoding import element_to_bytes
from comhash.errors import ComhashError, ProtocolStateError

HANDSHAKE_TIMEOUT_S = 30


class CheckFailed(Exception):
    """A session finished but its output disagrees with the oracle."""


@dataclass(frozen=True)
class Inputs:
    m: int
    owner: int
    seed: int


def _draw(ctx, rng: random.Random) -> Inputs:
    params, n = ctx.params, ctx.n
    return Inputs(m=rng.randrange(params.exponent_modulus),
                  owner=rng.randrange(1, n + 1), seed=rng.randrange(2**63))


# ---------------------------------------------------------------------------
# n-party session over the in-process router
# ---------------------------------------------------------------------------

@dataclass
class BasicContext:
    params: object
    n: int
    keys: list
    server_keypair: pke.KeyPair


class RoutedBasic:
    """``run_basic_session`` over ``net.route``: every frame is encoded,
    routed and decoded in process."""

    wire_counter = None  # frames.bytes already counts the routed bytes

    def __init__(self, make_params: Callable, n: int):
        self.make_params = make_params
        self.n = n
        self.shares = n

    def setup(self, seed: int) -> BasicContext:
        rng = random.Random(seed)
        params = self.make_params()
        keys = [hashing.ParticipantKeys.random(params, rng) for _ in range(self.n)]
        return BasicContext(params, self.n, keys, pke.generate_keypair(params, rng))

    draw = staticmethod(_draw)

    def known_keys(self, ctx: BasicContext) -> list:
        return [ctx.server_keypair.public]

    def play(self, ctx: BasicContext, inputs: Inputs):
        return net.run_basic_session(ctx.params, ctx.keys, inputs.m,
                                     owner_index=inputs.owner, seed=inputs.seed,
                                     server_keypair=ctx.server_keypair)

    def check(self, ctx: BasicContext, inputs: Inputs, outcome) -> int:
        if outcome.phase is not protocol.Phase.DONE:
            raise CheckFailed(f"session ended {outcome.phase.value} "
                              f"({outcome.error_code})")
        if outcome.digest != hashing.reference_digest(ctx.params, inputs.m, ctx.keys):
            raise CheckFailed("stored digest differs from reference_digest")
        return sum(len(delivery.data) for delivery in outcome.trace)

    def close(self, ctx: BasicContext) -> None:
        pass


# ---------------------------------------------------------------------------
# k-of-n threshold session, in process
# ---------------------------------------------------------------------------

@dataclass
class ThresholdContext:
    params: object
    n: int
    s0: int
    t0: int


class Threshold:
    """``run_threshold_session`` with the dealer secrets fixed in set-up;
    the session makes its own server key, evaluation points and
    polynomials from the session seed."""

    wire_counter = None  # no frame crosses a wire; bytes are the transcript's

    def __init__(self, make_params: Callable, k: int, n: int):
        self.make_params = make_params
        self.k = k
        self.n = n
        self.shares = k

    def setup(self, seed: int) -> ThresholdContext:
        rng = random.Random(seed)
        params = self.make_params()
        mod = params.exponent_modulus
        return ThresholdContext(params, self.n, rng.randrange(mod), rng.randrange(mod))

    def draw(self, ctx: ThresholdContext, rng: random.Random) -> Inputs:
        # the owner is the lowest index of the subset, chosen by the session
        return Inputs(m=rng.randrange(ctx.params.exponent_modulus), owner=0,
                      seed=rng.randrange(2**63))

    def known_keys(self, ctx: ThresholdContext) -> list:
        return []  # every key in a threshold session is made per session

    def play(self, ctx: ThresholdContext, inputs: Inputs):
        return threshold.run_threshold_session(
            ctx.params, ctx.s0, ctx.t0, self.k, self.n, inputs.m,
            random.Random(inputs.seed))

    def check(self, ctx: ThresholdContext, inputs: Inputs, run) -> int:
        params = ctx.params
        if run.server.phase is not protocol.Phase.DONE:
            raise CheckFailed(f"session ended {run.server.phase.value}")
        expected = hashing.cvhp(params, (inputs.m + ctx.s0) % params.exponent_modulus,
                                ctx.t0)
        if run.digest != expected:
            raise CheckFailed("stored digest differs from cvhp(m + s0, t0)")
        return sum(len(frames.encode_frame(frame)) for frame in run.transcript)

    def close(self, ctx: ThresholdContext) -> None:
        pass


# ---------------------------------------------------------------------------
# n-party session over one SecureChannel pair
# ---------------------------------------------------------------------------

class CountingSocket:
    """Socket stand-in that counts the bytes written to it."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.sent = 0

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)
        self.sent += len(data)

    def recv(self, n: int) -> bytes:
        return self._sock.recv(n)

    def shutdown(self, how: int) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()


@dataclass
class LinkContext:
    params: object
    n: int
    keys: list
    server_keypair: pke.KeyPair
    client: transport.SecureChannel  # carries every participant's frames
    server: transport.SecureChannel


def _handshake(client: transport.SecureChannel, server: transport.SecureChannel) -> None:
    errors = []

    def serve():
        try:
            server.handshake()
        except ComhashError as exc:
            errors.append(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        client.handshake()
    finally:
        thread.join(HANDSHAKE_TIMEOUT_S)
    if thread.is_alive():
        raise RuntimeError("link handshake did not finish")
    if errors:
        raise errors[0]


class Link:
    """The benchmark plays server and participants itself; every frame
    crosses one ``SecureChannel`` pair over a ``socket.socketpair()``.
    Nonces go out in index order, so the i-th NONCE is participant i's."""

    wire_counter = "transport.record_bytes"

    def __init__(self, make_params: Callable, n: int):
        self.make_params = make_params
        self.n = n
        self.shares = n

    def setup(self, seed: int) -> LinkContext:
        rng = random.Random(seed)
        params = self.make_params()
        keys = [hashing.ParticipantKeys.random(params, rng) for _ in range(self.n)]
        server_keypair = pke.generate_keypair(params, rng)
        a, b = socket.socketpair()
        client = transport.SecureChannel(CountingSocket(a), params,
                                         random.Random(rng.randrange(2**63)))
        server = transport.SecureChannel(CountingSocket(b), params,
                                         random.Random(rng.randrange(2**63)))
        try:
            _handshake(client, server)
        except BaseException:
            client.close()
            server.close()
            raise
        return LinkContext(params, self.n, keys, server_keypair, client, server)

    draw = staticmethod(_draw)

    def known_keys(self, ctx: LinkContext) -> list:
        return [ctx.server_keypair.public, ctx.client.keypair.public,
                ctx.server.keypair.public]

    def _sent(self, ctx: LinkContext) -> int:
        return ctx.client.sock.sent + ctx.server.sock.sent

    def play(self, ctx: LinkContext, inputs: Inputs):
        params, client, server = ctx.params, ctx.client, ctx.server
        sent_before = self._sent(ctx)
        rng = random.Random(inputs.seed)
        parts = {
            i: protocol.ParticipantSession(
                params, i, ctx.keys[i - 1], ctx.server_keypair.public,
                owner=protocol.OwnerRole(inputs.m) if i == inputs.owner else None,
                rng=random.Random(rng.randrange(2**63)))
            for i in range(1, self.n + 1)}

        client.send_frame(frames.encode_frame(parts[inputs.owner].upload_request()))
        request = frames.decode_frame(server.recv_frame())
        if request.msg_type is not frames.MsgType.UPLOAD_REQUEST:
            raise ProtocolStateError("expected an UPLOAD_REQUEST frame")
        session, nonce_frames = protocol.server_begin(params, self.n,
                                                      ctx.server_keypair, rng)
        for index, nonce in enumerate(nonce_frames, start=1):
            server.send_frame(frames.encode_frame(nonce))
            share = parts[index].respond(frames.decode_frame(client.recv_frame()))
            client.send_frame(frames.encode_frame(share))
            session.absorb(frames.decode_frame(server.recv_frame()))
            if session.phase is protocol.Phase.FAILED:
                break
        if session.phase is not protocol.Phase.FAILED:
            session.finalize()
        closing = frames.encode_frame(session.result_frame()
                                      if session.phase is protocol.Phase.DONE
                                      else session.error_frame())
        received = []
        for _ in parts:
            server.send_frame(closing)
            received.append(frames.decode_frame(client.recv_frame()))
        return session, received, self._sent(ctx) - sent_before

    def check(self, ctx: LinkContext, inputs: Inputs, outcome) -> int:
        session, received, wire_bytes = outcome
        if session.phase is not protocol.Phase.DONE:
            raise CheckFailed(f"session ended {session.phase.value} "
                              f"({session.error_code})")
        expected = hashing.reference_digest(ctx.params, inputs.m, ctx.keys)
        if session.digest != expected:
            raise CheckFailed("stored digest differs from reference_digest")
        encoded = element_to_bytes(ctx.params, expected)
        if any(f.msg_type is not frames.MsgType.RESULT or f.payload != encoded
               for f in received):
            raise CheckFailed("a participant's RESULT differs from the digest")
        return wire_bytes

    def close(self, ctx: LinkContext) -> None:
        ctx.client.close()
        ctx.server.close()
