"""Deterministic in-process message routing, fault injection, and one driver
for both rounds.

The router models the trusted channel the protocol assumes: it owns one FIFO
queue per (src, dst) pair and, driven by a seeded RNG, repeatedly picks a
non-empty queue and delivers its head to the destination's handler. A
handler is any callable taking (src, data) and returning the follow-up
(dst, data) messages, so a session plays out from the basic round's upload
request or the threshold round's k deals; the router knows nothing of
frames, parties or receipts. The channel authenticates each frame's sender:
``frame_handler`` takes a frame only from the party its header names, and a
participant answers only the server. Each server issues its requests in one
``begin_round`` and ends collection in ``finalize``, which decides any
failure, so one ``answerer``, ``collect`` and ``play`` serve both.
A fault plan can drop, duplicate, delay, flip a byte of, or swap the nonce
of deliveries to exercise every server error path.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional

from .errors import AuthenticationError, EncodingError, FrameError, ProtocolStateError
from .frames import ErrorCode, Frame, MsgType, SERVER_ID, decode_frame, encode_frame
from .groups import GroupParams
from .hashing import ParticipantKeys
from .protocol import OwnerRole, ParticipantSession, Phase, ServerSession
from . import pke

MAX_DELIVERIES = 1_000_000  # a run still busy after this many is looping

Handler = Callable[[int, bytes], list[tuple[int, bytes]]]


@dataclass(frozen=True)
class Delivery:
    src: int
    dst: int
    data: bytes


# -- fault plan mutations ----------------------------------------------------

@dataclass(frozen=True)
class FlipByte:
    offset: int


@dataclass(frozen=True)
class ReplaceNonce:
    """Swap the payload of a NONCE frame for ``replacement``, so the
    participant signs a receipt for a nonce the server never issued."""

    replacement: bytes


@dataclass(frozen=True)
class Drop:
    pass


@dataclass(frozen=True)
class Duplicate:
    pass


@dataclass(frozen=True)
class Reorder:
    delay: int = 1


class FaultPlan:
    """Mutations keyed by delivery-attempt ordinal; each fires exactly once."""

    def __init__(self, faults=None):
        self._faults = dict(faults or {})

    def take(self, ordinal: int):
        return self._faults.pop(ordinal, None)

    @property
    def pending(self) -> dict:
        return dict(self._faults)


def apply_mutation(mutation, data: bytes) -> bytes:
    """Rewrite one frame's bytes according to the mutation."""
    if isinstance(mutation, FlipByte):
        if not 0 <= mutation.offset < len(data):
            raise ValueError("flip offset outside frame bounds")
        return (data[:mutation.offset]
                + bytes([data[mutation.offset] ^ 0x01])
                + data[mutation.offset + 1:])
    if isinstance(mutation, ReplaceNonce):
        frame = decode_frame(data)
        if frame.msg_type is not MsgType.NONCE:
            raise ValueError("replace-nonce only applies to NONCE frames")
        return encode_frame(replace(frame, payload=mutation.replacement))
    raise ValueError(f"not a byte-rewriting mutation: {mutation!r}")


def route(handlers: dict[int, Handler], pending: list[Delivery], seed: int = 0,
          faults: Optional[FaultPlan] = None) -> list[Delivery]:
    """Run the network to quiescence; returns the delivered-message trace.

    Scheduling is a seeded random choice among non-empty queues, so a seed
    pins the full interleaving while per-pair FIFO order always holds.
    """
    queues: dict[tuple[int, int], deque] = {}
    # the non-empty pairs in a deterministic order, so the seeded choice
    # below is reproducible: a pair is appended when a message lands in its
    # empty queue, and swap-removed when its queue empties
    live: list[tuple[int, int]] = []

    def push(pair, data: bytes, at: Optional[int] = None) -> None:
        if pair[1] not in handlers:
            raise ValueError(f"unknown destination: {pair[1]}")
        queue = queues.setdefault(pair, deque())
        if not queue:
            live.append(pair)
        queue.insert(len(queue) if at is None else at, data)

    for item in pending:
        push((item.src, item.dst), item.data)

    rng = random.Random(seed)
    trace: list[Delivery] = []
    ordinal = 0
    while live:
        if ordinal >= MAX_DELIVERIES:
            raise RuntimeError("routing did not quiesce")
        slot = rng.randrange(len(live))
        pair = live[slot]
        queue = queues[pair]
        data = queue.popleft()
        if not queue:
            last = live.pop()
            if slot < len(live):
                live[slot] = last
        mutation = faults.take(ordinal) if faults is not None else None
        ordinal += 1
        if isinstance(mutation, Drop):
            continue
        if isinstance(mutation, Reorder):
            push(pair, data, mutation.delay)
            continue
        if isinstance(mutation, Duplicate):
            push(pair, data)
        elif mutation is not None:
            data = apply_mutation(mutation, data)
        src, dst = pair
        trace.append(Delivery(src, dst, data))
        for next_dst, next_data in handlers[dst](src, data):
            push((dst, next_dst), next_data)
    if faults is not None and faults.pending:
        raise ValueError(f"fault ordinals out of range: {sorted(faults.pending)}")
    return trace


# -- wiring both rounds onto the router ---------------------------------------

def frame_handler(on_frame: Callable[[Frame], list[tuple[int, Frame]]]) -> Handler:
    """A handler that decodes each delivery, ignores bytes that are not a
    frame or a frame whose sender is not the party it came from, and encodes
    the (dst, frame) replies of ``on_frame``."""

    def handle(src: int, data: bytes) -> list[tuple[int, bytes]]:
        try:
            frame = decode_frame(data)
        except FrameError:
            return []  # undeliverable junk; missing shares surface at drain
        if frame.sender != src:
            return []  # forged or altered in transit: one party cannot speak for another
        return [(dst, encode_frame(reply)) for dst, reply in on_frame(frame)]

    return handle


def answerer(respond: Callable[[Frame], Frame]) -> Handler:
    """A participant's handler: answer each frame from the server with the
    frame ``respond`` makes for it; another party's frame, one that is not
    its request, or one that does not open gets none."""

    def on_frame(frame: Frame) -> list[tuple[int, Frame]]:
        if frame.sender != SERVER_ID or frame.msg_type in (MsgType.RESULT, MsgType.ERROR):
            return []  # only the server asks, and its closing frame needs no answer
        try:
            return [(SERVER_ID, respond(frame))]
        except (ProtocolStateError, AuthenticationError, EncodingError):
            return []  # another round's frame or session's nonce, a deal forged or altered

    return frame_handler(on_frame)


def collect(session: Optional[ServerSession], frame: Frame) -> list[tuple[int, Frame]]:
    """The server absorbs a SHARE while collecting and answers nothing."""
    if (frame.msg_type is MsgType.SHARE and session is not None
            and session.phase in (Phase.ISSUED, Phase.COLLECTING)):
        session.absorb(frame)  # a terminal session ignores late frames
    return []


@dataclass
class SessionOutcome:
    phase: Phase
    digest: object
    error_code: Optional[ErrorCode]
    trace: list[Delivery] = field(default_factory=list)
    server: Optional[ServerSession] = None

    @property
    def transcript(self) -> list[Optional[Frame]]:
        """Each delivery's frame, in trace order; None where a fault left
        bytes that are not a frame, so the list stays aligned with the trace."""
        frames: list[Optional[Frame]] = []
        for d in self.trace:
            try:
                frames.append(decode_frame(d.data))
            except FrameError:
                frames.append(None)
        return frames


def play(handlers: dict[int, Handler], pending: list[Delivery], seed: int,
         faults: Optional[FaultPlan], server: Callable[[], Optional[ServerSession]],
         recipients: Iterable[int]) -> SessionOutcome:
    """Route ``pending`` to quiescence, finalize the session ``server()``
    returns, and send its closing RESULT or ERROR frame to ``recipients``."""
    trace = route(handlers, pending, seed=seed, faults=faults)
    session = server()
    if session is None:  # the request that opens it was lost
        return SessionOutcome(Phase.FAILED, None, ErrorCode.MISSING, trace)
    with suppress(ProtocolStateError):  # the session has failed, or failed just now
        session.finalize()
    closing = (session.result_frame() if session.phase is Phase.DONE
               else session.error_frame())
    trace += route(handlers, [Delivery(SERVER_ID, i, encode_frame(closing))
                              for i in recipients], seed=0)
    return SessionOutcome(session.phase, session.digest, session.error_code, trace, session)


def run_basic_session(params: GroupParams, keys_list: list[ParticipantKeys],
                      m: int, *, owner_index: int = 1, seed: Optional[int] = None,
                      server_keypair: Optional[pke.KeyPair] = None,
                      faults: Optional[FaultPlan] = None) -> SessionOutcome:
    """Play one complete n-party session over the router.

    The trace ends with the RESULT (or ERROR) broadcast. A session with
    missing shares when the network drains fails with MISSING. A seed makes
    the session reproducible, for simulation; without one, the session id,
    nonces, keys and receipt ephemerals come from the OS CSPRNG.
    """
    n = len(keys_list)
    if not 1 <= owner_index <= n:
        raise ValueError("owner_index must name a participant")
    rng = random.SystemRandom() if seed is None else random.Random(seed)
    if server_keypair is None:
        server_keypair = pke.generate_keypair(params, rng)
    session: Optional[ServerSession] = None  # created when the upload lands

    def serve(frame: Frame) -> list[tuple[int, Frame]]:
        nonlocal session
        if frame.msg_type is MsgType.UPLOAD_REQUEST and session is None:
            session = ServerSession(params, n, server_keypair, rng)
            return session.begin_round()
        return collect(session, frame)

    handlers = {SERVER_ID: frame_handler(serve)}
    participants = {}
    for index, keys in enumerate(keys_list, start=1):
        owner = OwnerRole(m) if index == owner_index else None
        child = None if seed is None else random.Random(rng.randrange(2**63))
        participants[index] = ParticipantSession(params, index, keys, server_keypair.public,
                                                 owner=owner, rng=child)
        handlers[index] = answerer(participants[index].respond)

    upload = encode_frame(participants[owner_index].upload_request())
    return play(handlers, [Delivery(owner_index, SERVER_ID, upload)], rng.randrange(2**63),
                faults, lambda: session, participants)
