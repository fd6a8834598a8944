"""Deterministic in-process message routing plus fault injection.

The router models the trusted channel the protocol assumes: it owns one FIFO
queue per (src, dst) pair and, driven by a seeded RNG, repeatedly picks a
non-empty queue and delivers its head to the destination's handler. Handlers
return follow-up messages, so a whole session plays out from a single
initial upload request. A fault plan can mutate, drop, duplicate, or delay
individual deliveries to exercise every server error path.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .encoding import Reader
from .errors import FrameError, ProtocolStateError
from .frames import ErrorCode, Frame, MsgType, SERVER_ID, decode_frame, encode_frame
from .groups import GroupParams
from .hashing import ParticipantKeys
from .protocol import (
    OwnerRole,
    ParticipantSession,
    Phase,
    ServerSession,
    server_begin,
)
from . import pke


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
    """Swap the nonce material: on a NONCE frame the payload itself, on a
    SHARE frame the encrypted receipt section (the replacement must be a
    full ciphertext encoding)."""

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
        self.applied: list[int] = []

    def take(self, ordinal: int):
        mutation = self._faults.pop(ordinal, None)
        if mutation is not None:
            self.applied.append(ordinal)
        return mutation

    @property
    def pending(self) -> dict:
        return dict(self._faults)


def apply_mutation(mutation, data: bytes, params: Optional[GroupParams] = None) -> bytes:
    """Rewrite one frame's bytes according to the mutation."""
    if isinstance(mutation, FlipByte):
        if not 0 <= mutation.offset < len(data):
            raise ValueError("flip offset outside frame bounds")
        return (data[:mutation.offset]
                + bytes([data[mutation.offset] ^ 0x01])
                + data[mutation.offset + 1:])
    if isinstance(mutation, ReplaceNonce):
        frame = decode_frame(data)
        if frame.msg_type in (MsgType.NONCE, MsgType.THRESH_NONCE):
            replaced = Frame(frame.msg_type, frame.session_id, frame.sender,
                             mutation.replacement)
        elif frame.msg_type in (MsgType.SHARE, MsgType.THRESH_SHARE):
            if params is None:
                raise ValueError("need group parameters to locate the receipt section")
            element_bytes = Reader(frame.payload).element_bytes(params)
            replaced = Frame(frame.msg_type, frame.session_id, frame.sender,
                             element_bytes + mutation.replacement)
        else:
            raise ValueError("replace-nonce only applies to NONCE or SHARE frames")
        return encode_frame(replaced)
    raise ValueError(f"not a byte-rewriting mutation: {mutation!r}")


class Endpoint:
    """A party on the simulated network."""

    def __init__(self, party_id: int,
                 handler: Callable[[int, bytes], list[tuple[int, bytes]]]):
        self.party_id = party_id
        self.handler = handler


def route(endpoints: dict[int, Endpoint], pending: list[Delivery], seed: int = 0,
          faults: Optional[FaultPlan] = None,
          params: Optional[GroupParams] = None,
          max_deliveries: int = 1_000_000) -> list[Delivery]:
    """Run the network to quiescence; returns the delivered-message trace.

    Scheduling is a seeded random choice among non-empty queues, so a seed
    pins the full interleaving while per-pair FIFO order always holds.
    """
    queues: dict[tuple[int, int], deque] = {}
    # the set of non-empty pairs, maintained incrementally (insertion order
    # is deterministic, so the seeded choice below is reproducible)
    live: list[tuple[int, int]] = []
    position: dict[tuple[int, int], int] = {}

    def activate(pair) -> None:
        if pair not in position:
            position[pair] = len(live)
            live.append(pair)

    def deactivate(pair) -> None:
        idx = position.pop(pair)
        last = live.pop()
        if last != pair:
            live[idx] = last
            position[last] = idx

    def enqueue(src: int, dst: int, data: bytes) -> None:
        if dst not in endpoints:
            raise ValueError(f"unknown destination: {dst}")
        queues.setdefault((src, dst), deque()).append(data)
        activate((src, dst))

    for item in pending:
        enqueue(item.src, item.dst, item.data)

    rng = random.Random(seed)
    trace: list[Delivery] = []
    ordinal = 0
    while live:
        if ordinal >= max_deliveries:
            raise RuntimeError("routing did not quiesce")
        pair = live[rng.randrange(len(live))]
        src, dst = pair
        queue = queues[pair]
        data = queue.popleft()
        if not queue:
            deactivate(pair)
        mutation = faults.take(ordinal) if faults is not None else None
        ordinal += 1
        if mutation is not None:
            if isinstance(mutation, Drop):
                continue
            if isinstance(mutation, Duplicate):
                queue.append(data)
                activate(pair)
            elif isinstance(mutation, Reorder):
                queue.insert(min(mutation.delay, len(queue)), data)
                activate(pair)
                continue
            else:
                data = apply_mutation(mutation, data, params)
        trace.append(Delivery(src, dst, data))
        for next_dst, next_data in endpoints[dst].handler(src, data):
            enqueue(dst, next_dst, next_data)
    if faults is not None and faults.pending:
        raise ValueError(f"fault ordinals out of range: {sorted(faults.pending)}")
    return trace


# -- wiring the basic protocol onto the router -------------------------------

class _ServerHolder:
    """Creates the server session when the upload request lands and collects
    shares until the network drains."""

    def __init__(self, params: GroupParams, n: int, keypair: pke.KeyPair,
                 rng: random.Random):
        self.params = params
        self.n = n
        self.keypair = keypair
        self.rng = rng
        self.session: Optional[ServerSession] = None

    def handle(self, src: int, data: bytes) -> list[tuple[int, bytes]]:
        try:
            frame = decode_frame(data)
        except FrameError:
            return []  # undeliverable junk; missing shares surface at drain
        if frame.msg_type is MsgType.UPLOAD_REQUEST:
            if self.session is not None:
                return []  # one session per run
            self.session, nonce_frames = server_begin(self.params, self.n,
                                                      self.keypair, self.rng)
            return [(i + 1, encode_frame(f)) for i, f in enumerate(nonce_frames)]
        if frame.msg_type is MsgType.SHARE and self.session is not None:
            if self.session.phase in (Phase.DONE, Phase.FAILED):
                return []  # terminal; late frames change nothing
            self.session.absorb(frame)
        return []


class _ParticipantState:
    def __init__(self, session: ParticipantSession):
        self.session = session
        self.result: Optional[bytes] = None
        self.error: Optional[int] = None

    def handle(self, src: int, data: bytes) -> list[tuple[int, bytes]]:
        try:
            frame = decode_frame(data)
        except FrameError:
            return []
        if frame.msg_type is MsgType.NONCE:
            try:
                share = self.session.respond(frame)
            except ProtocolStateError:
                return []
            return [(SERVER_ID, encode_frame(share))]
        if frame.msg_type is MsgType.RESULT:
            self.result = frame.payload
        elif frame.msg_type is MsgType.ERROR:
            self.error = frame.payload[0]
        return []


@dataclass
class SessionOutcome:
    phase: Phase
    digest: object
    error_code: Optional[ErrorCode]
    trace: list[Delivery] = field(default_factory=list)
    server: Optional[ServerSession] = None


def run_basic_session(params: GroupParams, keys_list: list[ParticipantKeys],
                      m: int, *, owner_index: int = 1, seed: Optional[int] = None,
                      server_keypair: Optional[pke.KeyPair] = None,
                      blinding: Optional[int] = None,
                      second_message: Optional[int] = None,
                      faults: Optional[FaultPlan] = None) -> SessionOutcome:
    """Play one complete n-party session over the router.

    The trace ends with the RESULT (or ERROR) broadcast. A session with
    missing shares when the network drains fails with MISSING. A seed makes
    the session reproducible, for simulation; without one, the session id,
    nonces, keys and receipt ephemerals come from the OS CSPRNG.
    """
    n = len(keys_list)
    rng = random.SystemRandom() if seed is None else random.Random(seed)
    if server_keypair is None:
        server_keypair = pke.generate_keypair(params, rng)
    holder = _ServerHolder(params, n, server_keypair, rng)
    endpoints = {SERVER_ID: Endpoint(SERVER_ID, holder.handle)}
    states = {}
    for index, keys in enumerate(keys_list, start=1):
        owner = OwnerRole(m, blinding, second_message) if index == owner_index else None
        child = None if seed is None else random.Random(rng.randrange(2**63))
        session = ParticipantSession(params, index, keys, server_keypair.public,
                                     owner=owner, rng=child)
        states[index] = _ParticipantState(session)
        endpoints[index] = Endpoint(index, states[index].handle)

    upload = encode_frame(Frame(MsgType.UPLOAD_REQUEST, bytes(16), owner_index))
    trace = route(endpoints, [Delivery(owner_index, SERVER_ID, upload)],
                  seed=rng.randrange(2**63), faults=faults, params=params)

    session = holder.session
    if session is None:  # the upload request itself was lost
        return SessionOutcome(phase=Phase.FAILED, digest=None,
                              error_code=ErrorCode.MISSING, trace=trace)
    if session.phase in (Phase.ISSUED, Phase.COLLECTING):
        if session.complete:
            session.finalize()
        else:
            session.fail(ErrorCode.MISSING)
    # broadcast the outcome so the trace ends the way the wire would
    closing = (session.result_frame() if session.phase is Phase.DONE
               else session.error_frame())
    closing_pending = [Delivery(SERVER_ID, i, encode_frame(closing))
                       for i in states]
    trace += route(endpoints, closing_pending, seed=0)
    return SessionOutcome(phase=session.phase, digest=session.digest,
                          error_code=session.error_code, trace=trace,
                          server=session)
