"""State machines for the n-party hashing session.

Flow: the owner asks for an upload, the server issues each participant a
request, here a fresh 32-byte nonce, and each returns its share next to a
receipt, here the nonce encrypted under the server's public key; the server
keeps the combined digest only if every receipt checks out. Each round fills
the request table once in its ``begin_round`` and shares ``share_frame``. Any
mismatch parks the session in a terminal failed state with a specific error
code; a failed session never stores a digest.

``absorb`` reads each share's element and receipt as it arrives, in one
call to its round's ``_read_share``. A member share is the same bytes in
every session over its key pair, so a basic round decodes the element
through a by-value memo, ``_share_element``, that keeps every encoding it
accepted; a threshold round decodes its freshly dealt shares plainly.
``finalize`` ends collection. It fails MISSING at the lowest index without
a share, else on the first fault that its round's ``_faults`` yields over
the combined shares: a basic round opens every receipt in index order, one
``power_many`` raising the ephemerals to the server secret, and names the
lowest index with a bad tag or nonce.
"""

from __future__ import annotations

import functools
import hmac
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional

from .encoding import Reader, element_from_bytes, element_to_bytes
from .errors import AuthenticationError, EncodingError, ProtocolStateError
from .frames import (
    ErrorCode,
    Frame,
    MsgType,
    NONCE_LENGTH,
    SERVER_ID,
    SESSION_ID_LENGTH,
)
from .groups import GroupParams
from .hashing import ParticipantKeys, combine_shares, member_share, owner_share
from . import pke


class Phase(Enum):
    ISSUED = "issued"
    COLLECTING = "collecting"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class OwnerRole:
    """Marks a session as the data owner's, carrying the message to mix in."""

    m: int


class ServerSession:
    """Server side of one run, driven by one logical thread. A subclass replaces
    ``begin_round``, its one issuing step, ``_read_share``, how it reads a
    share's element and receipt, and ``_faults``, its one stream of check
    verdicts; ``fail`` is the one way the session fails."""

    def __init__(self, params: GroupParams, n: int, keypair: pke.KeyPair,
                 rng: random.Random):
        if n < 1:
            raise ValueError("need at least one participant")
        self.params = params
        self.n = n
        self.keypair = keypair
        self.session_id = rng.randbytes(SESSION_ID_LENGTH)
        self.requests: dict[int, object] = {}  # index -> what its receipt answers
        self.shares: dict[int, tuple] = {}  # index -> (element, its bytes, receipt as read)
        self.phase = Phase.ISSUED
        self.error_code: Optional[ErrorCode] = None
        self._culprit: Optional[int] = None
        self.digest = None
        self._rng = rng

    @property
    def live(self):
        return self.requests.keys()  # the indices issued a request, whose shares it takes

    def _read_share(self, element_bytes: bytes, receipt: bytes) -> tuple:
        """The share element, through the memo, as a member share repeats in
        every session over its key pair, and ``receipt`` as read for
        ``_faults``; ``EncodingError`` if either is malformed."""
        return (_share_element(self.params, element_bytes),
                pke.read_ciphertext(self.params, receipt))

    def _faults(self, indices: list, digest) -> Iterator[tuple[ErrorCode, int]]:
        """Yield ``(code, index)`` for each fault in the round of ``indices``
        and its combined ``digest``, in the order the checks run: here a bad
        tag or a nonce not echoed, per receipt in index order. Every
        ephemeral is raised to the server secret in one ``power_many``."""
        shared = self.params.power_many([self.shares[i][2][0] for i in indices],
                                        self.keypair.secret)
        for index, dh in zip(indices, shared):
            _, element_bytes, ciphertext = self.shares[index]
            try:
                echoed = pke.open_ciphertext(self.params, dh, ciphertext, element_bytes)
            except AuthenticationError:  # altered, moved, or made for another element
                yield ErrorCode.DECRYPT_FAIL, index
            else:
                if not hmac.compare_digest(echoed, self.requests[index]):
                    yield ErrorCode.NONCE_MISMATCH, index

    # -- state transitions ---------------------------------------------

    @property
    def culprit(self) -> Optional[int]:
        """The index of the participant at fault in a failed session, if one is known."""
        return self._culprit

    def fail(self, code: ErrorCode, index: Optional[int] = None) -> None:
        if self.phase is Phase.DONE:
            raise ProtocolStateError("session already finalized")
        self.phase = Phase.FAILED
        self.error_code = code
        self._culprit = index
        self.shares.clear()

    def absorb(self, frame: Frame) -> None:
        """Process one share frame: on a defect found here (its type, session,
        index, a repeat, or the form of its element or receipt) the session
        fails with that defect's code, and the frame's sender as the culprit.
        The receipt is only read here; ``finalize`` opens it."""
        if self.phase not in (Phase.ISSUED, Phase.COLLECTING) or not self.live:
            # no share is taken before the requests are issued
            raise ProtocolStateError(f"no share awaited in phase {self.phase.value}")
        index = frame.sender
        if (frame.msg_type is not MsgType.SHARE or frame.session_id != self.session_id
                or index not in self.live):
            return self.fail(ErrorCode.MALFORMED, index)
        if index in self.shares:
            return self.fail(ErrorCode.DUPLICATE, index)
        rd = Reader(frame.payload)
        try:
            # the receipt's tag covers the element bytes exactly as received
            element_bytes = bytes(rd.element_bytes(self.params))
            element, receipt = self._read_share(element_bytes, rd.rest())
        except EncodingError:
            return self.fail(ErrorCode.MALFORMED, index)
        self.shares[index] = (element, element_bytes, receipt)
        self.phase = Phase.COLLECTING

    def finalize(self):
        """End collection: store and return the digest once every issued index
        has a share and ``_faults`` yields none. The first fault fails the
        session naming that participant and raises ``ProtocolStateError``:
        MISSING at the lowest index without a share, before any share is
        combined or receipt opened, else the first that ``_faults`` yields."""
        if self.phase is Phase.FAILED:
            raise ProtocolStateError("session already failed")
        if self.phase is Phase.DONE:
            return self.digest
        if not self.live:
            raise ProtocolStateError("no request issued")  # nothing to collect, nor to miss
        missing = self.live - self.shares.keys()  # absorb admits only live indices
        if missing:
            digest, faults = None, [(ErrorCode.MISSING, min(missing))]
        else:
            indices = sorted(self.shares)
            digest = combine_shares(self.params, [self.shares[i][0] for i in indices])
            faults = self._faults(indices, digest)
        for code, index in faults:
            self.fail(code, index)
            raise ProtocolStateError(f"session failed: {code.name} at participant {index}")
        self.digest = digest
        self.shares.clear()  # only the digest is retained
        self.phase = Phase.DONE
        return digest

    # -- outbound frames -------------------------------------------------

    def begin_round(self) -> list[tuple[int, Frame]]:
        """Issue each participant a distinct fresh NONCE once: [(i, frame), ...]."""
        if self.requests:
            raise ProtocolStateError("requests already issued")
        for index in range(1, self.n + 1):
            nonce = self._rng.randbytes(NONCE_LENGTH)
            while nonce in self.requests.values():  # distinct per participant
                nonce = self._rng.randbytes(NONCE_LENGTH)
            self.requests[index] = nonce
        return [(index, Frame(MsgType.NONCE, self.session_id, SERVER_ID, nonce))
                for index, nonce in self.requests.items()]

    def result_frame(self) -> Frame:
        if self.phase is not Phase.DONE:
            raise ProtocolStateError("no digest to publish")
        return Frame(MsgType.RESULT, self.session_id, SERVER_ID,
                     element_to_bytes(self.params, self.digest))

    def error_frame(self) -> Frame:
        if self.phase is not Phase.FAILED:
            raise ProtocolStateError("session has not failed")
        return Frame(MsgType.ERROR, self.session_id, SERVER_ID,
                     bytes([self.error_code]))


class ParticipantSession:
    """One participant's view of a run: respond to the nonce with a share."""

    def __init__(self, params: GroupParams, index: int, keys: ParticipantKeys,
                 server_public, owner: Optional[OwnerRole] = None,
                 rng: Optional[random.Random] = None,
                 session_id: Optional[bytes] = None):
        if index < 1:
            raise ValueError("participant indices are 1-based")
        self.params = params
        self.index = index
        self.keys = keys
        self.server_public = server_public
        self.owner = owner
        self.rng = rng if rng is not None else random.SystemRandom()
        self.session_id = session_id  # adopted from the first nonce if unset

    def respond(self, frame: Frame) -> Frame:
        if frame.msg_type is not MsgType.NONCE:
            raise ProtocolStateError("expected a NONCE frame")
        if self.session_id is None:
            self.session_id = frame.session_id
        elif frame.session_id != self.session_id:
            raise ProtocolStateError("nonce belongs to a different session")
        m = None if self.owner is None else self.owner.m
        # the receipt: the nonce encrypted to the server, bound to the element's bytes
        return share_frame(self.params, self.keys, m, self.session_id, self.index,
                           lambda element: pke.encrypt(self.params, self.server_public,
                                                       frame.payload, self.rng, element))

    def upload_request(self) -> Frame:
        """The opening frame; the real session id is assigned by the server."""
        return Frame(MsgType.UPLOAD_REQUEST, bytes(SESSION_ID_LENGTH), self.index)


@functools.lru_cache(maxsize=1024)
def _share_element(params: GroupParams, element_bytes: bytes):
    """The share element ``element_bytes`` decodes to. Keyed by value like
    the comb tables, so a share encoding this process already decoded costs
    no second check; a rejected one raises and is never kept."""
    return element_from_bytes(params, element_bytes)


def share_frame(params: GroupParams, keys: ParticipantKeys, m: Optional[int],
                session_id: bytes, index: int, receipt: Callable[[bytes], bytes]) -> Frame:
    """The SHARE of either round: the element's bytes, then ``receipt`` of
    them. The message owner passes its m, every other participant None."""
    element = member_share(params, keys) if m is None else owner_share(params, keys, m)
    element_bytes = element_to_bytes(params, element)
    return Frame(MsgType.SHARE, session_id, index, element_bytes + receipt(element_bytes))


# -- module-level views matching the operation names ------------------------

def server_begin(params: GroupParams, n: int, server_keypair: pke.KeyPair,
                 rng: random.Random):
    """Open a session: returns it plus the NONCE frames for participants 1..n."""
    session = ServerSession(params, n, server_keypair, rng)
    return session, [frame for _, frame in session.begin_round()]


def participant_respond(session: ParticipantSession, frame: Frame) -> Frame:
    return session.respond(frame)


def server_absorb(session: ServerSession, frame: Frame) -> ServerSession:
    session.absorb(frame)
    return session


def server_finalize(session: ServerSession):
    return session.finalize()
