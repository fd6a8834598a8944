"""State machines for the n-party hashing session.

Flow: the owner asks for an upload, the server hands every participant a
fresh 32-byte nonce, each participant returns its share next to the nonce
encrypted under the server's public key, and the server keeps the combined
digest only if every receipt checks out. Any mismatch parks the session in a
terminal failed state with a specific error code; a failed session never
stores a digest.
"""

from __future__ import annotations

import hmac
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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


def share_payload(params: GroupParams, element, server_public, nonce: bytes,
                  rng: random.Random, context: bytes = b"") -> bytes:
    """A SHARE payload: the share element's bytes, then the nonce receipt
    encrypted to the server with those bytes and then ``context`` as
    associated data, so the receipt checks out only next to the element it
    was made for and with the context the server sent."""
    element_bytes = element_to_bytes(params, element)
    return element_bytes + pke.encrypt(params, server_public, nonce, rng,
                                       element_bytes + context)


class ServerSession:
    """Server side of one run; mutated by a single logical thread."""

    def __init__(self, params: GroupParams, n: int, keypair: pke.KeyPair,
                 rng: random.Random):
        if n < 1:
            raise ValueError("need at least one participant")
        self.params = params
        self.n = n
        self.keypair = keypair
        self.session_id = rng.randbytes(SESSION_ID_LENGTH)
        self.nonces: dict[int, bytes] = {}
        seen = set()
        for index in range(1, n + 1):
            nonce = rng.randbytes(NONCE_LENGTH)
            while nonce in seen:  # distinct per participant
                nonce = rng.randbytes(NONCE_LENGTH)
            seen.add(nonce)
            self.nonces[index] = nonce
        self.shares: dict[int, object] = {}
        self.phase = Phase.ISSUED
        self.error_code: Optional[ErrorCode] = None
        self.digest = None

    # -- state transitions ---------------------------------------------

    def fail(self, code: ErrorCode) -> None:
        if self.phase is Phase.DONE:
            raise ProtocolStateError("session already finalized")
        self.phase = Phase.FAILED
        self.error_code = code
        self.shares.clear()

    def absorb(self, frame: Frame) -> None:
        """Process one share frame; on any defect the session fails with a
        code identifying the defect."""
        if self.phase not in (Phase.ISSUED, Phase.COLLECTING):
            raise ProtocolStateError(f"cannot absorb in phase {self.phase.value}")
        if frame.msg_type is not MsgType.SHARE or frame.session_id != self.session_id:
            return self.fail(ErrorCode.MALFORMED)
        index = frame.sender
        if index not in self.nonces:
            return self.fail(ErrorCode.MALFORMED)
        if index in self.shares:
            return self.fail(ErrorCode.DUPLICATE)
        context = self.receipt_context(index)
        rd = Reader(frame.payload)
        try:
            # the receipt's tag covers the element bytes exactly as received
            element_bytes = rd.element_bytes(self.params)
            element = element_from_bytes(self.params, element_bytes)
            echoed = pke.decrypt(self.params, self.keypair.secret, rd.rest(),
                                 element_bytes + context)
        except EncodingError:
            return self.fail(ErrorCode.MALFORMED)
        except AuthenticationError:
            # altered, or made for another element, another context or none
            return self.fail(ErrorCode.DECRYPT_FAIL)
        if not hmac.compare_digest(echoed, self.nonces[index]):
            return self.fail(ErrorCode.NONCE_MISMATCH)
        self.shares[index] = element
        self.phase = Phase.COLLECTING

    def receipt_context(self, index: int) -> bytes:
        """What the server sent participant ``index`` besides its nonce,
        which the receipt must cover after the element bytes; the basic
        session sends nothing else."""
        return b""

    @property
    def complete(self) -> bool:
        # absorb admits only indices with a live nonce
        return len(self.shares) == len(self.nonces)

    def finalize(self):
        if self.phase is Phase.FAILED:
            raise ProtocolStateError("session already failed")
        if self.phase is Phase.DONE:
            return self.digest
        if not self.complete:
            raise ProtocolStateError("shares missing")
        digest = combine_shares(self.params, [self.shares[i] for i in sorted(self.shares)])
        self.digest = digest
        self.shares.clear()  # only the digest is retained
        self.phase = Phase.DONE
        return digest

    # -- outbound frames -------------------------------------------------

    def nonce_frames(self) -> list[Frame]:
        """One NONCE frame per participant, in index order."""
        return [Frame(MsgType.NONCE, self.session_id, SERVER_ID, self.nonces[i])
                for i in range(1, self.n + 1)]

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
        if self.owner is not None:
            element = owner_share(self.params, self.keys, self.owner.m)
        else:
            element = member_share(self.params, self.keys)
        payload = share_payload(self.params, element, self.server_public,
                                frame.payload, self.rng)
        return Frame(MsgType.SHARE, self.session_id, self.index, payload)

    def upload_request(self) -> Frame:
        """The opening frame; the real session id is assigned by the server."""
        return Frame(MsgType.UPLOAD_REQUEST, bytes(SESSION_ID_LENGTH), self.index)


# -- module-level views matching the operation names ------------------------

def server_begin(params: GroupParams, n: int, server_keypair: pke.KeyPair,
                 rng: random.Random):
    """Open a session: returns it plus the NONCE frames for participants 1..n."""
    session = ServerSession(params, n, server_keypair, rng)
    return session, session.nonce_frames()


def participant_respond(session: ParticipantSession, frame: Frame) -> Frame:
    return session.respond(frame)


def server_absorb(session: ServerSession, frame: Frame) -> ServerSession:
    session.absorb(frame)
    return session


def server_finalize(session: ServerSession):
    return session.finalize()
