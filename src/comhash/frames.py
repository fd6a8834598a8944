"""Binary wire frames shared by every protocol message.

Layout: magic "XCH1" | msg_type u8 | session_id 16B | sender u16-BE |
payload_len u32-BE | payload. The server is sender 0; participants are
1-based indices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import FrameError

MAGIC = b"XCH1"
SESSION_ID_LENGTH = 16
NONCE_LENGTH = 32
SERVER_ID = 0

_HEADER = struct.Struct("!4sB16sHI")
HEADER_LENGTH = _HEADER.size


class MsgType(IntEnum):
    UPLOAD_REQUEST = 0x01
    NONCE = 0x02
    SHARE = 0x03
    RESULT = 0x04
    ERROR = 0x05
    # threshold round (0x10-0x1F); its shares and result travel as SHARE and RESULT
    # 0x10 and 0x12-0x15 are retired and not reused, so an older peer's frame fails to decode
    THRESH_DEAL = 0x11  # server -> chosen i: f(i) | t(i) | l_i sealed under pke.deal_keys
    # two-party multiplication (0x20-0x25), payload is one canonical scalar
    MUL_BLINDED_X = 0x20      # P1 -> P2: r1*x
    MUL_BLINDED_XY = 0x21     # P2 -> S:  r1*x*r2*y
    MUL_TRIPLE_BLIND = 0x22   # S  -> P1: rS*r1*x*r2*y
    MUL_PEEL_ONE = 0x23       # P1 -> P2: rS*x*r2*y
    MUL_PEEL_TWO = 0x24       # P2 -> S:  rS*x*y
    MUL_PRODUCT = 0x25        # server record: x*y


class ErrorCode(IntEnum):
    NONCE_MISMATCH = 1
    DUPLICATE = 2
    DECRYPT_FAIL = 3
    MISSING = 4
    MALFORMED = 5
    SHARE_MISMATCH = 6  # a threshold member's share is not the one it was dealt


# payload sizes that do not depend on group parameters
_FIXED_PAYLOAD = {
    MsgType.UPLOAD_REQUEST: 0,
    MsgType.NONCE: NONCE_LENGTH,
    MsgType.ERROR: 1,
}


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    session_id: bytes
    sender: int
    payload: bytes = b""


def encode_frame(frame: Frame) -> bytes:
    if len(frame.session_id) != SESSION_ID_LENGTH:
        raise FrameError("session id must be 16 bytes")
    if not 0 <= frame.sender <= 0xFFFF:
        raise FrameError("sender index out of range")
    try:
        msg_type = MsgType(frame.msg_type)
    except ValueError:
        raise FrameError(f"unknown message type: {frame.msg_type:#x}") from None
    expected = _FIXED_PAYLOAD.get(msg_type)
    if expected is not None and len(frame.payload) != expected:
        raise FrameError(f"{msg_type.name} payload must be {expected} bytes")
    return _HEADER.pack(MAGIC, msg_type, frame.session_id, frame.sender,
                        len(frame.payload)) + frame.payload


def decode_frame(data: bytes) -> Frame:
    if len(data) < HEADER_LENGTH:
        raise FrameError("frame shorter than header")
    magic, raw_type, session_id, sender, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError("bad magic")
    try:
        msg_type = MsgType(raw_type)
    except ValueError:
        raise FrameError(f"unknown message type: {raw_type:#x}") from None
    if len(data) != HEADER_LENGTH + payload_len:
        raise FrameError("declared payload length mismatch")
    payload = data[HEADER_LENGTH:]
    expected = _FIXED_PAYLOAD.get(msg_type)
    if expected is not None and len(payload) != expected:
        raise FrameError(f"{msg_type.name} payload must be {expected} bytes")
    return Frame(msg_type=msg_type, session_id=session_id, sender=sender,
                 payload=payload)
