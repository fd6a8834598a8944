import pytest

from comhash import Frame, FrameError, MsgType, decode_frame, encode_frame
from comhash.frames import HEADER_LENGTH, MAGIC


SID = bytes(range(16))


def test_round_trip_every_type():
    payloads = {
        MsgType.UPLOAD_REQUEST: b"",
        MsgType.NONCE: bytes(32),
        MsgType.ERROR: b"\x01",
    }
    for msg_type in MsgType:
        payload = payloads.get(msg_type, b"some-payload")
        frame = Frame(msg_type, SID, 3, payload)
        assert decode_frame(encode_frame(frame)) == frame


def test_header_layout():
    data = encode_frame(Frame(MsgType.SHARE, SID, 0x0102, b"abc"))
    assert data[:4] == MAGIC == b"XCH1"
    assert data[4] == 0x03
    assert data[5:21] == SID
    assert data[21:23] == b"\x01\x02"
    assert data[23:27] == b"\x00\x00\x00\x03"
    assert data[27:] == b"abc"
    assert HEADER_LENGTH == 27


def test_bad_magic_rejected():
    data = bytearray(encode_frame(Frame(MsgType.SHARE, SID, 1, b"x")))
    data[0] ^= 0xFF
    with pytest.raises(FrameError, match="magic"):
        decode_frame(bytes(data))


def test_unknown_type_rejected():
    # 0x10 and 0x13-0x15 are retired threshold types, never reused
    data = bytearray(encode_frame(Frame(MsgType.SHARE, SID, 1, b"x")))
    for raw_type in (0x99, 0x10, 0x13, 0x14, 0x15):
        data[4] = raw_type
        with pytest.raises(FrameError, match="unknown message type"):
            decode_frame(bytes(data))


def test_length_mismatch_rejected():
    data = encode_frame(Frame(MsgType.SHARE, SID, 1, b"xyz"))
    with pytest.raises(FrameError):
        decode_frame(data[:-1])
    with pytest.raises(FrameError):
        decode_frame(data + b"!")
    with pytest.raises(FrameError):
        decode_frame(data[:10])


def test_fixed_payload_shapes_enforced():
    with pytest.raises(FrameError):
        encode_frame(Frame(MsgType.NONCE, SID, 0, b"short"))
    with pytest.raises(FrameError):
        encode_frame(Frame(MsgType.ERROR, SID, 0, b"\x01\x02"))
    with pytest.raises(FrameError):
        encode_frame(Frame(MsgType.UPLOAD_REQUEST, SID, 1, b"stuff"))
    # and on the decode side
    good = bytearray(encode_frame(Frame(MsgType.SHARE, SID, 0, bytes(32))))
    good[4] = MsgType.NONCE  # now a NONCE with a 32-byte payload: fine
    decode_frame(bytes(good))
    bad = bytearray(encode_frame(Frame(MsgType.SHARE, SID, 0, bytes(31))))
    bad[4] = MsgType.NONCE
    with pytest.raises(FrameError):
        decode_frame(bytes(bad))


def test_session_id_and_sender_validated():
    with pytest.raises(FrameError):
        encode_frame(Frame(MsgType.SHARE, b"short", 1, b""))
    with pytest.raises(FrameError):
        encode_frame(Frame(MsgType.SHARE, SID, -1, b""))
    with pytest.raises(FrameError):
        encode_frame(Frame(MsgType.SHARE, SID, 70000, b""))
