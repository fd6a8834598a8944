import random
import socket
import struct
import threading

import pytest

from comhash import (
    ErrorCode,
    Frame,
    MsgType,
    ParticipantKeys,
    ParticipantSession,
    Phase,
    OwnerRole,
    TransportError,
    decode_frame,
    encode_frame,
    reference_digest,
    server_begin,
)
from comhash import pke
from comhash.transport import SecureChannel, accept_one, connect


def linked_channels(params_a, params_b=None, tamper=None):
    """Open a loopback TCP pair, handshake both ends, return the channels.

    tamper(record_bytes) -> bytes can rewrite the first record sent from a
    to b at the socket layer, emulating a wire attacker.
    """
    params_b = params_b if params_b is not None else params_a
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    result = {}
    errors = []

    def serve():
        try:
            result["server"] = accept_one(listener, params_b,
                                          rng=random.Random(2))
        except TransportError as exc:
            errors.append(exc)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        client = connect("127.0.0.1", port, params_a, rng=random.Random(1))
    except TransportError as exc:
        thread.join()
        listener.close()
        return None, None, errors
    thread.join()
    listener.close()
    return client, result.get("server"), errors


def test_round_trip_over_tcp(toy_subgroup):
    client, server, errors = linked_channels(toy_subgroup)
    assert not errors
    payload = encode_frame(Frame(MsgType.UPLOAD_REQUEST, bytes(16), 1))
    client.send_frame(payload)
    assert server.recv_frame() == payload
    server.send_frame(b"reply-bytes")
    assert client.recv_frame() == b"reply-bytes"
    client.close()
    server.close()


def test_handshake_rejects_mismatched_parameters(toy_subgroup, toy_primitive):
    client, server, errors = linked_channels(toy_subgroup, toy_primitive)
    assert client is None and server is None
    assert errors and "parameter set" in str(errors[0])


@pytest.mark.parametrize("side", ["connect", "accept_one"])
def test_failed_handshake_closes_the_socket(side, toy_subgroup, monkeypatch):
    # the peer answers with a parameter digest of zeros
    socks = []
    handshake = SecureChannel.handshake

    def recorded(self):
        socks.append(self.sock)
        return handshake(self)

    monkeypatch.setattr(SecureChannel, "handshake", recorded)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        address = listener.getsockname()
        if side == "connect":
            def peer():
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(10)
                    conn.sendall(bytes(32))
                    conn.recv(32, socket.MSG_WAITALL)  # the client's digest

            thread = threading.Thread(target=peer)
            thread.start()
            with pytest.raises(TransportError, match="parameter set"):
                connect(*address, toy_subgroup)
            thread.join(timeout=10)
            assert not thread.is_alive()
        else:
            with socket.create_connection(address) as conn:
                conn.sendall(bytes(32))
                with pytest.raises(TransportError, match="parameter set"):
                    accept_one(listener, toy_subgroup)
    assert len(socks) == 1 and socks[0].fileno() == -1


def test_wire_tampering_detected(secp):
    client, server, errors = linked_channels(secp)
    assert not errors
    # capture a record, flip one ciphertext byte, splice it back
    raw_sock = client.sock
    frame = encode_frame(Frame(MsgType.NONCE, bytes(16), 0, bytes(32)))
    record = pke.encrypt(secp, client.peer_public, frame, client.rng)
    corrupted = bytearray(record)
    corrupted[-1] ^= 0x01
    raw_sock.sendall(struct.pack("!I", len(corrupted)) + bytes(corrupted))
    with pytest.raises(TransportError):
        server.recv_frame()
    client.close()
    server.close()


def test_session_over_tcp_matches_oracle(toy_curve):
    """One participant talks to the server over a real socket link."""
    keys = ParticipantKeys(7, 11)
    m = 4
    rng = random.Random(33)
    server_kp = pke.generate_keypair(toy_curve, rng)
    outcome = {}

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def server_side():
        channel = accept_one(listener, toy_curve, rng=random.Random(34))
        upload = decode_frame(channel.recv_frame())
        assert upload.msg_type is MsgType.UPLOAD_REQUEST
        session, nonces = server_begin(toy_curve, 1, server_kp, random.Random(35))
        channel.send_frame(encode_frame(nonces[0]))
        share = decode_frame(channel.recv_frame())
        session.absorb(share)
        if session.phase is Phase.FAILED:
            channel.send_frame(encode_frame(session.error_frame()))
        else:
            session.finalize()
            channel.send_frame(encode_frame(session.result_frame()))
            outcome["digest"] = session.digest
        channel.close()

    thread = threading.Thread(target=server_side)
    thread.start()
    channel = connect("127.0.0.1", port, toy_curve, rng=random.Random(36))
    psession = ParticipantSession(toy_curve, 1, keys, server_kp.public,
                                  owner=OwnerRole(m), rng=random.Random(37))
    channel.send_frame(encode_frame(psession.upload_request()))
    nonce = decode_frame(channel.recv_frame())
    channel.send_frame(encode_frame(psession.respond(nonce)))
    result = decode_frame(channel.recv_frame())
    thread.join()
    listener.close()
    channel.close()

    assert result.msg_type is MsgType.RESULT
    assert outcome["digest"] == reference_digest(toy_curve, m, [keys])


def test_any_wire_byte_flip_is_rejected(toy_curve):
    """Per-link authenticated encryption turns arbitrary record tampering
    into a transport failure; no altered frame ever reaches the protocol."""
    client, server, errors = linked_channels(toy_curve)
    assert not errors
    frame = encode_frame(Frame(MsgType.SHARE, bytes(16), 1, b"payload" * 3))
    rejected = 0
    rng = random.Random(55)
    for _ in range(60):
        record = bytearray(pke.encrypt(toy_curve, client.peer_public, frame, client.rng))
        record[rng.randrange(len(record))] ^= 1 << rng.randrange(8)
        client.sock.sendall(struct.pack("!I", len(record)) + bytes(record))
        try:
            out = server.recv_frame()
        except TransportError:
            rejected += 1
            continue
        assert out != frame, "tampered record decrypted to the original"
    assert rejected == 60
    client.close()
    server.close()


def test_frames_unusable_before_handshake(toy_subgroup):
    a, b = socket.socketpair()
    channel = SecureChannel(a, toy_subgroup)
    with pytest.raises(TransportError):
        channel.send_frame(b"data")
    with pytest.raises(TransportError):
        channel.recv_frame()
    a.close()
    b.close()


@pytest.mark.parametrize("mode", ["subgroup", "primitive"])
def test_handshake_rejects_identity_link_key(mode, toy_subgroup, toy_primitive):
    # the peer's link key is a valid encoding of the identity, 1; every
    # record encrypted to it would have a KEM key anyone can compute
    from comhash import params_digest

    params = toy_subgroup if mode == "subgroup" else toy_primitive
    a, b = socket.socketpair()
    b.sendall(params_digest(params) + b"\x01")
    channel = SecureChannel(a, params, rng=random.Random(3))
    with pytest.raises(TransportError, match="identity"):
        channel.handshake()
    assert channel.peer_public is None
    with pytest.raises(TransportError):
        channel.send_frame(b"data")
    a.close()
    b.close()


def socketpair_channels(params):
    """Both ends of a handshaken link over a socketpair."""
    a, b = socket.socketpair()
    ends = [SecureChannel(a, params, rng=random.Random(5)),
            SecureChannel(b, params, rng=random.Random(6))]
    thread = threading.Thread(target=ends[1].handshake)
    thread.start()
    ends[0].handshake()
    thread.join()
    return ends


def test_send_frame_rejects_an_oversize_frame(secp):
    client, server = socketpair_channels(secp)
    with pytest.raises(TransportError, match="too long"):
        client.send_frame(bytes(pke.MAX_PLAINTEXT + 1))
    # the longest frame a record can carry still goes through
    longest = bytes(range(256)) * 255 + bytes(255)
    assert len(longest) == pke.MAX_PLAINTEXT
    sender = threading.Thread(target=client.send_frame, args=(longest,))
    sender.start()
    assert server.recv_frame() == longest
    sender.join()
    client.close()
    server.close()


def test_recv_frame_rejects_an_oversize_length_before_the_body(secp):
    client, server = socketpair_channels(secp)
    longest = secp.element_width + 2 + pke.MAX_PLAINTEXT + pke.TAG_LENGTH
    # only the length prefix is sent: reading a body would time out
    server.sock.settimeout(5)
    client.sock.sendall(struct.pack("!I", longest + 1))
    with pytest.raises(TransportError, match="too large"):
        server.recv_frame()
    client.close()
    server.close()
