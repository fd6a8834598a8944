import hashlib
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
from comhash import EcParams, element_to_bytes, params_digest, pke
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


def captured(sender, receiver, frame):
    """The bytes sender.send_frame wrote for frame, length prefix included,
    taken off the wire before the receiving channel reads them."""
    sender.send_frame(frame)
    prefix = receiver.sock.recv(4, socket.MSG_WAITALL)
    return prefix + receiver.sock.recv(int.from_bytes(prefix, "big"), socket.MSG_WAITALL)


def assert_link_dead(channel, peer):
    # after a rejected record nothing reaches the caller, not even a genuine
    # record the peer sends next
    peer.send_frame(b"genuine")
    with pytest.raises(TransportError):
        channel.recv_frame()
    with pytest.raises(TransportError):
        channel.send_frame(b"reply")


def test_wire_tampering_detected(secp):
    client, server, errors = linked_channels(secp)
    assert not errors
    # capture a genuine record, flip one tag bit, put it back on the wire
    frame = encode_frame(Frame(MsgType.NONCE, bytes(16), 0, bytes(32)))
    record = bytearray(captured(client, server, frame))
    assert len(record) == 4 + len(frame) + pke.TAG_LENGTH
    record[-1] ^= 0x01
    client.sock.sendall(bytes(record))
    with pytest.raises(TransportError):
        server.recv_frame()
    assert_link_dead(server, client)
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
    into a transport failure; no altered frame ever reaches the protocol.
    Each case gets a fresh link, so no rejection rides on an earlier one."""
    frame = encode_frame(Frame(MsgType.SHARE, bytes(16), 1, b"payload" * 3))
    rng = random.Random(55)
    for _ in range(60):
        client, server = socketpair_channels(toy_curve)
        record = bytearray(captured(client, server, frame))
        record[rng.randrange(len(record))] ^= 1 << rng.randrange(8)
        client.sock.sendall(bytes(record))
        client.sock.shutdown(socket.SHUT_WR)  # a longer length meets the end
        with pytest.raises(TransportError):
            server.recv_frame()
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
    # the peer's link key is a valid encoding of the identity, 1; the
    # shared element would be the identity too, known to anyone
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


def socketpair_channels(params, seeds=(5, 6)):
    """Both ends of a handshaken link over a socketpair."""
    a, b = socket.socketpair()
    ends = [SecureChannel(a, params, rng=random.Random(seeds[0])),
            SecureChannel(b, params, rng=random.Random(seeds[1]))]
    thread = threading.Thread(target=ends[1].handshake)
    thread.start()
    ends[0].handshake()
    thread.join(timeout=10)
    assert not thread.is_alive()
    return ends


def test_a_channel_handshakes_once(secp):
    # a second handshake would derive the same keys and number each direction
    # from zero again, so its first record would reuse the first one's keystream
    client, server = socketpair_channels(secp)
    client.sock.settimeout(2)  # a handshake that starts waits for a peer that never answers
    with pytest.raises(TransportError, match="already"):
        client.handshake()
    client.send_frame(FRAME_A)
    assert server.recv_frame() == FRAME_A
    client.close()
    server.close()


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
    longest = pke.MAX_PLAINTEXT + pke.TAG_LENGTH
    # only the length prefix is sent: reading a body would time out
    server.sock.settimeout(5)
    client.sock.sendall(struct.pack("!I", longest + 1))
    with pytest.raises(TransportError, match="too large"):
        server.recv_frame()
    client.close()
    server.close()


def test_recv_frame_rejects_a_length_shorter_than_the_tag(secp):
    client, server = socketpair_channels(secp)
    server.sock.settimeout(5)
    client.sock.sendall(struct.pack("!I", pke.TAG_LENGTH - 1))
    with pytest.raises(TransportError, match="too short"):
        server.recv_frame()
    client.close()
    server.close()


def test_empty_frame_round_trips(secp):
    # the shortest record is a bare tag, and the length bound admits it
    client, server = socketpair_channels(secp)
    wire = captured(client, server, b"")
    assert len(wire) == 4 + pke.TAG_LENGTH
    client.sock.sendall(wire)
    assert server.recv_frame() == b""
    client.close()
    server.close()


FRAME_A = encode_frame(Frame(MsgType.NONCE, bytes(16), 1, bytes(32)))
FRAME_B = encode_frame(Frame(MsgType.NONCE, bytes(16), 2, bytes(range(32))))


# Each attack gets a fresh link (client, server) and a second, independent
# link; it puts records on the wire and returns the channel that must reject
# the next record, with that channel's peer.

def replayed(link, other):
    client, server = link
    wire = captured(client, server, FRAME_A)
    client.sock.sendall(wire)
    assert server.recv_frame() == FRAME_A
    client.sock.sendall(wire)
    return server, client


def swapped(link, other):
    client, server = link
    first = captured(client, server, FRAME_A)
    second = captured(client, server, FRAME_B)
    client.sock.sendall(second + first)
    return server, client


def reflected(link, other):
    client, server = link
    server.sock.sendall(captured(client, server, FRAME_A))  # back to its sender
    return client, server


def forged(link, other):
    # the old link's record: an encryption to the receiver's link key, which
    # anyone who saw the handshake can make
    client, server = link
    record = pke.encrypt(server.params, server.keypair.public, FRAME_A, random.Random(9))
    client.sock.sendall(struct.pack("!I", len(record)) + record)
    return server, client


def spliced(link, other):
    client, server = link
    client.sock.sendall(captured(*other, FRAME_A))
    return server, client


def truncated(link, other):
    client, server = link
    wire = captured(client, server, FRAME_A)
    client.sock.sendall(struct.pack("!I", len(wire) - 5) + wire[4:-1])
    return server, client


@pytest.mark.parametrize("attack", [replayed, swapped, reflected, forged, spliced, truncated],
                         ids=lambda attack: attack.__name__)
def test_link_rejects_attack_and_stays_closed(attack, secp):
    link = socketpair_channels(secp)
    other = socketpair_channels(secp, seeds=(7, 8))
    channel, peer = attack(link, other)
    channel.sock.settimeout(5)
    with pytest.raises(TransportError):
        channel.recv_frame()
    assert_link_dead(channel, peer)
    for end in (*link, *other):
        end.close()


def test_handshake_rejects_our_own_link_key_echoed(secp):
    # a peer that echoes our key would have every record we send accepted
    # as its own, reflected back
    a, b = socket.socketpair()
    channel = SecureChannel(a, secp, rng=random.Random(3))
    b.sendall(params_digest(secp) + element_to_bytes(secp, channel.keypair.public))
    with pytest.raises(TransportError, match="our own"):
        channel.handshake()
    assert channel.peer_public is None
    with pytest.raises(TransportError):
        channel.send_frame(b"data")
    with pytest.raises(TransportError):
        channel.recv_frame()
    a.close()
    b.close()


def test_link_power_budget(secp, monkeypatch):
    # the handshake makes one variable-base power per side, peer^secret;
    # records after it make none
    a, b = socket.socketpair()
    client = SecureChannel(a, secp, rng=random.Random(5))
    server = SecureChannel(b, secp, rng=random.Random(6))
    bases = []
    power = EcParams.power

    def counted(self, base, exponent):
        bases.append(base)
        return power(self, base, exponent)

    monkeypatch.setattr(EcParams, "power", counted)
    thread = threading.Thread(target=server.handshake)
    thread.start()
    client.handshake()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert sorted(bases) == sorted([client.keypair.public, server.keypair.public])
    bases.clear()
    for i in range(20):
        client.send_frame(FRAME_A)
        assert server.recv_frame() == FRAME_A
        server.send_frame(FRAME_B)
        assert client.recv_frame() == FRAME_B
    assert bases == []
    client.close()
    server.close()


def test_handshake_rejects_an_order_2_link_key(toy_primitive):
    # in primitive mode p - 1 = 22 is a valid element of order 2: 22^secret
    # is 1 or 22, so both record keys would come from one of two public values
    a, b = socket.socketpair()
    b.sendall(params_digest(toy_primitive) + bytes([22]))
    channel = SecureChannel(a, toy_primitive, rng=random.Random(3))
    with pytest.raises(TransportError, match="order 2"):
        channel.handshake()
    assert channel.peer_public is None
    with pytest.raises(TransportError):
        channel.send_frame(b"data")
    a.close()
    b.close()


def test_link_record_bytes_pinned(secp):
    # the SHA-256 of every record two seeded channels send each way, length
    # prefixes included; each record still opens at its receiver
    client, server = socketpair_channels(secp)
    wire = hashlib.sha256()
    for frame in (FRAME_A, FRAME_B, b"", bytes(range(256)) * 3):
        for sender, receiver in ((client, server), (server, client)):
            record = captured(sender, receiver, frame)
            wire.update(record)
            sender.sock.sendall(record)
            assert receiver.recv_frame() == frame
    pinned = "d4acf1d7b8b707c6807c0514ad2e1c59e024bab460efc19b59e32bc1a87e8783"
    assert wire.hexdigest() == pinned
    client.close()
    server.close()
