"""Authenticated, encrypted socket links carrying protocol frames.

A link opens with a handshake: both sides send the 32-byte digest of their
group parameters (mismatched parameter sets are rejected immediately), then
exchange fresh link public keys. A peer key that is ``pke.low_order`` (the
identity, or p - 1 in primitive-mode modp) or equal to our own is rejected.
Each side then computes the shared element peer^secret once and derives a
stream key and a MAC key per direction with HKDF-SHA256 (RFC 5869): the
parameter digest is the salt, the encoded shared element the input keying
material, and ``info`` a version label followed by the sender's and then the
receiver's encoded link key.

Every frame afterwards travels as one record: u32 length | ``pke.seal``
(stream key | seq, MAC key, seq, frame), with seq the record's u64
sequence number. This module keeps only the sockets and the numbering; the
record's bytes are ``pke``'s. Each direction numbers its records from zero
and the number never travels, as in TLS 1.3 (RFC 8446 §5.3), so a record
that is replayed, reordered, reflected, truncated, forged without the keys
or taken from another link fails its tag. A record costs no
exponentiation.

The first rejected record ends the link: a stream whose sequence numbers
are implicit cannot resynchronise, so every later ``send_frame`` or
``recv_frame`` raises ``TransportError``. The handshake itself is not
authenticated: an active man in the middle can still run one link with each
side.
"""

from __future__ import annotations

import itertools
import random
import socket
from typing import Optional

from .encoding import Reader, element_from_bytes, element_to_bytes, params_digest, prefixed
from .errors import AuthenticationError, EncodingError, TransportError
from .groups import GroupParams
from . import pke

_RECORD_PREFIX = 4  # bytes of record length
_KEY_LABEL = b"comhash/link/v1"


def _read_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportError("connection closed mid-record")
        buf += chunk
    return buf


class SecureChannel:
    """One end of an encrypted frame link over a connected stream socket."""

    def __init__(self, sock: socket.socket, params: GroupParams,
                 rng: Optional[random.Random] = None):
        self.sock = sock
        self.params = params
        self.rng = rng if rng is not None else random.SystemRandom()
        self.keypair = pke.generate_keypair(params, self.rng)
        self.peer_public = None
        # "send"/"recv": stream key, MAC key, sequence numbers; set by the handshake
        self._keys = {}
        self._failed = False

    def handshake(self) -> None:
        digest = params_digest(self.params)
        self.sock.sendall(digest)
        theirs = _read_exact(self.sock, len(digest))
        if theirs != digest:
            raise TransportError("peer uses a different parameter set")
        mine = element_to_bytes(self.params, self.keypair.public)
        self.sock.sendall(mine)
        raw = _read_exact(self.sock, self.params.element_width)
        try:
            peer_public = element_from_bytes(self.params, raw)
        except EncodingError as exc:
            raise TransportError(f"bad link key from peer: {exc}") from exc
        if pke.low_order(self.params, peer_public):
            raise TransportError("bad link key from peer: order 2 or the identity")
        if peer_public == self.keypair.public:
            raise TransportError("bad link key from peer: our own")
        shared = element_to_bytes(self.params,
                                  self.params.power(peer_public, self.keypair.secret))
        for direction, info in (("send", mine + raw), ("recv", raw + mine)):
            key = pke.hkdf(digest, shared, _KEY_LABEL + info, 64)
            self._keys[direction] = key[:32], key[32:], itertools.count()
        self.peer_public = peer_public

    def _record_keys(self, direction: str) -> tuple:
        """pke.seal's keys and header for the direction's next record: its
        stream key under the sequence number, its MAC key and that number."""
        stream_key, mac_key, numbers = self._keys[direction]
        seq = next(numbers).to_bytes(8, "big")  # OverflowError after 2^64 records
        return stream_key + seq, mac_key, seq

    def _check_usable(self) -> None:
        if self._failed:
            raise TransportError("link failed earlier; it cannot resynchronise")
        if self.peer_public is None:
            raise TransportError("handshake not complete")

    def send_frame(self, frame_bytes: bytes) -> None:
        self._check_usable()
        if len(frame_bytes) > pke.MAX_PLAINTEXT:
            raise TransportError("frame too long for one record")
        try:
            record = pke.seal(*self._record_keys("send"), frame_bytes)
            self.sock.sendall(prefixed(record, _RECORD_PREFIX))
        except BaseException:
            self._failed = True  # the peer may hold part of a record
            raise

    def recv_frame(self) -> bytes:
        self._check_usable()
        try:
            length = Reader(_read_exact(self.sock, _RECORD_PREFIX)).uint(_RECORD_PREFIX)
            if length < pke.TAG_LENGTH:
                raise TransportError("record too short")
            if length > pke.MAX_PLAINTEXT + pke.TAG_LENGTH:
                raise TransportError("record too large")
            record = _read_exact(self.sock, length)
            try:
                return pke.unseal(*self._record_keys("recv"), record)
            except AuthenticationError as exc:
                raise TransportError("record rejected: tag mismatch") from exc
        except BaseException:
            self._failed = True
            raise

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _handshaken(sock: socket.socket, params: GroupParams,
                rng: Optional[random.Random]) -> SecureChannel:
    channel = SecureChannel(sock, params, rng)
    try:
        channel.handshake()
    except BaseException:
        channel.close()  # a failed link keeps no socket open
        raise
    return channel


def connect(host: str, port: int, params: GroupParams,
            rng: Optional[random.Random] = None) -> SecureChannel:
    return _handshaken(socket.create_connection((host, port)), params, rng)


def accept_one(listener: socket.socket, params: GroupParams,
               rng: Optional[random.Random] = None) -> SecureChannel:
    return _handshaken(listener.accept()[0], params, rng)
