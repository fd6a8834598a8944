"""Authenticated socket links carrying protocol frames.

A link opens with a handshake: both sides send the 32-byte digest of their
group parameters (mismatched parameter sets are rejected immediately), then
exchange fresh link public keys. Every frame afterwards travels as one
length-delimited record holding a ciphertext encrypted to the receiver's link
public key. Its tag shows only that the record was not altered after it was
made: altered records surface as a transport error, but replayed records, and
records forged by anyone who holds the link public key, are accepted. Treat
the link as untrusted until records are authenticated with keys derived from
the handshake.
"""

from __future__ import annotations

import random
import socket
from typing import Optional

from .encoding import (Reader, element_byte_length, element_from_bytes, element_to_bytes,
                       params_digest, prefixed)
from .errors import AuthenticationError, EncodingError, TransportError
from .groups import GroupParams
from . import pke

_RECORD_PREFIX = 4  # bytes of record length


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

    def handshake(self) -> None:
        digest = params_digest(self.params)
        self.sock.sendall(digest)
        theirs = _read_exact(self.sock, len(digest))
        if theirs != digest:
            raise TransportError("peer uses a different parameter set")
        mine = element_to_bytes(self.params, self.keypair.public)
        self.sock.sendall(mine)
        raw = _read_exact(self.sock, element_byte_length(self.params))
        try:
            peer_public = element_from_bytes(self.params, raw)
        except EncodingError as exc:
            raise TransportError(f"bad link key from peer: {exc}") from exc
        if peer_public == self.params.identity:
            raise TransportError("bad link key from peer: the identity")
        self.peer_public = peer_public

    def send_frame(self, frame_bytes: bytes) -> None:
        if self.peer_public is None:
            raise TransportError("handshake not complete")
        if len(frame_bytes) > pke.MAX_PLAINTEXT:
            raise TransportError("frame too long for one record")
        record = pke.encrypt(self.params, self.peer_public, frame_bytes, self.rng)
        self.sock.sendall(prefixed(record, _RECORD_PREFIX))

    def recv_frame(self) -> bytes:
        if self.peer_public is None:
            raise TransportError("handshake not complete")
        length = Reader(_read_exact(self.sock, _RECORD_PREFIX)).uint(_RECORD_PREFIX)
        # the longest record pke.encrypt writes: ephemeral, u16 body length, body, tag
        if length > element_byte_length(self.params) + 2 + pke.MAX_PLAINTEXT + pke.TAG_LENGTH:
            raise TransportError("record too large")
        record = _read_exact(self.sock, length)
        try:
            return pke.decrypt(self.params, self.keypair.secret, record)
        except (EncodingError, AuthenticationError) as exc:
            raise TransportError(f"record rejected: {exc}") from exc

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
