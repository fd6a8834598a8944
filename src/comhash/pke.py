"""Hashed-ElGamal public-key encryption over the protocol's own group.

Used for the encrypted nonce receipts: the KEM shared point is hashed into a
stream/MAC key, so the only hardness assumption stays the discrete log in
the group already in use. SHA-256 drives both the keystream (counter mode)
and the authentication tag (HMAC, truncated to 16 bytes). The tag can also
cover associated data that travels outside the ciphertext; a share receipt
uses it to bind the share element it was sent with. The keystream and
``hkdf`` (RFC 5869) are also the symmetric half of the socket link
(``transport``), which keys its records once per handshake.

A ciphertext exists only as its wire bytes, as in HPKE's Seal and Open (RFC
9180 §6.1): ``encrypt`` returns ephemeral element | u16 body length | body |
16-byte tag, and ``decrypt`` reads them, so the tag is computed over the
ephemeral's bytes as they were sent and as they arrived, never re-encoded.

Key secrets and ephemeral exponents are drawn from
[1, min(exponent_modulus, 2^RECEIPT_EXPONENT_BITS)). On secp256k1 and the
toy groups that bound is the modulus itself. In the 2048- and 3072-bit
safe-prime groups the draws are 320-bit: with p = 2q + 1 the best attack on
such an exponent is Pollard's lambda, about 2^160 steps (van Oorschot and
Wiener, EUROCRYPT '96), and RFC 7919 App. A asks for at least 225 bits at
2048 and 275 at 3072. The protocol's own hash exponents (x, y, m and the
blinding) do not come from here and stay full width.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from .encoding import Reader, element_from_bytes, element_to_bytes, prefixed
from .errors import AuthenticationError, EncodingError, GroupError
from .groups import GroupParams

TAG_LENGTH = 16
MAX_PLAINTEXT = 0xFFFF  # body length travels as u16
RECEIPT_EXPONENT_BITS = 320


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: object  # group element


def _rng(rng) -> random.Random:
    return random.SystemRandom() if rng is None else rng


def _exponent(params: GroupParams, rng: random.Random) -> int:
    """A key secret or ephemeral exponent, nonzero and below
    min(exponent_modulus, 2^RECEIPT_EXPONENT_BITS)."""
    bound = min(params.exponent_modulus, 1 << RECEIPT_EXPONENT_BITS)
    s = rng.randrange(bound)
    while s == 0:  # zero would publish the identity
        s = rng.randrange(bound)
    return s


def generate_keypair(params: GroupParams, rng=None) -> KeyPair:
    secret = _exponent(params, _rng(rng))
    return KeyPair(secret=secret, public=params.power(params.g, secret))


def _derive_key(params: GroupParams, shared) -> bytes:
    return hashlib.sha256(b"comhash/kem/v1" + element_to_bytes(params, shared)).digest()


def _keystream(key: bytes, length: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + b"/stream/" + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:length]


def _tag(key: bytes, ephemeral_bytes: bytes, body: bytes, associated: bytes) -> bytes:
    msg = ephemeral_bytes
    if associated:
        # length-prefixed so no bytes can move between it and the body; when
        # empty, nothing is added and the tag is the one without it
        msg += prefixed(associated)
    return hmac.new(key, msg + body, hashlib.sha256).digest()[:TAG_LENGTH]


def keystream_xor(data: bytes, key: bytes) -> bytes:
    """data XORed with the SHA-256 counter-mode keystream under key."""
    return bytes(a ^ b for a, b in zip(data, _keystream(key, len(data))))


def hkdf(salt: bytes, ikm: bytes, info: bytes, length: int) -> bytes:
    """HKDF-SHA256 (RFC 5869): extract a pseudorandom key from ikm under
    salt, then expand it under info to length bytes (at most 255 blocks)."""
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    block = out = b""
    for counter in range(1, -(-length // 32) + 1):
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        out += block
    return out[:length]


def encrypt(params: GroupParams, public, plaintext: bytes, rng=None,
            associated: bytes = b"") -> bytes:
    """Encrypt to ``public`` and return the ciphertext's wire bytes; the tag
    also covers ``associated``, which ``decrypt`` must be given unchanged.

    ``public`` is checked here, one membership test per call, because it may
    come from outside and the KEM point ``public^e`` is encoded as trusted.
    """
    if len(plaintext) > MAX_PLAINTEXT:
        raise EncodingError("plaintext too long")
    if len(associated) > MAX_PLAINTEXT:
        raise EncodingError("associated data too long")
    if public == params.identity or not params.element_valid(public):
        raise GroupError("public key is not a group element other than the identity")
    e = _exponent(params, _rng(rng))
    ephemeral_bytes = element_to_bytes(params, params.power(params.g, e))
    key = _derive_key(params, params.power(public, e))
    body = keystream_xor(plaintext, key)
    return ephemeral_bytes + prefixed(body) + _tag(key, ephemeral_bytes, body, associated)


def decrypt(params: GroupParams, secret: int, data: bytes,
            associated: bytes = b"") -> bytes:
    """Open the wire bytes ``encrypt`` returned. Malformed bytes raise
    ``EncodingError``, a tag that does not match ``AuthenticationError``."""
    rd = Reader(data)
    # the tag covers the ephemeral's bytes as received; the strict decode
    # makes them the one canonical encoding of the point
    ephemeral_bytes = rd.element_bytes(params)
    ephemeral = element_from_bytes(params, ephemeral_bytes)
    if ephemeral == params.identity:
        raise EncodingError("ephemeral element cannot be the identity")
    body = rd.field()
    tag = rd.take(TAG_LENGTH)
    rd.done()
    key = _derive_key(params, params.power(ephemeral, secret))
    if not hmac.compare_digest(_tag(key, ephemeral_bytes, body, associated), tag):
        raise AuthenticationError("ciphertext tag mismatch")
    return keystream_xor(body, key)
