"""Hashed-ElGamal public-key encryption over the protocol's own group.

Used for the encrypted nonce receipts: the KEM shared point is hashed into a
stream/MAC key, so the only hardness assumption stays the discrete log in
the group already in use. SHA-256 drives both the keystream (counter mode)
and the authentication tag (HMAC, truncated to 16 bytes). The tag can also
cover associated data that travels outside the ciphertext; a share receipt
uses it to bind the share element it was sent with.

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

from .encoding import Reader, element_to_bytes, prefixed
from .errors import AuthenticationError, EncodingError, GroupError
from .groups import GroupParams

TAG_LENGTH = 16
MAX_PLAINTEXT = 0xFFFF  # body length travels as u16
RECEIPT_EXPONENT_BITS = 320


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: object  # group element


@dataclass(frozen=True)
class Ciphertext:
    ephemeral: object  # group element, never the identity
    body: bytes
    tag: bytes


def _rng(rng) -> random.Random:
    if rng is None:
        return random.SystemRandom()
    if isinstance(rng, random.Random):
        return rng
    return random.Random(rng)


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


def _tag(params: GroupParams, key: bytes, ephemeral, body: bytes,
         associated: bytes) -> bytes:
    msg = element_to_bytes(params, ephemeral)
    if associated:
        # length-prefixed so no bytes can move between it and the body; when
        # empty, nothing is added and the tag is the one without it
        msg += prefixed(associated)
    return hmac.new(key, msg + body, hashlib.sha256).digest()[:TAG_LENGTH]


def encrypt(params: GroupParams, public, plaintext: bytes, rng=None,
            associated: bytes = b"") -> Ciphertext:
    """Encrypt to ``public``; the tag also covers ``associated``, which
    ``decrypt`` must be given unchanged.

    ``public`` is checked here, one membership test per call, because it may
    come from outside and the KEM point ``public^e`` is encoded as trusted.
    """
    if len(plaintext) > MAX_PLAINTEXT:
        raise ValueError("plaintext too long")
    if len(associated) > MAX_PLAINTEXT:
        raise ValueError("associated data too long")
    if public == params.identity or not params.element_valid(public):
        raise GroupError("public key is not a group element other than the identity")
    e = _exponent(params, _rng(rng))
    ephemeral = params.power(params.g, e)
    key = _derive_key(params, params.power(public, e))
    body = bytes(a ^ b for a, b in zip(plaintext, _keystream(key, len(plaintext))))
    return Ciphertext(ephemeral=ephemeral, body=body,
                      tag=_tag(params, key, ephemeral, body, associated))


def decrypt(params: GroupParams, secret: int, ct: Ciphertext,
            associated: bytes = b"") -> bytes:
    key = _derive_key(params, params.power(ct.ephemeral, secret))
    expected = _tag(params, key, ct.ephemeral, ct.body, associated)
    if not hmac.compare_digest(expected, ct.tag):
        raise AuthenticationError("ciphertext tag mismatch")
    return bytes(a ^ b for a, b in zip(ct.body, _keystream(key, len(ct.body))))


def ciphertext_to_bytes(params: GroupParams, ct: Ciphertext) -> bytes:
    return element_to_bytes(params, ct.ephemeral) + prefixed(ct.body) + ct.tag


def ciphertext_from_bytes(params: GroupParams, data: bytes) -> Ciphertext:
    rd = Reader(data)
    ephemeral = rd.element(params)
    if ephemeral == params.identity:
        raise EncodingError("ephemeral element cannot be the identity")
    body = rd.field()
    tag = rd.take(TAG_LENGTH)
    rd.done()
    return Ciphertext(ephemeral=ephemeral, body=body, tag=tag)
