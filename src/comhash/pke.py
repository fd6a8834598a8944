"""Hashed-ElGamal public-key encryption over the protocol's own group, and
the one symmetric seal that it and the socket link share.

``seal`` XORs the data with a SHA-256 counter-mode keystream and appends an
HMAC-SHA256 tag, truncated to 16 bytes, over header | body; the header is
authenticated but not sent. Key agreement sits in front of it, as in HPKE
(RFC 9180 §5-6) and the TLS 1.3 record layer (RFC 8446 §5.2). A nonce
receipt hashes the KEM shared point into one stream and MAC key, so the only
hardness assumption stays the discrete log in the group already in use; its
header is the ephemeral's bytes and any associated data: a share receipt
binds the share element it was sent with (and, in the threshold round, the
coefficient), a threshold deal its session id and index. A link record
(``transport``) uses per-direction keys from ``hkdf`` (RFC 5869) and its
sequence number as the header.

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

Every such exponent is below 2^bits, bits the bound's width, and is raised
on comb tables of that width (``groups``' ``power(..., bits=bits)``):
``g`` always, for key pairs and ephemerals, and the recipient's key when
``encrypt`` is told it is long-lived. Every share receipt says so, since
all participants of a session encrypt to the one server key; the threshold
dealer's one-shot encryption to each participant's own key does not, as a
table per key would cost more than it saves. A long-lived key is checked
once, when its table is built, where any other key is checked on every
call. The ephemeral^secret of ``decrypt`` takes the general route: an
ephemeral is used once.
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


def _bound(params: GroupParams) -> int:
    return min(params.exponent_modulus, 1 << RECEIPT_EXPONENT_BITS)


def _exponent_bits(params: GroupParams) -> int:
    """The ``bits`` of every key secret's and ephemeral's comb table: each
    exponent is below 2^bits."""
    return (_bound(params) - 1).bit_length()


def _exponent(params: GroupParams, rng: random.Random) -> int:
    """A key secret or ephemeral exponent, nonzero and below
    min(exponent_modulus, 2^RECEIPT_EXPONENT_BITS)."""
    bound = _bound(params)
    s = rng.randrange(bound)
    while s == 0:  # zero would publish the identity
        s = rng.randrange(bound)
    return s


def generate_keypair(params: GroupParams, rng=None) -> KeyPair:
    secret = _exponent(params, _rng(rng))
    return KeyPair(secret=secret,
                   public=params.power(params.g, secret, bits=_exponent_bits(params)))


def _derive_key(params: GroupParams, shared) -> bytes:
    return hashlib.sha256(b"comhash/kem/v1" + element_to_bytes(params, shared)).digest()


def keystream_xor(data: bytes, key: bytes) -> bytes:
    """data XORed with the SHA-256 counter-mode keystream under key."""
    stream = b"".join(hashlib.sha256(key + b"/stream/" + counter.to_bytes(4, "big")).digest()
                      for counter in range(-(-len(data) // 32)))
    return bytes(a ^ b for a, b in zip(data, stream))


def _mac(mac_key: bytes, header: bytes, body: bytes) -> bytes:
    return hmac.new(mac_key, header + body, hashlib.sha256).digest()[:TAG_LENGTH]


def seal(stream_key: bytes, mac_key: bytes, header: bytes, data: bytes) -> bytes:
    """body | tag: data XORed with the keystream under stream_key, then a
    TAG_LENGTH-byte HMAC-SHA256 under mac_key over header | body. The header
    is authenticated but not sealed in; ``unseal`` must be given it unchanged."""
    body = keystream_xor(data, stream_key)
    return body + _mac(mac_key, header, body)


def unseal(stream_key: bytes, mac_key: bytes, header: bytes, sealed: bytes) -> bytes:
    """The data ``seal`` was given. A tag that does not match, including
    bytes too short to hold one, raises ``AuthenticationError``."""
    body, tag = sealed[:-TAG_LENGTH], sealed[-TAG_LENGTH:]
    if not hmac.compare_digest(_mac(mac_key, header, body), tag):
        raise AuthenticationError("tag mismatch")
    return keystream_xor(body, stream_key)


def hkdf(salt: bytes, ikm: bytes, info: bytes, length: int) -> bytes:
    """HKDF-SHA256 (RFC 5869): extract a pseudorandom key from ikm under
    salt, then expand it under info to length bytes (at most 255 blocks)."""
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    block = out = b""
    for counter in range(1, -(-length // 32) + 1):
        block = hmac.new(prk, block + info + bytes([counter]), hashlib.sha256).digest()
        out += block
    return out[:length]


def _receipt_header(ephemeral_bytes: bytes, associated: bytes) -> bytes:
    # associated data is length-prefixed so no bytes can move between it and
    # the body; when empty, nothing is added and the tag is the one without it
    return ephemeral_bytes + (prefixed(associated) if associated else b"")


def encrypt(params: GroupParams, public, plaintext: bytes, rng=None,
            associated: bytes = b"", *, long_lived: bool = False) -> bytes:
    """Encrypt to ``public`` and return the ciphertext's wire bytes; the tag
    also covers ``associated``, which ``decrypt`` must be given unchanged.

    ``public`` is checked, because it may come from outside and the KEM
    point ``public^e`` is encoded as trusted. A ``long_lived`` key, one that
    several encryptions share, as a server key is, gets a comb table and is
    checked once, when its table is built; any other key is checked on every
    call and raised to e by the backend's general route. Both raise
    ``GroupError``.
    """
    if len(plaintext) > MAX_PLAINTEXT:
        raise EncodingError("plaintext too long")
    if len(associated) > MAX_PLAINTEXT:
        raise EncodingError("associated data too long")
    if not long_lived and (public == params.identity or not params.element_valid(public)):
        raise GroupError("public key is not a group element other than the identity")
    bits = _exponent_bits(params)
    e = _exponent(params, _rng(rng))
    ephemeral_bytes = element_to_bytes(params, params.power(params.g, e, bits=bits))
    key = _derive_key(params, params.power(public, e, bits=bits if long_lived else None))
    sealed = seal(key, key, _receipt_header(ephemeral_bytes, associated), plaintext)
    # the u16 body length: the body is exactly as long as the plaintext
    return ephemeral_bytes + len(plaintext).to_bytes(2, "big") + sealed


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
    sealed = rd.field() + rd.take(TAG_LENGTH)
    rd.done()
    key = _derive_key(params, params.power(ephemeral, secret))
    return unseal(key, key, _receipt_header(ephemeral_bytes, associated), sealed)
