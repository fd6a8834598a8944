"""Hashed-ElGamal public-key encryption over the protocol's own group, and
the one symmetric seal that it and the socket link share.

``seal`` XORs the data with a SHA-256 counter-mode keystream and appends an
HMAC-SHA256 tag, truncated to 16 bytes, over header | body; the header is
authenticated but not sent. Key agreement sits in front of it, as in HPKE
(RFC 9180 §5-6) and the TLS 1.3 record layer (RFC 8446 §5.2). A nonce
receipt hashes the KEM shared point into one stream and MAC key, so the only
hardness assumption stays the discrete log in the group already in use; its
header is the ephemeral's bytes and any associated data: a share receipt
binds only the share element it was sent with. A threshold round needs no
ephemeral: ``deal_keys`` derives its keys with ``hkdf`` (RFC 5869) from one
Diffie-Hellman between the server's key and the participant's; a request's
header is its session id and index, and a receipt is a bare tag under its
own MAC key over that header and the element's bytes. A link record
(``transport``) uses per-direction keys and its sequence number as header.

A ciphertext exists only as its wire bytes, as in HPKE's Seal and Open (RFC
9180 §6.1): ``encrypt`` returns ephemeral element | u16 body length | body |
16-byte tag, and ``decrypt`` reads them, so the tag is computed over the
ephemeral's bytes as they were sent and as they arrived, never re-encoded.
``decrypt`` is ``read_ciphertext`` (the form and the ephemeral's decode),
one power, then ``open_ciphertext``; the basic server calls the two steps
itself, so that it can raise a session's ephemerals together.

A Diffie-Hellman key from outside that is ``low_order`` (the identity, or
p - 1 in primitive-mode modp) is refused wherever one arrives: any secret
raises it to one of two public values, so an outcome that depended on which
would tell the secret's parity. No key or ephemeral made here is one.

Key secrets and ephemeral exponents are drawn from
[1, min(exponent_modulus, 2^RECEIPT_EXPONENT_BITS)). On secp256k1 and the
toy groups that bound is the modulus itself. In the 2048- and 3072-bit
safe-prime groups the draws are 320-bit: with p = 2q + 1 the best attack on
such an exponent is Pollard's lambda, about 2^160 steps (van Oorschot and
Wiener, EUROCRYPT '96), and RFC 7919 App. A asks for at least 225 bits at
2048 and 275 at 3072. The protocol's own hash exponents (x, y, m and the
blinding) do not come from here and stay full width.

Every such exponent is below 2^bits, bits the bound's width, and is raised
on comb tables of that width (``groups``' ``power(..., bits=bits)``): ``g``,
for key pairs and ephemerals, and every recipient key of ``encrypt``. In the
protocol that is the one server key all of a basic session's receipts go
to, and every chosen participant raises the same key to derive its deal keys.
A table checks its key once, when it is built. Key tables are kept apart
from ``g``'s, two at most, so a round's one-shot key evicts no generator
table and is dropped within two more keys. On a curve a key's table keeps
8 teeth and is signed, so it holds 512 points, half the unsigned table's,
and a threshold round's one-shot server key builds its table in 3.5-3.9
ms on secp256k1, against 4.7-5.3 ms for the unsigned table's. A
participant's own key is used once, by the dealer, and a receipt's
ephemeral once, by the server; both take the general route in one
``power_many``, the dealer's over its k keys and the basic server's over a
session's n ephemerals at ``finalize``.
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
    while s == 0 or 2 * s == params.exponent_modulus:  # g^s would be low_order
        s = rng.randrange(bound)
    return s


def generate_keypair(params: GroupParams, rng=None) -> KeyPair:
    secret = _exponent(params, _rng(rng))
    return KeyPair(secret=secret,
                   public=params.power(params.g, secret, bits=_exponent_bits(params)))


def low_order(params: GroupParams, element) -> bool:
    """Whether ``element`` is the identity, or of order 2 in a group without
    prime order; in a prime-order group this is one comparison."""
    return element == params.identity or (
        not params.prime_order and params.combine(element, element) == params.identity)


def _derive_key(params: GroupParams, shared) -> bytes:
    return hashlib.sha256(b"comhash/kem/v1" + element_to_bytes(params, shared)).digest()


def keystream_xor(data: bytes, key: bytes) -> bytes:
    """data XORed with the SHA-256 counter-mode keystream under key."""
    n = len(data)
    stream = b"".join(hashlib.sha256(key + b"/stream/" + counter.to_bytes(4, "big")).digest()
                      for counter in range(-(-n // 32)))
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")


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


def dealer_shared(params: GroupParams, secret: int, participant_publics: list) -> list:
    """The dealer's side of ``deal_keys``: every participant key, from
    outside, is checked before any power (``GroupError`` if it is not a
    group element or is ``low_order``), then all go to one ``power_many``."""
    for public in participant_publics:
        if not params.element_valid(public) or low_order(params, public):
            raise GroupError("participant key is not a group element of order above 2")
    return params.power_many(participant_publics, secret)


def member_shared(params: GroupParams, secret: int, server_public):
    """The participant's side of ``deal_keys``, on the server key's table."""
    return params.power(server_public, secret, bits=_exponent_bits(params))


def deal_keys(params: GroupParams, shared, server_public, participant_public,
              session_id: bytes, index: int) -> tuple[bytes, bytes, bytes]:
    """The stream, request MAC and receipt MAC keys of participant ``index``
    in threshold session ``session_id``: the ``e, es`` step of Noise's NK
    pattern, with the participant's key as e, so only the server can seal a
    request the participant opens and only the participant can tag a receipt
    the server opens; the two MAC keys differ, so no tag crosses directions.

    ``shared`` is the Diffie-Hellman element of the two keys, from
    ``dealer_shared`` on the server's side and ``member_shared`` on the
    participant's. HKDF-SHA256 (RFC 9180 §4.1) with the session id as salt
    and its bytes as input expands under the label, u16 index and both keys'
    bytes to three 32-byte keys.
    """
    info = (b"comhash/deal/v1" + index.to_bytes(2, "big")
            + element_to_bytes(params, server_public)
            + element_to_bytes(params, participant_public))
    okm = hkdf(session_id, element_to_bytes(params, shared), info, 96)
    return okm[:32], okm[32:64], okm[64:]


def _receipt_header(ephemeral_bytes: bytes, associated: bytes) -> bytes:
    # associated data is length-prefixed so no bytes can move between it and
    # the body; when empty, nothing is added and the tag is the one without it
    return ephemeral_bytes + (prefixed(associated) if associated else b"")


def encrypt(params: GroupParams, public, plaintext: bytes, rng=None,
            associated: bytes = b"") -> bytes:
    """Encrypt to ``public`` and return the ciphertext's wire bytes; the tag
    also covers ``associated``, which ``decrypt`` must be given unchanged.

    ``public`` may come from outside and ``public^e`` is encoded as trusted,
    so a ``low_order`` key raises ``GroupError``, as does any other key that
    is not a group element, when its comb table is built.
    """
    if len(plaintext) > MAX_PLAINTEXT:
        raise EncodingError("plaintext too long")
    if len(associated) > MAX_PLAINTEXT:
        raise EncodingError("associated data too long")
    if low_order(params, public):
        raise GroupError("public key has order at most 2")
    bits = _exponent_bits(params)
    e = _exponent(params, _rng(rng))
    key = _derive_key(params, params.power(public, e, bits=bits))
    ephemeral_bytes = element_to_bytes(params, params.power(params.g, e, bits=bits))
    sealed = seal(key, key, _receipt_header(ephemeral_bytes, associated), plaintext)
    # the u16 body length: the body is exactly as long as the plaintext
    return ephemeral_bytes + len(plaintext).to_bytes(2, "big") + sealed


def read_ciphertext(params: GroupParams, data: bytes) -> tuple:
    """(ephemeral, ephemeral bytes, body | tag) of the wire bytes ``encrypt``
    returned, for ``open_ciphertext``. Malformed bytes or a ``low_order``
    ephemeral raise ``EncodingError``."""
    rd = Reader(data)
    # the tag covers the ephemeral's bytes as received; the strict decode
    # makes them the one canonical encoding of the point
    ephemeral_bytes = rd.element_bytes(params)
    ephemeral = element_from_bytes(params, ephemeral_bytes)
    if low_order(params, ephemeral):
        raise EncodingError("ephemeral element has order at most 2")
    sealed = rd.field() + rd.take(TAG_LENGTH)
    rd.done()
    return ephemeral, ephemeral_bytes, sealed


def open_ciphertext(params: GroupParams, shared, ciphertext: tuple,
                    associated: bytes) -> bytes:
    """The plaintext of a ``read_ciphertext`` result, given ``shared``, its
    ephemeral raised to the recipient's secret; a bad tag raises
    ``AuthenticationError``."""
    _, ephemeral_bytes, sealed = ciphertext
    key = _derive_key(params, shared)
    return unseal(key, key, _receipt_header(ephemeral_bytes, associated), sealed)


def decrypt(params: GroupParams, secret: int, data: bytes,
            associated: bytes = b"") -> bytes:
    """Open the wire bytes ``encrypt`` returned: ``read_ciphertext``, one
    power, then ``open_ciphertext``."""
    ciphertext = read_ciphertext(params, data)
    return open_ciphertext(params, params.power(ciphertext[0], secret), ciphertext,
                           associated)
