"""Canonical byte encodings, and the one reader for every untrusted payload.

Scalars and mod-p elements are fixed-width big-endian (width of the modulus).
Curve points use SEC1 compression (0x02/0x03 prefix + x coordinate); the
identity is the single byte 0x00. The element codec lives on the params
classes (``element_width``, ``encode``, ``decode``); the functions here are
its one entry point.

Every other format is built from two pieces: ``prefixed`` writes a field
behind a big-endian length of 2 or 4 bytes, and ``Reader`` takes it apart.
Every short read and every trailing byte raises ``EncodingError``. The
formats, all integers big-endian:

- parameter set: tag u8 | mode u8 | fields behind u16 lengths: (p, q, g, h)
  as minimal integers for modp, (ASCII curve id, g, h) for ec;
- ciphertext (``pke.encrypt`` returns it, ``pke.decrypt`` takes it):
  ephemeral element | u16 body length | body | 16-byte tag;
- SHARE payload (``protocol.share_frame``, for both rounds): share element
  | receipt over the element bytes: in the basic round a ciphertext of the
  nonce with them as associated data, in the threshold round one 16-byte
  tag, the ``pke.seal`` of nothing under the receipt key of
  ``pke.deal_keys`` with header session id | u16 index | element bytes;
- THRESH_DEAL payload (``threshold``): body | 16-byte tag, the ``pke.seal``
  of two scalars, the dealt pair x_i | y_i, under ``pke.deal_keys``; its
  header, session id | u16 index, never travels;
- quotient table (``threshold``): u32 count | count x (u16 index | quotient,
  as wide as the modulus);
- sealed evaluation (``threshold``): u32 ciphertext length | ciphertext |
  u16 coefficient count | that many scalars;
- link record (``transport``): u32 length | body | 16-byte tag, the
  ``pke.seal`` of one frame; its header, the u64 sequence number, never
  travels.

Frame headers are the one fixed layout kept elsewhere, in ``frames``.

Encoding trusts its input, decoding validates it. ``element_to_bytes`` takes
an element this process computed with ``power``/``combine`` or got from
``element_from_bytes``; for modp it checks only type and range, not subgroup
membership (a curve point still gets its cheap on-curve check). Decoding is
strict: wrong widths, out-of-range values, off-curve x, and non-members of
the subgroup are all rejected, so a decoded value is always a valid element
and untrusted bytes are checked exactly once, where they enter; a share
encoding the server already decoded is checked only the first time
(``protocol._share_element``). Decoded modp parameters go through
``validate_group``: that membership test needs p safe.
"""

from __future__ import annotations

import hashlib

from .errors import EncodingError
from .groups import (
    EcParams,
    GroupParams,
    ModpMode,
    ModpParams,
    curve_registry,
    validate_group,
)

_PARAMS_TAG_MODP = 0x01
_PARAMS_TAG_EC = 0x02
_MODE_BYTES = {ModpMode.SUBGROUP: 0x01, ModpMode.PRIMITIVE: 0x02}
_MODE_FROM_BYTE = {v: k for k, v in _MODE_BYTES.items()}


def scalar_byte_length(params: GroupParams) -> int:
    return (params.exponent_modulus.bit_length() + 7) // 8


def scalar_to_bytes(params: GroupParams, value: int) -> bytes:
    m = params.exponent_modulus
    if not 0 <= value < m:
        raise EncodingError("scalar out of range")
    return value.to_bytes(scalar_byte_length(params), "big")


def scalar_from_bytes(params: GroupParams, data: bytes) -> int:
    if len(data) != scalar_byte_length(params):
        raise EncodingError("bad scalar length")
    value = int.from_bytes(data, "big")
    if value >= params.exponent_modulus:
        raise EncodingError("scalar exceeds the exponent modulus")
    return value


def element_to_bytes(params: GroupParams, el) -> bytes:
    return params.encode(el)


def element_from_bytes(params: GroupParams, data: bytes):
    return params.decode(data)


def prefixed(data: bytes, size: int = 2) -> bytes:
    """data behind its length as a size-byte big-endian integer."""
    if len(data) >> (8 * size):
        raise EncodingError("field too long")
    return len(data).to_bytes(size, "big") + data


def _int_field(value: int) -> bytes:
    return prefixed(value.to_bytes((value.bit_length() + 7) // 8 or 1, "big"))


class Reader:
    """A cursor over untrusted bytes; every read is bounds-checked."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise EncodingError("truncated encoding")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def uint(self, size: int) -> int:
        return int.from_bytes(self.take(size), "big")

    def field(self, size: int = 2) -> bytes:
        """A field written by ``prefixed`` with the same size."""
        return self.take(self.uint(size))

    def int_field(self) -> int:
        raw = self.field()
        if len(raw) > 1 and raw[0] == 0:
            raise EncodingError("non-minimal integer field")
        return int.from_bytes(raw, "big")

    def element_bytes(self, params: GroupParams) -> bytes:
        """The undecoded bytes of the element encoding that comes next.

        Unambiguous because only the identity's encoding can be shorter than
        ``element_width`` (the ec identity is the 1-byte 0x00), and no other
        encoding starts with it.
        """
        identity = params.encode(params.identity)
        if self.data.startswith(identity, self.pos):
            return self.take(len(identity))
        return self.take(params.element_width)

    def element(self, params: GroupParams):
        return element_from_bytes(params, self.element_bytes(params))

    def scalar(self, params: GroupParams) -> int:
        return scalar_from_bytes(params, self.take(scalar_byte_length(params)))

    def rest(self) -> bytes:
        return self.take(len(self.data) - self.pos)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise EncodingError("trailing bytes")


def params_to_bytes(params: GroupParams) -> bytes:
    if params.backend == "modp":
        return bytes([_PARAMS_TAG_MODP, _MODE_BYTES[params.mode]]) + b"".join((
            _int_field(params.modulus),
            _int_field(params.subgroup_order),
            _int_field(params.g),
            _int_field(params.h),
        ))
    return bytes([_PARAMS_TAG_EC, 0x00]) + b"".join((
        prefixed(params.name.encode("ascii")),
        prefixed(element_to_bytes(params, params.g)),
        prefixed(element_to_bytes(params, params.h)),
    ))


def params_from_bytes(data: bytes) -> GroupParams:
    rd = Reader(data)
    tag, mode_byte = rd.uint(1), rd.uint(1)
    if tag == _PARAMS_TAG_MODP:
        if mode_byte not in _MODE_FROM_BYTE:
            raise EncodingError("unknown modp mode byte")
        p, q, g, h = rd.int_field(), rd.int_field(), rd.int_field(), rd.int_field()
        rd.done()
        params = ModpParams(modulus=p, subgroup_order=q, g=g, h=h,
                            mode=_MODE_FROM_BYTE[mode_byte])
        problems = validate_group(params)
        if problems:
            raise EncodingError("invalid modp parameters: " + "; ".join(problems))
        return params
    if tag == _PARAMS_TAG_EC:
        if mode_byte != 0x00:
            raise EncodingError("bad ec mode byte")
        try:
            name = rd.field().decode("ascii")
        except UnicodeDecodeError:
            raise EncodingError("curve id is not ASCII") from None
        spec = curve_registry().get(name)
        if spec is None:
            raise EncodingError(f"unknown curve id: {name!r}")
        shell = EcParams(name=name, g=(0, 0), h=(0, 0), **spec)
        g = element_from_bytes(shell, rd.field())
        h = element_from_bytes(shell, rd.field())
        rd.done()
        if g is None or h is None:
            raise EncodingError("base point cannot be the identity")
        return EcParams(name=name, g=g, h=h, **spec)
    raise EncodingError("unknown parameter tag")


def params_digest(params: GroupParams) -> bytes:
    """32-byte identifier used to match parameter sets across a link."""
    return hashlib.sha256(params_to_bytes(params)).digest()
