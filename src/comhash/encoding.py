"""Canonical byte encodings for scalars, group elements, and parameter sets.

Scalars and mod-p elements are fixed-width big-endian (width of the modulus).
Curve points use SEC1 compression (0x02/0x03 prefix + x coordinate); the
identity is the single byte 0x00. Parameter sets are a tag byte, a mode byte,
then length-prefixed fields: (p, q, g, h) for modp, (curve id, g, h) for ec.

Encoding trusts its input, decoding validates it. ``element_to_bytes`` takes
an element this process computed with ``power``/``combine`` or got from
``element_from_bytes``; for modp it checks only type and range, not subgroup
membership (a curve point still gets its cheap on-curve check). Decoding is
strict: wrong widths, out-of-range values, off-curve x, and non-members of
the subgroup are all rejected, so a decoded value is always a valid element
and untrusted bytes are checked exactly once, where they enter.
"""

from __future__ import annotations

import hashlib
import struct

from .errors import EncodingError
from .groups import (
    EcParams,
    GroupParams,
    ModpMode,
    ModpParams,
    Point,
    curve_registry,
    sqrt_mod,
)

_PARAMS_TAG_MODP = 0x01
_PARAMS_TAG_EC = 0x02
_MODE_BYTES = {ModpMode.SUBGROUP: 0x01, ModpMode.PRIMITIVE: 0x02}
_MODE_FROM_BYTE = {v: k for k, v in _MODE_BYTES.items()}


def scalar_byte_length(params: GroupParams) -> int:
    return (params.exponent_modulus.bit_length() + 7) // 8


def element_byte_length(params: GroupParams) -> int:
    """Width of a non-identity element encoding."""
    if isinstance(params, ModpParams):
        return (params.modulus.bit_length() + 7) // 8
    return 1 + (params.field_prime.bit_length() + 7) // 8


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
    if isinstance(params, ModpParams):
        if not isinstance(el, int) or isinstance(el, bool) or not 1 <= el < params.modulus:
            raise EncodingError("not a valid group element")
        return el.to_bytes(element_byte_length(params), "big")
    if el is None:
        return b"\x00"
    if not params.element_valid(el):
        raise EncodingError("point not on curve")
    x, y = el
    prefix = b"\x02" if y % 2 == 0 else b"\x03"
    return prefix + x.to_bytes((params.field_prime.bit_length() + 7) // 8, "big")


def element_from_bytes(params: GroupParams, data: bytes):
    if isinstance(params, ModpParams):
        if len(data) != element_byte_length(params):
            raise EncodingError("bad element length")
        el = int.from_bytes(data, "big")
        if not params.element_valid(el):
            raise EncodingError("value is not a group element")
        return el
    if data == b"\x00":
        return None
    if len(data) != element_byte_length(params):
        raise EncodingError("malformed point encoding")
    if data[0] not in (0x02, 0x03):
        raise EncodingError("bad point prefix")
    p = params.field_prime
    x = int.from_bytes(data[1:], "big")
    if x >= p:
        raise EncodingError("x coordinate out of range")
    y = sqrt_mod((x * x * x + params.curve_a * x + params.curve_b) % p, p)
    if y is None:
        raise EncodingError("x is not on the curve")
    if (y % 2 == 0) != (data[0] == 0x02):
        y = p - y
    return (x, y)


def element_span(params: GroupParams, data: bytes) -> int:
    """Length of the element encoding that data starts with.

    Unambiguous because the ec identity (``None``) is the 1-byte 0x00 while
    every other ec encoding starts 0x02/0x03 at fixed width, and modp
    encodings are always fixed width.
    """
    if params.identity is None and data[:1] == b"\x00":
        return 1
    return element_byte_length(params)


def split_element(params: GroupParams, data: bytes):
    """Split a concatenation that starts with a canonical element.

    Returns (element, rest).
    """
    width = element_span(params, data)
    if len(data) < width:
        raise EncodingError("truncated element")
    return element_from_bytes(params, data[:width]), data[width:]


def _field(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise EncodingError("field too long")
    return struct.pack("!H", len(data)) + data


def _int_field(value: int) -> bytes:
    return _field(value.to_bytes((value.bit_length() + 7) // 8 or 1, "big"))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise EncodingError("truncated encoding")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def field(self) -> bytes:
        (n,) = struct.unpack("!H", self.take(2))
        return self.take(n)

    def int_field(self) -> int:
        raw = self.field()
        if len(raw) > 1 and raw[0] == 0:
            raise EncodingError("non-minimal integer field")
        return int.from_bytes(raw, "big")

    def done(self):
        if self.pos != len(self.data):
            raise EncodingError("trailing bytes")


def params_to_bytes(params: GroupParams) -> bytes:
    if isinstance(params, ModpParams):
        return bytes([_PARAMS_TAG_MODP, _MODE_BYTES[params.mode]]) + b"".join((
            _int_field(params.modulus),
            _int_field(params.subgroup_order),
            _int_field(params.g),
            _int_field(params.h),
        ))
    return bytes([_PARAMS_TAG_EC, 0x00]) + b"".join((
        _field(params.name.encode("ascii")),
        _field(element_to_bytes(params, params.g)),
        _field(element_to_bytes(params, params.h)),
    ))


def params_from_bytes(data: bytes) -> GroupParams:
    if len(data) < 2:
        raise EncodingError("truncated parameter encoding")
    tag, mode_byte = data[0], data[1]
    rd = _Reader(data[2:])
    if tag == _PARAMS_TAG_MODP:
        if mode_byte not in _MODE_FROM_BYTE:
            raise EncodingError("unknown modp mode byte")
        p, q, g, h = rd.int_field(), rd.int_field(), rd.int_field(), rd.int_field()
        rd.done()
        params = ModpParams(modulus=p, subgroup_order=q, g=g, h=h,
                            mode=_MODE_FROM_BYTE[mode_byte])
        for gen in (g, h):
            if not 1 <= gen < p:
                raise EncodingError("generator out of range")
        return params
    if tag == _PARAMS_TAG_EC:
        if mode_byte != 0x00:
            raise EncodingError("bad ec mode byte")
        name = rd.field().decode("ascii", errors="strict")
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
