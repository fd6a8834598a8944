"""Group backends for the commutative hash: safe-prime multiplicative groups
(mod p) and prime-order elliptic curves in short Weierstrass form.

``ModpParams`` and ``EcParams`` share one interface, and this module is the
only one that tells them apart, but for the parameter-set codec
(``encoding.params_to_bytes`` and ``params_from_bytes``): generators
``g``/``h``, ``identity``, the ``exponent_modulus`` all scalar arithmetic is
reduced by, ``prime_order``; ``power``, ``combine`` (the group law, over
any number of elements) and ``element_valid``; the element codec
``element_width``, ``encode`` (trusting) and ``decode`` (strict); and
``generator_candidate`` and ``structure_problems``, the backend's steps of
``derive_second_generator`` and ``validate_group``.

``power`` routes by what the caller says, never by the exponent's value.
Both backends send two kinds of base to one Lim-Lee comb (CRYPTO '94): one
table builder, whose base powers come in the group law each backend's
``_comb_ops`` gives and whose rows each backend's ``_comb_rows`` fills, and
one digit reader, ``_comb_digits``, whose byte digits each backend's
``_comb_eval`` loop reads. Tables are built once per process and kept by
value, per (base, bits), in one cache. ``power(base, e)`` sends ``g`` and ``h``
there, on tables as wide as the exponent modulus, and reduces e by it.
``power(base, e, bits=b)`` marks base as long-lived and e as below 2^b,
which it checks instead of reducing: base, whatever it is, gets a b-bit
table, and a base other than ``g`` and ``h`` is checked to be a group
element other than the identity once, when that table is built. Without
``bits``, every other base goes mod p to built-in ``pow``; on a curve with
the GLV endomorphism (Gallant-Lambert-Vanstone, CRYPTO 2001: a == 0, field
prime and order both 1 mod 3, as on secp256k1) to one interleaved width-5
w-NAF loop over two half-length scalars; on any other curve, to width-5
w-NAF over the full scalar.

``power_many(bases, e)`` is ``[power(b, e) for b in bases]``. On a curve
the bases are lanes of one general-route schedule in affine coordinates,
and each step's lanes share one field inversion (Montgomery, Math. Comp.
1987). Each lane holds c * base and adds d * base, with the same c and d
in every lane, so with bases of prime order a lane meets a zero denominator
(c = +-d or 2c = 0 mod the order) exactly when all do; then the call falls
back to ``power``, base by base. On a curve the comb's rows are built the
same way: level by level, in affine coordinates, one field inversion per
level, falling back to entry-by-entry Jacobian additions on a zero
denominator (only the toy curve meets one). ``combine`` folds any number
of points into one Jacobian accumulator, made affine with one inversion.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Tuple, Union

from .errors import EncodingError, GroupError

Point = Optional[Tuple[int, int]]  # affine coordinates; None is the identity

DEFAULT_H_LABEL = b"comhash/second-generator/v1"

# Every comb table has one shape, whatever its width. An exponent's bits
# below 2^bits are laid out as COMB_TEETH rows (teeth) split into
# COMB_COLUMNS columns of span = ceil(bits / (teeth * columns)) bits each.
# The table holds, per column, the product of every subset of the teeth's
# base powers: columns * 2^teeth = 1024 entries, whose size is set by the
# element width, not by bits: about 0.19 MB on secp256k1 (1,020 affine
# points), 0.31 MB at 2048 bits and 0.42 MB at 3072. A power costs span
# squarings and at most columns * span multiplications. Every digit of an
# exponent is one byte of one integer (``_comb_digits``), and a curve's loop
# keeps its Jacobian accumulator in locals. With Python 3.11 on a 2-vCPU
# Xeon VM:
# - secp256k1, 256 bits (g, h, a long-lived key): 8 doublings and 32 mixed
#   additions, 0.21-0.23 ms against 1.0-1.3 ms for GLV. 4.4-4.6 ms to
#   build: the base powers in Jacobian coordinates, then the entries level
#   by level, by the number of teeth set, each level of all 4 rows one
#   batch of affine additions sharing one inversion; 9.4-9.7 ms entry by
#   entry (the toy curve's fallback) in the same runs.
# - 2048 bits, full width (g, h): 64 and 256, 5-6 ms against 31 ms for
#   built-in pow; 40-45 ms to build.
# - 2048 bits, 320 bits (g and a long-lived key under pke's receipt
#   exponents): 10 and 40, 0.8-1.0 ms against 4.6-5.8 ms for built-in pow;
#   about 20 ms to build.
# The shape is set by memory: mod p, 8 x 6 and 9 x 3 (0.47 MB at 2048 bits)
# measured no faster and 8 x 8 (0.63 MB) under 10% faster; on the curve
# 8 x 4 beat a 4-bit fixed window of 960 points (up to 64 additions,
# 0.52-0.57 ms). Every other curve base uses width-WNAF_WIDTH w-NAF.
COMB_TEETH = 8
COMB_COLUMNS = 4
WNAF_WIDTH = 5

# _SPREAD[b]: byte b's 8 bits, least significant first, one per byte
_SPREAD = tuple(bytes((b >> i) & 1 for i in range(8)) for b in range(256))
# a comb row's entries with two or more teeth set, grouped by how many
_COMB_LEVELS = tuple(tuple(u for u in range(1 << COMB_TEETH) if bin(u).count("1") == n)
                     for n in range(2, COMB_TEETH + 1))

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


class ModpMode(Enum):
    # SUBGROUP works in the order-q subgroup of squares, so exponent
    # arithmetic mod q is sound (required by the threshold protocol).
    # PRIMITIVE uses primitive roots of order p-1 = 2q.
    SUBGROUP = "subgroup"
    PRIMITIVE = "primitive"


# ---------------------------------------------------------------------------
# scalar arithmetic (exponent domain)
# ---------------------------------------------------------------------------

def scalar_inv(u: int, modulus: int) -> int:
    if u % modulus == 0:
        raise ZeroDivisionError("inverse of zero scalar")
    try:
        return pow(u, -1, modulus)
    except ValueError:
        # composite modulus (PRIMITIVE mode) can have non-units
        raise ZeroDivisionError(f"{u} is not invertible mod {modulus}") from None


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

def is_probable_prime(n: int, rounds: int = 64) -> bool:
    """Miller-Rabin with `rounds` random bases (error < 4**-rounds)."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = random.Random(n)  # deterministic verdict for a given n
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0: 1, -1, or 0 when gcd(a, n) > 1.

    Binary algorithm: strip the factors of two from a in one shift, each
    odd power of two flips the sign when n = 3 or 5 mod 8, then swap by
    quadratic reciprocity. No multiplication mod n is done.
    """
    a %= n
    t = 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 3 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a mod prime p, or None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        # r squares to a times a's Euler criterion, so one pow does both jobs
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks for p = 1 mod 4
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# parameter types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModpParams:
    """Multiplicative group mod a safe prime, with generator pair (g, h)."""

    modulus: int         # safe prime p = 2q + 1
    subgroup_order: int  # prime q
    g: int
    h: int
    mode: ModpMode = ModpMode.SUBGROUP
    h_label: bytes = field(default=b"", compare=False)  # empty = pinned fixture

    backend = "modp"

    @property
    def exponent_modulus(self) -> int:
        if self.mode is ModpMode.SUBGROUP:
            return self.subgroup_order
        return self.modulus - 1

    @property
    def identity(self) -> int:
        return 1

    @property
    def prime_order(self) -> bool:
        # PRIMITIVE mode's generators have order 2q
        return self.mode is ModpMode.SUBGROUP

    @property
    def element_width(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def _in_range(self, el) -> bool:
        # cheap structural test; subgroup membership is tested only where
        # untrusted bytes are decoded
        return isinstance(el, int) and not isinstance(el, bool) and 1 <= el < self.modulus

    def _check(self, el) -> int:
        if not self._in_range(el):
            raise GroupError("modp backend expects an int element in [1, p)")
        return el

    def element_valid(self, el) -> bool:
        """Whether el is an element of the group this instance works in.

        SUBGROUP mode tests membership of the order-q subgroup with one
        Jacobi symbol instead of ``pow(el, q, p)``. That relies on p being
        a safe prime 2q + 1: then the order-q subgroup is exactly the set
        of quadratic residues mod p, and the Jacobi symbol of a unit mod a
        prime is its Legendre symbol, 1 precisely on the residues.
        ``validate_group`` checks that precondition.
        """
        if not self._in_range(el):
            return False
        if self.mode is ModpMode.SUBGROUP:
            return _jacobi(el, self.modulus) == 1
        return True

    def encode(self, el: int) -> bytes:
        """Fixed-width big-endian; checks type and range only."""
        if not self._in_range(el):
            raise EncodingError("not a valid group element")
        return el.to_bytes(self.element_width, "big")

    def decode(self, data: bytes) -> int:
        if len(data) != self.element_width:
            raise EncodingError("bad element length")
        el = int.from_bytes(data, "big")
        if not self.element_valid(el):
            raise EncodingError("value is not a group element")
        return el

    def power(self, base: int, exponent: int, bits: Optional[int] = None) -> int:
        """base^exponent. With ``bits``, base is long-lived and
        0 <= exponent < 2^bits: base gets a comb table of that width, and
        any other exponent raises ``GroupError``."""
        base = self._check(base)
        if bits is None:
            k = exponent % self.exponent_modulus
            if base != self.g and base != self.h:
                return pow(base, k, self.modulus)
            bits = self.exponent_modulus.bit_length()
        else:
            k = _bounded(exponent, bits)
        return _comb_pow(self, base, bits, k)

    def _comb_ops(self) -> tuple:
        """The table builder's identity, squaring, multiplication and
        normalisation mod p."""
        p = self.modulus
        return 1, lambda x: x * x % p, lambda x, y: x * y % p, list

    def _comb_rows(self, powers: list) -> tuple:
        return _entrywise_rows(self, powers)

    def _comb_eval(self, table: tuple, digits: bytes, span: int) -> int:
        """The comb's loop: a squaring per bit of a column, a multiplication
        per nonzero digit."""
        p = self.modulus
        r = 1
        for s in range(span - 1, -1, -1):
            r = r * r % p
            for d, row in zip(digits[s::span], table):
                if d:
                    r = r * row[d] % p
        return r

    def power_many(self, bases: list, exponent: int) -> list:
        """``[self.power(b, exponent) for b in bases]``."""
        return [self.power(b, exponent) for b in bases]

    def combine(self, *elements: int) -> int:
        """The product of the elements mod p; 1 for none."""
        p = self.modulus
        acc = 1
        for el in elements:
            acc = acc * self._check(el) % p
        return acc

    def generator_candidate(self, seed: bytes) -> Optional[int]:
        """The generator seed hashes to, or None if it hashes to none."""
        p = self.modulus
        c = int.from_bytes(_expand(seed, self.element_width), "big") % p
        if self.mode is ModpMode.SUBGROUP:
            c = c * c % p  # squaring lands in the order-q subgroup
            return c if c not in (0, 1) else None
        if c > 1 and pow(c, 2, p) != 1 and pow(c, self.subgroup_order, p) != 1:
            return c
        return None

    def structure_problems(self, rounds: int) -> list[str]:
        p, q = self.modulus, self.subgroup_order
        problems = []
        if not is_probable_prime(p, rounds):
            problems.append("p not prime")
        if not is_probable_prime(q, rounds):
            problems.append("q not prime")
        if p != 2 * q + 1:
            problems.append("p != 2q + 1")
        for name, gen in (("g", self.g), ("h", self.h)):
            if not 1 < gen < p:
                problems.append(f"{name} out of range")
            elif self.mode is ModpMode.SUBGROUP and pow(gen, q, p) != 1:
                problems.append(f"{name} has wrong order")
            elif self.mode is ModpMode.PRIMITIVE and 1 in (pow(gen, 2, p), pow(gen, q, p)):
                problems.append(f"{name} has wrong order")
        return problems


@dataclass(frozen=True)
class EcParams:
    """Prime-order elliptic curve y^2 = x^3 + ax + b over GF(p)."""

    name: str
    field_prime: int
    curve_a: int
    curve_b: int
    order: int               # prime number of points, including the identity
    g: Tuple[int, int]
    h: Tuple[int, int]
    h_label: bytes = field(default=b"", compare=False)

    backend = "ec"
    prime_order = True  # structure_problems checks that ``order`` is prime

    @property
    def exponent_modulus(self) -> int:
        return self.order

    @property
    def identity(self) -> Point:
        return None

    @property
    def element_width(self) -> int:
        return 1 + (self.field_prime.bit_length() + 7) // 8  # prefix byte, then x

    def on_curve(self, pt: Point) -> bool:
        if pt is None:
            return True
        x, y = pt
        p = self.field_prime
        if not (0 <= x < p and 0 <= y < p):
            return False
        return (y * y - (x * x * x + self.curve_a * x + self.curve_b)) % p == 0

    def _check(self, pt) -> Point:
        if pt is None:
            return None
        if (not isinstance(pt, tuple) or len(pt) != 2
                or not all(isinstance(c, int) for c in pt)):
            raise GroupError(f"ec backend expects (x, y) points, got {type(pt).__name__}")
        return pt

    def element_valid(self, pt) -> bool:
        if pt is None:
            return True
        if not isinstance(pt, tuple) or len(pt) != 2:
            return False
        return self.on_curve(pt)

    def encode(self, pt: Point) -> bytes:
        """SEC1 compression; the identity is the single byte 0x00."""
        if pt is None:
            return b"\x00"
        if not self.element_valid(pt):
            raise EncodingError("point not on curve")
        x, y = pt
        prefix = b"\x02" if y % 2 == 0 else b"\x03"
        return prefix + x.to_bytes(self.element_width - 1, "big")

    def decode(self, data: bytes) -> Point:
        if data == b"\x00":
            return None
        if len(data) != self.element_width:
            raise EncodingError("malformed point encoding")
        if data[0] not in (0x02, 0x03):
            raise EncodingError("bad point prefix")
        p = self.field_prime
        x = int.from_bytes(data[1:], "big")
        if x >= p:
            raise EncodingError("x coordinate out of range")
        y = sqrt_mod((x * x * x + self.curve_a * x + self.curve_b) % p, p)
        if y is None:
            raise EncodingError("x is not on the curve")
        if (y % 2 == 0) != (data[0] == 0x02):
            y = p - y
        return (x, y)

    def power(self, base: Point, exponent: int, bits: Optional[int] = None) -> Point:
        """exponent * base; ``bits`` as in ``ModpParams.power``."""
        self._check(base)
        if bits is None:
            k = exponent % self.order
            if base is None or k == 0:
                return None
            if base != self.g and base != self.h:
                glv = _glv_constants(self.field_prime, self.curve_a, self.order, self.g)
                if glv is not None:
                    return _glv_mul(self, base, k, glv)
                return _ec_mul(self, base, k)
            bits = self.order.bit_length()
        else:
            k = _bounded(exponent, bits)
        return _comb_pow(self, base, bits, k)

    def _comb_ops(self) -> tuple:
        """The table builder's identity, doubling, addition and normalisation:
        a Jacobian accumulator plus an affine point, None the identity, made
        affine in a batch."""
        p, a = self.field_prime, self.curve_a

        def add(acc, q):
            return acc if q is None else _jac_add_affine(*acc, q[0], q[1], p, a)
        return (0, 1, 0), lambda acc: _jac_double(*acc, p, a), add, lambda pts: _normalize(pts, p)

    def _comb_rows(self, powers: list) -> tuple:
        """``_affine_rows``, or ``_entrywise_rows`` after a zero denominator
        there (the toy curve's tables hold the identity and repeated points)."""
        if None not in powers:
            try:
                return _affine_rows(powers, self.field_prime, self.curve_a)
            except ValueError:  # a zero denominator
                pass
        return _entrywise_rows(self, powers)

    def _comb_eval(self, table: tuple, digits: bytes, span: int) -> Point:
        """The comb's loop on a Jacobian accumulator: a doubling per bit of a
        column, a mixed addition per nonzero digit, one inversion at the end."""
        p, a = self.field_prime, self.curve_a
        X, Y, Z = 0, 1, 0
        for s in range(span - 1, -1, -1):
            X, Y, Z = _jac_double(X, Y, Z, p, a)
            for d, row in zip(digits[s::span], table):
                if d:
                    q = row[d]
                    if q is not None:  # the identity, on the toy curve
                        X, Y, Z = _jac_add_affine(X, Y, Z, q[0], q[1], p, a)
        return _normalize([(X, Y, Z)], p)[0]

    def power_many(self, bases: list, exponent: int) -> list:
        """``[self.power(b, exponent) for b in bases]`` as the lanes of
        ``_ec_lanes``, or base by base after a zero denominator there."""
        k = exponent % self.order
        if k and None not in bases:
            try:
                return _ec_lanes(self, [self._check(b) for b in bases], k)
            except ValueError:  # a zero denominator
                pass
        return [self.power(b, exponent) for b in bases]

    def combine(self, *points: Point) -> Point:
        """The sum of the points; None, the identity, for none. One Jacobian
        accumulator takes each point by mixed addition and is made affine
        once, so a fold of any length pays one field inversion."""
        p, a = self.field_prime, self.curve_a
        X, Y, Z = 0, 1, 0
        for pt in points:
            pt = self._check(pt)
            if pt is not None:
                X, Y, Z = _jac_add_affine(X, Y, Z, pt[0], pt[1], p, a)
        return _normalize([(X, Y, Z)], p)[0]

    def generator_candidate(self, seed: bytes) -> Point:
        """The point with x hashed from seed and even y; None if x is off the curve."""
        p = self.field_prime
        x = int.from_bytes(_expand(seed, self.element_width - 1), "big") % p
        y = sqrt_mod((x * x * x + self.curve_a * x + self.curve_b) % p, p)
        if y is None:
            return None
        return (x, p - y if y % 2 else y)

    def structure_problems(self, rounds: int) -> list[str]:
        p, n = self.field_prime, self.order
        problems = []
        if not is_probable_prime(p, rounds):
            problems.append("field prime not prime")
        if not is_probable_prime(n, rounds):
            problems.append("group order not prime")
        # group order must sit in the Hasse interval of the field size
        root = math.isqrt(p)
        if not (p + 1 - 2 * (root + 1)) <= n <= (p + 1 + 2 * (root + 1)):
            problems.append("group order outside the Hasse interval")
        for name, pt in (("base point g", self.g), ("base point h", self.h)):
            if pt is None:
                problems.append(f"{name} is the identity")
            elif not self.on_curve(pt):
                problems.append(f"{name} not on curve")
            elif not problems and _ec_mul(self, pt, n) is not None:
                problems.append(f"{name} order does not divide the group order")
        return problems


GroupParams = Union[ModpParams, EcParams]


# ---------------------------------------------------------------------------
# fixed-base comb, shared by both backends
# ---------------------------------------------------------------------------

def _comb_span(bits: int) -> int:
    """Bits per column: teeth * columns * span covers every exponent below 2^bits."""
    return -(-bits // (COMB_TEETH * COMB_COLUMNS))


def _bounded(exponent: int, bits: int) -> int:
    # a long-lived base's exponent is never reduced: one out of its bound
    # is a caller's mistake
    if not 0 <= exponent < 1 << bits:
        raise GroupError(f"exponent outside [0, 2^{bits})")
    return exponent


def _comb_pow(params: GroupParams, base, bits: int, k: int):
    """base^k for 0 <= k < 2^bits from base's comb table of that width, by
    params' comb loop on ``_comb_digits``, normalised."""
    return params._comb_eval(_comb_table(params, base, bits), _comb_digits(k, bits),
                             _comb_span(bits))


def _comb_digits(k: int, bits: int) -> bytes:
    """k's comb digits, 0 <= k < 2^bits, one per byte.

    Tooth i holds bits [i*a, (i+1)*a) of k, a = span * columns, and column j
    of a tooth its bits [j*span, (j+1)*span). Byte j*span + s gathers bit
    j*span + s of every tooth, tooth i as bit i, and selects one entry from
    column j's row. ``_SPREAD`` gives every bit of k a byte of its own, so
    tooth i's bits are bytes [i*a, (i+1)*a) of the spread, and the teeth,
    each shifted to its bit, OR into one integer whose bytes are the digits.
    With COMB_TEETH = 8, k's a little-endian bytes hold every tooth.
    """
    a = _comb_span(bits) * COMB_COLUMNS
    spread = b"".join([_SPREAD[b] for b in k.to_bytes(a, "little")])
    d = 0
    for i in range(COMB_TEETH):
        d |= int.from_bytes(spread[i * a:(i + 1) * a], "little") << i
    return d.to_bytes(a, "little")


@functools.lru_cache(maxsize=16)
def _comb_table(params: GroupParams, base, bits: int) -> tuple:
    """base's comb table for exponents below 2^bits, in params' comb group
    law. Row j, entry u: the product over the set bits i of u of
    base^(2^(i*a + j*span)), with entry 0 the identity; each row is
    normalised into the form the law's multiplication takes as its second
    operand. Keyed by value, not by params instance, so every
    ``modp_group(2048)`` or ``secp256k1()`` in a process shares one table per
    (base, bits). The bound caps the memory a process that builds many
    parameter sets or long-lived keys spends on tables.

    A base other than g and h is checked here, once per table, to be a group
    element other than the identity. The base powers cost one squaring per
    exponent bit; the rows are the backend's ``_comb_rows`` of them.
    """
    if base != params.g and base != params.h and (
            base == params.identity or not params.element_valid(base)):
        raise GroupError("a comb table's base must be a group element other than the identity")
    one, square, mul, normalize = params._comb_ops()
    span = _comb_span(bits)
    powers = [mul(one, base)]  # base^(2^(n*span)); tooth i, column j is n = i*columns + j
    for _ in range(COMB_TEETH * COMB_COLUMNS - 1):
        x = powers[-1]
        for _ in range(span):
            x = square(x)
        powers.append(x)
    return params._comb_rows(normalize(powers))


def _entrywise_rows(params: GroupParams, powers: list) -> tuple:
    """The comb table's rows from its normalised base powers, in params'
    comb group law: each entry one multiplication, each row normalised with
    one batch inversion on a curve."""
    one, _, mul, normalize = params._comb_ops()
    rows = []
    for j in range(COMB_COLUMNS):
        teeth = powers[j::COMB_COLUMNS]
        row = [one]
        for u in range(1, 1 << COMB_TEETH):
            low = u & -u
            row.append(mul(row[u ^ low], teeth[low.bit_length() - 1]))
        rows.append(tuple(normalize(row)))
    return tuple(rows)


def _affine_rows(powers: list, p: int, a: int) -> tuple:
    """The comb table's rows from its affine base powers, level by level:
    an entry with n teeth set is the entry without its lowest tooth plus
    that tooth, and each level's entries of every row are one
    ``_affine_sums``, sharing one field inversion (7 inversions, in place
    of 1,020 Jacobian additions and 4 normalisations). An entry that
    is the identity or meets its tooth's x coordinate makes a zero
    denominator, which raises ``ValueError``."""
    rows = [[None] * (1 << COMB_TEETH) for _ in range(COMB_COLUMNS)]
    for j, row in enumerate(rows):
        for i, tooth in enumerate(powers[j::COMB_COLUMNS]):
            row[1 << i] = tooth
    for level in _COMB_LEVELS:
        sums = iter(_affine_sums([row[u & (u - 1)] for row in rows for u in level],
                                 [row[u & -u] for row in rows for u in level], p, a))
        for row in rows:
            for u in level:
                row[u] = next(sums)
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# elliptic curve arithmetic
# ---------------------------------------------------------------------------

def _ec_mul(params: EcParams, pt: Point, k: int) -> Point:
    """k * pt for any point and any k >= 0, by width-WNAF_WIDTH w-NAF.

    ``power`` sends a base here when it is not g or h and the curve has no
    GLV endomorphism; ``validate_group`` calls it with the unreduced order,
    because the endomorphism acts as lambda only on the order-n group.
    """
    if pt is None or k == 0:
        return None
    p, a = params.field_prime, params.curve_a
    return _wnaf_sum(p, a, [(_odd_multiples(p, a, pt), k)])


def _odd_multiples(p: int, a: int, pt: Tuple[int, int]) -> list:
    """pt, 3pt, ..., (2^(WNAF_WIDTH-1) - 1)pt, made affine with one batch
    inversion."""
    x, y = pt[0] % p, pt[1] % p
    two = _normalize([_jac_double(x, y, 1, p, a)], p)[0]
    jac = [(x, y, 1)]
    for _ in range((1 << (WNAF_WIDTH - 2)) - 1):
        # 2pt is the identity only for a base of order 2: its odd multiples are all pt
        X, Y, Z = jac[-1]
        jac.append(_jac_add_affine(X, Y, Z, two[0], two[1], p, a) if two else (X, Y, Z))
    return _normalize(jac, p)


def _wnaf_steps(scalars: list) -> list:
    """The interleaved w-NAF schedule of scalars of either sign: per bit
    position, most significant first, the (term, signed digit) pairs to add
    after that position's doubling."""
    rows = [_wnaf(abs(k)) for k in scalars]
    top = max((digits[-1][0] for digits in rows if digits), default=-1)
    steps: list[list] = [[] for _ in range(top + 1)]
    for t, (digits, k) in enumerate(zip(rows, scalars)):
        for i, d in digits:
            steps[i].append((t, d if k > 0 else -d))
    return steps[::-1]


def _wnaf_sum(p: int, a: int, terms: list) -> Point:
    """The sum of k * P over terms (odd multiples of P, k), k of either sign.

    One loop interleaves every term's w-NAF: one Jacobian doubling per digit
    of the longest scalar, one mixed addition per nonzero digit of any term
    (about one in WNAF_WIDTH + 1).
    """
    X, Y, Z = 0, 1, 0
    for step in _wnaf_steps([k for _, k in terms]):
        X, Y, Z = _jac_double(X, Y, Z, p, a)
        for t, d in step:
            q = terms[t][0][abs(d) >> 1]
            if q is not None:  # the identity, for a base of small order
                X, Y, Z = _jac_add_affine(X, Y, Z, q[0], q[1] if d > 0 else -q[1] % p, p, a)
    return _normalize([(X, Y, Z)], p)[0]


def _glv_mul(params: EcParams, pt: Tuple[int, int], k: int, glv: tuple) -> Point:
    """k * pt for 0 <= k < order as k1 * pt + k2 * phi(pt), where
    phi(x, y) = (beta * x, y) = lambda * pt; phi's odd multiples cost one
    field multiplication each."""
    p, a = params.field_prime, params.curve_a
    beta, _, v1, v2 = glv
    k1, k2 = _glv_split(k, params.order, v1, v2)
    odd = _odd_multiples(p, a, pt)
    phi = [q and (beta * q[0] % p, q[1]) for q in odd]
    return _wnaf_sum(p, a, [(odd, k1), (phi, k2)])


def _ec_lanes(params: EcParams, bases: list, k: int) -> list:
    """k * base for every base, 0 < k < order, each base a lane of the
    general route's schedule in affine coordinates, each step's lanes sharing
    one ``_inverses``. A zero denominator raises ``ValueError``."""
    p, a = params.field_prime, params.curve_a
    odd = [[(x % p, y % p) for x, y in bases]]  # odd[j] holds each lane's (2j + 1) * base
    two = _affine_sums(odd[0], None, p, a)
    for _ in range((1 << (WNAF_WIDTH - 2)) - 1):
        odd.append(_affine_sums(odd[-1], two, p, a))
    terms, scalars = [odd], [k]
    glv = _glv_constants(p, a, params.order, params.g)
    if glv is not None:
        beta, _, v1, v2 = glv
        terms.append([[(beta * x % p, y) for x, y in row] for row in odd])
        scalars = _glv_split(k, params.order, v1, v2)
    acc = None  # every lane is the identity until the first addition
    for step in _wnaf_steps(scalars):
        if acc is not None:
            acc = _affine_sums(acc, None, p, a)
        for t, d in step:
            row = terms[t][d >> 1] if d > 0 else [(x, -y % p) for x, y in terms[t][-d >> 1]]
            acc = row if acc is None else _affine_sums(acc, row, p, a)
    return acc


def _affine_sums(points: list, addends: Optional[list], p: int, a: int) -> list:
    """points[i] + addends[i] for every lane, or 2 * points[i] when addends
    is None, in affine coordinates with one batch inversion."""
    if addends is None:
        addends = points
        nums, dens = [3 * x * x + a for x, _ in points], [2 * y for _, y in points]
    else:
        nums = [y2 - y1 for (_, y1), (_, y2) in zip(points, addends)]
        dens = [x2 - x1 for (x1, _), (x2, _) in zip(points, addends)]
    out = []
    for (x1, y1), (x2, _), num, inv in zip(points, addends, nums, _inverses(dens, p)):
        slope = num * inv % p
        x3 = (slope * slope - x1 - x2) % p
        out.append((x3, (slope * (x1 - x3) - y1) % p))
    return out


def _glv_split(k: int, n: int, v1: tuple, v2: tuple) -> Tuple[int, int]:
    """(k1, k2) with k1 + k2 * lambda = k mod n and |k1|, |k2| near sqrt(n),
    by rounding (k, 0) to the lattice that v1 and v2 span (Guide to ECC,
    Alg. 3.74). Either half may be negative."""
    (a1, b1), (a2, b2) = v1, v2
    c1 = (2 * b2 * k + n) // (2 * n)  # round(b2 * k / n)
    c2 = (-2 * b1 * k + n) // (2 * n)  # round(-b1 * k / n)
    return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


@functools.lru_cache(maxsize=16)
def _glv_constants(p: int, a: int, n: int, g: Tuple[int, int]) -> Optional[tuple]:
    """(beta, lambda, v1, v2) for the GLV endomorphism, or None if the curve
    has none.

    beta and lambda are cube roots of unity mod the primes p and n,
    (-1 + s) / 2 for s a square root of -3. Each modulus has two; beta is
    the smaller, as in the published secp256k1 constants, and g pairs lambda
    with it by lambda * g == (beta * g_x, g_y), which fails only when n is
    not g's order. v1 and v2 are short vectors (a, b) with
    a + b * lambda = 0 mod n, from the extended Euclidean algorithm on n and
    lambda (Guide to ECC, Alg. 3.74). Cached by value like ``_comb_table``.
    """
    if a != 0 or p % 3 != 1 or n % 3 != 1:
        return None
    if not (is_probable_prime(p) and is_probable_prime(n)):
        return None  # sqrt_mod below needs prime moduli
    beta, lam = ((sqrt_mod(-3, m) - 1) * pow(2, -1, m) % m for m in (p, n))
    beta = min(beta, p - 1 - beta)  # the other root is beta^2 = -1 - beta
    lam_g = _wnaf_sum(p, a, [(_odd_multiples(p, a, g), lam)])
    if lam_g != (beta * g[0] % p, g[1]):
        lam = n - 1 - lam
        if lam_g != ((p - 1 - beta) * g[0] % p, g[1]):
            return None
    r0, r1, t0, t1 = n, lam, 0, 1  # invariant: r = t * lambda mod n
    while r1 * r1 >= n:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    # r0 is the last remainder at least sqrt(n); one more step gives r2
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    v2 = (r0, -t0) if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2 else (r2, -t2)
    return beta, lam, (r1, -t1), v2


def _wnaf(k: int) -> list[Tuple[int, int]]:
    """(position, digit) for each nonzero width-WNAF_WIDTH NAF digit of
    k >= 0, least significant first.

    Every digit is odd with |d| < 2^(WNAF_WIDTH-1), and any two positions
    are at least WNAF_WIDTH apart. Runs of zero digits are skipped in one
    shift each.
    """
    full = 1 << WNAF_WIDTH
    digits = []
    i = 0
    while k:
        z = (k & -k).bit_length() - 1
        k >>= z
        i += z
        d = k & (full - 1)
        if d >= full >> 1:
            d -= full
        digits.append((i, d))
        k = (k - d) >> WNAF_WIDTH  # k - d is a multiple of 2^WNAF_WIDTH
        i += WNAF_WIDTH
    return digits


def _inverses(values: list, p: int) -> list:
    """Each value's inverse mod p from one field inversion (Montgomery's
    batch trick); a value that is 0 mod p raises ``ValueError``."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix.pop(), -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = inv * prefix[i] % p
        inv = inv * values[i] % p
    return out


def _normalize(points: list, p: int) -> list:
    """Affine forms of Jacobian points with one batch inversion; Z == 0
    maps to None, the identity."""
    out: list = []
    for (X, Y, Z), zinv in zip(points, _inverses([Z or 1 for _, _, Z in points], p)):
        z2 = zinv * zinv % p
        out.append((X * z2 % p, Y * z2 % p * zinv % p) if Z else None)
    return out


def _jac_double(X, Y, Z, p, a):
    if Z == 0 or Y == 0:
        return (0, 1, 0)
    Y2 = Y * Y % p
    S = 4 * X * Y2 % p
    if a:
        Z2 = Z * Z % p
        M = (3 * X * X + a * Z2 * Z2) % p
    else:  # a == 0 (secp256k1): the a*Z^4 term vanishes
        M = 3 * X * X % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * (S - X3) - 8 * Y2 * Y2) % p
    return (X3, Y3, 2 * Y * Z % p)


def _jac_add_affine(X, Y, Z, xa, ya, p, a):
    # mixed addition: second operand affine (Z2 = 1)
    if Z == 0:
        return (xa, ya, 1)
    Z2 = Z * Z % p
    U2 = xa * Z2 % p
    S2 = ya * Z2 * Z % p
    if U2 == X % p:
        if S2 != Y % p:
            return (0, 1, 0)
        return _jac_double(X, Y, Z, p, a)
    H = (U2 - X) % p
    R = (S2 - Y) % p
    H2 = H * H % p
    H3 = H2 * H % p
    X3 = (R * R - H3 - 2 * X * H2) % p
    Y3 = (R * (X * H2 - X3) - Y * H3) % p
    return (X3, Y3, Z * H % p)


# ---------------------------------------------------------------------------
# fixed parameter sets
# ---------------------------------------------------------------------------

# RFC 3526 MODP groups: p is a safe prime and 2 generates the order-q
# subgroup of squares.
_RFC3526_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
_RFC3526_3072 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33"
    "A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7"
    "ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864"
    "D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2"
    "08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF",
    16,
)

_SECP256K1_P = 2**256 - 2**32 - 977
_SECP256K1_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_SECP256K1_G = (
    0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
)

_CURVE_REGISTRY = {
    "secp256k1": dict(field_prime=_SECP256K1_P, curve_a=0, curve_b=7, order=_SECP256K1_N),
    # tiny curve with a prime number of points (19), for exhaustive tests
    "toy17": dict(field_prime=17, curve_a=2, curve_b=2, order=19),
}

_TOY17_G = (5, 1)


def curve_registry() -> dict:
    return {name: dict(spec) for name, spec in _CURVE_REGISTRY.items()}


def toy_modp_subgroup() -> ModpParams:
    """p=23 fixture in subgroup mode; 2 and 3 both have order 11."""
    return ModpParams(modulus=23, subgroup_order=11, g=2, h=3, mode=ModpMode.SUBGROUP)


def toy_modp_primitive() -> ModpParams:
    """p=23 fixture with primitive roots 5 and 7 (order 22)."""
    return ModpParams(modulus=23, subgroup_order=11, g=5, h=7, mode=ModpMode.PRIMITIVE)


def toy_ec(h_label: bytes = DEFAULT_H_LABEL) -> EcParams:
    partial = EcParams(name="toy17", g=_TOY17_G, h=_TOY17_G, **_CURVE_REGISTRY["toy17"])
    return _with_second_generator(partial, h_label)


def secp256k1(h_label: bytes = DEFAULT_H_LABEL) -> EcParams:
    partial = EcParams(name="secp256k1", g=_SECP256K1_G, h=_SECP256K1_G,
                       **_CURVE_REGISTRY["secp256k1"])
    return _with_second_generator(partial, h_label)


def modp_group(bits: int, mode: ModpMode = ModpMode.SUBGROUP,
               h_label: bytes = DEFAULT_H_LABEL) -> ModpParams:
    """The fixed RFC 3526 group of the requested size (2048 or 3072 bits)."""
    try:
        p = {2048: _RFC3526_2048, 3072: _RFC3526_3072}[bits]
    except KeyError:
        raise GroupError(f"no fixed modp group of {bits} bits") from None
    q = (p - 1) // 2
    if mode is ModpMode.SUBGROUP:
        g = 2  # known square for these moduli
    else:
        g = _smallest_primitive_root(p, q)
    partial = ModpParams(modulus=p, subgroup_order=q, g=g, h=g, mode=mode)
    return _with_second_generator(partial, h_label)


# ---------------------------------------------------------------------------
# generation / derivation / validation
# ---------------------------------------------------------------------------

def _smallest_primitive_root(p: int, q: int) -> int:
    for c in range(2, p):
        if pow(c, 2, p) != 1 and pow(c, q, p) != 1:
            return c
    raise GroupError("no primitive root found")  # impossible for a safe prime


def _expand(seed_bytes: bytes, width: int) -> bytes:
    out = hashlib.sha256(seed_bytes).digest()
    while len(out) < width:
        out += hashlib.sha256(out).digest()
    return out[:width]


@functools.lru_cache(maxsize=16)
def derive_second_generator(params: GroupParams, label: bytes) -> Union[int, Tuple[int, int]]:
    """Deterministically hash a public label to a second generator.

    Counter-based rejection sampling; nobody learns the discrete log of the
    result with respect to ``g``. Memoised by value, like the comb tables:
    each ``secp256k1()`` builds its parameters afresh, and the derivation
    takes about 2 ms there (9 candidate square roots).
    """
    if not label:
        raise GroupError("label must be non-empty")
    prefix = b"comhash/h2g/" + params.backend.encode() + b"/" + label + b"/"
    for ctr in range(10000):
        cand = params.generator_candidate(prefix + ctr.to_bytes(4, "big"))
        if cand is not None:
            return cand
    raise GroupError("second-generator derivation exhausted its retries")


def _with_second_generator(partial: GroupParams, h_label: bytes) -> GroupParams:
    return replace(partial, h=derive_second_generator(partial, h_label), h_label=h_label)


def generate_group(backend: str, security_bits: int, seed=None,
                   mode: ModpMode = ModpMode.SUBGROUP,
                   h_label: bytes = DEFAULT_H_LABEL) -> GroupParams:
    """Produce group parameters of the requested size, deterministic per seed.

    modp: 5 bits returns the p=23 fixture, 6..512 bits runs a seeded
    safe-prime search, 2048/3072 return the fixed standard groups.
    ec: sizes up to 8 bits return the toy curve, 256 returns secp256k1.
    """
    if backend == "ec":
        if security_bits <= 8:
            return toy_ec(h_label)
        if security_bits == 256:
            return secp256k1(h_label)
        raise GroupError(f"unsupported ec size: {security_bits}")
    if backend != "modp":
        raise GroupError(f"unknown backend: {backend!r}")
    if security_bits == 5:
        return toy_modp_subgroup() if mode is ModpMode.SUBGROUP else toy_modp_primitive()
    if security_bits in (2048, 3072):
        return modp_group(security_bits, mode, h_label)
    if not 6 <= security_bits <= 512:
        raise GroupError(f"unsupported modp size: {security_bits}")

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    for _ in range(200000):
        q = rng.randrange(1 << (security_bits - 2), 1 << (security_bits - 1)) | 1
        p = 2 * q + 1
        if p.bit_length() != security_bits:
            continue
        if any(q % sp == 0 or p % sp == 0 for sp in _SMALL_PRIMES if sp < q):
            continue
        if is_probable_prime(q) and is_probable_prime(p):
            root = _smallest_primitive_root(p, q)
            g = root * root % p if mode is ModpMode.SUBGROUP else root
            return _with_second_generator(
                ModpParams(modulus=p, subgroup_order=q, g=g, h=g, mode=mode), h_label)
    raise GroupError("safe-prime search exhausted its attempt budget")


def validate_group(params: GroupParams, rounds: int = 64) -> list[str]:
    """Check every structural invariant; returns a list of violations (empty = ok)."""
    problems = params.structure_problems(rounds)
    if params.h_label and not problems:
        if derive_second_generator(params, params.h_label) != params.h:
            problems.append("h does not match its derivation label")
    return problems
