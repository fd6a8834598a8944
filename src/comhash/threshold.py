"""k-of-n threshold variant of the hashing session.

The server picks the k-subset, then deals each chosen participant i a pair
(x_i, y_i): k - 1 uniform pairs, and to the last (s0, t0) minus their sum
over the exponent field. Each answers with the basic share g^x_i * h^y_i,
so the digest is ``g^(m + s0) * h^(t0)`` for every k-subset.

Trust model: the server is the dealer. It knows s0 and t0, so it can compute
any digest by itself, and hiding the pairs from it would protect nothing.
Each chosen participant i gets one request, x_i | y_i, sealed under keys
that only the server and i derive, fresh for this session and bound to i
(``pke.deal_keys``), which the server's request table keeps in place of a
nonce; its SHARE (``protocol.share_frame``) carries a receipt tag under i's
own key from them over the element's bytes. So only the server can deal,
only i learns its pair, and only i can answer: a request or receipt made by
anyone else, for another session or index, or altered fails its tag, a
receipt's at ``finalize``, in index order, as the basic round opens its
receipts: both rounds report through ``_faults``. No frame carries s0 or
t0, and no pair shows which others were chosen.

The dealer checks the members, the converse of Feldman's verifiable secret
sharing: the shares of the chosen participants other than the message owner
must combine to g^(sum x_i) * h^(sum y_i), a fault ``_faults`` yields after
the receipts'. The owner's share is not checked, since any element is g^m'
times its expected part for some m'. The round is played over ``net.route``
by the basic round's driver, and a failure ends it FAILED with a code and
the participant at fault.

Shamir's polynomials and Lagrange coefficients, and the point-hiding
quotient table, blinded multiplication and sealed evaluator below are kept
as tested primitives; the round does not use them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterator, Optional, Sequence

from .encoding import Reader, element_from_bytes, prefixed, scalar_from_bytes, scalar_to_bytes
from .errors import AuthenticationError, EncodingError, ProtocolStateError
from .frames import ErrorCode, Frame, MsgType, SERVER_ID, SESSION_ID_LENGTH, encode_frame
from .groups import GroupParams, scalar_inv
from .hashing import ParticipantKeys, cvhp
from .protocol import ServerSession, share_frame
from . import net, pke


# ---------------------------------------------------------------------------
# polynomials and recombination coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Coefficients c0..c_{k-1} over GF(modulus); c0 is the shared secret."""

    coefficients: tuple
    modulus: int

    @classmethod
    def random(cls, secret: int, degree: int, modulus: int,
               rng: random.Random) -> "Polynomial":
        coeffs = (secret % modulus,) + tuple(rng.randrange(modulus)
                                             for _ in range(degree))
        return cls(coeffs, modulus)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):  # Horner
            acc = (acc * x + c) % self.modulus
        return acc


def poly_eval(poly: Polynomial, x: int) -> int:
    return poly(x)


def _lagrange(points: Sequence[int], modulus: int, at: Sequence[int]) -> list[int]:
    """l_i = prod x_j / (x_j - x_i) over the points x_j != x_i, for each x_i in ``at``."""
    if len({x % modulus for x in points}) != len(points):
        raise ValueError("duplicate evaluation points")
    coeffs = []
    for xi in at:
        num, den = 1, 1
        for xj in points:
            if xj != xi:  # distinct mod modulus, so only x_i itself is skipped
                num = num * xj % modulus
                den = den * (xj - xi) % modulus
        coeffs.append(num * scalar_inv(den, modulus) % modulus)
    return coeffs


def lagrange_at_zero(points: Sequence[int], modulus: int) -> list[int]:
    """Coefficients l_i with sum(f(x_i) * l_i) = f(0) for deg(f) < len(points)."""
    if not points:
        raise ValueError("need at least one point")
    if any(x % modulus == 0 for x in points):
        raise ValueError("zero evaluation point would reveal the secret")
    return _lagrange(points, modulus, points)


@dataclass(frozen=True)
class QuotientTable:
    """Server-held ratios x_{i+1}/x_i for consecutive participants 1..n-1.

    These let the server form any x_j/x_i, and from those the recombination
    coefficients, without ever seeing an x value.
    """

    quotients: dict  # i -> x_{i+1}/x_i
    modulus: int

    def __post_init__(self):
        if any(v % self.modulus == 0 for v in self.quotients.values()):
            raise ValueError("zero quotient")

    def to_bytes(self) -> bytes:
        width = (self.modulus.bit_length() + 7) // 8
        return len(self.quotients).to_bytes(4, "big") + b"".join(
            i.to_bytes(2, "big") + self.quotients[i].to_bytes(width, "big")
            for i in sorted(self.quotients))

    @classmethod
    def from_bytes(cls, data: bytes, modulus: int) -> "QuotientTable":
        width = (modulus.bit_length() + 7) // 8
        rd = Reader(data)
        quotients = {}
        for _ in range(rd.uint(4)):
            i, value = rd.uint(2), rd.uint(width)
            if value >= modulus:
                raise EncodingError("quotient exceeds modulus")
            if value == 0:
                raise EncodingError("zero quotient")
            if i in quotients:
                raise EncodingError(f"repeated quotient index {i}")
            quotients[i] = value
        rd.done()
        return cls(quotients, modulus)


def _ratios(table: QuotientTable, lo: int, hi: int) -> list[int]:
    """x_j / x_lo for j = lo..hi, one walk over the stored quotients."""
    ratios = [1]
    for k in range(lo, hi):
        if k not in table.quotients:
            raise KeyError(f"quotient {k + 1}/{k} not in table")
        ratios.append(ratios[-1] * table.quotients[k] % table.modulus)
    return ratios


def ratio_from_quotients(table: QuotientTable, i: int, j: int) -> int:
    """x_j / x_i from the stored consecutive quotients."""
    if i > j:
        return scalar_inv(ratio_from_quotients(table, j, i), table.modulus)
    return _ratios(table, i, j)[-1]


def lagrange_from_quotients(table: QuotientTable, subset: Sequence[int],
                            i: int) -> int:
    """l_i for the given subset, computed only from pairwise ratios.

    Lagrange coefficients at zero are scale-invariant: with lo = min(subset)
    and r_j = x_j/x_lo, each factor x_j/(x_j - x_i) equals r_j/(r_j - r_i).
    One walk over the stored quotients from lo to max(subset) gives every
    r_j, and ``lagrange_at_zero``'s arithmetic on the ratios gives l_i in
    O(n) multiplications and one inversion; no raw x value is touched.
    """
    if i not in subset:
        raise ValueError("index not in subset")
    lo = min(subset)
    ratios = _ratios(table, lo, max(subset))
    points = [ratios[j - lo] for j in subset]
    return _lagrange(points, table.modulus, [ratios[i - lo]])[0]


# ---------------------------------------------------------------------------
# blinded two-party multiplication
# ---------------------------------------------------------------------------

class MultiplyRole(Enum):
    P1 = "p1"
    P2 = "p2"
    SERVER = "server"


# which global step (1..6) each role acts on
_ROLE_STEPS = {MultiplyRole.P1: (1, 4), MultiplyRole.P2: (2, 5),
               MultiplyRole.SERVER: (3, 6)}

MULTIPLY_FRAME_SEQUENCE = (
    MsgType.MUL_BLINDED_X, MsgType.MUL_BLINDED_XY, MsgType.MUL_TRIPLE_BLIND,
    MsgType.MUL_PEEL_ONE, MsgType.MUL_PEEL_TWO, MsgType.MUL_PRODUCT,
)


@dataclass
class MultiplySession:
    """One party's half of Multiply(x, y); the server ends up with x*y and
    every value in flight is masked by a factor its receiver does not know."""

    role: MultiplyRole
    modulus: int
    blinding: int
    value: Optional[int] = None  # x for P1, y for P2
    steps_taken: int = 0

    def __post_init__(self):
        if self.blinding % self.modulus == 0:
            raise ValueError("blinding factor must be nonzero")
        if self.role is not MultiplyRole.SERVER:
            if self.value is None or self.value % self.modulus == 0:
                raise ValueError("party input must be a nonzero scalar")


def multiply_step(session: MultiplySession, incoming: Optional[int]) -> int:
    """Advance one step; returns the value this party sends (or, on the
    server's last step, the recovered product x*y)."""
    if session.steps_taken >= 2:
        raise ProtocolStateError("multiplication already finished for this party")
    step = _ROLE_STEPS[session.role][session.steps_taken]
    mod = session.modulus
    if step == 1:
        if incoming is not None:
            raise ProtocolStateError("first step takes no incoming value")
        out = session.blinding * session.value % mod
    else:
        if incoming is None or incoming % mod == 0:
            raise ValueError("incoming scalar must be nonzero")
        if step == 2:
            out = incoming * session.blinding % mod * session.value % mod
        elif step == 3:
            out = incoming * session.blinding % mod
        else:  # steps 4-6 peel this party's own blinding back off
            out = incoming * scalar_inv(session.blinding, mod) % mod
    session.steps_taken += 1
    return out


def run_multiply(x: int, y: int, modulus: int, rng: random.Random) -> tuple:
    """Drive a full multiplication; returns (product, transcript frames)."""
    def blind():
        b = 0
        while b == 0:
            b = rng.randrange(modulus)
        return b

    p1 = MultiplySession(MultiplyRole.P1, modulus, blind(), x)
    p2 = MultiplySession(MultiplyRole.P2, modulus, blind(), y)
    server = MultiplySession(MultiplyRole.SERVER, modulus, blind())
    sid = rng.randbytes(SESSION_ID_LENGTH)
    width = (modulus.bit_length() + 7) // 8

    order = [p1, p2, server, p1, p2, server]
    senders = [1, 2, SERVER_ID, 1, 2, SERVER_ID]
    value: Optional[int] = None
    frames = []
    for machine, msg_type, sender in zip(order, MULTIPLY_FRAME_SEQUENCE, senders):
        value = multiply_step(machine, value)
        frames.append(Frame(msg_type, sid, sender, value.to_bytes(width, "big")))
    return value, frames


# ---------------------------------------------------------------------------
# homomorphic delivery of polynomial values
# ---------------------------------------------------------------------------

class SealedPolynomialEvaluator:
    """Stand-in for a homomorphic scheme: inputs are genuine public-key
    ciphertexts under the participant's own key, so the server-side
    ``apply_poly`` cannot read them; it attaches the polynomial to the sealed
    blob and the participant finishes the evaluation after decrypting.

    Only the input is sealed: ``apply_poly``'s output carries every
    coefficient of the polynomial in the clear, the secret c0 included, so
    anyone who reads it learns the polynomial.
    """

    def __init__(self, params: GroupParams, max_degree: int = 64):
        self.params = params
        self.max_degree = max_degree

    def encrypt_input(self, public, x: int, rng=None) -> bytes:
        return pke.encrypt(self.params, public, scalar_to_bytes(self.params, x), rng)

    def apply_poly(self, blob: bytes, poly: Polynomial) -> bytes:
        if poly.degree > self.max_degree:
            raise ValueError(f"degree {poly.degree} exceeds evaluator limit "
                             f"{self.max_degree}")
        return prefixed(blob, 4) + len(poly.coefficients).to_bytes(2, "big") + b"".join(
            scalar_to_bytes(self.params, c) for c in poly.coefficients)

    def decrypt_output(self, secret: int, blob: bytes) -> int:
        rd = Reader(blob)
        ct = rd.field(4)
        coeffs = tuple(rd.scalar(self.params) for _ in range(rd.uint(2)))
        rd.done()
        x = scalar_from_bytes(self.params, pke.decrypt(self.params, secret, ct))
        return Polynomial(coeffs, self.params.exponent_modulus)(x)


# ---------------------------------------------------------------------------
# threshold session
# ---------------------------------------------------------------------------

def _require_prime_order(params: GroupParams) -> None:
    if not params.prime_order:
        # keeps the deal keys' Diffie-Hellman in prime order: with an
        # order-2q generator, g^a and g^b show whether g^(ab) is a square
        raise ValueError("threshold sessions require subgroup-mode modp or ec parameters")


def _deal_context(session_id: bytes, index: int) -> bytes:
    # a request or receipt opens only for the session and the index it was sealed for
    return session_id + index.to_bytes(2, "big")


class ThresholdServer(ServerSession):
    """Dealer plus collector: holds the k ``pairs`` it deals in subset order
    (k - 1 uniform ones drawn before any subset is chosen, then (s0, t0)
    minus their sum), seals each member of a chosen subset its request, and
    its ``_faults`` checks the members' shares against what it dealt after
    their receipt tags, in two fixed powers. Its ``begin_round``,
    its only issuing step, fills the request table with each member's deal
    keys (stream, receipt MAC), under which its receipt opens, never a nonce."""

    def __init__(self, params: GroupParams, n: int, k: int, s0: int, t0: int,
                 keypair: pke.KeyPair, rng: random.Random):
        _require_prime_order(params)
        if not 1 < k <= n:
            raise ValueError("threshold k must satisfy 1 < k <= n")
        mod = params.exponent_modulus
        self.k = k
        drawn = [(rng.randrange(mod), rng.randrange(mod)) for _ in range(k - 1)]
        x, y = (sum(v) for v in zip(*drawn))
        self.pairs = drawn + [((s0 - x) % mod, (t0 - y) % mod)]
        self.subset: Optional[tuple] = None
        self.owner: Optional[int] = None
        self._dealt: dict[int, tuple] = {}
        super().__init__(params, n, keypair, rng)

    def begin_round(self, publics: dict, subset: Optional[Sequence[int]] = None,
                    owner: Optional[int] = None) -> list[tuple]:
        """Pick (or accept) the k-subset and the message owner, by default its
        lowest index; returns [(i, frame), ...], one THRESH_DEAL per chosen i
        in subset order: its pair x_i | y_i sealed under the deal keys of the
        server's key and ``publics[i]``. Before any power or seal, and
        leaving the round unbegun: a subset or owner that does not fit raises
        ``ValueError``, then a chosen member's missing key ``KeyError``, then
        a key that is not a group element other than the identity
        ``GroupError``."""
        if self.requests:
            raise ProtocolStateError("requests already issued")
        if subset is None:  # drawn around a named owner
            named = [] if owner is None else [owner]
            pool = [i for i in range(1, self.n + 1) if i not in named]
            subset = self._rng.sample(pool, self.k - len(named)) + named
        subset = tuple(sorted(subset))
        if len(subset) != self.k or len(set(subset)) != self.k:
            raise ValueError(f"subset must contain exactly k={self.k} distinct members")
        if not all(1 <= i <= self.n for i in subset):
            raise ValueError("subset member out of range")
        owner = subset[0] if owner is None else owner
        if owner not in subset:
            raise ValueError("message owner must belong to the chosen subset")
        keys = [publics[i] for i in subset]
        shared = pke.dealer_shared(self.params, self.keypair.secret, keys)
        out, requests = [], {}
        for i, key, dh, pair in zip(subset, keys, shared, self.pairs):
            stream, request_mac, receipt_mac = pke.deal_keys(
                self.params, dh, self.keypair.public, key, self.session_id, i)
            values = b"".join(scalar_to_bytes(self.params, v) for v in pair)
            sealed = pke.seal(stream, request_mac, _deal_context(self.session_id, i), values)
            out.append((i, Frame(MsgType.THRESH_DEAL, self.session_id, SERVER_ID, sealed)))
            requests[i] = (stream, receipt_mac)
        self.subset, self.owner, self.requests = subset, owner, requests
        self._dealt = {i: pair for i, pair in zip(subset, self.pairs) if i != owner}
        return out

    def _read_share(self, element_bytes: bytes, receipt: bytes) -> tuple:
        """The share element, decoded plainly: pairs are dealt fresh, so a
        share never repeats and would only evict the memo's member shares;
        then ``receipt``, which must be exactly one tag."""
        element = element_from_bytes(self.params, element_bytes)
        if len(receipt) != pke.TAG_LENGTH:
            raise EncodingError("a threshold receipt is one tag")
        return element, receipt

    def _faults(self, indices: list, digest) -> Iterator[tuple[ErrorCode, int]]:
        """DECRYPT_FAIL for each bad receipt tag in index order, i's under its
        receipt key from ``requests`` over session id | u16 i | element bytes;
        then the dealer check: ``digest`` must be the owner's share times
        g^(sum x_i) * h^(sum y_i) over the other members, or SHARE_MISMATCH
        names the first member whose share is not its dealt one."""
        for index in indices:
            _, element_bytes, tag = self.shares[index]
            try:
                pke.unseal(*self.requests[index],
                           _deal_context(self.session_id, index) + element_bytes, tag)
            except AuthenticationError:
                yield ErrorCode.DECRYPT_FAIL, index
        x, y = (sum(v) % self.params.exponent_modulus for v in zip(*self._dealt.values()))
        if digest != self.params.combine(cvhp(self.params, x, y), self.shares[self.owner][0]):
            yield ErrorCode.SHARE_MISMATCH, next(
                i for i, dealt in sorted(self._dealt.items())
                if self.shares[i][0] != cvhp(self.params, *dealt))


class ThresholdParticipant:
    """Participant ``index``: opens its request and answers it with the
    basic share of the pair it was dealt."""

    def __init__(self, params: GroupParams, index: int, server_public,
                 rng: Optional[random.Random] = None):
        _require_prime_order(params)
        if index < 1:
            raise ValueError("participant indices are 1-based")
        self.params = params
        self.index = index
        self.server_public = server_public
        self.rng = rng if rng is not None else random.SystemRandom()
        self.keypair = pke.generate_keypair(params, self.rng)
        self.share_value: Optional[int] = None
        self.mask_value: Optional[int] = None
        self.session_id: Optional[bytes] = None

    def respond(self, frame: Frame, m: Optional[int] = None) -> Frame:
        """Open a THRESH_DEAL and answer it with a SHARE: the element's bytes,
        then the receipt tag over them. A request sealed for another session
        or index, by anyone without the server's secret, or altered in any
        byte fails its tag with ``AuthenticationError``; a plaintext other
        than two scalars raises ``EncodingError``; both before any power of
        the share."""
        if frame.msg_type is not MsgType.THRESH_DEAL:
            raise ProtocolStateError("expected a THRESH_DEAL frame")
        shared = pke.member_shared(self.params, self.keypair.secret, self.server_public)
        stream, request_mac, receipt_mac = pke.deal_keys(
            self.params, shared, self.server_public, self.keypair.public,
            frame.session_id, self.index)
        context = _deal_context(frame.session_id, self.index)
        rd = Reader(pke.unseal(stream, request_mac, context, frame.payload))
        keys = ParticipantKeys(rd.scalar(self.params), rd.scalar(self.params))
        rd.done()
        self.session_id = frame.session_id
        self.share_value, self.mask_value = keys.x, keys.y
        return share_frame(
            self.params, keys, m, self.session_id, self.index,
            lambda element: pke.seal(stream, receipt_mac, context + element, b""))


def run_threshold_session(params: GroupParams, s0: int, t0: int, k: int, n: int,
                          m: int, rng: random.Random,
                          subset: Optional[Sequence[int]] = None,
                          owner: Optional[int] = None) -> net.SessionOutcome:
    """Play a full k-of-n round over ``net.route``: the k THRESH_DEAL frames
    are the pending deliveries, and the owner gets the closing frame.

    A DONE round stores g^(m + s0) * h^(t0) for every k-subset. The message
    owner must sit in the subset; by default the lowest chosen index plays
    that role. Nothing raises after dealing: a failed round ends FAILED with
    a code, and ``server.culprit`` names the participant at fault.
    """
    server_keypair = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, n, k, s0, t0, server_keypair, rng)
    participants = [ThresholdParticipant(params, i, server_keypair.public, rng)
                    for i in range(1, n + 1)]
    issued = server.begin_round({p.index: p.keypair.public for p in participants},
                                subset, owner)
    handlers = {p.index: net.answerer(partial(
        p.respond, m=m if p.index == server.owner else None)) for p in participants}
    handlers[SERVER_ID] = net.frame_handler(partial(net.collect, server))
    deals = [net.Delivery(SERVER_ID, i, encode_frame(frame)) for i, frame in issued]
    return net.play(handlers, deals, rng.randrange(2**63), None, lambda: server, [server.owner])
