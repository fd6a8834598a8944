"""k-of-n threshold variant of the hashing session.

Two secrets (s0, t0) are dealt with Shamir sharing over the exponent field
at the public points x_i = i. Each chosen participant contributes
``g^(f(i)*l_i) * h^(t(i)*l_i)`` where l_i is its recombination coefficient
for the chosen subset, so the combined digest collapses to
``g^(m + s0) * h^(t0)`` for every k-subset.

Trust model: the server is the dealer. It knows s0 and t0, so it can compute
any digest by itself, and hiding the points from it would protect nothing.
Participant i learns only f(i) and t(i), sealed under keys that only the
holder of the server's secret and participant i can derive
(``pke.deal_keys``), so only the server can deal: a deal sealed by anyone
else, or under another server key, fails its tag. No frame of a round
carries s0 or t0. Each receipt covers the coefficient the server sent with
its nonce, so a coefficient altered in transit fails the receipt.

The quotient table, blinded multiplication and sealed evaluator below hide
evaluation points from the server; they are kept as tested primitives and
the round does not use them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .encoding import Reader, prefixed, scalar_from_bytes, scalar_to_bytes
from .errors import EncodingError, ProtocolStateError
from .frames import Frame, MsgType, NONCE_LENGTH, SERVER_ID, SESSION_ID_LENGTH
from .groups import GroupParams, scalar_inv
from .hashing import ParticipantKeys, member_share, owner_share
from .protocol import Phase, ServerSession, share_payload
from . import pke


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


def run_multiply(x: int, y: int, modulus: int, rng: random.Random,
                 session_id: Optional[bytes] = None,
                 party_ids: tuple = (1, 2)) -> tuple:
    """Drive a full multiplication; returns (product, transcript frames)."""
    def blind():
        b = 0
        while b == 0:
            b = rng.randrange(modulus)
        return b

    p1 = MultiplySession(MultiplyRole.P1, modulus, blind(), x)
    p2 = MultiplySession(MultiplyRole.P2, modulus, blind(), y)
    server = MultiplySession(MultiplyRole.SERVER, modulus, blind())
    sid = session_id if session_id is not None else rng.randbytes(SESSION_ID_LENGTH)
    width = (modulus.bit_length() + 7) // 8

    order = [p1, p2, server, p1, p2, server]
    senders = [party_ids[0], party_ids[1], SERVER_ID,
               party_ids[0], party_ids[1], SERVER_ID]
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
        # order-2q generators make exponent sums sign-ambiguous, which breaks
        # the recombination identity; only prime-order settings are sound
        raise ValueError("threshold sessions require subgroup-mode modp or ec parameters")


def distinct_nonzero_scalars(modulus: int, count: int, rng: random.Random) -> list[int]:
    """Pairwise-distinct nonzero scalars; rejection keeps it exact even when
    the modulus is tiny."""
    if count >= modulus:
        raise ValueError("not enough nonzero field elements")
    out: list[int] = []
    seen = set()
    while len(out) < count:
        v = rng.randrange(1, modulus)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _deal_context(session_id: bytes, index: int) -> bytes:
    # a deal opens only for the session and the index it was sealed for
    return session_id + index.to_bytes(2, "big")


class ThresholdServer(ServerSession):
    """Dealer plus collector: holds the two polynomials, deals each
    participant its values, issues each member of a chosen subset its nonce
    and coefficient, and verifies receipts exactly like the basic server."""

    def __init__(self, params: GroupParams, n: int, k: int, s0: int, t0: int,
                 keypair: pke.KeyPair, rng: random.Random):
        _require_prime_order(params)
        if not 1 < k <= n:
            raise ValueError("threshold k must satisfy 1 < k <= n")
        mod = params.exponent_modulus
        if n >= mod:
            raise ValueError("the points 1..n must be distinct nonzero scalars")
        self.k = k
        self.share_poly = Polynomial.random(s0, k - 1, mod, rng)
        self.mask_poly = Polynomial.random(t0, k - 1, mod, rng)
        self.subset: Optional[tuple] = None
        self.coefficients: dict[int, bytes] = {}  # as sent, per chosen index
        self._rng = rng
        super().__init__(params, n, keypair, rng)

    def deal_frame(self, index: int, public) -> Frame:
        """f(index) | t(index), sealed under the keys the server's key and
        participant ``index``'s key ``public`` derive for this session; a
        ``public`` that is not a group element other than the identity
        raises ``GroupError``."""
        if not 1 <= index <= self.n:
            raise ValueError("participant index out of range")
        keys = pke.deal_keys(self.params, self.keypair.secret, self.keypair.public, public,
                             self.session_id, index, dealer=True)
        values = b"".join(scalar_to_bytes(self.params, poly(index))
                          for poly in (self.share_poly, self.mask_poly))
        sealed = pke.seal(*keys, _deal_context(self.session_id, index), values)
        return Frame(MsgType.THRESH_DEAL, self.session_id, SERVER_ID, sealed)

    def begin_round(self, subset: Optional[Sequence[int]] = None) -> list[tuple]:
        """Pick (or accept) the k-subset; returns [(participant, frame), ...],
        one THRESH_NONCE per chosen participant: nonce | coefficient."""
        if self.subset is not None:
            raise ProtocolStateError("round already begun")
        if subset is None:
            subset = self._rng.sample(range(1, self.n + 1), self.k)
        subset = tuple(sorted(subset))
        if len(subset) != self.k or len(set(subset)) != self.k:
            raise ValueError(f"subset must contain exactly k={self.k} distinct members")
        if not all(1 <= i <= self.n for i in subset):
            raise ValueError("subset member out of range")
        coeffs = lagrange_at_zero(subset, self.params.exponent_modulus)
        self.coefficients = {i: scalar_to_bytes(self.params, c)
                             for i, c in zip(subset, coeffs)}
        out = [(i, Frame(MsgType.THRESH_NONCE, self.session_id, SERVER_ID,
                         self.nonces[i] + self.coefficients[i]))
               for i in subset]
        # only the chosen participants' nonces stay live
        self.subset = subset
        self.nonces = {i: self.nonces[i] for i in subset}
        return out

    def receipt_context(self, index: int) -> bytes:
        if self.subset is None:
            raise ProtocolStateError("round not begun")
        return self.coefficients[index]


class ThresholdParticipant:
    """Participant ``index``: opens its dealt values f(index) and t(index),
    then contributes coefficient-scaled shares on demand."""

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

    def receive_deal(self, frame: Frame) -> None:
        """Open a THRESH_DEAL. A deal sealed for another session or index,
        by anyone without the server's secret, or altered in any byte fails
        its tag with ``AuthenticationError``; its plaintext must be exactly
        two scalars."""
        if frame.msg_type is not MsgType.THRESH_DEAL:
            raise ProtocolStateError("expected a THRESH_DEAL frame")
        keys = pke.deal_keys(self.params, self.keypair.secret, self.server_public,
                             self.keypair.public, frame.session_id, self.index, dealer=False)
        rd = Reader(pke.unseal(*keys, _deal_context(frame.session_id, self.index),
                               frame.payload))
        values = rd.scalar(self.params), rd.scalar(self.params)
        rd.done()
        self.session_id = frame.session_id
        self.share_value, self.mask_value = values

    def respond(self, frame: Frame, m: Optional[int] = None) -> Frame:
        """Answer a THRESH_NONCE, nonce | one canonical scalar, with a SHARE;
        any other payload raises ``EncodingError`` before any power."""
        if self.share_value is None:
            raise ProtocolStateError("polynomial values not received yet")
        if frame.msg_type is not MsgType.THRESH_NONCE:
            raise ProtocolStateError("expected a THRESH_NONCE frame")
        if frame.session_id != self.session_id:
            raise ProtocolStateError("frame belongs to a different session")
        rd = Reader(frame.payload)
        nonce = rd.take(NONCE_LENGTH)
        coeff = rd.scalar(self.params)
        rd.done()
        mod = self.params.exponent_modulus
        keys = ParticipantKeys(self.share_value * coeff % mod,
                               self.mask_value * coeff % mod)
        if m is None:
            element = member_share(self.params, keys)
        else:
            element = owner_share(self.params, keys, m)
        # the receipt covers the coefficient as received, so the server's
        # check fails if it differs from the one sent
        payload = share_payload(self.params, element, self.server_public, nonce,
                                self.rng, frame.payload[NONCE_LENGTH:])
        return Frame(MsgType.SHARE, self.session_id, self.index, payload)


@dataclass
class ThresholdRun:
    digest: object
    server: ThresholdServer
    transcript: list = field(default_factory=list)


def run_threshold_session(params: GroupParams, s0: int, t0: int, k: int, n: int,
                          m: int, rng: random.Random,
                          subset: Optional[Sequence[int]] = None,
                          owner: Optional[int] = None) -> ThresholdRun:
    """Drive a full k-of-n round in process and return the stored digest.

    The digest equals g^(m + s0) * h^(t0) no matter which k-subset serves the
    request. The message owner must sit in the subset; by default the lowest
    chosen index plays that role.
    """
    server_keypair = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, n, k, s0, t0, server_keypair, rng)
    transcript: list[Frame] = []
    participants = [ThresholdParticipant(params, i, server_keypair.public, rng)
                    for i in range(1, n + 1)]
    for part in participants:
        deal = server.deal_frame(part.index, part.keypair.public)
        transcript.append(deal)
        part.receive_deal(deal)

    # request round for the chosen subset
    issued = server.begin_round(subset)
    transcript.extend(frame for _, frame in issued)
    chosen = server.subset
    owner_index = min(chosen) if owner is None else owner
    if owner_index not in chosen:
        raise ValueError("message owner must belong to the chosen subset")
    for index, frame in issued:
        share = participants[index - 1].respond(frame, m if index == owner_index else None)
        transcript.append(share)
        server.absorb(share)
        if server.phase is Phase.FAILED:
            raise ProtocolStateError(
                f"threshold session failed: {server.error_code.name}")
    digest = server.finalize()
    transcript.append(server.result_frame())
    return ThresholdRun(digest=digest, server=server, transcript=transcript)
