"""Every decoder of untrusted bytes rejects malformed input with EncodingError.

Each wire format is read through ``encoding.Reader``; these tests feed every
decoder the strict prefixes of a valid encoding and the encoding plus one
byte, on a toy curve, the toy safe-prime subgroup and secp256k1. The one
payload without a length field, a sealed THRESH_DEAL, is rejected by its tag
(AuthenticationError) before it is read; inside the seal, its fixed widths
reject a plaintext of any other shape.
"""

import ast
import random
from pathlib import Path

import pytest

import comhash
from comhash import (
    AuthenticationError,
    EncodingError,
    ErrorCode,
    Frame,
    MsgType,
    ParticipantKeys,
    ParticipantSession,
    Phase,
    Polynomial,
    QuotientTable,
    SealedPolynomialEvaluator,
    ServerSession,
    ThresholdParticipant,
    ThresholdServer,
    params_from_bytes,
    params_to_bytes,
    pke,
)
from comhash.encoding import scalar_byte_length


def _prefixes_and_extension(data: bytes) -> list[bytes]:
    return [data[:n] for n in range(len(data))] + [data + b"\x00"]


@pytest.fixture(scope="module", params=["toy_ec", "toy_modp_subgroup", "secp256k1"])
def params(request):
    return getattr(comhash, request.param)()


def _deal_round(params, seed=1):
    """A 2-of-2 threshold server, participant 1, and the THRESH_DEAL
    request the server sends it."""
    rng = random.Random(seed)
    server_kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, 2, 2, 5, 6, server_kp, rng)
    parts = [ThresholdParticipant(params, i, server_kp.public, rng) for i in (1, 2)]
    issued = dict(server.begin_round({p.index: p.keypair.public for p in parts}))
    return server, parts[0], issued[1]


def _request_frame(server, payload: bytes) -> Frame:
    return Frame(MsgType.THRESH_DEAL, server.session_id, 0, payload)


def _opened(params, server, part, frame):
    """The request's stream and MAC key, unsent header and plaintext of
    participant 1's request."""
    shared, = pke.dealer_shared(params, server.keypair.secret, [part.keypair.public])
    keys = pke.deal_keys(params, shared, server.keypair.public,
                         part.keypair.public, server.session_id, 1)[:2]
    header = server.session_id + b"\x00\x01"
    return keys, header, pke.unseal(*keys, header, frame.payload)


def _count_powers(params, monkeypatch):
    """Record the base of every power raised from here on."""
    bases = []
    power = type(params).power

    def counted(self, base, *args, **kwargs):
        bases.append(base)
        return power(self, base, *args, **kwargs)

    monkeypatch.setattr(type(params), "power", counted)
    return bases


def _refused(part, frame, error, bases, server_public):
    """``frame`` raises ``error`` at ``part`` with no power but opening the
    seal on the server key, and leaves the participant's values unset."""
    del bases[:]
    with pytest.raises(error):
        part.respond(frame, m=4)
    assert all(base == server_public for base in bases)
    assert (part.share_value, part.mask_value, part.session_id) == (None, None, None)


# ---------------------------------------------------------------------------
# THRESH_DEAL payloads: the ciphertext and the two values it seals
# ---------------------------------------------------------------------------

def test_receive_deal_accepts_the_server_payload(toy_subgroup):
    # the participant opens its request and answers it with a SHARE the
    # server absorbs
    server, part, frame = _deal_round(toy_subgroup)
    share = part.respond(frame, m=4)
    assert (part.share_value, part.mask_value) == server.pairs[0]
    assert part.session_id == server.session_id
    server.absorb(share)
    assert server.phase is Phase.COLLECTING


def test_receive_deal_rejects_malformed_payloads(toy_subgroup, monkeypatch):
    # plaintexts of the wrong shape, sealed under the real deal keys, raise
    # EncodingError before any power of the share
    server, part, frame = _deal_round(toy_subgroup)
    width = scalar_byte_length(toy_subgroup)
    q = toy_subgroup.exponent_modulus.to_bytes(width, "big")
    keys, header, values = _opened(toy_subgroup, server, part, frame)
    assert len(values) == 2 * width
    bad = [
        values[:width],                # one scalar
        values + values[:width],       # three scalars
        values + b"\x00",              # a trailing byte
    ] + [
        # q in each scalar slot: x_i and y_i
        values[:slot * width] + q + values[(slot + 1) * width:]
        for slot in range(2)
    ]
    bases = _count_powers(toy_subgroup, monkeypatch)
    for plaintext in bad:
        _refused(part, _request_frame(server, pke.seal(*keys, header, plaintext)),
                 EncodingError, bases, server.keypair.public)
    # the payload has no length field: its tag covers every byte, so a
    # payload cut short or extended fails the tag before anything is read
    for payload in (b"", b"\x00\x00", frame.payload[:-1], frame.payload + b"\x00"):
        _refused(part, _request_frame(server, payload), AuthenticationError, bases,
                 server.keypair.public)


# ---------------------------------------------------------------------------
# parameter sets
# ---------------------------------------------------------------------------

def test_params_non_ascii_curve_id_rejected(secp):
    data = bytearray(params_to_bytes(secp))
    data[4] = 0xFF  # first byte of the curve id, after tag, mode and length
    with pytest.raises(EncodingError):
        params_from_bytes(bytes(data))


# ---------------------------------------------------------------------------
# every strict prefix and a one-byte extension, on every codec
# ---------------------------------------------------------------------------

def test_ciphertext_truncation_and_extension(params):
    kp = pke.generate_keypair(params, random.Random(2))
    data = pke.encrypt(params, kp.public, b"nonce" * 6, random.Random(3), b"ad")
    assert pke.decrypt(params, kp.secret, data, b"ad") == b"nonce" * 6
    for variant in _prefixes_and_extension(data):
        with pytest.raises(EncodingError):
            pke.decrypt(params, kp.secret, variant, b"ad")


def test_share_payload_truncation_and_extension(params):
    kp = pke.generate_keypair(params, random.Random(4))

    def fresh_server():
        return ServerSession(params, 1, kp, random.Random(5))

    nonce_frame = fresh_server().nonce_frames()[0]
    part = ParticipantSession(params, 1, ParticipantKeys(2, 3), kp.public,
                              rng=random.Random(6))
    share = part.respond(nonce_frame)
    server = fresh_server()
    server.absorb(share)
    assert server.phase is Phase.COLLECTING
    for variant in _prefixes_and_extension(share.payload):
        server = fresh_server()
        server.absorb(Frame(MsgType.SHARE, share.session_id, 1, variant))
        assert (server.phase, server.error_code) == (Phase.FAILED, ErrorCode.MALFORMED)


def test_quotient_table_truncation_and_extension(params):
    modulus = params.exponent_modulus
    table = QuotientTable({1: 3, 2: modulus - 1, 4: 5}, modulus)
    data = table.to_bytes()
    assert QuotientTable.from_bytes(data, modulus) == table
    for variant in _prefixes_and_extension(data):
        with pytest.raises(EncodingError):
            QuotientTable.from_bytes(variant, modulus)


def test_sealed_blob_truncation_and_extension(params):
    evaluator = SealedPolynomialEvaluator(params)
    kp = pke.generate_keypair(params, random.Random(8))
    poly = Polynomial((5, 6), params.exponent_modulus)
    blob = evaluator.apply_poly(evaluator.encrypt_input(kp.public, 3, random.Random(9)), poly)
    assert evaluator.decrypt_output(kp.secret, blob) == poly(3)
    for variant in _prefixes_and_extension(blob):
        with pytest.raises(EncodingError):
            evaluator.decrypt_output(kp.secret, variant)


def test_thresh_deal_truncation_and_extension(params, monkeypatch):
    # a sealed request carries no length field, so its tag is what rejects
    # every strict prefix and a one-byte extension, before any share power
    server, part, frame = _deal_round(params)
    bases = _count_powers(params, monkeypatch)
    for variant in _prefixes_and_extension(frame.payload):
        _refused(part, _request_frame(server, variant), AuthenticationError, bases,
                 server.keypair.public)
    monkeypatch.undo()
    server.absorb(part.respond(frame, m=4))
    assert server.phase is Phase.COLLECTING


def test_thresh_nonce_truncation_and_extension(params, monkeypatch):
    # inside the seal: the plaintext cut short, extended by one byte, or a
    # coefficient equal to q is refused before any share power, and the
    # participant still answers the real request (the name is the retired
    # THRESH_NONCE frame's, whose coefficient the request now carries)
    server, part, frame = _deal_round(params)
    width = scalar_byte_length(params)
    q = params.exponent_modulus.to_bytes(width, "big")
    keys, header, values = _opened(params, server, part, frame)
    bases = _count_powers(params, monkeypatch)
    for plaintext in (values[:-1], values + b"\x00",
                      values[:2 * width] + q + values[3 * width:]):
        _refused(part, _request_frame(server, pke.seal(*keys, header, plaintext)),
                 EncodingError, bases, server.keypair.public)
    monkeypatch.undo()
    server.absorb(part.respond(frame, m=4))
    assert server.phase is Phase.COLLECTING


def test_threshold_share_truncation_and_extension(params):
    # a threshold SHARE is the element's bytes and one tag: every strict
    # prefix and a one-byte extension ends MALFORMED, as a basic share does
    server, part, frame = _deal_round(params)
    share = part.respond(frame, m=4)
    for variant in _prefixes_and_extension(share.payload):
        fresh, _, _ = _deal_round(params)
        fresh.absorb(Frame(MsgType.SHARE, share.session_id, 1, variant))
        assert (fresh.phase, fresh.error_code) == (Phase.FAILED, ErrorCode.MALFORMED)
    server.absorb(share)
    assert server.phase is Phase.COLLECTING


def test_params_truncation_and_extension(params):
    data = params_to_bytes(params)
    assert params_from_bytes(data) == params
    for variant in _prefixes_and_extension(data):
        with pytest.raises(EncodingError):
            params_from_bytes(variant)


# ---------------------------------------------------------------------------
# one codec: no module but frames unpacks bytes with struct
# ---------------------------------------------------------------------------

def test_only_frames_imports_struct():
    offenders = []
    for path in sorted(Path(comhash.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "struct" in names and path.name != "frames.py":
                offenders.append(path.name)
    assert offenders == []
