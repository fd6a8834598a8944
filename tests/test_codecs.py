"""Every decoder of untrusted bytes rejects malformed input with EncodingError.

Each wire format is read through ``encoding.Reader``; these tests feed every
decoder the strict prefixes of a valid encoding and the encoding plus one
byte, on a toy curve, the toy safe-prime subgroup and secp256k1. The one
payload without a length field, a sealed THRESH_DEAL, is rejected by its tag
(AuthenticationError) before it is read.
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
    """A threshold server, participant 1, and the THRESH_DEAL frame the
    server sends it."""
    rng = random.Random(seed)
    server_kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, 2, 2, 5, 6, server_kp, rng)
    part = ThresholdParticipant(params, 1, server_kp.public, rng)
    return server, part, server.deal_frame(1, part.keypair.public)


def _deal_frame(server, payload: bytes) -> Frame:
    return Frame(MsgType.THRESH_DEAL, server.session_id, 0, payload)


# ---------------------------------------------------------------------------
# THRESH_DEAL payloads: the ciphertext and the two scalars it seals
# ---------------------------------------------------------------------------

def test_receive_deal_accepts_the_server_payload(toy_subgroup):
    server, part, frame = _deal_round(toy_subgroup)
    part.receive_deal(frame)
    assert part.share_value == server.share_poly(1)
    assert part.mask_value == server.mask_poly(1)


def test_receive_deal_rejects_malformed_payloads(toy_subgroup):
    server, part, frame = _deal_round(toy_subgroup)
    width = scalar_byte_length(toy_subgroup)
    q = toy_subgroup.exponent_modulus
    keys = pke.deal_keys(toy_subgroup, server.keypair.secret, server.keypair.public,
                         part.keypair.public, server.session_id, 1, dealer=True)
    header = server.session_id + b"\x00\x01"
    values = pke.unseal(*keys, header, frame.payload)

    def sealed(plaintext):
        return pke.seal(*keys, header, plaintext)

    # the payload has no length field: its tag covers every byte, so a
    # payload cut short or extended fails the tag before anything is read
    for payload in (b"", b"\x00\x00", frame.payload[:-1], frame.payload + b"\x00"):
        with pytest.raises(AuthenticationError):
            part.receive_deal(_deal_frame(server, payload))
        assert part.share_value is None and part.mask_value is None
    bad = [
        # the second value cut short
        sealed(values[:-1]),
        # the second value equal to q
        sealed(values[:width] + q.to_bytes(width, "big")),
        # a trailing byte after both values
        sealed(values + b"\x00"),
    ]
    for payload in bad:
        with pytest.raises(EncodingError):
            part.receive_deal(_deal_frame(server, payload))
        assert part.share_value is None and part.mask_value is None


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


def test_thresh_deal_truncation_and_extension(params):
    # a sealed deal carries no length field, so its tag is what rejects it
    server, part, frame = _deal_round(params)
    for variant in _prefixes_and_extension(frame.payload):
        with pytest.raises(AuthenticationError):
            part.receive_deal(_deal_frame(server, variant))
    part.receive_deal(frame)
    assert part.share_value == server.share_poly(1)


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
