"""Every decoder of untrusted bytes rejects malformed input with EncodingError.

Each wire format is read through ``encoding.Reader``; these tests feed every
decoder the strict prefixes of a valid encoding and the encoding plus one
byte, on a toy curve, the toy safe-prime subgroup and secp256k1.
"""

import ast
import random
from pathlib import Path

import pytest

import comhash
from comhash import (
    EncodingError,
    ErrorCode,
    Frame,
    MsgType,
    ParticipantKeys,
    ParticipantSession,
    Phase,
    QuotientTable,
    ServerSession,
    ThresholdParticipant,
    ThresholdServer,
    params_from_bytes,
    params_to_bytes,
    pke,
)
from comhash.encoding import Reader, prefixed, scalar_byte_length


def _prefixes_and_extension(data: bytes) -> list[bytes]:
    return [data[:n] for n in range(len(data))] + [data + b"\x00"]


@pytest.fixture(scope="module", params=["toy_ec", "toy_modp_subgroup", "secp256k1"])
def params(request):
    return getattr(comhash, request.param)()


def _eval_round(params, seed=1):
    """A threshold server, one participant with x = 3, and the THRESH_EVAL
    frame the server sends it."""
    rng = random.Random(seed)
    server_kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, 2, 2, 5, 6, server_kp, rng)
    part = ThresholdParticipant(params, 1, 3, server_kp.public, rng)
    frame = server.eval_frame(part.input_frame(server.evaluator, server.session_id))
    return server, part, frame


def _eval_frame(server, payload: bytes) -> Frame:
    return Frame(MsgType.THRESH_EVAL, server.session_id, 0, payload)


# ---------------------------------------------------------------------------
# THRESH_EVAL payloads that used to escape as struct.error or parse silently
# ---------------------------------------------------------------------------

def test_receive_eval_accepts_the_server_payload(toy_subgroup):
    server, part, frame = _eval_round(toy_subgroup)
    part.receive_eval(frame, server.evaluator)
    assert part.share_value == server.share_poly(3)
    assert part.mask_value == server.mask_poly(3)


def test_receive_eval_rejects_malformed_payloads(toy_subgroup):
    server, part, frame = _eval_round(toy_subgroup)
    rd = Reader(frame.payload)
    share_blob, mask_blob = rd.field(4), rd.field(4)
    width = scalar_byte_length(toy_subgroup)
    q = toy_subgroup.exponent_modulus
    bad = [
        b"",
        b"\x00\x00",
        (5).to_bytes(4, "big") + b"abc",
        # the last coefficient cut short
        prefixed(share_blob, 4) + prefixed(mask_blob[:-1], 4),
        # the last coefficient equal to q
        prefixed(share_blob, 4) + prefixed(mask_blob[:-width] + q.to_bytes(width, "big"), 4),
        frame.payload + b"\x00",
    ]
    for payload in bad:
        with pytest.raises(EncodingError):
            part.receive_eval(_eval_frame(server, payload), server.evaluator)
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
    server, part, frame = _eval_round(params)
    evaluator = server.evaluator
    blob = Reader(frame.payload).field(4)
    assert evaluator.decrypt_output(part.keypair.secret, blob) == server.share_poly(3)
    for variant in _prefixes_and_extension(blob):
        with pytest.raises(EncodingError):
            evaluator.decrypt_output(part.keypair.secret, variant)


def test_thresh_eval_truncation_and_extension(params):
    server, part, frame = _eval_round(params)
    for variant in _prefixes_and_extension(frame.payload):
        with pytest.raises(EncodingError):
            part.receive_eval(_eval_frame(server, variant), server.evaluator)
    part.receive_eval(frame, server.evaluator)
    assert part.share_value == server.share_poly(3)


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
