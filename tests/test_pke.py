import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comhash import AuthenticationError, EncodingError, GroupError
from comhash import element_to_bytes, pke
from comhash.encoding import Reader, prefixed


def test_keypair_public_is_g_to_secret(toy_subgroup):
    kp = pke.KeyPair(secret=4, public=toy_subgroup.power(toy_subgroup.g, 4))
    assert kp.public == 16  # 2^4 mod 23
    generated = pke.generate_keypair(toy_subgroup, rng=random.Random(1))
    assert generated.public == toy_subgroup.power(toy_subgroup.g, generated.secret)


def test_distinct_seeds_distinct_secrets(secp):
    a = pke.generate_keypair(secp, rng=random.Random(1))
    b = pke.generate_keypair(secp, rng=random.Random(2))
    assert a.secret != b.secret


def test_secret_never_zero(toy_subgroup):
    # exponent modulus 11: small enough that zero draws actually happen
    for seed in range(200):
        kp = pke.generate_keypair(toy_subgroup, rng=random.Random(seed))
        assert 1 <= kp.secret < 11
        assert kp.public != toy_subgroup.identity


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_primitive", "toy_curve", "secp"])
def test_round_trip_nonce(which, request):
    params = request.getfixturevalue(which)
    kp = pke.generate_keypair(params, rng=random.Random(5))
    nonce = random.Random(6).randbytes(32)
    ct = pke.encrypt(params, kp.public, nonce, rng=random.Random(7))
    assert pke.decrypt(params, kp.secret, ct) == nonce


def test_flipped_body_bit_fails_tag(toy_subgroup):
    kp = pke.generate_keypair(toy_subgroup, rng=random.Random(1))
    ct = pke.encrypt(toy_subgroup, kp.public, b"\x00" * 32, rng=random.Random(2))
    # the body starts after the ephemeral and its u16 length
    body = toy_subgroup.element_width + 2
    bad = ct[:body] + bytes([ct[body] ^ 0x80]) + ct[body + 1:]
    with pytest.raises(AuthenticationError):
        pke.decrypt(toy_subgroup, kp.secret, bad)


def test_encryption_is_randomized(toy_subgroup):
    kp = pke.generate_keypair(toy_subgroup, rng=random.Random(1))
    c1 = pke.encrypt(toy_subgroup, kp.public, b"same", rng=random.Random(10))
    c2 = pke.encrypt(toy_subgroup, kp.public, b"same", rng=random.Random(11))
    assert c1 != c2


def test_every_single_byte_corruption_rejected(secp):
    kp = pke.generate_keypair(secp, rng=random.Random(3))
    ct = pke.encrypt(secp, kp.public, b"short and sweet", rng=random.Random(4))
    header = secp.element_width + 2  # the ephemeral and the body length
    for i in range(len(ct)):
        corrupted = bytearray(ct)
        corrupted[i] ^= 0x01
        # a flipped ephemeral or length may no longer decode: also a rejection
        expected = (EncodingError, AuthenticationError) if i < header else AuthenticationError
        with pytest.raises(expected):
            pke.decrypt(secp, kp.secret, bytes(corrupted))


@settings(max_examples=60, deadline=None)
@given(plaintext=st.binary(min_size=0, max_size=200), seed=st.integers(0, 2**31))
def test_round_trip_random(plaintext, seed, toy_curve):
    kp = pke.generate_keypair(toy_curve, rng=random.Random(seed))
    ct = pke.encrypt(toy_curve, kp.public, plaintext, rng=random.Random(seed + 1))
    assert pke.decrypt(toy_curve, kp.secret, ct) == plaintext


def test_round_trip_1000_random(toy_subgroup, rng):
    for _ in range(1000):
        kp = pke.generate_keypair(toy_subgroup, rng)
        plaintext = rng.randbytes(rng.randrange(0, 64))
        ct = pke.encrypt(toy_subgroup, kp.public, plaintext, rng)
        assert pke.decrypt(toy_subgroup, kp.secret, ct) == plaintext


def test_ciphertext_encoding_round_trip(toy_curve):
    kp = pke.generate_keypair(toy_curve, rng=random.Random(8))
    ct = pke.encrypt(toy_curve, kp.public, b"x" * 32, rng=random.Random(9))
    rd = Reader(ct)
    ephemeral = rd.element(toy_curve)
    assert ephemeral is not None and toy_curve.element_valid(ephemeral)
    assert len(rd.field()) == 32 and len(rd.take(pke.TAG_LENGTH)) == pke.TAG_LENGTH
    rd.done()
    assert pke.decrypt(toy_curve, kp.secret, ct) == b"x" * 32
    for bad in (ct[:-1], ct + b"\x00", b""):
        with pytest.raises(EncodingError):
            pke.decrypt(toy_curve, kp.secret, bad)
    # a well-formed ciphertext whose ephemeral is the identity
    identity = element_to_bytes(toy_curve, toy_curve.identity)
    with pytest.raises(EncodingError):
        pke.decrypt(toy_curve, kp.secret, identity + ct[toy_curve.element_width:])


def test_plaintext_length_cap(toy_subgroup):
    kp = pke.generate_keypair(toy_subgroup, rng=random.Random(1))
    with pytest.raises(EncodingError):
        pke.encrypt(toy_subgroup, kp.public, b"\x00" * 65536, rng=random.Random(2))
    with pytest.raises(EncodingError):
        pke.encrypt(toy_subgroup, kp.public, b"", rng=random.Random(2),
                    associated=b"\x00" * 65536)


def test_encrypt_rejects_a_public_key_outside_the_group(toy_subgroup, secp):
    # 5 is not a square mod 23. Without the key check, encrypting to it
    # failed only when the KEM point 5^e fell outside the subgroup (odd e),
    # and encrypting to the identity never failed.
    for seed in range(40):
        for bad in (5, toy_subgroup.identity):
            with pytest.raises(GroupError):
                pke.encrypt(toy_subgroup, bad, b"nonce", rng=random.Random(seed))
    for bad in (secp.identity, (1, 1)):  # (1, 1) is off the curve
        with pytest.raises(GroupError):
            pke.encrypt(secp, bad, b"nonce", rng=random.Random(1))


def test_encrypt_rejects_a_long_lived_key_outside_the_group(toy_subgroup, secp):
    # every recipient key is checked when its comb table is built; a bad
    # key never gets one, so every call checks it again
    for seed in range(40):
        for bad in (5, toy_subgroup.identity):
            with pytest.raises(GroupError):
                pke.encrypt(toy_subgroup, bad, b"nonce", rng=random.Random(seed))
    for bad in (secp.identity, (1, 1)):
        for seed in range(2):
            with pytest.raises(GroupError):
                pke.encrypt(secp, bad, b"nonce", rng=random.Random(seed))


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_curve", "secp", "modp2048"])
def test_long_lived_key_gives_the_same_ciphertext(which, request):
    # the recipient key's comb table changes how pk^e is computed, never a
    # wire byte: on exponents drawn as encrypt draws them, the comb and the
    # general route agree
    params = request.getfixturevalue(which)
    bound = min(params.exponent_modulus, 2**pke.RECEIPT_EXPONENT_BITS)
    bits = (bound - 1).bit_length()
    kp = pke.generate_keypair(params, rng=random.Random(3))
    for seed in range(3):
        e = random.Random(seed).randrange(1, bound)
        assert params.power(kp.public, e, bits=bits) == params.power(kp.public, e)
        ct = pke.encrypt(params, kp.public, b"nonce", random.Random(seed), b"ad")
        assert pke.decrypt(params, kp.secret, ct, b"ad") == b"nonce"


def test_associated_data_is_bound_by_the_tag(secp):
    kp = pke.generate_keypair(secp, rng=random.Random(5))
    ad = b"share element bytes"
    ct = pke.encrypt(secp, kp.public, b"nonce", rng=random.Random(6), associated=ad)
    plain = pke.encrypt(secp, kp.public, b"nonce", rng=random.Random(6))
    assert ct[:-16] == plain[:-16]
    assert ct[-16:] != plain[-16:]  # the data travels outside, only the tag changes
    assert pke.decrypt(secp, kp.secret, ct, ad) == b"nonce"
    for wrong in (b"", ad[:-1], ad + b"\x00", b"share element byteS"):
        with pytest.raises(AuthenticationError):
            pke.decrypt(secp, kp.secret, ct, wrong)
    # the length prefix keeps bytes from moving between the data and the body
    rd = Reader(ct)
    ephemeral, body = rd.element_bytes(secp), rd.field()
    moved = ephemeral + prefixed(ad[-1:] + body) + rd.take(pke.TAG_LENGTH)
    with pytest.raises(AuthenticationError):
        pke.decrypt(secp, kp.secret, moved, ad[:-1])


@pytest.mark.parametrize("which, pinned", [
    ("toy_subgroup", "04000ce23ee40e4c2723ff68df90605cf19fb667e360d42ea01cfee6465412"),
    ("secp", "0210f7ade9732f3d377ab05eeec117acf7bb1b56925ceb9f99907a191233eeec27"
             "000cc6f124a70c651eff2ffc06614612ff9d1659876ae6212bad83fc788f"),
])
def test_no_associated_data_keeps_the_pinned_ciphertext(which, pinned, request):
    # without associated data the bytes, tag included, are the ones made
    # before the tag could cover any
    params = request.getfixturevalue(which)
    kp = pke.generate_keypair(params, rng=random.Random(21))
    ct = pke.encrypt(params, kp.public, b"record bytes", rng=random.Random(22))
    assert ct.hex() == pinned
    assert pke.decrypt(params, kp.secret, ct) == b"record bytes"


def test_modp2048_receipt_exponents_are_short(modp2048, monkeypatch):
    # key secrets and ephemerals are drawn below 2^320, not below q; the
    # powers they feed are recorded at ModpParams.power
    exponents = []
    power = type(modp2048).power

    def recorded(self, base, exponent, **kwargs):
        exponents.append(exponent)
        return power(self, base, exponent, **kwargs)

    monkeypatch.setattr(type(modp2048), "power", recorded)
    rng = random.Random(31)
    for _ in range(8):
        kp = pke.generate_keypair(modp2048, rng)
        ct = pke.encrypt(modp2048, kp.public, b"nonce", rng)
        assert pke.decrypt(modp2048, kp.secret, ct) == b"nonce"
    # per round: g^secret, g^e, public^e, ephemeral^secret
    assert len(exponents) == 32
    assert all(0 < e < 2**320 for e in exponents)
    assert max(e.bit_length() for e in exponents) > 312
    assert modp2048.exponent_modulus.bit_length() == 2047


@pytest.mark.parametrize("salt, ikm, info, okm", [
    # RFC 5869 A.1 and A.3
    (bytes(range(13)), b"\x0b" * 22, bytes(range(0xF0, 0xFA)),
     "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
     "34007208d5b887185865"),
    (b"", b"\x0b" * 22, b"",
     "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
     "9d201395faa4b61a96c8"),
])
def test_hkdf_matches_the_rfc_vectors(salt, ikm, info, okm):
    assert pke.hkdf(salt, ikm, info, 42).hex() == okm


SEAL_KEYS = bytes(range(32)), bytes(range(32, 64))  # stream key, MAC key


@pytest.mark.parametrize("data", [b"", b"x", bytes(range(100))])
def test_seal_round_trips(data):
    sealed = pke.seal(*SEAL_KEYS, b"header", data)
    assert len(sealed) == len(data) + pke.TAG_LENGTH
    assert pke.unseal(*SEAL_KEYS, b"header", sealed) == data


def test_unseal_rejects_any_flipped_byte_and_another_mac_key():
    header, data = bytes(8), b"one frame"
    sealed = pke.seal(*SEAL_KEYS, header, data)

    def flipped(value, i):
        return value[:i] + bytes([value[i] ^ 0x01]) + value[i + 1:]

    for i in range(len(header)):
        with pytest.raises(AuthenticationError):
            pke.unseal(*SEAL_KEYS, flipped(header, i), sealed)
    for i in range(len(sealed)):  # the body, then the tag
        with pytest.raises(AuthenticationError):
            pke.unseal(*SEAL_KEYS, header, flipped(sealed, i))
    stream_key, mac_key = SEAL_KEYS
    with pytest.raises(AuthenticationError):
        pke.unseal(stream_key, stream_key, header, sealed)
    # bytes too short to hold a tag fail the same way
    with pytest.raises(AuthenticationError):
        pke.unseal(*SEAL_KEYS, header, sealed[:pke.TAG_LENGTH - 1])


# -- keys of order 2 in primitive-mode modp ------------------------------------
# With p = 23, p - 1 = 22 has order 2: 22^secret is 1 for an even secret and
# 22 for an odd one, so any outcome that depends on it tells the parity.

def order_2_receipt(params, plaintext, associated=b""):
    """The wire bytes of a receipt whose ephemeral is p - 1, sealed under the
    key of shared element 1: it opens under every even secret."""
    ephemeral = element_to_bytes(params, params.modulus - 1)
    key = pke._derive_key(params, params.identity)
    header = ephemeral + (prefixed(associated) if associated else b"")
    return ephemeral + len(plaintext).to_bytes(2, "big") + pke.seal(key, key, header, plaintext)


def test_encrypt_refuses_a_key_of_order_2(toy_primitive):
    for seed in range(20):
        with pytest.raises(GroupError, match="order at most 2"):
            pke.encrypt(toy_primitive, 22, b"nonce", rng=random.Random(seed))


@pytest.mark.parametrize("secret", [2, 3])
def test_decrypt_refuses_an_ephemeral_of_order_2(secret, toy_primitive):
    # for either parity of the secret: the error tells nothing about it
    with pytest.raises(EncodingError, match="order at most 2"):
        pke.decrypt(toy_primitive, secret, order_2_receipt(toy_primitive, b"nonce"))


def test_no_key_or_ephemeral_made_here_has_order_2(toy_primitive):
    # secret 11 = (p - 1)/2 would publish 22, and a uniform draw from [1, 22)
    # takes it for 15 of these 300 seeds
    for seed in range(300):
        kp = pke.generate_keypair(toy_primitive, rng=random.Random(seed))
        assert kp.secret != 11
        assert toy_primitive.combine(kp.public, kp.public) != toy_primitive.identity
    kp = pke.generate_keypair(toy_primitive, rng=random.Random(1))
    for seed in range(300):
        ct = pke.encrypt(toy_primitive, kp.public, b"nonce", rng=random.Random(seed))
        assert pke.decrypt(toy_primitive, kp.secret, ct) == b"nonce"


def test_low_order_is_the_identity_or_order_2(toy_primitive, toy_subgroup, secp):
    assert [x for x in range(1, 23) if pke.low_order(toy_primitive, x)] == [1, 22]
    assert [x for x in range(1, 23) if pke.low_order(toy_subgroup, x)] == [1]
    assert pke.low_order(secp, secp.identity)
    assert not pke.low_order(secp, secp.g)


def test_the_dealer_refuses_a_participant_key_of_order_2(toy_primitive, monkeypatch):
    # behind a good key, so every key is checked before any is raised
    server = pke.generate_keypair(toy_primitive, rng=random.Random(4))
    monkeypatch.setattr(type(toy_primitive), "power_many", lambda *args: pytest.fail())
    for bad in (22, toy_primitive.identity):
        with pytest.raises(GroupError):
            pke.dealer_shared(toy_primitive, server.secret, [server.public, bad])


@pytest.mark.parametrize("secret", [2, 3])
def test_order_2_share_ephemeral_is_malformed_for_either_parity(secret, toy_primitive):
    # anyone who saw the NONCE can send this share; an outcome that differed
    # with the parity of the server's secret would tell that parity
    from comhash import ErrorCode, Frame, MsgType, ParticipantKeys, Phase, ServerSession
    from comhash import member_share

    keypair = pke.KeyPair(secret, toy_primitive.power(toy_primitive.g, secret))
    server = ServerSession(toy_primitive, 1, keypair, random.Random(8))
    ((_, nonce),) = server.begin_round()
    element = element_to_bytes(toy_primitive,
                               member_share(toy_primitive, ParticipantKeys(3, 4)))
    payload = element + order_2_receipt(toy_primitive, nonce.payload, element)
    server.absorb(Frame(MsgType.SHARE, server.session_id, 1, payload))
    assert server.phase is Phase.FAILED
    assert server.error_code is ErrorCode.MALFORMED
    assert server.digest is None
