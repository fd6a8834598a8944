import pytest

from comhash import (
    EncodingError,
    element_from_bytes,
    element_to_bytes,
    params_digest,
    params_from_bytes,
    params_to_bytes,
    scalar_from_bytes,
    scalar_to_bytes,
)
from comhash.encoding import Reader, scalar_byte_length


def test_modp_element_is_fixed_width(toy_subgroup):
    # p = 23 fits one byte, so element 16 encodes as that single byte
    assert element_to_bytes(toy_subgroup, 16) == b"\x10"
    assert element_from_bytes(toy_subgroup, b"\x10") == 16
    assert toy_subgroup.element_width == 1


def test_modp_2048_element_width(modp2048):
    encoded = element_to_bytes(modp2048, modp2048.g)
    assert len(encoded) == 256
    assert element_from_bytes(modp2048, encoded) == modp2048.g


def test_ec_point_compression(secp):
    encoded = element_to_bytes(secp, secp.g)
    assert len(encoded) == 33
    assert encoded[0] in (0x02, 0x03)
    assert element_from_bytes(secp, encoded) == secp.g
    # identity is a lone zero byte
    assert element_to_bytes(secp, None) == b"\x00"
    assert element_from_bytes(secp, b"\x00") is None


def test_ec_wrong_length_rejected(secp):
    with pytest.raises(EncodingError):
        element_from_bytes(secp, b"\x02" + bytes(33))  # 34 bytes
    with pytest.raises(EncodingError):
        element_from_bytes(secp, b"\x02" + bytes(10))


def test_ec_bad_prefix_and_off_curve_rejected(toy_curve):
    good = element_to_bytes(toy_curve, toy_curve.g)
    with pytest.raises(EncodingError):
        element_from_bytes(toy_curve, b"\x04" + good[1:])
    # x = 1: 1 + 2 + 2 = 5 is a non-residue mod 17
    assert pow(5, 8, 17) != 1
    with pytest.raises(EncodingError):
        element_from_bytes(toy_curve, b"\x02\x01")
    with pytest.raises(EncodingError):
        element_from_bytes(toy_curve, b"\x02\x12")  # x = 18 >= field prime


def test_modp_out_of_range_rejected(toy_subgroup):
    for bad in (b"\x00", b"\x17", b"\x18", b"\xff"):  # 0, 23, 24, 255
        with pytest.raises(EncodingError):
            element_from_bytes(toy_subgroup, bad)


def test_modp_subgroup_membership_enforced(toy_subgroup):
    # 5 is in [1, 22] but is not a square mod 23
    assert pow(5, 11, 23) != 1
    with pytest.raises(EncodingError):
        element_from_bytes(toy_subgroup, b"\x05")


def test_primitive_mode_accepts_non_squares(toy_primitive):
    assert element_from_bytes(toy_primitive, b"\x05") == 5


def test_scalar_round_trip_and_range(toy_subgroup, secp):
    assert scalar_to_bytes(toy_subgroup, 7) == b"\x07"
    assert scalar_from_bytes(toy_subgroup, b"\x07") == 7
    assert scalar_byte_length(secp) == 32
    with pytest.raises(EncodingError):
        scalar_from_bytes(toy_subgroup, b"\x0b")  # 11 == modulus
    with pytest.raises(EncodingError):
        scalar_to_bytes(toy_subgroup, 11)
    with pytest.raises(EncodingError):
        scalar_from_bytes(secp, bytes(31))


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_primitive", "toy_curve", "secp"])
def test_round_trip_1000_random_values(which, request, rng):
    params = request.getfixturevalue(which)
    m = params.exponent_modulus
    for _ in range(1000):
        s = rng.randrange(m)
        assert scalar_from_bytes(params, scalar_to_bytes(params, s)) == s
        el = params.power(params.g, rng.randrange(m))
        data = element_to_bytes(params, el)
        assert element_from_bytes(params, data) == el
        assert element_to_bytes(params, element_from_bytes(params, data)) == data


def test_split_element_handles_identity(toy_curve, toy_subgroup):
    tail = b"rest-of-payload"
    point = toy_curve.power(toy_curve.g, 5)
    for params, data, expected in (
            (toy_curve, element_to_bytes(toy_curve, None), None),
            (toy_curve, element_to_bytes(toy_curve, point), point),
            (toy_subgroup, b"\x10", 16)):
        rd = Reader(data + tail)
        assert rd.element(params) == expected
        assert rd.rest() == tail


def test_params_round_trip(toy_subgroup, toy_primitive, toy_curve, secp, modp2048):
    for params in (toy_subgroup, toy_primitive, toy_curve, secp, modp2048):
        data = params_to_bytes(params)
        assert params_from_bytes(data) == params
        assert params_to_bytes(params_from_bytes(data)) == data


def test_params_digest_distinguishes_groups(toy_subgroup, toy_primitive, toy_curve):
    digests = {params_digest(p) for p in (toy_subgroup, toy_primitive, toy_curve)}
    assert len(digests) == 3
    assert all(len(d) == 32 for d in digests)


def test_params_malformed_rejected(toy_subgroup):
    good = params_to_bytes(toy_subgroup)
    with pytest.raises(EncodingError):
        params_from_bytes(good[:-1])
    with pytest.raises(EncodingError):
        params_from_bytes(good + b"\x00")
    with pytest.raises(EncodingError):
        params_from_bytes(b"\x07" + good[1:])
    with pytest.raises(EncodingError):
        params_from_bytes(b"")


def test_params_unknown_curve_rejected(toy_curve):
    data = params_to_bytes(toy_curve)
    mangled = data.replace(b"toy17", b"toy99")
    with pytest.raises(EncodingError):
        params_from_bytes(mangled)


def test_params_decode_validates_modp_parameters():
    # p = 25 is not prime, so the Jacobi membership test would mean nothing;
    # encoding trusts the parameters, decoding does not
    from comhash import ModpParams

    data = params_to_bytes(ModpParams(25, 12, 4, 9))
    with pytest.raises(EncodingError, match="p not prime"):
        params_from_bytes(data)
    with pytest.raises(EncodingError, match="g out of range"):
        params_from_bytes(params_to_bytes(ModpParams(23, 11, 23, 3)))
