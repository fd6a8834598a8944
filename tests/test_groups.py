import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comhash import (
    EcParams,
    GroupError,
    ModpMode,
    ModpParams,
    derive_second_generator,
    generate_group,
    modp_group,
    secp256k1,
    validate_group,
)
from comhash import groups, pke
from comhash.groups import (
    COMB_COLUMNS,
    COMB_TEETH,
    _ec_mul,
    _glv_constants,
    _glv_mul,
    _glv_split,
    _jacobi,
    is_probable_prime,
    scalar_inv,
    sqrt_mod,
)


def multiplicative_order(g, p):
    """Brute-force order oracle."""
    acc, e = g % p, 1
    while acc != 1:
        acc = acc * g % p
        e += 1
    return e


def enumerate_curve_points(params):
    pts = [None]
    for x in range(params.field_prime):
        rhs = (x**3 + params.curve_a * x + params.curve_b) % params.field_prime
        for y in range(params.field_prime):
            if y * y % params.field_prime == rhs:
                pts.append((x, y))
    return pts


# ---------------------------------------------------------------------------
# fixtures and generation
# ---------------------------------------------------------------------------

def test_toy_subgroup_generators_have_order_q(toy_subgroup):
    p = toy_subgroup
    assert (p.modulus, p.subgroup_order, p.g, p.h) == (23, 11, 2, 3)
    assert pow(2, 11, 23) == 1 and pow(3, 11, 23) == 1
    assert multiplicative_order(2, 23) == 11
    assert multiplicative_order(3, 23) == 11


def test_toy_primitive_generators_have_order_2q(toy_primitive):
    p = toy_primitive
    assert (p.g, p.h) == (5, 7)
    assert multiplicative_order(5, 23) == 22
    assert multiplicative_order(7, 23) == 22
    assert pow(5, 11, 23) == 22  # a^q = -1 marks a primitive root
    assert p.exponent_modulus == 22


def test_generate_toy_group_matches_fixture():
    sub = generate_group("modp", 5, seed=1)
    assert (sub.modulus, sub.subgroup_order, sub.g, sub.h) == (23, 11, 2, 3)
    assert sub.mode is ModpMode.SUBGROUP
    prim = generate_group("modp", 5, seed=2, mode=ModpMode.PRIMITIVE)
    assert (prim.g, prim.h) == (5, 7)
    assert prim.mode is ModpMode.PRIMITIVE


def test_generate_group_searched_size_is_seed_deterministic():
    a = generate_group("modp", 48, seed=7)
    b = generate_group("modp", 48, seed=7)
    assert a == b
    c = generate_group("modp", 48, seed=8)
    assert c.modulus != a.modulus  # overwhelmingly likely at 48 bits
    from comhash import validate_group
    assert validate_group(a, rounds=16) == []
    assert validate_group(c, rounds=16) == []


def test_generate_group_unsupported_sizes():
    with pytest.raises(GroupError):
        generate_group("modp", 4096)
    with pytest.raises(GroupError):
        generate_group("ec", 128)
    with pytest.raises(GroupError):
        generate_group("dihedral", 64)


def test_secp256k1_constants(secp):
    # standard SEC2 values
    assert secp.field_prime == 2**256 - 2**32 - 977
    assert secp.g == (
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    )
    assert secp.order == 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
    assert generate_group("ec", 256) == secp
    assert secp.on_curve(secp.g) and secp.on_curve(secp.h)
    assert secp.power(secp.g, secp.order) is None


def test_modp_2048_wraps_the_standard_group(modp2048):
    assert modp2048.modulus.bit_length() == 2048
    assert modp2048.g == 2
    assert pow(modp2048.h, modp2048.subgroup_order, modp2048.modulus) == 1
    assert modp_group(3072).modulus.bit_length() == 3072
    with pytest.raises(GroupError):
        modp_group(1024)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_fixtures(toy_subgroup, toy_primitive, toy_curve):
    from comhash import validate_group
    assert validate_group(toy_subgroup, rounds=16) == []
    assert validate_group(toy_primitive, rounds=16) == []
    assert validate_group(toy_curve, rounds=16) == []


def test_validate_rejects_composite_modulus():
    from comhash import validate_group
    violations = validate_group(ModpParams(25, 12, 2, 3), rounds=16)
    assert "p not prime" in violations


def test_validate_rejects_wrong_order_generator():
    from comhash import validate_group
    # 5 is a primitive root mod 23 (order 22), not a subgroup generator
    assert multiplicative_order(5, 23) == 22
    violations = validate_group(ModpParams(23, 11, 5, 3), rounds=16)
    assert violations == ["g has wrong order"]


def test_validate_rejects_composite_curve_order(toy_curve):
    from comhash import validate_group
    bad = replace(toy_curve, order=20, h_label=b"")
    assert "group order not prime" in validate_group(bad, rounds=16)


def test_validate_rejects_wrong_prime_curve_order(toy_curve):
    # 17 is prime and inside the Hasse interval, but the curve has 19 points:
    # only multiplying by the unreduced order can tell
    from comhash import validate_group
    bad = replace(toy_curve, order=17, h_label=b"")
    assert _ec_mul(bad, bad.g, 17) == (6, 14)
    assert "base point g order does not divide the group order" in \
        validate_group(bad, rounds=16)


# ---------------------------------------------------------------------------
# scalar arithmetic
# ---------------------------------------------------------------------------

def test_scalar_examples():
    assert scalar_inv(5, 11) == 9
    assert 5 * 9 % 11 == 1
    with pytest.raises(ZeroDivisionError):
        scalar_inv(0, 11)
    with pytest.raises(ZeroDivisionError):
        scalar_inv(11, 11)


@given(u=st.integers(1, 10))
def test_scalar_inv_identity(u):
    assert u * scalar_inv(u, 11) % 11 == 1


# ---------------------------------------------------------------------------
# the group law
# ---------------------------------------------------------------------------

def test_power_examples(toy_subgroup, toy_curve):
    assert toy_subgroup.power(2, 7) == 13  # 128 mod 23
    assert toy_subgroup.power(toy_subgroup.g, 0) == 1
    assert toy_curve.power(toy_curve.g, 0) is None
    assert toy_curve.power(toy_curve.g, 19) is None  # group order


def test_toy_curve_has_prime_order_19(toy_curve):
    assert len(enumerate_curve_points(toy_curve)) == 19
    assert is_probable_prime(19)


def test_ec_ladder_matches_repeated_addition(toy_curve):
    for k in range(40):
        naive = None
        for _ in range(k % 19):
            naive = toy_curve.combine(naive, toy_curve.g)
        assert toy_curve.power(toy_curve.g, k) == naive


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_primitive", "toy_curve", "secp"])
def test_power_is_a_homomorphism(which, request, rng):
    params = request.getfixturevalue(which)
    m = params.exponent_modulus
    for gen in (params.g, params.h):
        for _ in range(8):
            u, v = rng.randrange(m), rng.randrange(m)
            combined = params.combine(params.power(gen, u), params.power(gen, v))
            assert params.power(gen, (u + v) % m) == combined
        assert params.power(gen, m) == params.identity


def test_combine_is_commutative_and_associative(toy_subgroup, toy_curve, rng):
    for params in (toy_subgroup, toy_curve):
        m = params.exponent_modulus
        for _ in range(20):
            a = params.power(params.g, rng.randrange(m))
            b = params.power(params.h, rng.randrange(m))
            c = params.power(params.g, rng.randrange(m))
            assert params.combine(a, b) == params.combine(b, a)
            assert params.combine(params.combine(a, b), c) == \
                params.combine(a, params.combine(b, c))


def chord_and_tangent(params, p1, p2):
    """p1 + p2 by the affine chord-and-tangent rule: the reference that
    ``EcParams.combine``'s Jacobian formulas are checked against."""
    if p1 is None or p2 is None:
        return p2 if p1 is None else p1
    p = params.field_prime
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        lam = (3 * x1 * x1 + params.curve_a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def test_combine_matches_the_chord_and_tangent_rule(toy_curve, secp, rng):
    # every pair of toy17 points, then P + Q, P + P and P + (-P) on secp256k1
    points = enumerate_curve_points(toy_curve)
    for a in points:
        for b in points:
            assert toy_curve.combine(a, b) == chord_and_tangent(toy_curve, a, b), (a, b)
    for _ in range(20):
        a = secp.power(secp.g, rng.randrange(secp.order))
        b = secp.power(secp.h, rng.randrange(secp.order))
        minus_a = (a[0], secp.field_prime - a[1])
        for other in (b, a, minus_a, None):
            assert secp.combine(a, other) == chord_and_tangent(secp, a, other)
    assert secp.combine(a, minus_a) is None


def _fold_oracle(params, elements):
    """The pairwise fold of elements from the identity: chord and tangent on
    a curve, the product mod p."""
    acc = params.identity
    for el in elements:
        acc = (chord_and_tangent(params, acc, el) if params.backend == "ec"
               else acc * el % params.modulus)
    return acc


def _combine_pool(params) -> list:
    """Elements whose folds meet the identity, P + (-P) and repeated points."""
    if params.backend == "modp":
        return [el for el in range(1, params.modulus) if params.element_valid(el)]
    if params.field_prime < 100:
        return enumerate_curve_points(params)
    points = [params.g, params.h, params.power(params.g, 2), params.power(params.g, 3)]
    return [None] + points + [(x, params.field_prime - y) for x, y in points]


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_curve", "secp"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_combine_of_many_equals_the_pairwise_fold(which, data, request):
    params = request.getfixturevalue(which)
    pool = _combine_pool(params)
    indices = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
    elements = [pool[i] for i in indices]
    if data.draw(st.booleans()):  # an element and its inverse side by side
        el = pool[data.draw(st.integers(0, len(pool) - 1))]
        elements += [el, params.power(el, -1)]
    assert params.combine(*elements) == _fold_oracle(params, elements)


def test_backend_mismatch_rejected(toy_subgroup, toy_curve):
    with pytest.raises(GroupError):
        toy_subgroup.power((5, 1), 3)
    with pytest.raises(GroupError):
        toy_curve.power(7, 3)
    with pytest.raises(GroupError):
        toy_subgroup.power(0, 3)  # zero is not a group element


# ---------------------------------------------------------------------------
# scalar multiplication engines: fixed-base tables for g and h, w-NAF otherwise
# ---------------------------------------------------------------------------

def combine_oracle(params, pt, k):
    """k * pt by double-and-add over ``combine`` alone."""
    k %= params.order
    acc = None
    while k:
        if k & 1:
            acc = params.combine(acc, pt)
        pt = params.combine(pt, pt)
        k >>= 1
    return acc


def test_toy_curve_every_point_every_scalar(toy_curve):
    for pt in enumerate_curve_points(toy_curve):
        as_h = replace(toy_curve, h=pt, h_label=b"")  # pt gets a fixed-base table
        multiples = [None]  # multiples[k] is pt added k times by the group law
        for _ in range(57):
            multiples.append(toy_curve.combine(multiples[-1], pt))
        for k in range(-19, 58):
            assert toy_curve.power(pt, k) == multiples[k % 19], (pt, k)
            assert as_h.power(pt, k) == multiples[k % 19], (pt, k)
        for k in range(58):  # w-NAF on unreduced scalars
            assert _ec_mul(toy_curve, pt, k) == multiples[k], (pt, k)


def test_secp256k1_known_multiples(secp):
    gx, gy = secp.g
    assert secp.power(secp.g, 2) == (
        0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
        0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A,
    )
    assert secp.power(secp.g, 3) == (
        0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
        0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672,
    )
    assert secp.power(secp.g, secp.order - 1) == (gx, secp.field_prime - gy)
    assert _ec_mul(secp, secp.g, secp.order - 1) == (gx, secp.field_prime - gy)


def test_secp256k1_edge_scalars(secp, rng):
    n = secp.order
    other = secp.power(secp.g, rng.randrange(1, n))
    scalars = [0, 1, n, n - 1, n + 1, -1, 2**256 - 1]
    for j in range(1, 65):  # every 4-bit digit boundary
        scalars += [2**(4 * j) - 1, 2**(4 * j) + 1]
    span = -(-n.bit_length() // (COMB_TEETH * COMB_COLUMNS))
    for j in range(1, COMB_TEETH * COMB_COLUMNS + 1):  # every comb column and tooth boundary
        scalars += [2**(span * j) - 1, 2**(span * j) + 1]
    for base in (secp.g, secp.h, other):
        for k in scalars:
            expected = combine_oracle(secp, base, k)
            assert secp.power(base, k) == expected, (base, k)
            assert _ec_mul(secp, base, k % n) == expected, (base, k)


def test_fixed_base_table_follows_the_point_not_the_curve(secp, rng):
    # same curve, another h: a table cached per curve would give h's multiples
    other = replace(secp, h=derive_second_generator(secp, b"another label"),
                    h_label=b"another label")
    assert other.h != secp.h
    for _ in range(4):
        k = rng.randrange(secp.order)
        assert other.power(other.h, k) == combine_oracle(other, other.h, k)
        assert secp.power(secp.h, k) == combine_oracle(secp, secp.h, k)


# y^2 = x^3 + 2 over GF(67) has 73 points, a prime: a == 0 and 67 = 73 = 1
# mod 3, so it has the GLV endomorphism. Built here, not in the registry.
TOY67 = dict(field_prime=67, curve_a=0, curve_b=2, order=73)


def glv_constants(params):
    return _glv_constants(params.field_prime, params.curve_a, params.order, params.g)


def test_glv_every_point_every_scalar_on_a_small_curve():
    points = enumerate_curve_points(EcParams(name="toy67", g=None, h=None, **TOY67))
    assert len(points) == 73
    # g and h go to their tables, so two parameter sets put every point on GLV
    first = EcParams(name="toy67", g=points[1], h=points[2], **TOY67)
    second = EcParams(name="toy67", g=points[3], h=points[4], **TOY67)
    beta, lam, v1, v2 = glv_constants(first)
    assert glv_constants(second)[:2] == (beta, lam)
    for pt in points:
        params = second if pt in (first.g, first.h) else first
        multiples = [None]
        for _ in range(73):
            multiples.append(params.combine(multiples[-1], pt))
        if pt is not None:
            assert multiples[lam] == (beta * pt[0] % 67, pt[1])
        for k in range(-73, 147):
            assert params.power(pt, k) == multiples[k % 73], (pt, k)


def test_glv_constants_on_secp256k1_are_the_published_ones(secp):
    beta, lam, v1, v2 = glv_constants(secp)
    assert beta == 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
    assert lam == 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
    a1 = 0x3086D221A7D46BCDE86C90E49284EB15
    assert v1 == (a1, -0xE4437ED6010E88286F547FA90ABFE4C3)
    assert v2 == (0x114CA50F7A8E2F3F657C1108D9D44CFD8, a1)


def test_glv_edge_scalars_match_wnaf(secp, rng):
    n = secp.order
    beta, lam, v1, v2 = glv_constants(secp)
    scalars = [0, 1, n - 1, lam, n - lam, 2**128 - 1, 2**128 + 1]
    signs = {}  # one scalar for each sign pattern of (k1, k2)
    draws = random.Random(7)
    for _ in range(200):
        k = draws.randrange(n)
        k1, k2 = _glv_split(k, n, v1, v2)
        assert (k1 + k2 * lam) % n == k
        assert max(abs(k1), abs(k2)) < 2**129
        signs.setdefault((k1 < 0, k2 < 0), k)
    assert len(signs) == 4
    scalars += signs.values()
    base = _ec_mul(secp, secp.g, rng.randrange(1, n))
    for k in scalars:
        assert secp.power(base, k) == _ec_mul(secp, base, k), k


@pytest.mark.parametrize("which, engine", [("secp", "_glv_mul"), ("toy_curve", "_ec_mul")])
def test_power_sends_other_bases_to_glv_only_with_the_endomorphism(which, engine, request,
                                                                    monkeypatch):
    params = request.getfixturevalue(which)
    base = _ec_mul(params, params.g, 5)
    calls = []
    for name in ("_glv_mul", "_ec_mul"):
        def spy(*args, _name=name, _fn=getattr(groups, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(groups, name, spy)
    params.power(base, 3)
    assert calls == [engine]
    assert (glv_constants(params) is None) == (engine == "_ec_mul")


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_primitive"])
def test_modp_every_element_every_exponent(which, request):
    params = request.getfixturevalue(which)
    m = params.exponent_modulus
    for el in filter(params.element_valid, range(1, params.modulus)):
        as_h = replace(params, h=el, h_label=b"")  # el gets a comb table
        multiples = [1]  # multiples[k] is el combined with itself k times
        for _ in range(60):
            multiples.append(params.combine(multiples[-1], el))
        for k in range(-30, 61):
            assert params.power(el, k) == multiples[k % m], (el, k)
            assert as_h.power(el, k) == multiples[k % m], (el, k)


@pytest.mark.parametrize("bits, mode", [(2048, ModpMode.SUBGROUP),
                                        (3072, ModpMode.SUBGROUP),
                                        (2048, ModpMode.PRIMITIVE)])
def test_modp_comb_edge_exponents(bits, mode):
    params = modp_group(bits, mode)
    p, q, m = params.modulus, params.subgroup_order, params.exponent_modulus
    exponents = {0, 1, -1, q - 1, q, q + 1, m - 1, m, m + 1, 2**bits - 1}
    span = -(-m.bit_length() // (COMB_TEETH * COMB_COLUMNS))
    for n in range(1, COMB_TEETH * COMB_COLUMNS + 1):  # every column boundary
        exponents |= {2**(span * n) - 1, 2**(span * n) + 1}
    for base in (params.g, params.h):
        for k in sorted(exponents):
            # the base's order divides m, so the unreduced exponent is the oracle
            assert params.power(base, k) == pow(base, k, p), (base, k)


def test_modp_comb_table_follows_the_base_not_the_group(modp2048, rng):
    # same group, another h: a table cached per group would give h's powers
    other = replace(modp2048, h=derive_second_generator(modp2048, b"another label"),
                    h_label=b"another label")
    assert other.h != modp2048.h
    for _ in range(4):
        k = rng.randrange(modp2048.exponent_modulus)
        assert other.power(other.h, k) == pow(other.h, k, other.modulus)
        assert modp2048.power(modp2048.h, k) == pow(modp2048.h, k, modp2048.modulus)


# ---------------------------------------------------------------------------
# bounded comb: power(base, exponent, bits=...)
# ---------------------------------------------------------------------------

def _bounded_exponents(bits: int) -> list:
    """0, 1, 2^bits - 1 and 2^(span*j) +- 1 at every column and tooth
    boundary below 2^bits."""
    span = -(-bits // (COMB_TEETH * COMB_COLUMNS))
    ks = {0, 1, 2**bits - 1}
    for j in range(1, COMB_TEETH * COMB_COLUMNS + 1):
        ks |= {2**(span * j) - 1, 2**(span * j) + 1}
    return sorted(k for k in ks if k < 2**bits)


def test_modp_bounded_comb_matches_builtin_pow(modp2048, rng):
    bits = pke._exponent_bits(modp2048)
    assert bits == 320
    p = modp2048.modulus
    key = pow(modp2048.g, rng.randrange(2**320), p)
    for base in (modp2048.g, modp2048.h, key):
        for k in _bounded_exponents(bits):
            assert modp2048.power(base, k, bits=bits) == pow(base, k, p), (base, k)


def test_secp_bounded_comb_matches_glv(secp, rng):
    bits = pke._exponent_bits(secp)
    assert bits == 256  # the order bounds a curve's receipt exponents
    n = secp.order
    glv = _glv_constants(secp.field_prime, secp.curve_a, n, secp.g)
    key = secp.power(secp.g, rng.randrange(1, n))
    for base in (secp.g, secp.h, key):
        for k in _bounded_exponents(bits):
            expected = _glv_mul(secp, base, k % n, glv) if k % n else None
            assert secp.power(base, k, bits=bits) == expected, (base, k)


@pytest.mark.parametrize("which", ["modp2048", "secp", "toy_subgroup", "toy_curve"])
def test_bounded_comb_rejects_an_exponent_out_of_its_bound(which, request):
    params = request.getfixturevalue(which)
    bits = pke._exponent_bits(params)
    for k in (2**bits, 2**bits + 1, 2**(bits + 8), -1):
        with pytest.raises(GroupError):
            params.power(params.g, k, bits=bits)


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_primitive", "toy_curve"])
def test_bounded_comb_on_the_toy_groups(which, request):
    params = request.getfixturevalue(which)
    members = [el for el in (enumerate_curve_points(params) if params.backend == "ec"
                             else range(1, params.modulus))
               if el != params.identity and params.element_valid(el)]
    for bits in (pke._exponent_bits(params), 7):
        for base in members:
            expected = params.identity
            for k in range(2**bits):  # base combined with itself k times
                assert params.power(base, k, bits=bits) == expected, (base, k, bits)
                expected = params.combine(expected, base)


@pytest.mark.parametrize("which, bad", [
    ("toy_subgroup", 5),  # not a square mod 23
    ("toy_subgroup", 1),
    ("toy_curve", None),
    ("secp", None),
    ("secp", (1, 1)),  # off the curve
])
def test_bounded_comb_rejects_a_base_outside_the_group(which, bad, request):
    params = request.getfixturevalue(which)
    with pytest.raises(GroupError):
        params.power(bad, 1, bits=pke._exponent_bits(params))


def test_bounded_comb_checks_a_base_once_per_table(modp2048, rng, monkeypatch):
    checked = []
    element_valid = ModpParams.element_valid

    def counted(self, el):
        checked.append(el)
        return element_valid(self, el)

    monkeypatch.setattr(ModpParams, "element_valid", counted)
    groups._generator_tables.cache_clear()
    groups._key_tables.cache_clear()
    key = pow(modp2048.g, rng.randrange(2**320), modp2048.modulus)
    for _ in range(3):
        modp2048.power(key, rng.randrange(2**320), bits=320)
    modp2048.power(key, rng.randrange(2**64), bits=64)  # another width, another table
    assert checked == [key, key]
    # g and h are checked with the group, never per table
    modp2048.power(modp2048.g, 5, bits=48)
    modp2048.power(modp2048.h, 5, bits=48)
    assert checked == [key, key]


# ---------------------------------------------------------------------------
# comb kernel: digits and table builds
# ---------------------------------------------------------------------------

def _gathered_digits(k: int, bits: int) -> list:
    """The comb digits by definition: digit t gathers bit t of every tooth,
    tooth i (bits [i*a, (i+1)*a) of k) as bit i."""
    a = groups._comb_span(bits) * COMB_COLUMNS
    return [sum(((k >> (i * a + t)) & 1) << i for i in range(COMB_TEETH)) for t in range(a)]


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_curve", "secp"])
def test_byte_digits_gather_every_tooth(which, request, rng):
    params = request.getfixturevalue(which)
    for bits in (params.exponent_modulus.bit_length(), pke._exponent_bits(params), 7, 320):
        span = groups._comb_span(bits)
        ks = set(_bounded_exponents(bits))  # 0, 2^bits - 1, every column and tooth boundary
        ks |= {2**(span * j) for j in range(COMB_TEETH * COMB_COLUMNS) if span * j < bits}
        ks |= {rng.randrange(2**bits) for _ in range(20)}
        for k in sorted(ks):
            assert list(groups._comb_digits(k, bits)) == _gathered_digits(k, bits), (bits, k)


def _base_powers(params, base, bits: int) -> list:
    """base^(2^(n*span)) for every tooth and column, by w-NAF, not by the comb."""
    span = groups._comb_span(bits)
    return [_ec_mul(params, base, 2**(n * span)) for n in range(COMB_TEETH * COMB_COLUMNS)]


def _spied_entrywise_rows(monkeypatch) -> list:
    """Record each ``_entrywise_rows`` call a curve's table build makes."""
    calls = []
    entrywise = groups._entrywise_rows

    def spy(params, powers):
        calls.append(powers)
        return entrywise(params, powers)

    monkeypatch.setattr(groups, "_entrywise_rows", spy)
    return calls


def test_secp_batched_tables_equal_the_entrywise_tables(secp, rng, monkeypatch):
    key = secp.power(secp.g, rng.randrange(1, secp.order))
    entrywise = groups._entrywise_rows
    calls = _spied_entrywise_rows(monkeypatch)
    for base in (secp.g, secp.h, key):
        powers = _base_powers(secp, base, 256)
        batched = groups._affine_rows(powers, secp.field_prime, secp.curve_a)
        assert batched == entrywise(secp, powers), base
        assert groups._comb_table(secp, base, 256) == batched, base
    assert calls == []  # no secp256k1 table falls back


@pytest.mark.parametrize("bits", [5, 7])
def test_toy_curve_tables_fall_back_to_the_entrywise_build(toy_curve, bits, monkeypatch):
    # 19 points: a row of 255 entries repeats points and holds the identity
    calls = _spied_entrywise_rows(monkeypatch)
    members = enumerate_curve_points(toy_curve)[1:]
    for base in (toy_curve.g, toy_curve.h, members[7]):
        powers = _base_powers(toy_curve, base, bits)
        with pytest.raises(ValueError):
            groups._affine_rows(powers, toy_curve.field_prime, toy_curve.curve_a)
        del calls[:]
        table = groups._comb_table(toy_curve, base, bits)
        assert calls == [powers], base
        span = groups._comb_span(bits)
        for j, row in enumerate(table):  # entry u of row j, by definition
            for u, entry in enumerate(row):
                k = sum(2**(i * span * COMB_COLUMNS + j * span)
                        for i in range(COMB_TEETH) if u >> i & 1)
                assert entry == _ec_mul(toy_curve, base, k), (base, j, u)


# ---------------------------------------------------------------------------
# power_many: many bases under one exponent
# ---------------------------------------------------------------------------

def _counted_powers(params, monkeypatch) -> list:
    """Record every ``power`` call from here on: ``power_many`` makes one per
    base only when it falls back."""
    calls = []
    power = type(params).power

    def counted(self, *args, **kwargs):
        calls.append(args)
        return power(self, *args, **kwargs)

    monkeypatch.setattr(type(params), "power", counted)
    return calls


def test_power_many_every_toy_point_every_scalar(toy_curve, monkeypatch):
    points = [_ec_mul(toy_curve, toy_curve.g, k) for k in range(1, 19)]
    calls = _counted_powers(toy_curve, monkeypatch)
    for e in range(-19, 58):
        expected = [toy_curve.power(b, e) for b in points]
        del calls[:]
        assert toy_curve.power_many(points, e) == expected, e
        # batched unless e is 0 mod 19: no toy exponent meets a zero denominator
        assert len(calls) == (len(points) if e % 19 == 0 else 0), e
        # the identity among the bases sends the call base by base
        assert toy_curve.power_many(points + [None], e) == expected + [None], e
        for b in points:
            assert toy_curve.power_many([b], e) == [toy_curve.power(b, e)], (b, e)


def test_power_many_on_the_toy_subgroup(toy_subgroup):
    elements = list(filter(toy_subgroup.element_valid, range(1, 23)))
    for e in range(-11, 34):
        assert toy_subgroup.power_many(elements, e) == [toy_subgroup.power(b, e)
                                                        for b in elements], e


def test_power_many_on_secp(secp, monkeypatch):
    n = secp.order
    draws = random.Random(51)
    keys = [secp.power(secp.g, draws.randrange(1, n)) for _ in range(64)]
    bases = keys + keys[:5] + [secp.g, secp.h, keys[0]]  # repeated bases
    calls = _counted_powers(secp, monkeypatch)
    for e in (0, 1, n - 1, n, n + 1, 2**128 - 1, 2**128 + 1, 2**256 - 1,
              draws.randrange(n)):
        expected = [secp.power(b, e) for b in bases]
        del calls[:]
        assert secp.power_many(bases, e) == expected, e
        assert len(calls) == (len(bases) if e % n == 0 else 0), e


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_curve", "secp", "modp2048"])
def test_power_many_of_no_bases(which, request):
    params = request.getfixturevalue(which)
    assert params.power_many([], 5) == []


def test_power_many_falls_back_on_a_zero_denominator(toy_curve, monkeypatch):
    # at width 4, 13 = 16 - 3 runs 16P + (-3P), and 16 = -3 mod 19: every
    # lane's denominator is 0, so every base goes to power, which agrees
    points = [_ec_mul(toy_curve, toy_curve.g, k) for k in range(1, 19)]
    monkeypatch.setattr(groups, "WNAF_WIDTH", 4)
    calls = _counted_powers(toy_curve, monkeypatch)
    for e, falls_back in ((13, True), (13 + 19, True), (12, False)):
        expected = [toy_curve.power(b, e) for b in points]
        assert expected == [_ec_mul(toy_curve, b, e % 19) for b in points]
        if falls_back:
            with pytest.raises(ValueError):
                groups._ec_lanes(toy_curve, points, e % 19)
        del calls[:]
        assert toy_curve.power_many(points, e) == expected, e
        assert len(calls) == (len(points) if falls_back else 0), e


# ---------------------------------------------------------------------------
# second-generator derivation
# ---------------------------------------------------------------------------

def test_derivation_is_deterministic(toy_subgroup, toy_curve):
    assert derive_second_generator(toy_subgroup, b"alpha") == \
        derive_second_generator(toy_subgroup, b"alpha")
    assert derive_second_generator(toy_curve, b"alpha") == \
        derive_second_generator(toy_curve, b"alpha")


def test_derivation_pinned_outputs_differ(toy_subgroup, toy_curve):
    # values frozen from the first run
    assert derive_second_generator(toy_subgroup, b"alpha") == 8
    assert derive_second_generator(toy_subgroup, b"beta") == 13
    assert derive_second_generator(toy_curve, b"alpha") == (10, 6)
    assert derive_second_generator(toy_curve, b"beta") == (3, 16)


def test_derived_subgroup_element_has_order_q(toy_subgroup):
    for label in (b"alpha", b"beta", b"gamma"):
        h = derive_second_generator(toy_subgroup, label)
        assert multiplicative_order(h, 23) == 11


def test_derivation_rejects_empty_label(toy_subgroup):
    with pytest.raises(GroupError):
        derive_second_generator(toy_subgroup, b"")


def test_secp_second_generator_pinned(secp):
    assert secp.h == (
        0x97810643078071AFE4802307389C141913E57E761EE24BEA3263D93BB9503D27,
        0xB241CAD016B6F876F884ABE5D46FEF17721CEABEAD0E22F783E221FC76321962,
    )


def test_second_generator_derived_once_per_value(monkeypatch):
    candidates = []
    candidate = EcParams.generator_candidate

    def counted(self, seed):
        candidates.append(seed)
        return candidate(self, seed)

    monkeypatch.setattr(EcParams, "generator_candidate", counted)
    derive_second_generator.cache_clear()
    first = secp256k1()
    assert len(candidates) == 9
    second = secp256k1()
    assert len(candidates) == 9
    assert second.h == first.h


def test_validate_group_rejects_a_substituted_h(secp):
    # the memoised derivation is keyed by the whole parameter set, h included
    substituted = replace(secp, h=derive_second_generator(secp, b"another label"))
    assert validate_group(secp) == []
    assert validate_group(substituted) == ["h does not match its derivation label"]


# ---------------------------------------------------------------------------
# misc number theory
# ---------------------------------------------------------------------------

def sqrt_mod_reference(a, p):
    """sqrt_mod as it was before the p = 3 mod 4 shortcut: Euler's criterion
    first, then one pow or Tonelli-Shanks."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
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


SECP_P = 2**256 - 2**32 - 977
_draws = random.Random(5)
SECP_SQUARES = [pow(_draws.randrange(1, SECP_P), 2, SECP_P) for _ in range(30)]


@pytest.mark.parametrize("p, values", [
    (17, range(17)),  # toy17's field, p = 1 mod 4
    (23, range(23)),
    # -1 is a non-residue mod p = 3 mod 4, so p - a square is none
    (SECP_P, [0] + SECP_SQUARES + [SECP_P - a for a in SECP_SQUARES]),
])
def test_sqrt_mod_matches_the_euler_criterion_version(p, values):
    answers = [sqrt_mod(a, p) for a in values]
    assert answers == [sqrt_mod_reference(a, p) for a in values]
    assert None in answers and any(answers)  # residues and non-residues


def test_sqrt_mod_both_residue_classes():
    for p in (17, 23, 2**256 - 2**32 - 977):
        seen = 0
        rng = random.Random(p)
        for _ in range(20):
            a = rng.randrange(1, p)
            r = sqrt_mod(a, p)
            if r is not None:
                assert r * r % p == a % p
                seen += 1
        assert 0 < seen < 20  # both residues and non-residues occurred


def test_jacobi_matches_euler_criterion_on_p23():
    # (a/23) is a^11 mod 23 read as 1, -1 (= 22) or 0, for every a in 0..23
    for a in range(24):
        assert _jacobi(a, 23) % 23 == pow(a, 11, 23)


def test_jacobi_is_the_product_of_legendre_symbols():
    # composite odd moduli take the reciprocity swaps down every branch
    odd_primes = [d for d in range(3, 300, 2) if is_probable_prime(d)]
    for n in range(1, 300, 2):
        factors, rest = [], n
        for d in odd_primes:
            while rest % d == 0:
                factors.append(d)
                rest //= d
        for a in range(-3, 2 * n + 3):
            want = 1
            for d in factors:  # Euler's criterion, read as 1, -1 or 0
                want *= (pow(a, (d - 1) // 2, d) + 1) % d - 1
            assert _jacobi(a, n) == want, (a, n)


@pytest.mark.parametrize("bits", [2048, 3072])
def test_jacobi_separates_members_of_the_standard_subgroups(bits):
    params = modp_group(bits)
    p, q = params.modulus, params.subgroup_order
    rng = random.Random(bits)
    for _ in range(3):
        member = params.power(params.g, rng.randrange(1, q))
        # p = 3 mod 4, so -1 is a non-residue and p - member is outside
        outside = p - member
        assert pow(member, q, p) == 1 and pow(outside, q, p) == p - 1
        assert _jacobi(member, p) == 1 and params.element_valid(member)
        assert _jacobi(outside, p) == -1 and not params.element_valid(outside)


@settings(max_examples=40)
@given(n=st.integers(2, 10_000))
def test_miller_rabin_matches_trial_division(n):
    truth = all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_probable_prime(n) == truth
