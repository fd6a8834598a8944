import hashlib
import random
import struct
from collections import Counter
from itertools import combinations

import pytest

from comhash import (
    AuthenticationError,
    EncodingError,
    GroupError,
    MultiplyRole,
    MultiplySession,
    Polynomial,
    Phase,
    ProtocolStateError,
    QuotientTable,
    SealedPolynomialEvaluator,
    cvhp,
    lagrange_at_zero,
    lagrange_from_quotients,
    multiply_step,
    poly_eval,
    ratio_from_quotients,
    run_multiply,
    run_threshold_session,
    scalar_to_bytes,
)
from comhash import groups, pke, threshold
from comhash.frames import Frame, MsgType, SERVER_ID, encode_frame
from comhash.groups import scalar_inv
from comhash.threshold import ThresholdParticipant, ThresholdServer, distinct_nonzero_scalars


# ---------------------------------------------------------------------------
# polynomials and plain recombination
# ---------------------------------------------------------------------------

def test_poly_eval_examples():
    f = Polynomial((5, 3), 11)  # 5 + 3x
    assert poly_eval(f, 1) == 8
    assert poly_eval(f, 2) == 0
    assert poly_eval(f, 0) == 5
    const = Polynomial((7,), 11)
    assert all(poly_eval(const, x) == 7 for x in range(11))


def test_lagrange_at_zero_examples():
    assert lagrange_at_zero([1, 2], 11) == [2, 10]
    assert lagrange_at_zero([4], 11) == [1]
    # reconstruction of f = 5 + 3x from shares at 1 and 2
    assert (8 * 2 + 0 * 10) % 11 == 5
    with pytest.raises(ValueError):
        lagrange_at_zero([3, 3], 11)
    with pytest.raises(ValueError):
        lagrange_at_zero([0, 2], 11)


@pytest.mark.parametrize("modulus", [11, 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141])
def test_shamir_every_subset_reconstructs(modulus):
    rng = random.Random(modulus % 97)
    for n in range(2, 7):
        for k in range(1, n + 1):
            secret = rng.randrange(modulus)
            poly = Polynomial.random(secret, k - 1, modulus, rng)
            xs = distinct_nonzero_scalars(modulus, n, rng)
            shares = [(x, poly(x)) for x in xs]
            for subset in combinations(shares, k):
                coeffs = lagrange_at_zero([x for x, _ in subset], modulus)
                value = sum(fx * c for (_, fx), c in zip(subset, coeffs)) % modulus
                assert value == secret


# ---------------------------------------------------------------------------
# quotient table
# ---------------------------------------------------------------------------

def make_table(xs, modulus):
    return QuotientTable(
        {i + 1: xs[i + 1] * scalar_inv(xs[i], modulus) % modulus
         for i in range(len(xs) - 1)},
        modulus,
    )


def test_ratio_from_quotients_example():
    table = make_table([3, 4, 5], 11)
    assert table.quotients == {1: 5, 2: 4}  # 4/3 = 5, 5/4 = 4 mod 11
    assert ratio_from_quotients(table, 1, 3) == 9  # 5/3 mod 11
    assert ratio_from_quotients(table, 1, 2) == table.quotients[1]
    assert ratio_from_quotients(table, 2, 2) == 1
    assert ratio_from_quotients(table, 3, 1) == scalar_inv(9, 11)
    with pytest.raises(KeyError):
        ratio_from_quotients(table, 1, 4)


def test_lagrange_from_quotients_pinned_value():
    # x = [3, 4]: the true coefficients are [4, 8] (oracle below confirms)
    assert lagrange_at_zero([3, 4], 11) == [4, 8]
    table = make_table([3, 4], 11)
    assert lagrange_from_quotients(table, (1, 2), 1) == 4
    assert lagrange_from_quotients(table, (1, 2), 2) == 8


def test_lagrange_from_quotients_single_member():
    table = make_table([3, 4], 11)
    assert lagrange_from_quotients(table, (1,), 1) == 1


def test_lagrange_from_quotients_duplicate_points():
    table = QuotientTable({1: 1}, 11)  # x2/x1 = 1 means x1 = x2
    with pytest.raises(ValueError):
        lagrange_from_quotients(table, (1, 2), 1)


@pytest.mark.parametrize("modulus,sets", [
    (11, 100), (101, 100),
    (0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141, 300),
])
def test_quotient_path_matches_direct_lagrange(modulus, sets):
    # 500 random point sets across the three fields
    rng = random.Random(modulus % 1009)
    for _ in range(sets):
        n = rng.randrange(2, 7)
        xs = distinct_nonzero_scalars(modulus, n, rng)
        table = make_table(xs, modulus)
        subset = tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
        direct = lagrange_at_zero([xs[i - 1] for i in subset], modulus)
        for pos, i in enumerate(subset):
            assert lagrange_from_quotients(table, subset, i) == direct[pos]


def test_quotient_table_serialization_round_trip():
    table = make_table([3, 4, 5, 9], 11)
    data = table.to_bytes()
    assert QuotientTable.from_bytes(data, 11) == table
    with pytest.raises(Exception):
        QuotientTable.from_bytes(data[:-1], 11)


def test_quotient_table_rejects_zero():
    with pytest.raises(ValueError):
        QuotientTable({1: 0}, 11)


SECP256K1_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def _table_bytes(entries, width=1):
    return struct.pack("!I", len(entries)) + b"".join(
        struct.pack("!H", i) + v.to_bytes(width, "big") for i, v in entries)


def test_quotient_table_from_bytes_rejects_repeated_index():
    # a repeated index would keep only the last value, so to_bytes() would
    # no longer give back the input
    with pytest.raises(EncodingError):
        QuotientTable.from_bytes(_table_bytes([(1, 3), (1, 5)]), 11)
    with pytest.raises(EncodingError):
        QuotientTable.from_bytes(_table_bytes([(1, 3), (2, 4), (1, 3)]), 11)
    data = _table_bytes([(1, 3), (2, 4)])
    assert QuotientTable.from_bytes(data, 11).to_bytes() == data


def test_quotient_table_from_bytes_rejects_zero_quotient():
    with pytest.raises(EncodingError):
        QuotientTable.from_bytes(_table_bytes([(1, 3), (2, 0)]), 11)


@pytest.mark.parametrize("modulus", [101, SECP256K1_ORDER])
def test_quotient_path_matches_direct_lagrange_realistic_shapes(modulus):
    # subsets up to k=64 out of n up to 96, never contiguous, passed unsorted,
    # and from a table that holds only the quotients inside their span
    rng = random.Random(modulus % 7919)
    for n, k in ((96, 64), (96, 2), (90, 47), (70, 64), (65, 64), (40, 17)):
        xs = distinct_nonzero_scalars(modulus, n, rng)
        full = make_table(xs, modulus)
        subset = rng.sample(range(1, n + 1), k)
        while max(subset) - min(subset) + 1 == k or subset == sorted(subset):
            subset = rng.sample(range(1, n + 1), k)
        lo, hi = min(subset), max(subset)
        table = QuotientTable({j: v for j, v in full.quotients.items()
                               if lo <= j < hi}, modulus)
        direct = lagrange_at_zero([xs[i - 1] for i in subset], modulus)
        assert [lagrange_from_quotients(table, subset, i) for i in subset] == direct
        assert lagrange_from_quotients(full, tuple(subset), subset[0]) == direct[0]


def test_lagrange_from_quotients_missing_quotient_in_span():
    table = make_table([3, 4, 5, 9, 2], 11)
    del table.quotients[2]
    with pytest.raises(KeyError):
        lagrange_from_quotients(table, (1, 4), 1)
    with pytest.raises(KeyError):
        lagrange_from_quotients(table, (4, 2), 4)
    # quotients outside the span are not needed: x4 = 9, x3 = 5
    assert [lagrange_from_quotients(table, (4, 3), i) for i in (4, 3)] \
        == lagrange_at_zero([9, 5], 11)


def test_lagrange_from_quotients_non_adjacent_duplicate():
    a = 5
    table = QuotientTable({1: a, 2: scalar_inv(a, 11)}, 11)  # x3 = x2/a = x1
    for subset in ((1, 3), (3, 1), (1, 2, 3), (2, 3, 1)):
        for i in subset:
            with pytest.raises(ValueError):
                lagrange_from_quotients(table, subset, i)
    with pytest.raises(ValueError):
        lagrange_from_quotients(table, (1, 2), 3)  # index not in the subset


def test_both_lagrange_paths_invert_once_per_coefficient(monkeypatch):
    # lagrange_at_zero's arithmetic serves both paths: one inversion per
    # coefficient asked for, k for every point, one from the quotients
    mod, xs = 101, [3, 7, 12, 40, 41, 77, 90, 99]
    table = QuotientTable({i + 1: xs[i + 1] * scalar_inv(xs[i], mod) % mod
                           for i in range(len(xs) - 1)}, mod)
    direct = lagrange_at_zero(xs, mod)
    subset_direct = lagrange_at_zero([xs[1], xs[4], xs[7]], mod)
    calls = []

    def counted(u, modulus):
        calls.append(u)
        return scalar_inv(u, modulus)

    monkeypatch.setattr(threshold, "scalar_inv", counted)
    assert lagrange_at_zero(xs, mod) == direct and len(calls) == len(xs)
    calls.clear()
    assert lagrange_from_quotients(table, (2, 5, 8), 5) == subset_direct[1]
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# blinded multiplication
# ---------------------------------------------------------------------------

def test_multiply_pinned_transcript():
    p1 = MultiplySession(MultiplyRole.P1, 11, blinding=2, value=3)
    p2 = MultiplySession(MultiplyRole.P2, 11, blinding=5, value=4)
    server = MultiplySession(MultiplyRole.SERVER, 11, blinding=7)
    t1 = multiply_step(p1, None)
    t2 = multiply_step(p2, t1)
    t3 = multiply_step(server, t2)
    t4 = multiply_step(p1, t3)
    t5 = multiply_step(p2, t4)
    t6 = multiply_step(server, t5)
    assert (t1, t2, t3, t4, t5, t6) == (6, 10, 4, 2, 7, 1)
    assert t6 == 3 * 4 % 11


def test_multiply_identity_input():
    p1 = MultiplySession(MultiplyRole.P1, 11, blinding=2, value=6)
    p2 = MultiplySession(MultiplyRole.P2, 11, blinding=5, value=1)
    server = MultiplySession(MultiplyRole.SERVER, 11, blinding=7)
    v = None
    for machine in (p1, p2, server, p1, p2, server):
        v = multiply_step(machine, v)
    assert v == 6  # y = 1 hands the server x itself


def test_multiply_output_independent_of_blinding():
    product, _ = run_multiply(3, 4, 11, random.Random(1))
    for seed in (2, 3, 4):
        again, _ = run_multiply(3, 4, 11, random.Random(seed))
        assert again == product == 1


def test_multiply_step_order_enforced():
    p1 = MultiplySession(MultiplyRole.P1, 11, blinding=2, value=3)
    with pytest.raises(ProtocolStateError):
        # first step takes no incoming scalar
        multiply_step(p1, 5)
    multiply_step(p1, None)
    multiply_step(p1, 5)
    with pytest.raises(ProtocolStateError):
        multiply_step(p1, 5)  # this party has no third step


def test_multiply_rejects_zero_values():
    with pytest.raises(ValueError):
        MultiplySession(MultiplyRole.P1, 11, blinding=0, value=3)
    with pytest.raises(ValueError):
        MultiplySession(MultiplyRole.P2, 11, blinding=2, value=0)
    p2 = MultiplySession(MultiplyRole.P2, 11, blinding=2, value=3)
    with pytest.raises(ValueError):
        multiply_step(p2, 0)


def test_multiply_random_triples():
    rng = random.Random(42)
    for _ in range(200):
        q = 11 if rng.random() < 0.5 else 101
        x, y = rng.randrange(1, q), rng.randrange(1, q)
        product, frames = run_multiply(x, y, q, rng)
        assert product == x * y % q
        assert len(frames) == 6


def test_multiply_in_flight_values_are_masked():
    # with all blinding factors != 1, no party's received value equals an
    # input or the product
    q = 101
    rng = random.Random(9)
    for _ in range(100):
        x, y = rng.randrange(1, q), rng.randrange(1, q)
        r1 = rng.randrange(2, q)
        r2 = rng.randrange(2, q)
        rs = rng.randrange(2, q)
        while (r1 * r2 % q == 1 or r1 * r2 * rs % q == 1
               or rs * x * r2 % q == 1):
            r2, rs = rng.randrange(2, q), rng.randrange(2, q)
        p1 = MultiplySession(MultiplyRole.P1, q, blinding=r1, value=x)
        p2 = MultiplySession(MultiplyRole.P2, q, blinding=r2, value=y)
        server = MultiplySession(MultiplyRole.SERVER, q, blinding=rs)
        t1 = multiply_step(p1, None)        # P2 receives
        t2 = multiply_step(p2, t1)          # server receives
        t3 = multiply_step(server, t2)      # P1 receives
        t4 = multiply_step(p1, t3)          # P2 receives
        t5 = multiply_step(p2, t4)          # server receives
        t6 = multiply_step(server, t5)
        assert t6 == x * y % q
        assert t1 != x % q                  # r1 != 1 masks x
        assert t2 != x * y % q              # r1*r2 != 1 masks the product
        assert t3 != x * y % q              # r1*r2*rs != 1
        assert t4 != y % q                  # rs*x*r2 != 1 by construction
        assert t5 != x * y % q              # rs != 1


def test_multiply_frames_use_reserved_types():
    _, frames = run_multiply(3, 4, 11, random.Random(5))
    assert [int(f.msg_type) for f in frames] == [0x20, 0x21, 0x22, 0x23, 0x24, 0x25]


# ---------------------------------------------------------------------------
# sealed evaluator
# ---------------------------------------------------------------------------

def test_evaluator_matches_direct_evaluation(toy_subgroup):
    evaluator = SealedPolynomialEvaluator(toy_subgroup, max_degree=4)
    kp = pke.generate_keypair(toy_subgroup, rng=random.Random(1))
    poly = Polynomial((5, 3), 11)
    blob = evaluator.encrypt_input(kp.public, 2, rng=random.Random(2))
    sealed = evaluator.apply_poly(blob, poly)
    assert evaluator.decrypt_output(kp.secret, sealed) == 0 == poly_eval(poly, 2)


def test_evaluator_constant_polynomial(toy_subgroup):
    evaluator = SealedPolynomialEvaluator(toy_subgroup, max_degree=4)
    kp = pke.generate_keypair(toy_subgroup, rng=random.Random(3))
    poly = Polynomial((9,), 11)
    for x in (1, 5, 10):
        blob = evaluator.encrypt_input(kp.public, x, rng=random.Random(x))
        assert evaluator.decrypt_output(kp.secret, evaluator.apply_poly(blob, poly)) == 9


def test_evaluator_degree_limit(toy_subgroup):
    evaluator = SealedPolynomialEvaluator(toy_subgroup, max_degree=1)
    kp = pke.generate_keypair(toy_subgroup, rng=random.Random(4))
    blob = evaluator.encrypt_input(kp.public, 2, rng=random.Random(5))
    with pytest.raises(ValueError):
        evaluator.apply_poly(blob, Polynomial((1, 2, 3), 11))


def test_evaluator_blob_opaque_to_other_keys(toy_subgroup):
    # the input blob is a genuine authenticated ciphertext under the
    # participant's key: any other key fails to open it
    from comhash import AuthenticationError

    evaluator = SealedPolynomialEvaluator(toy_subgroup)
    owner_kp = pke.generate_keypair(toy_subgroup, rng=random.Random(6))
    blob = evaluator.encrypt_input(owner_kp.public, 7, rng=random.Random(7))
    assert evaluator.decrypt_output(owner_kp.secret,
                                    evaluator.apply_poly(blob, Polynomial((0, 1), 11))) == 7
    server_secret = (owner_kp.secret + 1) % 11 or 1
    with pytest.raises(AuthenticationError):
        evaluator.decrypt_output(server_secret,
                                 evaluator.apply_poly(blob, Polynomial((0, 1), 11)))


# ---------------------------------------------------------------------------
# full threshold sessions
# ---------------------------------------------------------------------------

def test_threshold_toy_digest_is_4(toy_subgroup):
    run = run_threshold_session(toy_subgroup, s0=5, t0=6, k=3, n=5, m=4,
                                rng=random.Random(1))
    assert run.digest == 4
    assert run.digest == cvhp(toy_subgroup, (4 + 5) % 11, 6)


def test_threshold_every_subset_same_digest(toy_subgroup):
    expected = cvhp(toy_subgroup, (4 + 5) % 11, 6)
    for subset in combinations(range(1, 6), 3):
        run = run_threshold_session(toy_subgroup, 5, 6, 3, 5, 4,
                                    rng=random.Random(7), subset=subset)
        assert run.digest == expected, subset


def test_threshold_on_curve_backend(toy_curve):
    rng = random.Random(11)
    s0, t0, m = 5, 7, 12
    expected = cvhp(toy_curve, (m + s0) % 19, t0)
    for subset in combinations(range(1, 6), 3):
        run = run_threshold_session(toy_curve, s0, t0, 3, 5, m,
                                    rng=random.Random(13), subset=subset)
        assert run.digest == expected, subset
    # and with a random subset choice
    run = run_threshold_session(toy_curve, s0, t0, 3, 5, m, rng=rng)
    assert run.digest == expected


def test_threshold_k_equals_n(toy_subgroup):
    run = run_threshold_session(toy_subgroup, 5, 6, 5, 5, 4,
                                rng=random.Random(20))
    assert run.digest == cvhp(toy_subgroup, (4 + 5) % 11, 6)
    assert run.server.subset == (1, 2, 3, 4, 5)


def test_threshold_owner_can_be_any_subset_member(toy_subgroup):
    expected = cvhp(toy_subgroup, (4 + 5) % 11, 6)
    for owner in (2, 4, 5):
        run = run_threshold_session(toy_subgroup, 5, 6, 3, 5, 4,
                                    rng=random.Random(30), subset=(2, 4, 5),
                                    owner=owner)
        assert run.digest == expected
    with pytest.raises(ValueError):
        run_threshold_session(toy_subgroup, 5, 6, 3, 5, 4,
                              rng=random.Random(31), subset=(2, 4, 5), owner=1)


def test_threshold_rejects_bad_k(toy_subgroup):
    for bad_k in (0, 1, 6):
        with pytest.raises(ValueError):
            run_threshold_session(toy_subgroup, 5, 6, bad_k, 5, 4,
                                  rng=random.Random(1))


def test_threshold_rejects_wrong_subset_size(toy_subgroup):
    with pytest.raises(ValueError):
        run_threshold_session(toy_subgroup, 5, 6, 3, 5, 4,
                              rng=random.Random(1), subset=(1, 2))


def test_threshold_rejects_primitive_mode(toy_primitive):
    # order-2q generators break the recombination identity
    with pytest.raises(ValueError):
        run_threshold_session(toy_primitive, 5, 6, 3, 5, 4,
                              rng=random.Random(1))


def test_threshold_nonce_mismatch_fails(toy_subgroup):
    from comhash import ErrorCode, Frame, MsgType, Phase

    server, parts, issued = _open_round(toy_subgroup, random.Random(40))
    # participant 2 echoes participant 1's nonce next to its own coefficient
    wrong = Frame(MsgType.THRESH_NONCE, server.session_id, 0,
                  issued[1].payload[:32] + issued[2].payload[32:])
    server.absorb(parts[1].respond(wrong))
    assert server.phase is Phase.FAILED
    assert server.error_code is ErrorCode.NONCE_MISMATCH
    assert server.digest is None


def _open_round(params, rng):
    """A 2-of-3 ThresholdServer with participants 1 and 2 chosen; returns
    the server, the participants, and each chosen one's THRESH_NONCE."""
    from comhash.threshold import ThresholdParticipant, ThresholdServer

    server_kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, 3, 2, 5, 6, server_kp, rng)
    parts = [ThresholdParticipant(params, i, server_kp.public, rng)
             for i in range(1, 4)]
    for part in parts:
        part.receive_deal(server.deal_frame(part.index, part.keypair.public))
    return server, parts, dict(server.begin_round(subset=(1, 2)))


def test_threshold_server_rejects_plain_share_frame(toy_subgroup):
    # both rounds share the SHARE frame, so a basic participant's share for
    # the THRESH_NONCE's nonce under this session id reaches the receipt
    # check; its receipt does not cover the coefficient, so it fails there
    from comhash import ErrorCode, ParticipantKeys, ParticipantSession

    server, _, issued = _open_round(toy_subgroup, random.Random(41))
    nonce = issued[1]
    plain = ParticipantSession(toy_subgroup, 1, ParticipantKeys(3, 4),
                               server.keypair.public, rng=random.Random(5),
                               session_id=server.session_id)
    share = plain.respond(Frame(MsgType.NONCE, nonce.session_id, SERVER_ID,
                                nonce.payload[:32]))
    assert (share.msg_type, share.session_id) == (MsgType.SHARE, server.session_id)
    server.absorb(share)
    assert server.phase is Phase.FAILED
    assert server.error_code is ErrorCode.DECRYPT_FAIL
    assert server.digest is None


def test_threshold_server_result_frame_type(toy_subgroup):
    from comhash import MsgType, Phase, element_to_bytes

    server, parts, issued = _open_round(toy_subgroup, random.Random(42))
    server.absorb(parts[0].respond(issued[1], m=4))
    server.absorb(parts[1].respond(issued[2]))
    assert server.phase is Phase.COLLECTING
    digest = server.finalize()
    assert digest == cvhp(toy_subgroup, (4 + 5) % 11, 6)
    result = server.result_frame()
    assert result.msg_type is MsgType.RESULT
    assert result.payload == element_to_bytes(toy_subgroup, digest)


def test_threshold_begin_round_twice_same_subset(toy_subgroup):
    # the nonces were issued once; issuing them again is a state error
    server, _, _ = _open_round(toy_subgroup, random.Random(43))
    nonces = dict(server.nonces)
    with pytest.raises(ProtocolStateError):
        server.begin_round(subset=(1, 2))
    with pytest.raises(ProtocolStateError):
        server.begin_round()
    assert server.subset == (1, 2) and server.nonces == nonces


def test_threshold_begin_round_twice_other_subset(toy_subgroup):
    # participant 3's nonce was pruned by the first round
    server, _, _ = _open_round(toy_subgroup, random.Random(44))
    with pytest.raises(ProtocolStateError):
        server.begin_round(subset=(2, 3))
    assert server.subset == (1, 2) and set(server.nonces) == {1, 2}


def test_begin_round_inversion_budget(secp, monkeypatch):
    # one inversion per chosen member: k = n = 64 costs 64
    k = n = 64
    mod = secp.exponent_modulus
    rng = random.Random(45)
    server = ThresholdServer(secp, n, k, 5, 6, pke.generate_keypair(secp, rng), rng)
    calls = []

    def counted(u, modulus):
        calls.append(u)
        return scalar_inv(u, modulus)

    monkeypatch.setattr(threshold, "scalar_inv", counted)
    issued = server.begin_round()
    monkeypatch.undo()
    assert len(calls) == k
    coeffs = [int.from_bytes(frame.payload[32:], "big") for _, frame in issued]
    assert coeffs == lagrange_at_zero(range(1, n + 1), mod)


def test_threshold_round_builds_a_table_for_the_server_key_only(secp, monkeypatch):
    # every deal and receipt of a round raises its one server key, so that
    # key takes a bounded power on a table built once per round; a member's
    # key is dealt to once and gets none. The kinds: per member, g^sk, the
    # dealer's pk_i^sk and the member's server_key^a, and per chosen member a
    # share's g^x and h^y and the receipt's g^e, pk^e and the server's
    # decryption
    k, n = 2, 3
    digest = cvhp(secp, 5 + 7, 6)
    calls = {"fixed": 0, "var": 0, "bounded": []}
    power = type(secp).power

    def counted(self, base, exponent, bits=None):
        calls["fixed" if base in (self.g, self.h) else "var"] += 1
        if bits is not None:
            calls["bounded"].append(base)
        return power(self, base, exponent, bits)

    monkeypatch.setattr(type(secp), "power", counted)
    for seed in (71, 72):
        misses = groups._ec_comb_table.cache_info().misses
        calls.update(fixed=0, var=0, bounded=[])
        run = run_threshold_session(secp, 5, 6, k, n, 7, random.Random(seed))
        assert run.digest == digest
        assert (calls["fixed"], calls["var"]) == (n + 3 * k + 1, 2 * n + 2 * k)
        assert Counter(calls["bounded"]) == {secp.g: n + k + 1,
                                             run.server.keypair.public: n + k}
        assert groups._ec_comb_table.cache_info().misses == misses + 1


def test_threshold_transcript_bytes_pinned(secp):
    # n deals, a nonce and its coefficient per chosen member, k basic SHARE
    # frames and the basic RESULT; every byte of a seeded session is pinned
    run = run_threshold_session(secp, s0=11, t0=22, k=5, n=8, m=33,
                                rng=random.Random(2024), subset=(7, 2, 5, 8, 3))
    assert run.server.subset == (2, 3, 5, 7, 8)
    assert run.digest == cvhp(secp, 33 + 11, 22)
    blob = b"".join(encode_frame(frame) for frame in run.transcript)
    assert (len(run.transcript), len(blob)) == (19, 2086)
    assert [f.msg_type for f in run.transcript] == (
        [MsgType.THRESH_DEAL] * 8 + [MsgType.THRESH_NONCE] * 5
        + [MsgType.SHARE] * 5 + [MsgType.RESULT])
    assert hashlib.sha256(blob).hexdigest() == \
        "caced646c150ed790817fcf744f949a8edf211fb8674e0de9988793b5ad22583"


@pytest.mark.parametrize("case", ["share_as_nonce", "other_session"])
def test_threshold_respond_checks_frame_types_and_session(case, secp):
    from comhash import Frame

    _, parts, issued = _open_round(secp, random.Random(47))
    nonce = issued[1]
    if case == "share_as_nonce":
        frame = Frame(MsgType.SHARE, nonce.session_id, 0, nonce.payload)
    else:
        frame = Frame(MsgType.THRESH_NONCE, bytes(15) + b"\x01", 0, nonce.payload)
    with pytest.raises(ProtocolStateError):
        parts[0].respond(frame, m=4)
    assert parts[0].respond(nonce, m=4).msg_type is MsgType.SHARE


def _deal_pair(params, seed):
    rng = random.Random(seed)
    server_kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, 2, 2, 5, 6, server_kp, rng)
    parts = [ThresholdParticipant(params, i, server_kp.public, rng) for i in (1, 2)]
    return server, parts


def test_receive_deal_rejects_another_sessions_deal(toy_subgroup):
    server, (part, _) = _deal_pair(toy_subgroup, 49)
    deal = server.deal_frame(1, part.keypair.public)
    assert deal.session_id == server.session_id
    stray = Frame(MsgType.THRESH_DEAL, bytes(16), SERVER_ID, deal.payload)
    assert stray.session_id != server.session_id
    with pytest.raises(AuthenticationError):
        part.receive_deal(stray)
    assert part.share_value is None and part.mask_value is None
    assert part.session_id is None
    part.receive_deal(deal)
    assert part.session_id == server.session_id
    assert (part.share_value, part.mask_value) == (server.share_poly(1), server.mask_poly(1))


def test_deal_sealed_for_another_session_fails_under_this_header(toy_subgroup):
    # a second session of the same server deals to the same participant key;
    # its sealed values are bound to that session, so this session's header
    # cannot carry them
    server, (part, _) = _deal_pair(toy_subgroup, 55)
    other = ThresholdServer(toy_subgroup, 2, 2, 5, 6, server.keypair, random.Random(56))
    assert other.session_id != server.session_id
    foreign = other.deal_frame(1, part.keypair.public)
    moved = Frame(MsgType.THRESH_DEAL, server.session_id, SERVER_ID, foreign.payload)
    with pytest.raises(AuthenticationError):
        part.receive_deal(moved)
    assert part.share_value is None and part.session_id is None
    # taken under its own header, the foreign deal leaves the participant in
    # the other session, and this session's round frames are refused
    part.receive_deal(foreign)
    assert part.session_id == other.session_id
    (_, nonce), _ = server.begin_round((1, 2))
    with pytest.raises(ProtocolStateError):
        part.respond(nonce)


def test_receive_deal_rejects_a_deal_for_another_index(toy_subgroup):
    server, (part1, part2) = _deal_pair(toy_subgroup, 50)
    # participant 2's values sealed to participant 1's key, and participant
    # 2's own deal handed to participant 1
    for deal in (server.deal_frame(2, part1.keypair.public),
                 server.deal_frame(2, part2.keypair.public)):
        with pytest.raises(AuthenticationError):
            part1.receive_deal(deal)
        assert part1.share_value is None and part1.session_id is None
    # index 0 would deal f(0) = s0 itself
    for index in (0, 3):
        with pytest.raises(ValueError):
            server.deal_frame(index, part1.keypair.public)


def _seal_deal(params, server, public, plaintext, keypair=None):
    """plaintext sealed as participant 1's deal in ``server``'s session,
    under the keys that ``keypair`` (by default the server's) and the
    participant's key ``public`` derive."""
    keypair = server.keypair if keypair is None else keypair
    keys = pke.deal_keys(params, keypair.secret, keypair.public, public,
                         server.session_id, 1, dealer=True)
    return Frame(MsgType.THRESH_DEAL, server.session_id, SERVER_ID,
                 pke.seal(*keys, server.session_id + b"\x00\x01", plaintext))


def test_receive_deal_reads_exactly_two_scalars(toy_subgroup):
    server, (part, _) = _deal_pair(toy_subgroup, 51)
    one = scalar_to_bytes(toy_subgroup, 4)
    for plaintext in (one, one * 3):
        with pytest.raises(EncodingError):
            part.receive_deal(_seal_deal(toy_subgroup, server, part.keypair.public, plaintext))
        assert part.share_value is None and part.session_id is None
    part.receive_deal(_seal_deal(toy_subgroup, server, part.keypair.public, one * 2))
    assert (part.share_value, part.mask_value) == (4, 4)


def _forged_deals(params, server, public):
    """Participant 1's deal with values 7 | 8, sealed by parties that do not
    hold ``server``'s secret: hashed ElGamal to the participant's key
    ``public``, as anyone who sees that key can, and the deal key of another
    server key pair, under its own public key and under ``server``'s."""
    values = scalar_to_bytes(params, 7) + scalar_to_bytes(params, 8)
    other = pke.generate_keypair(params, random.Random(58))
    impostor = pke.KeyPair(other.secret, server.keypair.public)
    return [Frame(MsgType.THRESH_DEAL, server.session_id, SERVER_ID,
                  pke.encrypt(params, public, values, random.Random(59),
                              server.session_id + b"\x00\x01")),
            _seal_deal(params, server, public, values, other),
            _seal_deal(params, server, public, values, impostor)]


def test_receive_deal_rejects_a_deal_not_keyed_by_the_server(secp):
    server, (part, _) = _deal_pair(secp, 60)
    for forged in _forged_deals(secp, server, part.keypair.public):
        with pytest.raises(AuthenticationError):
            part.receive_deal(forged)
        assert part.share_value is None and part.mask_value is None
        assert part.session_id is None
    part.receive_deal(server.deal_frame(1, part.keypair.public))
    assert (part.share_value, part.mask_value) == (server.share_poly(1), server.mask_poly(1))


@pytest.mark.parametrize("which", range(3))
def test_forged_deal_never_ends_a_round_done(which, secp, monkeypatch):
    # secp256k1, k = 3, n = 4, participant 1's deal replaced by a forgery:
    # the round stops at that deal and stores no digest
    deal_frame = ThresholdServer.deal_frame
    servers = []

    def forging(self, index, public):
        servers.append(self)
        if index == 1:
            return _forged_deals(secp, self, public)[which]
        return deal_frame(self, index, public)

    monkeypatch.setattr(ThresholdServer, "deal_frame", forging)
    with pytest.raises(AuthenticationError):
        run_threshold_session(secp, 5, 6, 3, 4, 7, random.Random(61))
    assert servers[0].phase is not Phase.DONE and servers[0].digest is None


def test_deal_frame_rejects_a_participant_key_outside_the_group(toy_curve, toy_subgroup,
                                                                 monkeypatch):
    # the identity, an off-curve point and a non-square mod 23, each refused
    # before any power is raised
    for params, bad in ((toy_curve, toy_curve.identity), (toy_curve, (1, 1)),
                        (toy_subgroup, toy_subgroup.identity), (toy_subgroup, 5)):
        server, _ = _deal_pair(params, 62)
        powers = []
        monkeypatch.setattr(type(params), "power",
                            lambda self, *args, **kwargs: powers.append(args))
        with pytest.raises(GroupError):
            server.deal_frame(1, bad)
        monkeypatch.undo()
        assert powers == []


def test_receive_deal_checks_the_frame_type(toy_subgroup):
    server, (part, _) = _deal_pair(toy_subgroup, 54)
    deal = server.deal_frame(1, part.keypair.public)
    with pytest.raises(ProtocolStateError):
        part.receive_deal(Frame(MsgType.THRESH_NONCE, deal.session_id, SERVER_ID, deal.payload))


def test_no_round_frame_carries_the_dealer_secrets(secp):
    # a seeded k=5, n=8 round: neither secret's scalar bytes appear in any
    # frame, sealed or not
    rng = random.Random(2025)
    s0, t0 = rng.randrange(secp.exponent_modulus), rng.randrange(secp.exponent_modulus)
    run = run_threshold_session(secp, s0, t0, 5, 8, 33, rng)
    assert run.digest == cvhp(secp, (33 + s0) % secp.exponent_modulus, t0)
    secrets = [scalar_to_bytes(secp, v) for v in (s0, t0)]
    for frame in run.transcript:
        data = encode_frame(frame)
        assert not any(secret in data for secret in secrets), frame.msg_type


def test_coefficient_tamper_fails_the_receipt(secp):
    # a chosen member scaling its share by a wrong coefficient would shift
    # the digest; the receipt covers the coefficient, so the round fails
    from comhash import ErrorCode, Phase

    server, parts, issued = _open_round(secp, random.Random(55))
    frame = issued[1]
    bumped = (int.from_bytes(frame.payload[32:], "big") + 1) % secp.exponent_modulus
    tampered = Frame(MsgType.THRESH_NONCE, frame.session_id, SERVER_ID,
                     frame.payload[:32] + scalar_to_bytes(secp, bumped))
    server.absorb(parts[0].respond(tampered, m=4))
    assert (server.phase, server.error_code) == (Phase.FAILED, ErrorCode.DECRYPT_FAIL)
    assert server.digest is None
    with pytest.raises(ProtocolStateError):
        server.finalize()


def test_a_coefficient_tamper_stops_the_driver(secp, monkeypatch):
    # run_threshold_session with one chosen member answering with its
    # coefficient + 1: the driver stops at that share, naming DECRYPT_FAIL,
    # and the server stores no digest
    begin_round, respond = ThresholdServer.begin_round, ThresholdParticipant.respond
    servers = []

    def recording(self, subset=None):
        servers.append(self)
        return begin_round(self, subset)

    def bumped(self, frame, m=None):
        if self.index == 2:
            coeff = (int.from_bytes(frame.payload[32:], "big") + 1) % secp.exponent_modulus
            frame = Frame(frame.msg_type, frame.session_id, frame.sender,
                          frame.payload[:32] + scalar_to_bytes(secp, coeff))
        return respond(self, frame, m)

    monkeypatch.setattr(ThresholdServer, "begin_round", recording)
    monkeypatch.setattr(ThresholdParticipant, "respond", bumped)
    with pytest.raises(ProtocolStateError, match="DECRYPT_FAIL"):
        run_threshold_session(secp, 5, 6, 3, 4, 7, random.Random(63), subset=(1, 2, 4))
    (server,) = servers
    assert server.phase is Phase.FAILED and server.digest is None


def test_absorb_before_the_round_is_a_state_error(toy_subgroup):
    server, _ = _deal_pair(toy_subgroup, 56)
    share = Frame(MsgType.SHARE, server.session_id, 1, b"")
    with pytest.raises(ProtocolStateError):
        server.absorb(share)


def test_threshold_rejects_more_participants_than_points(toy_subgroup):
    # the points 1..n are distinct and nonzero mod q = 11 only for n < 11
    rng = random.Random(57)
    with pytest.raises(ValueError):
        ThresholdServer(toy_subgroup, 11, 3, 5, 6, pke.generate_keypair(toy_subgroup, rng), rng)
    assert ThresholdServer(toy_subgroup, 10, 3, 5, 6,
                           pke.generate_keypair(toy_subgroup, rng), rng).n == 10


def test_round_reaches_none_of_the_point_hiding_primitives(toy_curve, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the round reached a point-hiding primitive")

    monkeypatch.setattr(threshold, "run_multiply", unreachable)
    monkeypatch.setattr(threshold, "lagrange_from_quotients", unreachable)
    for method in ("encrypt_input", "apply_poly", "decrypt_output"):
        monkeypatch.setattr(SealedPolynomialEvaluator, method, unreachable)
    expected = cvhp(toy_curve, (12 + 5) % 19, 7)
    for subset in combinations(range(1, 6), 3):
        run = run_threshold_session(toy_curve, 5, 7, 3, 5, 12, random.Random(58), subset)
        assert run.digest == expected
