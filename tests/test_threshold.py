import hashlib
import random
import struct
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comhash
from comhash import (
    AuthenticationError,
    EncodingError,
    ErrorCode,
    GroupError,
    MultiplyRole,
    MultiplySession,
    ParticipantKeys,
    Polynomial,
    Phase,
    ProtocolStateError,
    QuotientTable,
    SealedPolynomialEvaluator,
    cvhp,
    element_from_bytes,
    element_to_bytes,
    lagrange_at_zero,
    lagrange_from_quotients,
    member_share,
    multiply_step,
    poly_eval,
    ratio_from_quotients,
    reference_digest,
    run_multiply,
    run_threshold_session,
    scalar_to_bytes,
)
from comhash import groups, net, pke, protocol, threshold
from comhash.encoding import prefixed
from comhash.frames import HEADER_LENGTH, Frame, MsgType, SERVER_ID, encode_frame
from comhash.net import Drop, Duplicate, FaultPlan, FlipByte, Reorder
from comhash.groups import _ec_mul, scalar_inv
from comhash.threshold import ThresholdParticipant, ThresholdServer
from conftest import comb_builds, distinct_nonzero_scalars, forging_route


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


def test_threshold_shares_leave_the_share_memo_alone(toy_curve):
    # a threshold round's pairs are dealt fresh, so its shares never repeat:
    # kept in the memo they would only evict the basic round's member shares
    rng = random.Random(15)
    keys = [ParticipantKeys.random(toy_curve, rng) for _ in range(3)]
    server = pke.generate_keypair(toy_curve, rng)
    protocol._share_element.cache_clear()
    first = net.run_basic_session(toy_curve, keys, 4, seed=1, server_keypair=server)
    kept = protocol._share_element.cache_info().currsize
    for seed in range(3):
        run = run_threshold_session(toy_curve, 5, 7, 4, 5, 12, random.Random(seed))
        assert run.phase is Phase.DONE
    assert protocol._share_element.cache_info().currsize == kept
    misses = protocol._share_element.cache_info().misses
    second = net.run_basic_session(toy_curve, keys, 4, seed=2, server_keypair=server)
    assert second.digest == first.digest
    assert protocol._share_element.cache_info().misses == misses


def test_a_member_cannot_forge_another_members_share(toy_curve, monkeypatch):
    # member 2 also sends its SHARE under member 3's name when its deal arrives
    s0, t0, m = 5, 7, 12
    clean = run_threshold_session(toy_curve, s0, t0, 3, 3, m, random.Random(16))
    own = next(frame for d, frame in zip(clean.trace, clean.transcript)
               if d.src == 2 and frame.msg_type is MsgType.SHARE)
    forged = encode_frame(Frame(MsgType.SHARE, own.session_id, 3, own.payload))
    monkeypatch.setattr(net, "route", forging_route(net.route, 2, SERVER_ID, forged, False))
    run = run_threshold_session(toy_curve, s0, t0, 3, 3, m, random.Random(16))
    assert (run.phase, run.error_code) == (Phase.DONE, None)
    assert run.digest == cvhp(toy_curve, (m + s0) % 19, t0)


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
    # the round's deal keys need a group of prime order
    with pytest.raises(ValueError):
        run_threshold_session(toy_primitive, 5, 6, 3, 5, 4,
                              rng=random.Random(1))


def _publics(parts) -> dict:
    return {part.index: part.keypair.public for part in parts}


def _open_round(params, rng):
    """A 2-of-3 ThresholdServer with participants 1 and 2 chosen; returns
    the server, the participants, and each chosen one's THRESH_DEAL."""
    server_kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, 3, 2, 5, 6, server_kp, rng)
    parts = [ThresholdParticipant(params, i, server_kp.public, rng)
             for i in range(1, 4)]
    return server, parts, dict(server.begin_round(_publics(parts), subset=(1, 2)))


def _member_deal_keys(server, part) -> tuple:
    """The (stream, receipt MAC) deal keys ``part`` derives for the round."""
    shared = pke.member_shared(server.params, part.keypair.secret, server.keypair.public)
    stream, _, receipt_mac = pke.deal_keys(server.params, shared, server.keypair.public,
                                           part.keypair.public, server.session_id, part.index)
    return stream, receipt_mac


def _deal_pair(params, seed):
    rng = random.Random(seed)
    server_kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, 2, 2, 5, 6, server_kp, rng)
    parts = [ThresholdParticipant(params, i, server_kp.public, rng) for i in (1, 2)]
    return server, parts


def _keys_and_header(params, server, public, index, keypair=None):
    """The request's stream and MAC key that ``keypair`` (by default the
    server's) and the participant key ``public`` derive for ``index`` in
    ``server``'s session, and the request's unsent header."""
    keypair = server.keypair if keypair is None else keypair
    shared, = pke.dealer_shared(params, keypair.secret, [public])
    keys = pke.deal_keys(params, shared, keypair.public, public, server.session_id, index)
    return keys[:2], server.session_id + index.to_bytes(2, "big")


def _opened(params, server, public, index, frame) -> bytes:
    """The plaintext of participant ``index``'s request: x_i | y_i."""
    keys, header = _keys_and_header(params, server, public, index)
    return pke.unseal(*keys, header, frame.payload)


def _seal_deal(params, server, public, plaintext, keypair=None, index=1):
    """plaintext sealed as participant ``index``'s request in ``server``'s
    session, under the keys that ``keypair`` (by default the server's) and
    the participant's key ``public`` derive."""
    keys, header = _keys_and_header(params, server, public, index, keypair)
    return Frame(MsgType.THRESH_DEAL, server.session_id, SERVER_ID,
                 pke.seal(*keys, header, plaintext))


def _refused(part, frame, error):
    """``frame`` raises ``error`` at ``part``, which makes no SHARE and keeps
    its values and session id unset."""
    with pytest.raises(error):
        part.respond(frame, m=4)
    assert (part.share_value, part.mask_value, part.session_id) == (None, None, None)


def _decrypt_fail(server, frame, *honest):
    """``server`` absorbs ``frame``, then the other chosen members' ``honest``
    SHAREs, reading each receipt's form only; ``finalize`` then opens the
    receipts, fails DECRYPT_FAIL naming ``frame``'s sender and stores no digest."""
    for each in (frame, *honest):
        server.absorb(each)
    assert (server.phase, server.error_code) == (Phase.COLLECTING, None)
    with pytest.raises(ProtocolStateError):
        server.finalize()
    assert (server.phase, server.error_code, server.culprit) == \
        (Phase.FAILED, ErrorCode.DECRYPT_FAIL, frame.sender)
    assert server.digest is None
    with pytest.raises(ProtocolStateError):
        server.finalize()


def test_a_receipt_moved_to_another_index_fails(toy_subgroup):
    # participant 1's share, element and receipt, sent as participant 2's:
    # the receipt is a tag under participant 1's keys over index 1
    server, parts, issued = _open_round(toy_subgroup, random.Random(40))
    share = parts[0].respond(issued[1], m=4)
    _decrypt_fail(server, Frame(MsgType.SHARE, share.session_id, 2, share.payload), share)
    # and participant 2's element with participant 1's receipt
    server, parts, issued = _open_round(toy_subgroup, random.Random(40))
    width = len(share.payload) - pke.TAG_LENGTH
    own = parts[1].respond(issued[2])
    _decrypt_fail(server, Frame(MsgType.SHARE, own.session_id, 2,
                                own.payload[:width] + share.payload[width:]),
                  parts[0].respond(issued[1], m=4))


def test_a_receipt_moved_to_another_session_fails(secp):
    # two sessions of one server key with the same participant keys: the
    # share answered for the second, carried under the first's session id
    server, parts, issued = _open_round(secp, random.Random(41))
    other = ThresholdServer(secp, 3, 2, 5, 6, server.keypair, random.Random(42))
    assert other.session_id != server.session_id
    foreign = parts[1].respond(dict(other.begin_round(_publics(parts), subset=(1, 2)))[2])
    server.absorb(parts[0].respond(issued[1], m=4))
    _decrypt_fail(server, Frame(MsgType.SHARE, server.session_id, 2, foreign.payload))


@pytest.mark.parametrize("params", ["toy_curve", "toy_subgroup", "secp"])
def test_a_receipt_over_altered_element_bytes_fails(params, request):
    # an honest share whose element is replaced by another valid element,
    # the honest one times g, and whose receipt is kept
    params = request.getfixturevalue(params)
    server, parts, issued = _open_round(params, random.Random(43))
    share = parts[0].respond(issued[1], m=4)
    width = len(share.payload) - pke.TAG_LENGTH
    element = params.combine(element_from_bytes(params, share.payload[:width]), params.g)
    altered = element_to_bytes(params, element) + share.payload[width:]
    _decrypt_fail(server, Frame(MsgType.SHARE, share.session_id, 1, altered),
                  parts[1].respond(issued[2]))


def test_an_eavesdropper_cannot_answer_a_request(toy_subgroup):
    # an eavesdropper reads every frame of a 2-of-3 round and answers
    # participant 2's request with a share of its own element; it holds no
    # receipt key, so the best tag it has is the request's own, and the
    # round fails without a digest
    server, parts, issued = _open_round(toy_subgroup, random.Random(3))
    server.absorb(parts[0].respond(issued[1], m=4))
    request = issued[2]
    element = member_share(toy_subgroup, ParticipantKeys(3, 4))
    payload = element_to_bytes(toy_subgroup, element) + request.payload[-pke.TAG_LENGTH:]
    _decrypt_fail(server, Frame(MsgType.SHARE, request.session_id, 2, payload))


# ---------------------------------------------------------------------------
# a threshold round's receipts open at finalize, in index order
# ---------------------------------------------------------------------------

def _altered_tag(share):
    return Frame(MsgType.SHARE, share.session_id, share.sender,
                 share.payload[:-1] + bytes([share.payload[-1] ^ 1]))


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_two_bad_tags_name_the_lower_index(order, toy_subgroup):
    # both members' tags altered: the tags open in index order at finalize,
    # so 1 is named whichever arrives first
    server, parts, issued = _open_round(toy_subgroup, random.Random(48))
    shares = {1: parts[0].respond(issued[1], m=4), 2: parts[1].respond(issued[2])}
    for index in order:
        server.absorb(_altered_tag(shares[index]))
    assert server.phase is Phase.COLLECTING
    with pytest.raises(ProtocolStateError, match="DECRYPT_FAIL at participant 1$"):
        server.finalize()
    assert (server.phase, server.error_code, server.culprit, server.digest) == \
        (Phase.FAILED, ErrorCode.DECRYPT_FAIL, 1, None)


def test_a_bad_tag_and_a_later_malformed_share_end_malformed(toy_subgroup):
    # the bad tag is only read at absorb, so the later share whose receipt
    # is not one tag fails the round first, naming its sender
    server, parts, issued = _open_round(toy_subgroup, random.Random(49))
    server.absorb(_altered_tag(parts[0].respond(issued[1], m=4)))
    share = parts[1].respond(issued[2])
    server.absorb(Frame(MsgType.SHARE, share.session_id, 2, share.payload + b"\x00"))
    assert (server.phase, server.error_code, server.culprit, server.digest) == \
        (Phase.FAILED, ErrorCode.MALFORMED, 2, None)


def test_a_bad_tag_and_a_dropped_share_end_missing(toy_curve, monkeypatch):
    # over net.play: tags open at finalize, which a round with a share
    # missing never reaches, so the dropped member is named, not the altered one
    clean = _routed_round(toy_curve, 1, monkeypatch)
    shares = [ordinal for ordinal, frame in enumerate(clean.transcript)
              if frame.msg_type is MsgType.SHARE]
    altered, dropped = shares[:2]
    run = _routed_round(toy_curve, 1, monkeypatch, FaultPlan({
        altered: FlipByte(len(clean.trace[altered].data) - 1), dropped: Drop()}))
    assert (run.phase, run.error_code, run.digest) == (Phase.FAILED, ErrorCode.MISSING, None)
    assert run.server.culprit == clean.trace[dropped].src != clean.trace[altered].src
    assert run.transcript[-1] == run.server.error_frame()


def test_a_missing_owner_share_fails_before_any_check(toy_subgroup, monkeypatch):
    # the owner never answers: finalize fails MISSING at it before a tag
    # opens, and the dealer check, which reads the owner's share, never runs
    server, parts, issued = _open_round(toy_subgroup, random.Random(50))
    assert server.owner == 1
    server.absorb(parts[1].respond(issued[2]))
    monkeypatch.setattr(pke, "unseal", lambda *args: pytest.fail("a tag was opened"))
    with pytest.raises(ProtocolStateError, match="MISSING at participant 1$"):
        server.finalize()
    assert (server.phase, server.error_code, server.culprit, server.digest, server.shares) == \
        (Phase.FAILED, ErrorCode.MISSING, 1, None, {})
    with pytest.raises(ProtocolStateError, match="already failed"):
        server.finalize()


@pytest.mark.parametrize("name", ["toy_ec", "toy_modp_subgroup", "secp256k1"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tags_opened_at_finalize_fail_as_checked_one_by_one(name, data):
    # any k of n; each member's receipt kept, altered in one byte, or moved
    # from another index; shares delivered in any order: finalize ends as
    # checking each tag under its member's own keys in index order does
    params = getattr(comhash, name)()
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    n = data.draw(st.integers(2, 5), label="n")
    k = data.draw(st.integers(2, n), label="k")
    mod = params.exponent_modulus
    s0, t0, m = (rng.randrange(mod) for _ in range(3))
    kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, n, k, s0, t0, kp, rng)
    parts = [ThresholdParticipant(params, i, kp.public, rng) for i in range(1, n + 1)]
    issued = dict(server.begin_round(_publics(parts)))
    honest = {i: parts[i - 1].respond(issued[i], m=m if i == server.owner else None).payload
              for i in server.subset}
    payloads = {}
    for index, payload in honest.items():
        element_bytes, tag = payload[:-pke.TAG_LENGTH], payload[-pke.TAG_LENGTH:]
        action = data.draw(st.sampled_from(["keep", "alter", "move"]), label=f"tag {index}")
        if action == "alter":
            at = data.draw(st.integers(0, pke.TAG_LENGTH - 1), label="at")
            flip = data.draw(st.integers(1, 255), label="flip")
            tag = tag[:at] + bytes([tag[at] ^ flip]) + tag[at + 1:]
        elif action == "move":
            tag = honest[data.draw(st.sampled_from(server.subset), label="from")][-pke.TAG_LENGTH:]
        payloads[index] = element_bytes + tag
    expected = (Phase.DONE, None, None)
    for index in server.subset:  # sorted
        header = server.session_id + index.to_bytes(2, "big") + payloads[index][:-pke.TAG_LENGTH]
        try:
            pke.unseal(*_member_deal_keys(server, parts[index - 1]), header,
                       payloads[index][-pke.TAG_LENGTH:])
        except AuthenticationError:
            expected = (Phase.FAILED, ErrorCode.DECRYPT_FAIL, index)
            break
    for index in data.draw(st.permutations(server.subset), label="order"):
        server.absorb(Frame(MsgType.SHARE, server.session_id, index, payloads[index]))
    assert server.phase is Phase.COLLECTING
    try:
        server.finalize()
    except ProtocolStateError:
        pass
    assert (server.phase, server.error_code, server.culprit) == expected
    if server.phase is Phase.DONE:
        assert server.digest == cvhp(params, (m + s0) % mod, t0)
    else:
        assert server.digest is None


def test_request_and_receipt_keys_differ(secp):
    # both sides derive the same three keys, and the request's MAC key is
    # not the receipt's, so the request's tag never checks as a receipt
    server, parts, issued = _open_round(secp, random.Random(44))
    public = parts[0].keypair.public
    dealer_shared, = pke.dealer_shared(secp, server.keypair.secret, [public])
    member_shared = pke.member_shared(secp, parts[0].keypair.secret, server.keypair.public)
    dealer = pke.deal_keys(secp, dealer_shared, server.keypair.public, public,
                           server.session_id, 1)
    member = pke.deal_keys(secp, member_shared, server.keypair.public, public,
                           server.session_id, 1)
    assert dealer == member and [len(key) for key in dealer] == [32, 32, 32]
    stream, request_mac, receipt_mac = dealer
    assert len({stream, request_mac, receipt_mac}) == 3
    header = server.session_id + b"\x00\x01"
    assert pke.unseal(stream, request_mac, header, issued[1].payload)
    with pytest.raises(AuthenticationError):
        pke.unseal(stream, receipt_mac, header, issued[1].payload)


def test_threshold_server_result_frame_type(toy_subgroup):
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
    # the requests were issued once; issuing them again is a state error
    server, parts, _ = _open_round(toy_subgroup, random.Random(43))
    with pytest.raises(ProtocolStateError):
        server.begin_round(_publics(parts), subset=(1, 2))
    with pytest.raises(ProtocolStateError):
        server.begin_round(_publics(parts))
    assert (server.subset, server.owner, set(server.live)) == ((1, 2), 1, {1, 2})
    assert server.requests == {i: _member_deal_keys(server, parts[i - 1]) for i in (1, 2)}


def test_a_threshold_server_issues_no_nonce(toy_curve):
    # its begin_round is its one issuing step, so its table never holds a
    # nonce, and a hashed-ElGamal receipt of one fails with a code, not a TypeError
    assert not hasattr(ThresholdServer, "nonce_frames")
    server, _, _ = _open_round(toy_curve, random.Random(46))
    share = protocol.share_frame(
        toy_curve, ParticipantKeys(3, 4), 7, server.session_id, 1,
        lambda element: pke.encrypt(toy_curve, server.keypair.public, bytes(32),
                                    random.Random(47), element))
    server.absorb(share)
    assert (server.phase, server.error_code, server.culprit) == (
        Phase.FAILED, ErrorCode.MALFORMED, 1)
    assert server.digest is None


def test_a_threshold_server_refuses_to_finalize_before_begin_round(toy_curve):
    # no deal made, so no share is awaited: a state error, and the round can
    # still begin
    server, parts = _deal_pair(toy_curve, 64)
    with pytest.raises(ProtocolStateError):
        server.finalize()
    assert (server.phase, server.error_code, server.culprit, server.digest) == \
        (Phase.ISSUED, None, None, None)
    assert [i for i, _ in server.begin_round(_publics(parts))] == [1, 2]


def test_threshold_begin_round_twice_other_subset(toy_subgroup):
    # participant 3 stays outside the first round's subset
    server, parts, _ = _open_round(toy_subgroup, random.Random(44))
    with pytest.raises(ProtocolStateError):
        server.begin_round(_publics(parts), subset=(2, 3))
    assert server.subset == (1, 2) and set(server.live) == {1, 2}


def test_begin_round_sends_exactly_k_requests(toy_curve, monkeypatch):
    # with k < n, only the chosen participants receive a request and answer
    respond, answered = ThresholdParticipant.respond, []

    def recording(self, frame, m=None):
        answered.append(self.index)
        return respond(self, frame, m)

    monkeypatch.setattr(ThresholdParticipant, "respond", recording)
    run = run_threshold_session(toy_curve, 5, 7, 2, 5, 12, random.Random(64),
                                subset=(2, 4))
    assert run.digest == cvhp(toy_curve, (12 + 5) % 19, 7)
    # the router picks the delivery order; the RESULT closes the round
    types = [f.msg_type for f in run.transcript]
    assert Counter(types) == {MsgType.THRESH_DEAL: 2, MsgType.SHARE: 2, MsgType.RESULT: 1}
    assert types[-1] is MsgType.RESULT
    assert sorted(answered) == [2, 4]
    # and begin_round itself, with every key given and the subset drawn
    rng = random.Random(66)
    server_kp = pke.generate_keypair(toy_curve, rng)
    server = ThresholdServer(toy_curve, 5, 3, 5, 7, server_kp, rng)
    parts = [ThresholdParticipant(toy_curve, i, server_kp.public, rng) for i in range(1, 6)]
    issued = server.begin_round(_publics(parts))
    assert [i for i, _ in issued] == list(server.subset) and len(issued) == 3


def test_begin_round_inversion_budget(secp, monkeypatch):
    # the additive deal inverts no scalar: k = n = 64 costs none
    k = n = 64
    rng = random.Random(45)
    server_kp = pke.generate_keypair(secp, rng)
    server = ThresholdServer(secp, n, k, 5, 6, server_kp, rng)
    publics = _publics(ThresholdParticipant(secp, i, server_kp.public, rng)
                       for i in range(1, n + 1))
    calls = []

    def counted(u, modulus):
        calls.append(u)
        return scalar_inv(u, modulus)

    monkeypatch.setattr(threshold, "scalar_inv", counted)
    issued = server.begin_round(publics)
    monkeypatch.undo()
    assert calls == []
    # each request opens to the pair dealt to it, in subset order: x_i | y_i
    opened = [_opened(secp, server, publics[i], i, frame) for i, frame in issued]
    assert [(int.from_bytes(plain[:32], "big"), int.from_bytes(plain[32:], "big"))
            for plain in opened] == server.pairs


@pytest.mark.parametrize("params", ["toy_curve", "toy_subgroup", "secp"])
def test_dealt_pairs_sum_to_the_secrets_and_all_but_the_last_ignore_them(params, request):
    # a 4-of-6 round's pairs, read from its opened requests, sum to (s0, t0)
    # over the exponent field; a server built from the same seed with other
    # secrets deals byte-identical pairs to every chosen member but the last
    params = request.getfixturevalue(params)
    mod = params.exponent_modulus
    rounds = []
    for s0, t0 in ((5, 6), (9, 2)):
        rng = random.Random(70)
        server_kp = pke.generate_keypair(params, rng)
        server = ThresholdServer(params, 6, 4, s0, t0, server_kp, rng)
        publics = _publics(ThresholdParticipant(params, i, server_kp.public, rng)
                           for i in range(1, 7))
        opened = [_opened(params, server, publics[i], i, frame)
                  for i, frame in server.begin_round(publics)]
        width = len(opened[0]) // 2
        pairs = [(int.from_bytes(plain[:width], "big"), int.from_bytes(plain[width:], "big"))
                 for plain in opened]
        assert [sum(v) % mod for v in zip(*pairs)] == [s0, t0]
        rounds.append((server.subset, opened))
    (subset, first), (other_subset, second) = rounds
    assert subset == other_subset and len(subset) == 4
    assert first[:-1] == second[:-1] and first[-1] != second[-1]


def test_threshold_round_builds_a_table_for_the_server_key_only(secp, monkeypatch):
    # every chosen member raises the round's one server key to derive its
    # deal keys, so that key takes a bounded power on a table built once per
    # round; a member's key is dealt to once and gets none. The kinds: per
    # member, g^sk, plus the server's; per chosen member the member's
    # server_key^a and a share's g^x and h^y; the dealer check's g^x and h^y;
    # and one power_many that raises the k chosen members' keys to sk. A
    # receipt is a tag and raises nothing
    k, n = 2, 3
    digest = cvhp(secp, 5 + 7, 6)
    calls = {"fixed": 0, "var": 0, "bounded": [], "many": []}
    power, power_many = type(secp).power, type(secp).power_many

    def counted(self, base, exponent, bits=None):
        calls["fixed" if base in (self.g, self.h) else "var"] += 1
        if bits is not None:
            calls["bounded"].append(base)
        return power(self, base, exponent, bits)

    def counted_many(self, bases, exponent):
        calls["many"].append(list(bases))
        return power_many(self, bases, exponent)

    def recording(self, given, *args):
        publics.update(given)
        return begin_round(self, given, *args)

    publics, begin_round = {}, ThresholdServer.begin_round
    monkeypatch.setattr(type(secp), "power", counted)
    monkeypatch.setattr(type(secp), "power_many", counted_many)
    monkeypatch.setattr(ThresholdServer, "begin_round", recording)
    for seed in (71, 72):
        before = comb_builds()
        calls.update(fixed=0, var=0, bounded=[], many=[])
        run = run_threshold_session(secp, 5, 6, k, n, 7, random.Random(seed))
        assert run.digest == digest
        assert (calls["fixed"], calls["var"]) == (n + 2 * k + 3, k)
        assert Counter(calls["bounded"]) == {secp.g: n + 1,
                                             run.server.keypair.public: k}
        assert calls["many"] == [[publics[i] for i in run.server.subset]]
        assert comb_builds() == (before[0], before[1] + 1)


def test_one_shot_keys_leave_the_generator_tables_alone(secp, rng):
    # a key's table is kept apart from g's and h's, so 20 fresh keys on
    # tables and 20 evaluator inputs sealed to fresh keys evict neither
    bits = pke._exponent_bits(secp)
    evaluator = SealedPolynomialEvaluator(secp)
    for base in (secp.g, secp.h):
        secp.power(base, 1)
        secp.power(base, 1, bits=bits)
    before = comb_builds()
    for _ in range(20):
        key = secp.power(secp.g, rng.randrange(1, secp.order))
        secp.power(key, rng.randrange(2**bits), bits=bits)
    for x in range(20):
        evaluator.encrypt_input(pke.generate_keypair(secp, rng).public, x, rng)
    assert comb_builds() == (before[0], before[1] + 40)
    for base in (secp.g, secp.h):
        k = rng.randrange(secp.order)
        assert secp.power(base, k) == secp.power(base, k, bits=bits) == _ec_mul(secp, base, k)
    assert comb_builds() == (before[0], before[1] + 40)


def test_threshold_sessions_keep_two_key_tables_at_most(secp):
    # once g's and h's tables are warm, a session builds its one-shot server
    # key's table and nothing else, and a dead key's table is dropped: the
    # first session's key gets a new one
    run_threshold_session(secp, 5, 6, 2, 3, 7, random.Random(80))
    built, servers = [], []
    for seed in range(81, 86):
        before = comb_builds()
        run = run_threshold_session(secp, 5, 6, 2, 3, 7, random.Random(seed))
        assert run.digest == cvhp(secp, 5 + 7, 6)
        built.append(tuple(a - b for a, b in zip(comb_builds(), before)))
        servers.append(run.server.keypair.public)
    assert built == [(0, 1)] * 5
    assert groups._key_tables.cache_info().currsize <= 2
    before = comb_builds()
    secp.power(servers[-1], 3, bits=pke._exponent_bits(secp))
    assert comb_builds() == before
    assert secp.power(servers[0], 3, bits=pke._exponent_bits(secp)) == _ec_mul(secp, servers[0], 3)
    assert comb_builds() == (before[0], before[1] + 1)


def test_a_server_key_keeps_its_table_across_a_threshold_session(secp):
    # a long-lived basic server key's table outlives one interleaved
    # one-shot key: the basic session after the threshold one builds nothing
    rng = random.Random(17)
    keys = [ParticipantKeys.random(secp, rng) for _ in range(3)]
    server = pke.generate_keypair(secp, rng)
    net.run_basic_session(secp, keys, 5, seed=1, server_keypair=server)
    run_threshold_session(secp, 5, 6, 2, 3, 7, random.Random(18))
    before = comb_builds()
    out = net.run_basic_session(secp, keys, 5, seed=2, server_keypair=server)
    assert out.digest == reference_digest(secp, 5, keys)
    assert comb_builds() == before


def test_threshold_transcript_bytes_pinned(secp):
    # one request per chosen member, k basic SHARE frames and the basic
    # RESULT to the owner alone; every byte of a seeded session is pinned,
    # and so is the router's delivery order
    run = run_threshold_session(secp, s0=11, t0=22, k=5, n=8, m=33,
                                rng=random.Random(2024), subset=(7, 2, 5, 8, 3))
    assert run.server.subset == (2, 3, 5, 7, 8) and run.server.owner == 2
    assert run.digest == cvhp(secp, 33 + 11, 22)
    frames = [encode_frame(frame) for frame in run.transcript]
    assert frames == [d.data for d in run.trace]
    assert (len(frames), len(b"".join(frames))) == (11, 975)
    assert [(d.src, d.dst) for d in run.trace] == [
        (0, 7), (0, 3), (0, 5), (0, 8), (3, 0), (8, 0), (0, 2), (2, 0), (5, 0), (7, 0),
        (0, 2)]
    assert [f.msg_type for f in run.transcript] == (
        [MsgType.THRESH_DEAL] * 4 + [MsgType.SHARE] * 2 + [MsgType.THRESH_DEAL]
        + [MsgType.SHARE] * 3 + [MsgType.RESULT])
    assert hashlib.sha256(b"".join(frames)).hexdigest() == \
        "da089905147937d85a70e3a58628624a1cf1b40a8acbea1edae08e849c832cf6"
    # and the frames as a multiset, whatever order the router picks
    assert hashlib.sha256(b"".join(sorted(frames))).hexdigest() == \
        "f3e5fca00f8b17ed76c78a590e9abb541a6f6331b95a762b52b4d65206a62308"


@pytest.mark.parametrize("case", ["share_as_nonce", "other_session"])
def test_threshold_respond_checks_frame_types_and_session(case, secp):
    _, parts, issued = _open_round(secp, random.Random(47))
    request = issued[1]
    if case == "share_as_nonce":
        frame = Frame(MsgType.SHARE, request.session_id, 0, request.payload)
        error = ProtocolStateError
    else:
        frame = Frame(MsgType.THRESH_DEAL, bytes(15) + b"\x01", 0, request.payload)
        error = AuthenticationError
    _refused(parts[0], frame, error)
    assert parts[0].respond(request, m=4).msg_type is MsgType.SHARE


def test_receive_deal_rejects_another_sessions_deal(toy_subgroup):
    server, parts = _deal_pair(toy_subgroup, 49)
    request = dict(server.begin_round(_publics(parts)))[1]
    assert request.session_id == server.session_id
    stray = Frame(MsgType.THRESH_DEAL, bytes(16), SERVER_ID, request.payload)
    assert stray.session_id != server.session_id
    _refused(parts[0], stray, AuthenticationError)
    share = parts[0].respond(request, m=4)
    assert parts[0].session_id == share.session_id == server.session_id
    assert (parts[0].share_value, parts[0].mask_value) == server.pairs[0]


def test_deal_sealed_for_another_session_fails_under_this_header(toy_subgroup):
    # a second session of the same server deals to the same participant key;
    # its sealed values are bound to that session, so this session's header
    # cannot carry them
    server, parts = _deal_pair(toy_subgroup, 55)
    other = ThresholdServer(toy_subgroup, 2, 2, 5, 6, server.keypair, random.Random(56))
    assert other.session_id != server.session_id
    server.begin_round(_publics(parts))
    foreign = dict(other.begin_round(_publics(parts)))[1]
    moved = Frame(MsgType.THRESH_DEAL, server.session_id, SERVER_ID, foreign.payload)
    _refused(parts[0], moved, AuthenticationError)
    # taken under its own header, the foreign request is answered for the
    # other session, and this session refuses the share
    share = parts[0].respond(foreign)
    assert share.session_id == other.session_id
    server.absorb(share)
    assert (server.phase, server.error_code) == (Phase.FAILED, ErrorCode.MALFORMED)


def test_receive_deal_rejects_a_deal_for_another_index(toy_subgroup):
    server, (part1, part2) = _deal_pair(toy_subgroup, 50)
    # participant 2's request sealed to participant 1's key, and participant
    # 2's own request handed to participant 1
    other = ThresholdServer(toy_subgroup, 2, 2, 5, 6, server.keypair, random.Random(57))
    misdirected = dict(other.begin_round({1: part1.keypair.public, 2: part1.keypair.public}))
    own = dict(server.begin_round(_publics((part1, part2))))
    for request in (misdirected[2], own[2]):
        _refused(part1, request, AuthenticationError)
    # index 0 would deal f(0) = s0 itself
    fresh, parts = _deal_pair(toy_subgroup, 51)
    for subset in ((0, 1), (1, 3)):
        with pytest.raises(ValueError):
            fresh.begin_round({0: part1.keypair.public, **_publics(parts)}, subset)
    assert fresh.subset is None


def test_request_reads_exactly_two_scalars(toy_subgroup):
    server, (part, _) = _deal_pair(toy_subgroup, 51)
    one = scalar_to_bytes(toy_subgroup, 4)
    for plaintext in (one, one * 3, one * 2 + bytes(32), one * 2 + b"\x00"):
        _refused(part, _seal_deal(toy_subgroup, server, part.keypair.public, plaintext),
                 EncodingError)
    part.respond(_seal_deal(toy_subgroup, server, part.keypair.public, one * 2))
    assert (part.share_value, part.mask_value) == (4, 4)


def _forged_deals(params, server, public):
    """Participant 1's request with values 7 | 8, sealed by
    parties that do not hold ``server``'s secret: hashed ElGamal to the
    participant's key ``public``, as anyone who sees that key can, and the
    deal key of another server key pair, under its own public key and under
    ``server``'s."""
    values = b"".join(scalar_to_bytes(params, v) for v in (7, 8))
    other = pke.generate_keypair(params, random.Random(58))
    impostor = pke.KeyPair(other.secret, server.keypair.public)
    return [Frame(MsgType.THRESH_DEAL, server.session_id, SERVER_ID,
                  pke.encrypt(params, public, values, random.Random(59),
                              server.session_id + b"\x00\x01")),
            _seal_deal(params, server, public, values, other),
            _seal_deal(params, server, public, values, impostor)]


def test_receive_deal_rejects_a_deal_not_keyed_by_the_server(secp):
    server, parts = _deal_pair(secp, 60)
    for forged in _forged_deals(secp, server, parts[0].keypair.public):
        _refused(parts[0], forged, AuthenticationError)
    parts[0].respond(dict(server.begin_round(_publics(parts)))[1])
    assert (parts[0].share_value, parts[0].mask_value) == server.pairs[0]


def _failed_at(run, servers, code, culprit):
    """The round of ``run``, whose server is the one recorded in ``servers``,
    ended FAILED with ``code`` naming ``culprit``, stored no digest, and sent
    the owner alone the ERROR frame that closes its trace."""
    (server,) = servers
    assert run.server is server
    assert (run.phase, run.error_code, run.digest) == (Phase.FAILED, code, None)
    assert (server.phase, server.culprit, server.digest) == (Phase.FAILED, culprit, None)
    closing = run.trace[-1]
    assert (closing.src, closing.dst) == (SERVER_ID, server.owner)
    assert run.transcript[-1] == server.error_frame()
    assert server.error_frame().payload == bytes([code])
    assert [f.msg_type for f in run.transcript].count(MsgType.ERROR) == 1


@pytest.mark.parametrize("which", range(3))
def test_forged_deal_never_ends_a_round_done(which, secp, monkeypatch):
    # secp256k1, k = 3, n = 4, participant 1's request from begin_round
    # swapped for a forgery: participant 1 makes no share, and the round
    # ends FAILED MISSING naming it, stores no digest and tells the owner
    begin_round = ThresholdServer.begin_round
    servers = []

    def forging(self, publics, subset=None, owner=None):
        servers.append(self)
        return [(i, _forged_deals(secp, self, publics[i])[which] if i == 1 else frame)
                for i, frame in begin_round(self, publics, subset, owner)]

    monkeypatch.setattr(ThresholdServer, "begin_round", forging)
    run = run_threshold_session(secp, 5, 6, 3, 4, 7, random.Random(61), subset=(1, 2, 4))
    _failed_at(run, servers, ErrorCode.MISSING, 1)


@pytest.mark.parametrize("member", [1, 4])
def test_a_three_scalar_request_fails_closed(member, secp, monkeypatch):
    # a dealer that still seals three scalars, f(i) | t(i) | l_i, under the
    # real deal keys: the request opens, but the participant refuses it
    # before any power of the share, and a round with it ends FAILED MISSING
    # naming that member, never DONE
    values = b"".join(scalar_to_bytes(secp, v) for v in (7, 8, 1))
    server, parts = _deal_pair(secp, 64)
    bases, power = [], type(secp).power

    def counted(self, base, *args, **kwargs):
        bases.append(base)
        return power(self, base, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(type(secp), "power", counted)
        _refused(parts[0], _seal_deal(secp, server, parts[0].keypair.public, values),
                 EncodingError)
    assert bases == [server.keypair.public]  # the deal keys' one power
    begin_round = ThresholdServer.begin_round
    servers = []

    def three_scalars(self, publics, subset=None, owner=None):
        servers.append(self)
        return [(i, _seal_deal(secp, self, publics[i], values, index=i) if i == member
                 else frame) for i, frame in begin_round(self, publics, subset, owner)]

    monkeypatch.setattr(ThresholdServer, "begin_round", three_scalars)
    run = run_threshold_session(secp, 5, 6, 3, 4, 7, random.Random(61), subset=(1, 2, 4))
    _failed_at(run, servers, ErrorCode.MISSING, member)


def test_deal_frame_rejects_a_participant_key_outside_the_group(toy_curve, toy_subgroup,
                                                                 monkeypatch):
    # the identity, an off-curve point and a non-square mod 23 as the lowest
    # chosen member's key, each refused before any power is raised; the
    # round stays unbegun
    for params, bad in ((toy_curve, toy_curve.identity), (toy_curve, (1, 1)),
                        (toy_subgroup, toy_subgroup.identity), (toy_subgroup, 5)):
        server, parts = _deal_pair(params, 62)
        powers = []
        monkeypatch.setattr(type(params), "power",
                            lambda self, *args, **kwargs: powers.append(args))
        with pytest.raises(GroupError):
            server.begin_round({**_publics(parts), 1: bad})
        monkeypatch.undo()
        assert powers == []
        assert (server.subset, server.owner, set(server.live)) == (None, None, set())


def test_begin_round_without_a_members_key_stays_unbegun(toy_curve, monkeypatch):
    # member 2's key is missing: the round raises before any power, stays
    # unbegun, and begins once both keys are given
    server, parts = _deal_pair(toy_curve, 63)
    powers = []
    power = type(toy_curve).power

    def counted(self, *args, **kwargs):
        powers.append(args)
        return power(self, *args, **kwargs)

    monkeypatch.setattr(type(toy_curve), "power", counted)
    with pytest.raises(KeyError):
        server.begin_round({1: parts[0].keypair.public})
    monkeypatch.undo()
    assert powers == []
    assert (server.subset, server.owner, set(server.live)) == (None, None, set())
    assert [i for i, _ in server.begin_round(_publics(parts))] == [1, 2]


_MISSING = object()


@pytest.mark.parametrize("which, bad", [
    ("toy_curve", _MISSING), ("toy_curve", (1, 1)), ("toy_curve", None),
    ("toy_subgroup", _MISSING), ("toy_subgroup", 5), ("toy_subgroup", 1)],
    ids=["curve-missing", "curve-off-curve", "curve-identity",
         "subgroup-missing", "subgroup-non-square", "subgroup-identity"])
def test_a_bad_key_at_the_last_chosen_index_stops_the_round_before_any_power(
        which, bad, request, monkeypatch):
    # every chosen key is looked up and checked before the first power or
    # seal, so a bad one last in the subset costs nothing either
    params = request.getfixturevalue(which)
    rng = random.Random(68)
    server_kp = pke.generate_keypair(params, rng)
    server = ThresholdServer(params, 5, 3, 5, 7, server_kp, rng)
    publics = _publics(ThresholdParticipant(params, i, server_kp.public, rng)
                       for i in range(1, 6))
    if bad is _MISSING:
        del publics[5]
    else:
        publics[5] = bad
    powers, seals = [], []
    monkeypatch.setattr(type(params), "power",
                        lambda self, *args, **kwargs: powers.append(args))
    monkeypatch.setattr(type(params), "power_many",
                        lambda self, *args: powers.append(args), raising=False)
    monkeypatch.setattr(pke, "seal", lambda *args: seals.append(args))
    with pytest.raises(KeyError if bad is _MISSING else GroupError):
        server.begin_round(publics, subset=(1, 3, 5))
    assert (powers, seals) == ([], [])
    assert (server.subset, server.owner, set(server.live)) == (None, None, set())


def test_begin_round_inversions_do_not_grow_with_k(secp, monkeypatch):
    # the dealer raises every chosen key to the server's secret in one
    # power_many, whose steps each invert once for all keys: under one server
    # key, k = 8 and k = 32 make the same number of field inversions
    rng = random.Random(46)
    server_kp = pke.generate_keypair(secp, rng)
    secp.power(server_kp.public, 3)  # the GLV constants, computed once per process
    p = secp.field_prime
    counts = []
    for k in (8, 32):
        server = ThresholdServer(secp, k, k, 5, 6, server_kp, rng)
        publics = _publics(ThresholdParticipant(secp, i, server_kp.public, rng)
                           for i in range(1, k + 1))
        inversions = []

        def counted_pow(base, *args):
            if args == (-1, p):
                inversions.append(base)
            return pow(base, *args)

        monkeypatch.setattr(groups, "pow", counted_pow, raising=False)
        server.begin_round(publics)
        monkeypatch.undo()
        counts.append(len(inversions))
    assert 0 < counts[0] == counts[1] < 256, counts


def test_receive_deal_checks_the_frame_type(toy_subgroup):
    server, parts = _deal_pair(toy_subgroup, 54)
    request = dict(server.begin_round(_publics(parts)))[1]
    _refused(parts[0], Frame(MsgType.NONCE, request.session_id, SERVER_ID, request.payload),
             ProtocolStateError)


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


def test_no_frame_carries_a_nonce_coefficient_or_dealt_value(secp):
    # a seeded k=5, n=8 round: the threshold server's request table holds
    # each chosen member's two deal keys, not a nonce, and no dealt x_i or
    # y_i, deal key or chosen member's Lagrange coefficient appears in the
    # bytes of its transcript
    run = run_threshold_session(secp, 11, 22, 5, 8, 33, random.Random(2026))
    server = run.server
    assert run.digest == cvhp(secp, 33 + 11, 22)
    assert list(server.requests) == list(server.subset)
    assert all(len(key) == 32 for keys in server.requests.values() for key in keys)
    coeffs = lagrange_at_zero(server.subset, secp.exponent_modulus)
    hidden = [key for keys in server.requests.values() for key in keys] + [
        scalar_to_bytes(secp, v) for coeff, pair in zip(coeffs, server.pairs)
        for v in (coeff, *pair)]
    assert len(hidden) == 5 * 5
    blob = b"".join(encode_frame(frame) for frame in run.transcript)
    assert not any(value in blob for value in hidden)


def test_a_dealt_value_tamper_fails_the_request(secp):
    # a dealt y_i altered in transit fails the request's tag at the
    # participant, which makes no share; the round cannot end
    server, parts, issued = _open_round(secp, random.Random(55))
    frame = issued[1]
    payload = bytearray(frame.payload)
    payload[32] ^= 0x01  # y_i's first byte, under the keystream
    _refused(parts[0], Frame(MsgType.THRESH_DEAL, frame.session_id, SERVER_ID,
                             bytes(payload)), AuthenticationError)
    assert server.phase is Phase.ISSUED and server.digest is None
    with pytest.raises(ProtocolStateError):
        server.finalize()


def test_a_dealt_value_tamper_stops_the_driver(secp, monkeypatch):
    # run_threshold_session with one chosen member's x_i altered in transit:
    # that member makes no share, and the round ends FAILED MISSING naming
    # it, stores no digest and tells the owner
    begin_round, respond = ThresholdServer.begin_round, ThresholdParticipant.respond
    servers = []

    def recording(self, publics, subset=None, owner=None):
        servers.append(self)
        return begin_round(self, publics, subset, owner)

    def bumped(self, frame, m=None):
        if self.index == 2:
            payload = bytearray(frame.payload)
            payload[0] ^= 0x01
            frame = Frame(frame.msg_type, frame.session_id, frame.sender, bytes(payload))
        return respond(self, frame, m)

    monkeypatch.setattr(ThresholdServer, "begin_round", recording)
    monkeypatch.setattr(ThresholdParticipant, "respond", bumped)
    run = run_threshold_session(secp, 5, 6, 3, 4, 7, random.Random(63), subset=(1, 2, 4))
    _failed_at(run, servers, ErrorCode.MISSING, 2)


def test_absorb_before_the_round_is_a_state_error(toy_subgroup):
    server, _ = _deal_pair(toy_subgroup, 56)
    share = Frame(MsgType.SHARE, server.session_id, 1, b"")
    with pytest.raises(ProtocolStateError):
        server.absorb(share)


def test_round_reaches_none_of_the_point_hiding_primitives(toy_curve, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the round reached a point-hiding primitive")

    monkeypatch.setattr(threshold, "run_multiply", unreachable)
    monkeypatch.setattr(threshold, "lagrange_from_quotients", unreachable)
    monkeypatch.setattr(threshold, "lagrange_at_zero", unreachable)
    for method in ("random", "__call__"):
        monkeypatch.setattr(Polynomial, method, unreachable)
    for method in ("encrypt_input", "apply_poly", "decrypt_output"):
        monkeypatch.setattr(SealedPolynomialEvaluator, method, unreachable)
    expected = cvhp(toy_curve, (12 + 5) % 19, 7)
    for subset in combinations(range(1, 6), 3):
        run = run_threshold_session(toy_curve, 5, 7, 3, 5, 12, random.Random(58), subset)
        assert run.digest == expected


# ---------------------------------------------------------------------------
# the owner named before dealing, and the dealer check on member shares
# ---------------------------------------------------------------------------

def test_an_owner_outside_the_subset_is_refused_before_dealing(toy_curve, monkeypatch):
    rng = random.Random(67)
    server_kp = pke.generate_keypair(toy_curve, rng)
    server = ThresholdServer(toy_curve, 5, 3, 5, 7, server_kp, rng)
    parts = [ThresholdParticipant(toy_curve, i, server_kp.public, rng) for i in range(1, 6)]
    powers, seals = [], []
    monkeypatch.setattr(type(toy_curve), "power",
                        lambda self, *args, **kwargs: powers.append(args))
    monkeypatch.setattr(pke, "seal", lambda *args: seals.append(args))
    with pytest.raises(ValueError):
        server.begin_round(_publics(parts), subset=(2, 4, 5), owner=1)
    assert (powers, seals) == ([], [])
    assert (server.subset, server.owner, set(server.live)) == (None, None, set())


def test_a_drawn_subset_contains_the_named_owner(toy_curve):
    expected = cvhp(toy_curve, (12 + 5) % 19, 7)
    for owner in range(1, 6):
        for seed in range(4):
            run = run_threshold_session(toy_curve, 5, 7, 2, 5, 12, random.Random(seed),
                                        owner=owner)
            assert owner in run.server.subset and run.server.owner == owner
            assert run.digest == expected


def _one_forged_member(monkeypatch, params):
    """From here on, the first member share made is the honest one times g;
    returns the list the round's servers are recorded in and the list of
    the keys each member share was made from."""
    begin_round, honest = ThresholdServer.begin_round, protocol.member_share
    servers, made = [], []

    def recording(self, publics, subset=None, owner=None):
        servers.append(self)
        return begin_round(self, publics, subset, owner)

    def forged_once(params, keys):
        made.append(keys)
        share = honest(params, keys)
        return params.combine(share, params.g) if len(made) == 1 else share

    monkeypatch.setattr(ThresholdServer, "begin_round", recording)
    monkeypatch.setattr(protocol, "member_share", forged_once)
    return servers, made


@pytest.mark.parametrize("k,n,seed", [(3, 4, 3), (2, 2, 5), (2, 5, 7)])
def test_a_forged_member_share_fails_the_round(k, n, seed, toy_curve, monkeypatch):
    # a member answers with g times its dealt share, under a valid receipt:
    # the dealer check fails the round SHARE_MISMATCH and names that member,
    # whichever the router lets answer first (k = 2 has one member); at
    # k = 3, n = 4, seed 3 this share used to be stored as the digest
    # (5, 16), where cvhp(m + s0, t0) is (6, 14)
    servers, made = _one_forged_member(monkeypatch, toy_curve)
    run = run_threshold_session(toy_curve, 5, 7, k, n, 2, random.Random(seed))
    (server,) = servers
    (forged,) = [i for i, dealt in server._dealt.items() if dealt == (made[0].x, made[0].y)]
    assert forged in server.subset[1:]  # the lowest index is the owner
    _failed_at(run, servers, ErrorCode.SHARE_MISMATCH, forged)
    assert server.shares == {}


def test_finalize_still_raises_for_a_direct_caller(toy_curve, monkeypatch):
    # outside the driver, the dealer check fails the session, names the
    # member on it and raises; the culprit cannot be reassigned
    _one_forged_member(monkeypatch, toy_curve)
    server, parts, issued = _open_round(toy_curve, random.Random(68))
    server.absorb(parts[0].respond(issued[1], m=4))
    server.absorb(parts[1].respond(issued[2]))
    with pytest.raises(ProtocolStateError, match="SHARE_MISMATCH at participant 2$"):
        server.finalize()
    assert (server.phase, server.error_code, server.culprit) == (
        Phase.FAILED, ErrorCode.SHARE_MISMATCH, 2)
    with pytest.raises(AttributeError):
        server.culprit = 1


def test_the_dealer_check_costs_two_fixed_powers(toy_curve, monkeypatch):
    # an honest round's finalize raises g and h once each and nothing else
    server, parts, issued = _open_round(toy_curve, random.Random(68))
    server.absorb(parts[0].respond(issued[1], m=4))
    server.absorb(parts[1].respond(issued[2]))
    digest = cvhp(toy_curve, (4 + 5) % 19, 6)
    bases = []
    power = type(toy_curve).power

    def counted(self, base, *args, **kwargs):
        bases.append(base)
        return power(self, base, *args, **kwargs)

    monkeypatch.setattr(type(toy_curve), "power", counted)
    assert server.finalize() == digest
    assert bases == [toy_curve.g, toy_curve.h]


def test_no_threshold_round_makes_a_hashed_elgamal_receipt(secp, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the round reached hashed ElGamal")

    monkeypatch.setattr(pke, "encrypt", unreachable)
    monkeypatch.setattr(pke, "decrypt", unreachable)
    run = run_threshold_session(secp, 5, 6, 3, 4, 7, random.Random(69))
    assert run.digest == cvhp(secp, 5 + 7, 6)


# ---------------------------------------------------------------------------
# the round over the router: faults at every delivery
# ---------------------------------------------------------------------------

def _routed_round(params, seed, monkeypatch, plan=None):
    """A k = 3, n = 4 round on ``seed``; ``plan`` reaches the round's first
    ``net.route`` call, the one that carries its deals and shares."""
    route, calls = net.route, []

    def first_call_faulted(handlers, pending, seed=0, faults=None):
        calls.append(pending)
        return route(handlers, pending, seed, plan if len(calls) == 1 else faults)

    with monkeypatch.context() as patched:
        patched.setattr(net, "route", first_call_faulted)
        run = run_threshold_session(params, 5, 7, 3, 4, 12, random.Random(seed))
    assert len(calls) == 2  # the deals and shares, then the closing frame
    return run


def _outcome_bytes(run) -> bytes:
    code = 0xFF if run.error_code is None else int(run.error_code)
    culprit = run.server.culprit
    parts = [run.phase.value.encode(), bytes([code, 0xFF if culprit is None else culprit]),
             len(run.trace).to_bytes(4, "big")]
    for d in run.trace:
        parts += [d.src.to_bytes(2, "big"), d.dst.to_bytes(2, "big"), prefixed(d.data, 4)]
    return b"".join(parts)


def test_faults_at_every_delivery_never_end_a_round_done_wrong(toy_curve, monkeypatch):
    # each seed's clean round, then one fault at every delivery of its deals
    # and shares: a round ends DONE with cvhp(m + s0, t0) or FAILED with a
    # code, a chosen culprit, no digest and an ERROR to the owner, and never
    # raises; the hash pins every trace, phase, code and culprit
    expected = cvhp(toy_curve, (12 + 5) % 19, 7)
    digest, codes, runs = hashlib.sha256(), Counter(), 0
    for seed in range(4):
        clean = _routed_round(toy_curve, seed, monkeypatch)
        assert (clean.phase, clean.digest, clean.server.culprit) == (Phase.DONE, expected, None)
        assert len(clean.trace) == 2 * 3 + 1
        digest.update(_outcome_bytes(clean))
        for ordinal, delivery in enumerate(clean.trace[:-1]):
            for mutation in (Drop(), Duplicate(), Reorder(2),
                             FlipByte(len(delivery.data) - 1), FlipByte(HEADER_LENGTH)):
                run = _routed_round(toy_curve, seed, monkeypatch,
                                    FaultPlan({ordinal: mutation}))
                server = run.server
                if run.phase is Phase.DONE:
                    assert run.digest == expected == server.digest
                else:
                    assert run.phase is server.phase is Phase.FAILED
                    assert run.error_code is not None and run.digest is None
                    assert server.culprit in server.subset
                    assert run.transcript[-1] == server.error_frame()
                assert run.trace[-1].dst == server.owner
                codes[run.error_code] += 1
                digest.update(_outcome_bytes(run))
                runs += 1
    assert runs == 4 * 6 * 5
    # seed 3's owner share is the identity, one byte 0x00; flipped to 0x01 it
    # no longer decodes, so that one altered element ends MALFORMED
    assert codes == {None: 24, ErrorCode.MISSING: 48, ErrorCode.DUPLICATE: 24,
                     ErrorCode.DECRYPT_FAIL: 23, ErrorCode.MALFORMED: 1}
    assert digest.hexdigest() == \
        "46a76ab3bcda81b1d993816417b28f82b0d212742b1deb2e1e5b211e91ec85e8"
