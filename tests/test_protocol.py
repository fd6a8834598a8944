import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comhash
from comhash import (
    AuthenticationError,
    EncodingError,
    ErrorCode,
    Frame,
    MsgType,
    OwnerRole,
    ParticipantKeys,
    ParticipantSession,
    Phase,
    ProtocolStateError,
    ServerSession,
    member_share,
    participant_respond,
    reference_digest,
    server_absorb,
    server_begin,
    server_finalize,
)
from comhash import pke
from comhash.encoding import Reader, element_from_bytes, element_to_bytes


@pytest.fixture
def server_kp(toy_subgroup):
    return pke.generate_keypair(toy_subgroup, rng=random.Random(99))


def make_participants(params, server_kp, session_id, keys, m):
    sessions = []
    for index, k in enumerate(keys, start=1):
        owner = OwnerRole(m) if index == 1 else None
        sessions.append(ParticipantSession(
            params, index, k, server_kp.public, owner=owner,
            rng=random.Random(1000 + index), session_id=session_id))
    return sessions


def test_begin_issues_distinct_nonces(toy_subgroup, server_kp):
    session, frames = server_begin(toy_subgroup, 2, server_kp, random.Random(0))
    assert session.phase is Phase.ISSUED
    assert len(frames) == 2
    assert all(f.msg_type is MsgType.NONCE for f in frames)
    assert frames[0].session_id == frames[1].session_id == session.session_id
    assert frames[0].payload != frames[1].payload
    assert all(len(f.payload) == 32 for f in frames)


def test_single_participant_session_allowed(toy_subgroup, server_kp):
    session, frames = server_begin(toy_subgroup, 1, server_kp, random.Random(0))
    assert len(frames) == 1


def test_zero_participants_rejected(toy_subgroup, server_kp):
    with pytest.raises(ValueError):
        server_begin(toy_subgroup, 0, server_kp, random.Random(0))


def test_two_sessions_have_distinct_ids(toy_subgroup, server_kp):
    rng = random.Random(1)
    s1, _ = server_begin(toy_subgroup, 2, server_kp, rng)
    s2, _ = server_begin(toy_subgroup, 2, server_kp, rng)
    assert s1.session_id != s2.session_id


def test_an_unissued_server_refuses_a_share(toy_subgroup, server_kp):
    # the same seed gives the same session id and nonce, so this share is
    # refused only because its nonce was not issued yet, as a threshold
    # server refuses one before begin_round
    _, (nonce,) = server_begin(toy_subgroup, 1, server_kp, random.Random(18))
    server = ServerSession(toy_subgroup, 1, server_kp, random.Random(18))
    (owner,) = make_participants(toy_subgroup, server_kp, server.session_id,
                                 [ParticipantKeys(2, 3)], m=1)
    share = owner.respond(nonce)
    with pytest.raises(ProtocolStateError):
        server_absorb(server, share)
    assert (server.phase, server.error_code, server.shares) == (Phase.ISSUED, None, {})
    assert server.begin_round() == [(1, nonce)]
    server_absorb(server, share)
    assert server.phase is Phase.COLLECTING


def test_an_unissued_server_refuses_to_finalize(toy_curve):
    # no request issued, so no share is awaited: a state error, not a
    # ValueError from combining an empty share list, and the phase stays
    rng = random.Random(21)
    server = ServerSession(toy_curve, 3, pke.generate_keypair(toy_curve, rng), rng)
    with pytest.raises(ProtocolStateError):
        server_finalize(server)
    assert (server.phase, server.error_code, server.culprit, server.digest) == \
        (Phase.ISSUED, None, None, None)
    assert len(server.begin_round()) == 3


def test_nonces_are_issued_once(toy_subgroup, server_kp):
    server, frames = server_begin(toy_subgroup, 2, server_kp, random.Random(19))
    with pytest.raises(ProtocolStateError):
        server.begin_round()
    assert server.requests == {1: frames[0].payload, 2: frames[1].payload}


def test_participant_responses_carry_expected_shares(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 2, server_kp, random.Random(3))
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6)]
    owner, member = make_participants(toy_subgroup, server_kp,
                                      server.session_id, keys, m=5)
    share1 = participant_respond(owner, nonces[0])
    share2 = participant_respond(member, nonces[1])
    el1 = Reader(share1.payload).element(toy_subgroup)
    el2 = Reader(share2.payload).element(toy_subgroup)
    assert el1 == 6   # owner share with m = 5
    assert el2 == 3   # member share
    assert (share1.sender, share2.sender) == (1, 2)


def test_wrong_session_id_rejected_without_output(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 1, server_kp, random.Random(4))
    psession = ParticipantSession(toy_subgroup, 1, ParticipantKeys(2, 3),
                                  server_kp.public, session_id=b"\xee" * 16,
                                  rng=random.Random(5))
    with pytest.raises(ProtocolStateError):
        psession.respond(nonces[0])


def test_full_toy_run_digest_18(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 2, server_kp, random.Random(6))
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6)]
    parts = make_participants(toy_subgroup, server_kp, server.session_id, keys, m=5)
    for psession, nonce in zip(parts, nonces):
        server_absorb(server, participant_respond(psession, nonce))
    assert server.phase is Phase.COLLECTING
    digest = server_finalize(server)
    assert digest == 18
    assert digest == reference_digest(toy_subgroup, 5, keys)
    assert server.phase is Phase.DONE
    assert server.shares == {}  # only the digest is retained


def test_single_member_zero_message(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 1, server_kp, random.Random(7))
    keys = [ParticipantKeys(4, 6)]
    (owner,) = make_participants(toy_subgroup, server_kp, server.session_id,
                                 keys, m=0)
    server_absorb(server, participant_respond(owner, nonces[0]))
    assert server_finalize(server) == member_share(toy_subgroup, keys[0])


def test_arrival_order_does_not_matter(toy_subgroup, server_kp):
    keys = [ParticipantKeys(i + 1, 2 * i + 1) for i in range(4)]
    digests = []
    for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
        server, nonces = server_begin(toy_subgroup, 4, server_kp, random.Random(8))
        parts = make_participants(toy_subgroup, server_kp, server.session_id,
                                  keys, m=7)
        shares = [participant_respond(p, nonce) for p, nonce in zip(parts, nonces)]
        for i in order:
            server_absorb(server, shares[i])
        digests.append(server_finalize(server))
    assert len(set(digests)) == 1


def test_nonce_mismatch_fails_session(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 2, server_kp, random.Random(9))
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6)]
    parts = make_participants(toy_subgroup, server_kp, server.session_id, keys, m=5)
    # participant 2 echoes participant 1's nonce; receipts open at finalize
    swapped = Frame(MsgType.NONCE, server.session_id, 0, nonces[0].payload)
    server_absorb(server, parts[1].respond(swapped))
    server_absorb(server, participant_respond(parts[0], nonces[0]))
    assert server.phase is Phase.COLLECTING
    with pytest.raises(ProtocolStateError):
        server_finalize(server)
    assert server.phase is Phase.FAILED
    assert (server.error_code, server.culprit) == (ErrorCode.NONCE_MISMATCH, 2)
    assert server.digest is None
    with pytest.raises(ProtocolStateError):
        server_finalize(server)


def test_duplicate_share_fails_session(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 2, server_kp, random.Random(10))
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6)]
    parts = make_participants(toy_subgroup, server_kp, server.session_id, keys, m=5)
    share = participant_respond(parts[0], nonces[0])
    server_absorb(server, share)
    server_absorb(server, share)
    assert server.phase is Phase.FAILED
    assert server.error_code is ErrorCode.DUPLICATE


def test_unknown_index_fails_session(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 1, server_kp, random.Random(11))
    psession = ParticipantSession(toy_subgroup, 9, ParticipantKeys(2, 3),
                                  server_kp.public, rng=random.Random(12))
    share = psession.respond(nonces[0])
    server_absorb(server, share)
    assert server.error_code is ErrorCode.MALFORMED


def test_corrupt_ciphertext_fails_with_decrypt_code(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 1, server_kp, random.Random(13))
    (owner,) = make_participants(toy_subgroup, server_kp, server.session_id,
                                 [ParticipantKeys(2, 3)], m=5)
    share = owner.respond(nonces[0])
    corrupted = share.payload[:-1] + bytes([share.payload[-1] ^ 1])
    server_absorb(server, Frame(share.msg_type, share.session_id,
                                share.sender, corrupted))
    with pytest.raises(ProtocolStateError):
        server_finalize(server)
    assert (server.phase, server.error_code, server.culprit) == \
        (Phase.FAILED, ErrorCode.DECRYPT_FAIL, 1)
    assert server.digest is None


@pytest.mark.parametrize("right_nonce", [False, True], ids=["wrong_nonce", "right_nonce"])
def test_unbound_receipt_fails_decrypt_after_one_decrypt(right_nonce, toy_subgroup,
                                                        server_kp, monkeypatch):
    # a receipt encrypted to the server without the element as associated
    # data does not cover the element beside it: opening it, one base raised
    # to the server secret, refuses it, whatever nonce it holds
    server, nonces = server_begin(toy_subgroup, 1, server_kp, random.Random(16))
    nonce = nonces[0].payload if right_nonce else b"\x11" * 32
    assert (nonce == server.requests[1]) is right_nonce
    element = member_share(toy_subgroup, ParticipantKeys(2, 3))
    receipt = pke.encrypt(toy_subgroup, server_kp.public, nonce, random.Random(17))
    opened = []
    power_many = type(toy_subgroup).power_many

    def counted(self, bases, exponent):
        opened.extend(bases)
        return power_many(self, bases, exponent)

    monkeypatch.setattr(type(toy_subgroup), "power_many", counted)
    monkeypatch.setattr(pke, "decrypt", lambda *args: pytest.fail("the server decrypts"))
    server_absorb(server, Frame(MsgType.SHARE, server.session_id, 1,
                                element_to_bytes(toy_subgroup, element) + receipt))
    with pytest.raises(ProtocolStateError):
        server_finalize(server)
    assert (server.phase, server.error_code, server.culprit) == \
        (Phase.FAILED, ErrorCode.DECRYPT_FAIL, 1)
    assert server.digest is None
    assert len(opened) == 1


def test_garbage_payload_fails_malformed(toy_subgroup, server_kp):
    server, _ = server_begin(toy_subgroup, 1, server_kp, random.Random(14))
    server_absorb(server, Frame(MsgType.SHARE, server.session_id, 1, b"\x00\x01"))
    assert server.error_code is ErrorCode.MALFORMED


def test_finalize_with_missing_share_raises(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 2, server_kp, random.Random(15))
    (owner, _) = make_participants(toy_subgroup, server_kp, server.session_id,
                                   [ParticipantKeys(2, 3), ParticipantKeys(4, 6)],
                                   m=5)
    server_absorb(server, owner.respond(nonces[0]))
    with pytest.raises(ProtocolStateError):
        server_finalize(server)


def test_finalize_fails_missing_at_the_lowest_unanswered_index(toy_subgroup, server_kp,
                                                               monkeypatch):
    # shares 1 and 3 in: finalize ends collection, failing MISSING at 2
    # before any share is combined or receipt opened
    server, nonces = server_begin(toy_subgroup, 3, server_kp, random.Random(22))
    parts = make_participants(toy_subgroup, server_kp, server.session_id,
                              [ParticipantKeys(2, 3), ParticipantKeys(4, 6),
                               ParticipantKeys(5, 7)], m=5)
    for i in (0, 2):
        server_absorb(server, parts[i].respond(nonces[i]))
    monkeypatch.setattr(type(toy_subgroup), "power_many",
                        lambda *args: pytest.fail("a receipt was opened"))
    with pytest.raises(ProtocolStateError, match="MISSING at participant 2$"):
        server_finalize(server)
    assert (server.phase, server.error_code, server.culprit, server.digest, server.shares) == \
        (Phase.FAILED, ErrorCode.MISSING, 2, None, {})
    with pytest.raises(ProtocolStateError, match="already failed"):
        server_finalize(server)


def test_result_and_error_frames(toy_subgroup, server_kp):
    server, nonces = server_begin(toy_subgroup, 1, server_kp, random.Random(16))
    (owner,) = make_participants(toy_subgroup, server_kp, server.session_id,
                                 [ParticipantKeys(2, 3)], m=1)
    with pytest.raises(ProtocolStateError):
        server.result_frame()
    server_absorb(server, owner.respond(nonces[0]))
    digest = server_finalize(server)
    result = server.result_frame()
    assert result.msg_type is MsgType.RESULT
    assert element_from_bytes(toy_subgroup, result.payload) == digest

    failed, _ = server_begin(toy_subgroup, 1, server_kp, random.Random(17))
    failed.fail(ErrorCode.MISSING)
    err = failed.error_frame()
    assert err.msg_type is MsgType.ERROR
    assert err.payload == bytes([ErrorCode.MISSING])


def test_distinct_messages_distinct_digests_exhaustive(toy_subgroup, server_kp):
    # fixed keys: every message in GF(11) lands on its own digest
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6)]
    digests = {}
    for m in range(11):
        server, nonces = server_begin(toy_subgroup, 2, server_kp, random.Random(m))
        parts = make_participants(toy_subgroup, server_kp, server.session_id,
                                  keys, m=m)
        for psession, nonce in zip(parts, nonces):
            server_absorb(server, participant_respond(psession, nonce))
        digests[m] = server_finalize(server)
    assert len(set(digests.values())) == 11


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_primitive", "toy_curve"])
def test_random_sessions_match_oracle(which, request, server_kp, rng):
    params = request.getfixturevalue(which)
    kp = pke.generate_keypair(params, rng)
    for n in range(1, 9):
        keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
        m = rng.randrange(params.exponent_modulus)
        server, nonces = server_begin(params, n, kp, rng)
        parts = [ParticipantSession(params, i + 1, keys[i], kp.public,
                                    owner=OwnerRole(m) if i == 0 else None,
                                    rng=rng, session_id=server.session_id)
                 for i in range(n)]
        for psession, nonce in zip(parts, nonces):
            server_absorb(server, participant_respond(psession, nonce))
        assert server_finalize(server) == reference_digest(params, m, keys)


# ---------------------------------------------------------------------------
# a basic round's receipts open together at finalize, in index order
# ---------------------------------------------------------------------------

def _opened_one_by_one(params, secret, requests, payloads, order):
    """The (phase, code, culprit) that opening each receipt with
    ``pke.decrypt`` gives: the first in delivery order whose bytes do not
    read ends MALFORMED as it arrives; otherwise the first in index order
    that fails its tag or echoes another nonce names its index."""
    codes = {}
    for index in order:
        rd = Reader(payloads[index])
        element_bytes = rd.element_bytes(params)
        try:
            echoed = pke.decrypt(params, secret, rd.rest(), element_bytes)
        except EncodingError:
            return Phase.FAILED, ErrorCode.MALFORMED, index
        except AuthenticationError:
            codes[index] = ErrorCode.DECRYPT_FAIL
        else:
            codes[index] = None if echoed == requests[index] else ErrorCode.NONCE_MISMATCH
    for index in sorted(codes):
        if codes[index] is not None:
            return Phase.FAILED, codes[index], index
    return Phase.DONE, None, None


@pytest.mark.parametrize("name", ["toy_ec", "toy_modp_subgroup", "secp256k1"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_receipts_opened_together_fail_as_opened_one_by_one(name, data):
    # any n; each receipt kept, forged (a fresh one for another nonce),
    # unbound (the right nonce, not bound to the element), moved from another
    # index or altered in one byte; shares delivered in any order
    params = getattr(comhash, name)()
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    n = data.draw(st.integers(1, 5), label="n")
    keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
    m = rng.randrange(params.exponent_modulus)
    kp = pke.generate_keypair(params, rng)
    server, nonces = server_begin(params, n, kp, rng)
    parts = make_participants(params, kp, server.session_id, keys, m)
    honest = {}
    for p, nonce in zip(parts, nonces):
        rd = Reader(p.respond(nonce).payload)
        honest[p.index] = (rd.element_bytes(params), rd.rest())
    payloads = {}
    for index, (element_bytes, receipt) in honest.items():
        action = data.draw(st.sampled_from(["keep", "forge", "unbound", "move", "alter"]),
                           label=f"receipt {index}")
        if action == "forge":
            receipt = pke.encrypt(params, kp.public, rng.randbytes(32), rng, element_bytes)
        elif action == "unbound":
            receipt = pke.encrypt(params, kp.public, server.requests[index], rng)
        elif action == "move":
            receipt = honest[data.draw(st.integers(1, n), label="from")][1]
        elif action == "alter":
            at = data.draw(st.integers(0, len(receipt) - 1), label="at")
            flip = data.draw(st.integers(1, 255), label="flip")
            receipt = receipt[:at] + bytes([receipt[at] ^ flip]) + receipt[at + 1:]
        payloads[index] = element_bytes + receipt
    order = data.draw(st.permutations(range(1, n + 1)), label="order")
    expected = _opened_one_by_one(params, kp.secret, server.requests, payloads, order)
    for index in order:
        if server.phase is not Phase.FAILED:  # a failed session takes no share
            server_absorb(server, Frame(MsgType.SHARE, server.session_id, index,
                                        payloads[index]))
    if server.phase is Phase.COLLECTING:
        try:
            server_finalize(server)
        except ProtocolStateError:
            pass
    assert (server.phase, server.error_code, server.culprit) == expected
    if server.phase is Phase.DONE:
        assert server.digest == reference_digest(params, m, keys)
    else:
        assert server.digest is None


def test_two_bad_receipts_name_the_lower_index(toy_subgroup, server_kp):
    # participant 3's altered tag arrives first, participant 2's wrong nonce
    # last: the receipts open in index order, so 2 is named, with its code
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6), ParticipantKeys(1, 5)]
    server, nonces = server_begin(toy_subgroup, 3, server_kp, random.Random(20))
    parts = make_participants(toy_subgroup, server_kp, server.session_id, keys, m=5)
    third = parts[2].respond(nonces[2])
    altered = third.payload[:-1] + bytes([third.payload[-1] ^ 1])
    server_absorb(server, Frame(MsgType.SHARE, server.session_id, 3, altered))
    server_absorb(server, parts[0].respond(nonces[0]))
    server_absorb(server, parts[1].respond(
        Frame(MsgType.NONCE, server.session_id, 0, b"\x5a" * 32)))
    assert server.phase is Phase.COLLECTING
    with pytest.raises(ProtocolStateError):
        server_finalize(server)
    assert (server.phase, server.error_code, server.culprit) == \
        (Phase.FAILED, ErrorCode.NONCE_MISMATCH, 2)
    assert server.digest is None


class _FlagsTwo(ServerSession):
    """A round with one more check after the receipts, as a registered-share
    check would add: it always names participant 2."""

    def _faults(self, indices, digest):
        yield from super()._faults(indices, digest)
        yield ErrorCode.SHARE_MISMATCH, 2


@pytest.mark.parametrize("flip_first", [False, True], ids=["honest", "first_receipt_flipped"])
def test_a_round_s_added_check_fails_it_through_faults(flip_first, toy_subgroup, server_kp):
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6), ParticipantKeys(1, 5)]
    server = _FlagsTwo(toy_subgroup, 3, server_kp, random.Random(21))
    nonces = [frame for _, frame in server.begin_round()]
    parts = make_participants(toy_subgroup, server_kp, server.session_id, keys, m=5)
    for part, nonce in zip(parts, nonces):
        share = part.respond(nonce)
        if flip_first and part.index == 1:
            share = Frame(MsgType.SHARE, server.session_id, 1,
                          share.payload[:-1] + bytes([share.payload[-1] ^ 1]))
        server_absorb(server, share)
    # the receipts are checked first, so a bad one is named before the added check
    code, culprit = (ErrorCode.DECRYPT_FAIL, 1) if flip_first else (ErrorCode.SHARE_MISMATCH, 2)
    with pytest.raises(ProtocolStateError, match=f"{code.name} at participant {culprit}$"):
        server_finalize(server)
    assert (server.phase, server.error_code, server.culprit) == (Phase.FAILED, code, culprit)
    assert server.digest is None
    assert server.shares == {}
    with pytest.raises(ProtocolStateError, match="already failed"):
        server_finalize(server)
