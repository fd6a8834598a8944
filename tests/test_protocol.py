import random

import pytest

from comhash import (
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
    # participant 2 echoes participant 1's nonce
    swapped = Frame(MsgType.NONCE, server.session_id, 0, nonces[0].payload)
    share = parts[1].respond(swapped)
    server_absorb(server, share)
    assert server.phase is Phase.FAILED
    assert server.error_code is ErrorCode.NONCE_MISMATCH
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
    assert server.error_code is ErrorCode.DECRYPT_FAIL


@pytest.mark.parametrize("right_nonce", [False, True], ids=["wrong_nonce", "right_nonce"])
def test_unbound_receipt_fails_decrypt_after_one_decrypt(right_nonce, toy_subgroup,
                                                        server_kp, monkeypatch):
    # a receipt encrypted to the server without the element as associated
    # data does not cover the element beside it: one decryption refuses it,
    # whatever nonce it holds
    server, nonces = server_begin(toy_subgroup, 1, server_kp, random.Random(16))
    nonce = nonces[0].payload if right_nonce else b"\x11" * 32
    assert (nonce == server.requests[1]) is right_nonce
    element = member_share(toy_subgroup, ParticipantKeys(2, 3))
    receipt = pke.encrypt(toy_subgroup, server_kp.public, nonce, random.Random(17))
    calls = []
    decrypt = pke.decrypt

    def counted(*args):
        calls.append(args)
        return decrypt(*args)

    monkeypatch.setattr(pke, "decrypt", counted)
    server_absorb(server, Frame(MsgType.SHARE, server.session_id, 1,
                                element_to_bytes(toy_subgroup, element) + receipt))
    assert server.phase is Phase.FAILED
    assert server.error_code is ErrorCode.DECRYPT_FAIL
    assert len(calls) == 1


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
