import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comhash import (EcParams, ErrorCode, Frame, ModpParams, MsgType, ParticipantKeys, Phase,
                     decode_frame, encode_frame, member_share, reference_digest)
from comhash import groups, net, pke, protocol
from comhash.encoding import prefixed
from comhash.errors import FrameError
from comhash.frames import _FIXED_PAYLOAD, HEADER_LENGTH, SERVER_ID, SESSION_ID_LENGTH
from comhash.net import (
    Delivery,
    Drop,
    Duplicate,
    FaultPlan,
    FlipByte,
    Reorder,
    ReplaceNonce,
    route,
    run_basic_session,
)
from conftest import comb_builds, forging_route


TOY_KEYS = [ParticipantKeys(2, 3), ParticipantKeys(4, 6)]


def frame_types(trace):
    return [decode_frame(d.data).msg_type for d in trace]


def test_clean_session_trace_ends_in_result(toy_subgroup):
    out = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=1)
    assert out.phase is Phase.DONE
    assert out.digest == 18
    types = frame_types(out.trace)
    assert types[0] is MsgType.UPLOAD_REQUEST
    assert types[-1] is MsgType.RESULT
    assert types.count(MsgType.NONCE) == 2
    assert types.count(MsgType.SHARE) == 2


def test_same_seed_same_trace(toy_subgroup):
    a = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=77)
    b = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=77)
    assert a.trace == b.trace
    assert a.digest == b.digest


def test_different_seeds_same_digest(toy_subgroup):
    keys = [ParticipantKeys(i + 2, 2 * i + 1) for i in range(5)]
    digests = {run_basic_session(toy_subgroup, keys, m=3, seed=s).digest
               for s in range(6)}
    assert len(digests) == 1


@pytest.mark.parametrize("which", ["toy_subgroup", "secp"])
def test_a_blinded_session_is_the_plain_session_on_m_times_r(which, request):
    # hashing.owner_share's blinding factor R needs no session option: the
    # owner sends m * R mod q, and the digest is the blinded variant's
    from comhash import combine_shares, member_share, owner_share

    params = request.getfixturevalue(which)
    q = params.exponent_modulus
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6), ParticipantKeys(7, 1)]
    m, r = 5, 3
    out = run_basic_session(params, keys, m * r % q, seed=11)
    assert out.phase is Phase.DONE
    assert out.digest == combine_shares(
        params, [owner_share(params, keys[0], m, blinding=r)]
        + [member_share(params, k) for k in keys[1:]])


@pytest.mark.parametrize("owner_index", [0, 3])
def test_owner_must_be_a_participant(owner_index, toy_subgroup):
    # an owner outside 1..n would leave m out of the stored digest
    with pytest.raises(ValueError, match="owner_index"):
        run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=1, owner_index=owner_index)


def test_unknown_destination_rejected():
    with pytest.raises(ValueError, match="unknown destination"):
        route({0: lambda src, data: [(42, data)]}, [Delivery(1, 0, b"x")], seed=0)


def test_route_preserves_per_pair_fifo():
    log = []
    pending = [Delivery(1, 9, bytes([i])) for i in range(5)]
    pending += [Delivery(2, 9, bytes([10 + i])) for i in range(5)]
    route({9: lambda src, data: log.append((src, data)) or []}, pending, seed=3)
    ones = [d[0] for s, d in log if s == 1]
    twos = [d[0] for s, d in log if s == 2]
    assert ones == sorted(ones) and twos == sorted(twos)


# ---------------------------------------------------------------------------
# fault injection
# ---------------------------------------------------------------------------

def ordinal_of(trace, msg_type, occurrence=0):
    hits = [i for i, d in enumerate(trace)
            if decode_frame(d.data).msg_type is msg_type]
    return hits[occurrence]


def test_drop_share_fails_missing(toy_subgroup):
    clean = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=5)
    target = ordinal_of(clean.trace, MsgType.SHARE)
    out = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=5,
                            faults=FaultPlan({target: Drop()}))
    assert out.phase is Phase.FAILED
    assert out.error_code is ErrorCode.MISSING
    assert out.digest is None
    assert frame_types(out.trace)[-1] is MsgType.ERROR


def test_duplicate_share_fails_duplicate(toy_subgroup):
    clean = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=6)
    target = ordinal_of(clean.trace, MsgType.SHARE)
    out = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=6,
                            faults=FaultPlan({target: Duplicate()}))
    assert out.phase is Phase.FAILED
    assert out.error_code is ErrorCode.DUPLICATE
    assert out.digest is None


def test_replace_nonce_fails_mismatch(toy_subgroup):
    clean = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=7)
    target = ordinal_of(clean.trace, MsgType.NONCE)
    out = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=7,
                            faults=FaultPlan({target: ReplaceNonce(b"\x5a" * 32)}))
    assert out.phase is Phase.FAILED
    assert out.error_code is ErrorCode.NONCE_MISMATCH


def test_flip_ciphertext_byte_fails_decrypt(toy_subgroup):
    clean = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=9)
    target = ordinal_of(clean.trace, MsgType.SHARE)
    frame_len = len(clean.trace[target].data)
    out = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=9,
                            faults=FaultPlan({target: FlipByte(frame_len - 1)}))
    assert out.phase is Phase.FAILED
    assert out.error_code is ErrorCode.DECRYPT_FAIL


def test_a_flipped_receipt_byte_names_that_shares_sender(toy_subgroup):
    keys = [ParticipantKeys(1, 2), ParticipantKeys(3, 4), ParticipantKeys(5, 6)]
    clean = run_basic_session(toy_subgroup, keys, m=2, seed=13)
    for occurrence in range(3):
        target = ordinal_of(clean.trace, MsgType.SHARE, occurrence)
        share = clean.trace[target]
        out = run_basic_session(toy_subgroup, keys, m=2, seed=13,
                                faults=FaultPlan({target: FlipByte(len(share.data) - 1)}))
        assert (out.phase, out.error_code) == (Phase.FAILED, ErrorCode.DECRYPT_FAIL)
        assert out.server.culprit == share.src == decode_frame(share.data).sender


def test_a_dropped_share_names_its_index(toy_subgroup):
    keys = [ParticipantKeys(1, 2), ParticipantKeys(3, 4), ParticipantKeys(5, 6)]
    clean = run_basic_session(toy_subgroup, keys, m=2, seed=14)
    assert clean.server.culprit is None
    for occurrence in range(3):
        target = ordinal_of(clean.trace, MsgType.SHARE, occurrence)
        out = run_basic_session(toy_subgroup, keys, m=2, seed=14,
                                faults=FaultPlan({target: Drop()}))
        assert (out.phase, out.error_code) == (Phase.FAILED, ErrorCode.MISSING)
        assert out.server.culprit == clean.trace[target].src
    # with two shares dropped, the lower of their indices
    targets = [ordinal_of(clean.trace, MsgType.SHARE, occurrence) for occurrence in (1, 2)]
    out = run_basic_session(toy_subgroup, keys, m=2, seed=14,
                            faults=FaultPlan({target: Drop() for target in targets}))
    assert out.error_code is ErrorCode.MISSING
    assert out.server.culprit == min(clean.trace[target].src for target in targets)


def test_a_bad_receipt_and_a_dropped_share_end_missing(toy_subgroup):
    # receipts open at finalize, which a session with a share missing never
    # reaches: the first share's altered tag is not named, the dropped one is
    keys = [ParticipantKeys(1, 2), ParticipantKeys(3, 4), ParticipantKeys(5, 6)]
    clean = run_basic_session(toy_subgroup, keys, m=2, seed=15)
    altered, dropped = (ordinal_of(clean.trace, MsgType.SHARE, occurrence)
                        for occurrence in (0, 1))
    out = run_basic_session(toy_subgroup, keys, m=2, seed=15, faults=FaultPlan({
        altered: FlipByte(len(clean.trace[altered].data) - 1), dropped: Drop()}))
    assert (out.phase, out.error_code, out.digest) == (Phase.FAILED, ErrorCode.MISSING, None)
    assert out.server.culprit == clean.trace[dropped].src != clean.trace[altered].src
    assert frame_types(out.trace)[-1] is MsgType.ERROR


def test_reorder_is_benign(toy_subgroup):
    keys = [ParticipantKeys(1, 2), ParticipantKeys(3, 4), ParticipantKeys(5, 6)]
    clean = run_basic_session(toy_subgroup, keys, m=2, seed=10)
    target = ordinal_of(clean.trace, MsgType.NONCE)
    out = run_basic_session(toy_subgroup, keys, m=2, seed=10,
                            faults=FaultPlan({target: Reorder(2)}))
    assert out.phase is Phase.DONE
    assert out.digest == clean.digest


def test_out_of_range_ordinal_raises(toy_subgroup):
    with pytest.raises(ValueError, match="out of range"):
        run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=11,
                          faults=FaultPlan({10_000: Drop()}))


def test_flip_offset_must_be_in_bounds(toy_subgroup):
    clean = run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=12)
    target = ordinal_of(clean.trace, MsgType.SHARE)
    with pytest.raises(ValueError, match="outside frame bounds"):
        run_basic_session(toy_subgroup, TOY_KEYS, m=5, seed=12,
                          faults=FaultPlan({target: FlipByte(10_000)}))


def _outcome_bytes(out) -> bytes:
    code = 0xFF if out.error_code is None else int(out.error_code)
    parts = [out.phase.value.encode(), bytes([code]), len(out.trace).to_bytes(4, "big")]
    for d in out.trace:
        parts += [d.src.to_bytes(2, "big"), d.dst.to_bytes(2, "big"), prefixed(d.data, 4)]
    return b"".join(parts)


@pytest.mark.parametrize("which, expected", [
    ("toy_subgroup", "55c9d4873a2c30f9c2d739aaae736fb6b4dc3525004af837295ec744564d2ff8"),
    ("toy_curve", "bb20bf418dc87bc2c5757f54ae625458ca73a31e56b4564784893b0a44a25b96"),
])
def test_seeded_schedules_are_pinned(which, expected, request):
    # the full trace, phase and error code of clean runs and of one fault at
    # every delivery; a change to the scheduler, the seeding order or any
    # frame byte changes the hash
    params = request.getfixturevalue(which)
    keys = [ParticipantKeys(i + 2, 3 * i + 1) for i in range(3)]
    digest = hashlib.sha256()
    runs = 0
    for seed in range(8):
        clean = run_basic_session(params, keys, m=4, seed=seed)
        assert clean.phase is Phase.DONE
        digest.update(_outcome_bytes(clean))
        for ordinal, delivery in enumerate(clean.trace[:-len(keys)]):
            data = delivery.data
            mutations = [Drop(), Duplicate(), Reorder(2), FlipByte(len(data) - 1)]
            if len(data) > HEADER_LENGTH:
                mutations.append(FlipByte(HEADER_LENGTH))
            if decode_frame(data).msg_type is MsgType.NONCE:
                mutations.append(ReplaceNonce(bytes([seed + 1]) * 32))
            for mutation in mutations:
                out = run_basic_session(params, keys, m=4, seed=seed,
                                        faults=FaultPlan({ordinal: mutation}))
                digest.update(_outcome_bytes(out))
                runs += 1
    assert runs == 8 * (4 + 3 * 6 + 3 * 5)  # upload, nonces, shares
    assert digest.hexdigest() == expected


# ---------------------------------------------------------------------------
# fuzz: no fault plan ever produces a wrong digest
# ---------------------------------------------------------------------------

def test_fuzz_faults_never_store_a_wrong_digest(toy_subgroup):
    keys = [ParticipantKeys(i + 1, 7 * i + 2) for i in range(3)]
    baseline = run_basic_session(toy_subgroup, keys, m=6, seed=100)
    assert baseline.phase is Phase.DONE
    frames = [(i, decode_frame(d.data)) for i, d in enumerate(baseline.trace)]
    nonce_or_share = [(i, f) for i, f in frames
                      if f.msg_type in (MsgType.NONCE, MsgType.SHARE)]
    rng = random.Random(4242)
    checked = 0
    for _ in range(300):
        ordinal, frame = nonce_or_share[rng.randrange(len(nonce_or_share))]
        roll = rng.random()
        if roll < 0.2:
            mutation = Drop()
        elif roll < 0.4:
            mutation = Duplicate()
        elif roll < 0.55:
            mutation = Reorder(rng.randrange(1, 4))
        elif roll < 0.75:
            mutation = ReplaceNonce(rng.randbytes(32)) \
                if frame.msg_type is MsgType.NONCE else Duplicate()
        else:
            # corrupt the encrypted receipt section of a share,
            # or the nonce payload of a nonce frame
            data = baseline.trace[ordinal].data
            if frame.msg_type is MsgType.SHARE:
                lo = len(data) - 16  # inside the trailing tag
            else:
                lo = len(data) - 32
            mutation = FlipByte(rng.randrange(lo, len(data)))
        out = run_basic_session(toy_subgroup, keys, m=6, seed=100,
                                faults=FaultPlan({ordinal: mutation}))
        if out.phase is Phase.DONE:
            assert out.digest == baseline.digest  # benign reorder/delay
        else:
            assert out.digest is None
            assert out.error_code is not None
        checked += 1
    assert checked == 300


@pytest.mark.parametrize("which, seeds", [("secp", range(1)), ("toy_subgroup", range(40))])
def test_flipped_share_element_never_stores_a_wrong_digest(which, seeds, request):
    # every byte of every share's element; the receipt's tag covers the
    # element, so a flip that still decodes to a group element fails it
    params = request.getfixturevalue(which)
    rng = random.Random(31)
    width = params.element_width
    codes = Counter()
    for seed in seeds:
        keys = [ParticipantKeys.random(params, rng) for _ in range(3)]
        m = rng.randrange(params.exponent_modulus)
        clean = run_basic_session(params, keys, m, seed=seed)
        assert clean.digest == reference_digest(params, m, keys)
        shares = [i for i, d in enumerate(clean.trace)
                  if decode_frame(d.data).msg_type is MsgType.SHARE]
        assert len(shares) == 3
        for ordinal in shares:
            for offset in range(HEADER_LENGTH, HEADER_LENGTH + width):
                out = run_basic_session(params, keys, m, seed=seed,
                                        faults=FaultPlan({ordinal: FlipByte(offset)}))
                assert out.phase is Phase.FAILED, (seed, ordinal, offset)
                assert out.digest is None
                codes[out.error_code] += 1
    assert set(codes) == {ErrorCode.DECRYPT_FAIL, ErrorCode.MALFORMED}


# ---------------------------------------------------------------------------
# a participant speaks only for itself, and only the server asks
# ---------------------------------------------------------------------------

FORGER_KEYS = [ParticipantKeys(1, 2), ParticipantKeys(3, 4), ParticipantKeys(5, 6)]


def _clean_share(params, seed, j):
    """The session id of a clean seeded toy run, and participant j's SHARE payload in it."""
    clean = run_basic_session(params, FORGER_KEYS, 5, seed=seed)
    share = next(frame for d, frame in zip(clean.trace, clean.transcript)
                 if d.src == j and frame.msg_type is MsgType.SHARE)
    return clean.server.session_id, share.payload


def test_a_faulted_transcript_keeps_one_entry_per_delivery(toy_curve):
    # the flipped magic byte makes the first NONCE junk: its recipient drops
    # it, and the transcript holds None in its place
    out = run_basic_session(toy_curve, FORGER_KEYS, 5, seed=3,
                            faults=FaultPlan({1: FlipByte(0)}))
    assert (out.phase, out.error_code) == (Phase.FAILED, ErrorCode.MISSING)
    transcript = out.transcript
    assert len(transcript) == len(out.trace)
    assert [i for i, frame in enumerate(transcript) if frame is None] == [1]
    for d, frame in zip(out.trace, transcript):
        if frame is None:
            with pytest.raises(FrameError):
                decode_frame(d.data)
        else:
            assert encode_frame(frame) == d.data


@pytest.mark.parametrize("dst, msg_type, sender", [
    (SERVER_ID, MsgType.SHARE, 3),  # a SHARE in another participant's name
    (3, MsgType.NONCE, 2),  # a request in its own name
    (3, MsgType.NONCE, SERVER_ID),  # a request in the server's name
], ids=["share-as-3", "nonce-as-2", "nonce-as-server"])
def test_a_participant_cannot_make_the_server_blame_another(dst, msg_type, sender,
                                                            toy_curve, monkeypatch):
    # participant 2 also sends one forged frame when its NONCE arrives
    sid, own = _clean_share(toy_curve, 21, 2)
    payload = own if msg_type is MsgType.SHARE else b"\x5a" * 32
    forged = encode_frame(Frame(msg_type, sid, sender, payload))
    monkeypatch.setattr(net, "route", forging_route(net.route, 2, dst, forged, False))
    out = run_basic_session(toy_curve, FORGER_KEYS, 5, seed=21)
    assert (out.phase, out.error_code) == (Phase.DONE, None)
    assert out.digest == reference_digest(toy_curve, 5, FORGER_KEYS)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_extra_frame_fails_only_its_sender(toy_curve, data):
    j = data.draw(st.integers(1, 3))
    sender = data.draw(st.integers(0, 3))
    dst = data.draw(st.integers(0, 3))
    # half the draws are the two types a basic round acts on
    msg_type = data.draw(st.one_of(st.sampled_from([MsgType.NONCE, MsgType.SHARE]),
                                   st.sampled_from(MsgType)))
    sid, own = _clean_share(toy_curve, 22, j)
    if data.draw(st.booleans()):
        sid = data.draw(st.binary(min_size=SESSION_ID_LENGTH, max_size=SESSION_ID_LENGTH))
    if msg_type in _FIXED_PAYLOAD:
        size = _FIXED_PAYLOAD[msg_type]
        payload = data.draw(st.binary(min_size=size, max_size=size))
    else:
        payload = data.draw(st.one_of(st.just(own), st.binary(max_size=2 * len(own))))
    forged = encode_frame(Frame(msg_type, sid, sender, payload))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(net, "route",
                      forging_route(net.route, j, dst, forged, data.draw(st.booleans())))
        out = run_basic_session(toy_curve, FORGER_KEYS, 5, seed=22)
    if out.phase is Phase.DONE:
        assert out.digest == reference_digest(toy_curve, 5, FORGER_KEYS)
    else:
        assert (out.phase, out.server.culprit) == (Phase.FAILED, j)


def test_unseeded_sessions_draw_fresh_session_ids(toy_subgroup):
    a = run_basic_session(toy_subgroup, TOY_KEYS, m=5)
    b = run_basic_session(toy_subgroup, TOY_KEYS, m=5)
    assert a.phase is b.phase is Phase.DONE
    assert a.digest == b.digest == reference_digest(toy_subgroup, 5, TOY_KEYS)
    assert a.server.session_id != b.server.session_id


@pytest.mark.parametrize("which, per_share, per_session, repeated", [
    ("modp2048", 2, 0, 4),
    ("secp", 4, 1, 0),
], ids=["modp2048", "secp"])
def test_modp_session_membership_budget(which, per_share, per_session, repeated,
                                        request, monkeypatch):
    # per share, only untrusted values get a membership check: the share
    # element and the receipt's ephemeral as the server decodes them;
    # computed elements are encoded unchecked. A curve point's encoding is
    # checked on the curve instead, and decoding one needs no check: per
    # share the share element, the ephemeral and both KEM points as encoded,
    # and once the digest. The server key is checked once per value, when
    # its comb table is built: in the first of two sessions, not the second.
    # The server opens its receipts in one power_many, a power per base: mod
    # p it calls power for each, and on a curve each base is counted here.
    # A member share is kept on its key pair, so the first session makes 5
    # powers per share and the second only the owner's g and h powers plus
    # 3 per share: g^e and the key power of each receipt, and its opening.
    # The second session sends the first one's share encodings again, so
    # the server decodes none of them anew: mod p that skips one membership
    # check per share, and a curve point's decode made none.
    params = request.getfixturevalue(which)
    cls = type(params)
    rng = random.Random(12)
    n = 4
    keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
    server = pke.generate_keypair(params, rng)
    m = rng.randrange(params.exponent_modulus)
    groups._generator_tables.cache_clear()
    groups._key_tables.cache_clear()
    protocol._share_element.cache_clear()
    calls = Counter()
    for name in ("power", "element_valid"):
        def counted(self, *args, _name=name, _method=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    if cls is EcParams:
        def counted_many(self, bases, exponent, _method=cls.power_many):
            calls["power"] += len(bases)
            return _method(self, bases, exponent)
        monkeypatch.setattr(cls, "power_many", counted_many)
    outs = [run_basic_session(params, keys, m, owner_index=2, seed=seed,
                              server_keypair=server) for seed in (5, 6)]
    assert [out.phase for out in outs] == [Phase.DONE, Phase.DONE]
    assert calls == {"element_valid": 2 * (per_share * n + per_session) + 1 - repeated,
                     "power": 5 * n + 3 * n + 2}
    monkeypatch.undo()
    for out in outs:
        assert out.digest == reference_digest(params, m, keys)


@pytest.mark.parametrize("which", ["modp2048", "secp"])
def test_a_second_session_powers_only_the_owners_share(which, request, monkeypatch):
    # a member share is a constant of its key pair: after the first session
    # over a key list, the next powers g and h only for the owner, besides
    # each receipt's g^e, its key power and the server's opening
    params = request.getfixturevalue(which)
    cls = type(params)
    rng = random.Random(41)
    n = 4
    keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
    server = pke.generate_keypair(params, rng)
    m = rng.randrange(params.exponent_modulus)
    owner = 2
    first = run_basic_session(params, keys, m, owner_index=owner, seed=5,
                              server_keypair=server)
    bases = Counter()

    def kind(base):
        named = {"g": params.g, "h": params.h, "key": server.public}
        return next((name for name, value in named.items() if base == value), "var")

    def counted(self, base, *args, _method=cls.power, **kwargs):
        bases[kind(base)] += 1
        return _method(self, base, *args, **kwargs)
    monkeypatch.setattr(cls, "power", counted)
    if cls is EcParams:
        def counted_many(self, many, exponent, _method=cls.power_many):
            bases["var"] += len(many)
            return _method(self, many, exponent)
        monkeypatch.setattr(cls, "power_many", counted_many)
    second = run_basic_session(params, keys, m, owner_index=owner, seed=6,
                               server_keypair=server)
    monkeypatch.undo()
    assert second.phase is Phase.DONE
    assert bases == {"g": 1 + n, "h": 1, "key": n, "var": n}
    assert second.digest == first.digest == reference_digest(params, m, keys)

    def elements(out):
        frames = (decode_frame(d.data) for d in out.trace)
        return {f.sender: f.payload[:params.element_width]
                for f in frames if f.msg_type is MsgType.SHARE}
    members = set(range(1, n + 1)) - {owner}
    assert {i: elements(second)[i] for i in members} == \
        {i: elements(first)[i] for i in members}


@pytest.mark.parametrize("which", ["modp2048", "secp"])
def test_a_warm_owner_powers_g_once_and_h_never(which, request, monkeypatch):
    # the second session's owner sent a member share in the first, kept on
    # its key pair: its own share is that one times g^m, one power of g.
    # The first owner kept none; it gets one here, as bench set-up gives one
    params = request.getfixturevalue(which)
    cls = type(params)
    rng = random.Random(42)
    n = 4
    keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
    server = pke.generate_keypair(params, rng)
    m = rng.randrange(params.exponent_modulus)
    run_basic_session(params, keys, m, owner_index=2, seed=5, server_keypair=server)
    member_share(params, keys[1])
    bases = Counter()

    def counted(self, base, *args, _method=cls.power, **kwargs):
        bases["g" if base == params.g else "h" if base == params.h else "other"] += 1
        return _method(self, base, *args, **kwargs)
    monkeypatch.setattr(cls, "power", counted)
    second = run_basic_session(params, keys, m, owner_index=3, seed=6,
                               server_keypair=server)
    monkeypatch.undo()
    assert second.phase is Phase.DONE
    assert second.digest == reference_digest(params, m, keys)
    assert (bases["g"], bases["h"]) == (1 + n, 0)  # the owner's g^m and each receipt's g^e


@pytest.mark.parametrize("which", ["modp2048", "secp"])
def test_a_repeated_share_encoding_is_decoded_once(which, request, monkeypatch):
    # a member share is the same bytes in every session over its key pair,
    # and so is the owner's for the same m: the server decodes each once
    params = request.getfixturevalue(which)
    cls = type(params)
    rng = random.Random(43)
    keys = [ParticipantKeys.random(params, rng) for _ in range(3)]
    server = pke.generate_keypair(params, rng)
    m = rng.randrange(params.exponent_modulus)
    protocol._share_element.cache_clear()
    decoded = Counter()

    def counted(self, data, _method=cls.decode):
        decoded[bytes(data)] += 1
        return _method(self, data)
    monkeypatch.setattr(cls, "decode", counted)
    outs = [run_basic_session(params, keys, m, seed=seed, server_keypair=server)
            for seed in (7, 8)]
    monkeypatch.undo()
    assert [out.digest for out in outs] == [reference_digest(params, m, keys)] * 2
    sent = [f.payload[:params.element_width] for out in outs
            for f in map(decode_frame, (d.data for d in out.trace))
            if f.msg_type is MsgType.SHARE]
    assert len(sent) == 6 and len(set(sent)) == 3
    assert [decoded[b] for b in sent] == [1] * 6


def test_each_server_key_gets_one_comb_table(secp):
    # every server key, given or made by the session, gets a table in the
    # first session that uses it, read by the sessions after it; both
    # keyless sessions draw from seed 2, so they make the same key
    rng = random.Random(14)
    keys = [ParticipantKeys.random(secp, rng) for _ in range(3)]
    server = pke.generate_keypair(secp, rng)
    groups._generator_tables.cache_clear()
    groups._key_tables.cache_clear()
    run_basic_session(secp, keys, 5, seed=1)  # g's and h's tables
    built = []
    for server_keypair in (None, None, server, server):
        before = comb_builds()
        out = run_basic_session(secp, keys, 5, seed=2, server_keypair=server_keypair)
        assert out.digest == reference_digest(secp, 5, keys)
        built.append(tuple(a - b for a, b in zip(comb_builds(), before)))
    assert built == [(0, 1), (0, 0), (0, 1), (0, 0)]


def test_session_power_budget(secp, monkeypatch):
    # per share: g^x and h^y in the share and g^e in the receipt (fixed base),
    # the receipt key pk^e, and the server's ephemeral^sk on decryption, one
    # base of the power_many that opens every receipt at finalize
    rng = random.Random(11)
    n = 4
    keys = [ParticipantKeys.random(secp, rng) for _ in range(n)]
    server = pke.generate_keypair(secp, rng)
    m = rng.randrange(secp.order)
    calls = {"fixed": 0, "key": 0, "var": 0}
    power, power_many = EcParams.power, EcParams.power_many

    def count(self, base):
        kind = ("fixed" if base in (self.g, self.h)
                else "key" if base == server.public else "var")
        calls[kind] += 1

    def counted(self, base, exponent, **kwargs):
        count(self, base)
        return power(self, base, exponent, **kwargs)

    def counted_many(self, bases, exponent):
        for base in bases:
            count(self, base)
        return power_many(self, bases, exponent)

    monkeypatch.setattr(EcParams, "power", counted)
    monkeypatch.setattr(EcParams, "power_many", counted_many)
    out = run_basic_session(secp, keys, m, owner_index=2, seed=5, server_keypair=server)
    assert out.phase is Phase.DONE
    assert calls == {"fixed": 3 * n, "key": n, "var": n}
    monkeypatch.undo()
    assert out.digest == reference_digest(secp, m, keys)


@pytest.mark.parametrize("which", ["secp", "modp2048"])
def test_warm_session_power_budget_per_role(which, request, monkeypatch):
    # once the tables are built and the member shares kept, the server makes
    # one power_many over the n ephemerals and no power; a member's respond
    # makes two powers, g^e on g's table and the server key's on its own;
    # the owner's makes three, its g^m too. Nothing builds a table.
    params = request.getfixturevalue(which)
    cls = type(params)
    rng = random.Random(14)
    n = 4
    keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
    server = pke.generate_keypair(params, rng)
    m = rng.randrange(params.exponent_modulus)
    run_basic_session(params, keys, m, owner_index=2, seed=5, server_keypair=server)
    for k in keys:
        member_share(params, k)  # the owner of the first session kept none
    bits = pke._exponent_bits(params)
    calls = {}
    role = ["server"]  # whose work a call is: a participant's index inside its respond
    power, power_many = cls.power, cls.power_many
    respond = protocol.ParticipantSession.respond

    def counted_respond(self, frame):
        role.append(self.index)
        try:
            return respond(self, frame)
        finally:
            role.pop()

    def counted_power(self, base, exponent, bits=None):
        if role[-1] != "power_many":  # mod p, power_many calls power per base
            kind = "g" if base == self.g else "key" if base == server.public else base
            calls.setdefault(role[-1], Counter())[("power", kind, bits)] += 1
        return power(self, base, exponent, bits=bits)

    def counted_many(self, bases, exponent):
        calls.setdefault(role[-1], Counter())[("power_many", len(bases))] += 1
        role.append("power_many")
        try:
            return power_many(self, bases, exponent)
        finally:
            role.pop()

    monkeypatch.setattr(protocol.ParticipantSession, "respond", counted_respond)
    monkeypatch.setattr(cls, "power", counted_power)
    monkeypatch.setattr(cls, "power_many", counted_many)
    before = comb_builds()
    out = run_basic_session(params, keys, m, owner_index=2, seed=6, server_keypair=server)
    assert out.phase is Phase.DONE
    assert comb_builds() == before
    member = Counter({("power", "g", bits): 1, ("power", "key", bits): 1})
    owner = member + Counter({("power", "g", None): 1})
    assert calls == {"server": Counter({("power_many", n): 1}),
                     1: member, 2: owner, 3: member, 4: member}
    monkeypatch.undo()
    assert out.digest == reference_digest(params, m, keys)


def test_modp_session_power_budget(modp2048, monkeypatch):
    # as test_session_power_budget, and g, h and the server key come from
    # their comb tables: built-in pow runs only for the server's ephemeral^sk
    rng = random.Random(13)
    n = 4
    keys = [ParticipantKeys.random(modp2048, rng) for _ in range(n)]
    server = pke.generate_keypair(modp2048, rng)
    m = rng.randrange(modp2048.exponent_modulus)
    for base in (modp2048.g, modp2048.h):
        modp2048.power(base, 1)  # build the tables outside the count
    calls = {"fixed": 0, "key": 0, "var": 0}
    pow_bases = []
    power = ModpParams.power

    def counted(self, base, exponent, **kwargs):
        kind = ("fixed" if base in (self.g, self.h)
                else "key" if base == server.public else "var")
        calls[kind] += 1
        return power(self, base, exponent, **kwargs)

    def counted_pow(base, *args):
        pow_bases.append(base)
        return pow(base, *args)

    monkeypatch.setattr(ModpParams, "power", counted)
    monkeypatch.setattr(groups, "pow", counted_pow, raising=False)
    out = run_basic_session(modp2048, keys, m, owner_index=2, seed=5, server_keypair=server)
    assert out.phase is Phase.DONE
    assert calls == {"fixed": 3 * n, "key": n, "var": n}
    assert len(pow_bases) == n
    assert not {modp2048.g, modp2048.h, server.public} & set(pow_bases)
    monkeypatch.undo()
    assert out.digest == reference_digest(modp2048, m, keys)
