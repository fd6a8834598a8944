import dataclasses
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comhash import (
    GroupError,
    ParticipantKeys,
    collision_to_dlog,
    combine_shares,
    cvhp,
    member_share,
    owner_share,
    reference_digest,
)
from comhash import hashing


def test_cvhp_worked_values(toy_subgroup, toy_primitive):
    # 5^2 * 7^3 = 25 * 343 = 8575; 8575 mod 23 = 19
    assert cvhp(toy_primitive, 2, 3) == 19
    # 2^2 * 3^3 = 108; 108 mod 23 = 16
    assert cvhp(toy_subgroup, 2, 3) == 16
    assert cvhp(toy_subgroup, 0, 0) == 1
    assert cvhp(toy_primitive, 0, 0) == 1


def test_cvhp_identity_on_curves(toy_curve):
    assert cvhp(toy_curve, 0, 0) is None


def test_member_share_values(toy_subgroup, toy_curve):
    assert member_share(toy_subgroup, ParticipantKeys(4, 6)) == 3
    assert member_share(toy_subgroup, ParticipantKeys(0, 0)) == 1
    assert member_share(toy_curve, ParticipantKeys(1, 1)) == \
        toy_curve.combine(toy_curve.g, toy_curve.h)


def test_one_key_pair_keeps_each_groups_own_share(toy_subgroup, toy_primitive, toy_curve):
    # the two toy modp groups share p = 23 but not their generators, so the
    # memo must key on the whole group, not its modulus
    keys = ParticipantKeys(2, 3)
    for _ in range(2):
        assert member_share(toy_curve, keys) == cvhp(toy_curve, 2, 3)
        assert member_share(toy_subgroup, keys) == cvhp(toy_subgroup, 2, 3) == 16
        assert member_share(toy_primitive, keys) == cvhp(toy_primitive, 2, 3) == 19
    assert len(keys._shares) == 3


def test_the_share_memo_is_invisible(toy_subgroup, toy_curve):
    keys = ParticipantKeys(2, 3)
    member_share(toy_subgroup, keys)
    member_share(toy_curve, keys)
    fresh = ParticipantKeys(2, 3)
    assert keys == fresh and hash(keys) == hash(fresh)
    assert repr(keys) == "ParticipantKeys(x=2, y=3)"
    copy = dataclasses.replace(keys)
    assert copy == keys and copy._shares == {}
    with pytest.raises(TypeError):
        ParticipantKeys(2, 3, {})


def test_an_identity_share_is_computed_once(toy_curve, monkeypatch):
    # the curve identity is None, so the memo cannot test for a missing share by None
    calls = []

    def counted(params, x, y, _cvhp=hashing.cvhp):
        calls.append((x, y))
        return _cvhp(params, x, y)
    monkeypatch.setattr(hashing, "cvhp", counted)
    keys = ParticipantKeys(0, 0)
    assert [member_share(toy_curve, keys) for _ in range(3)] == [None] * 3
    assert calls == [(0, 0)]


def test_owner_share_values(toy_subgroup):
    keys = ParticipantKeys(2, 3)
    assert owner_share(toy_subgroup, keys, 5) == 6  # 2^7 * 3^3 mod 23
    assert owner_share(toy_subgroup, keys, 0) == member_share(toy_subgroup, keys)
    assert owner_share(toy_subgroup, keys, 5, blinding=1) == \
        owner_share(toy_subgroup, keys, 5)


def test_owner_share_blinded_and_dual(toy_subgroup):
    keys = ParticipantKeys(2, 3)
    # R * m folds into the first exponent
    assert owner_share(toy_subgroup, keys, 5, blinding=3) == \
        cvhp(toy_subgroup, (2 + 15) % 11, 3)
    # a second message shifts the other exponent
    assert owner_share(toy_subgroup, keys, 5, m2=4) == \
        cvhp(toy_subgroup, (2 + 5) % 11, (3 + 4) % 11)
    with pytest.raises(ValueError):
        owner_share(toy_subgroup, keys, 5, blinding=0)
    with pytest.raises(ValueError):
        owner_share(toy_subgroup, keys, 5, blinding=11)  # 11 = 0 mod 11
    with pytest.raises(ValueError):
        owner_share(toy_subgroup, keys, 5, blinding=3, m2=4)


def test_combine_shares_values(toy_subgroup):
    assert combine_shares(toy_subgroup, [6, 3]) == 18
    assert combine_shares(toy_subgroup, [9]) == 9
    with pytest.raises(ValueError):
        combine_shares(toy_subgroup, [])


@settings(max_examples=50)
@given(data=st.data())
def test_combine_shares_order_invariant(data, toy_subgroup):
    exps = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=5))
    shares = [cvhp(toy_subgroup, e, e + 1) for e in exps]
    expected = combine_shares(toy_subgroup, shares)
    for perm in permutations(shares):
        assert combine_shares(toy_subgroup, list(perm)) == expected


def test_reference_digest_values(toy_subgroup):
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6)]
    # exponent sums: 5+2+4 = 11 = 0 mod 11, 3+6 = 9
    digest = reference_digest(toy_subgroup, 5, keys)
    assert digest == 18 == cvhp(toy_subgroup, 0, 9)
    only = [ParticipantKeys(4, 6)]
    assert reference_digest(toy_subgroup, 0, only) == member_share(toy_subgroup, only[0])


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_primitive", "toy_curve", "secp"])
def test_reference_digest_equals_combined_shares(which, request, rng):
    params = request.getfixturevalue(which)
    for n in range(1, 9):
        keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
        m = rng.randrange(params.exponent_modulus)
        shares = [owner_share(params, keys[0], m)]
        shares += [member_share(params, k) for k in keys[1:]]
        assert combine_shares(params, shares) == reference_digest(params, m, keys)


def test_digest_injective_in_message_on_toy_group(toy_subgroup):
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6), ParticipantKeys(7, 1)]
    digests = set()
    for m in range(11):
        shares = [owner_share(toy_subgroup, keys[0], m)]
        shares += [member_share(toy_subgroup, k) for k in keys[1:]]
        digests.add(combine_shares(toy_subgroup, shares))
    assert len(digests) == 11  # distinct messages, distinct digests


@pytest.mark.parametrize("which", ["toy_subgroup", "toy_curve"])
def test_cvhp_reduces_exponents(which, request, rng):
    params = request.getfixturevalue(which)
    m = params.exponent_modulus
    for _ in range(25):
        x, y = rng.randrange(10 * m), rng.randrange(10 * m)
        assert cvhp(params, x, y) == cvhp(params, x % m, y % m)


# ---------------------------------------------------------------------------
# collision extractor
# ---------------------------------------------------------------------------

def planted_log_curve(toy_curve, d=2):
    """Toy curve with h = d*g, so the extractor's answer is known."""
    from dataclasses import replace
    return replace(toy_curve, h=toy_curve.power(toy_curve.g, d), h_label=b"")


def test_collision_extractor_recovers_planted_log(toy_curve):
    params = planted_log_curve(toy_curve, d=2)
    # h = 2g makes (k, l) collide with (k + 2t, l - t)
    first, second = (5, 3), (1, 5)
    assert cvhp(params, *first) == cvhp(params, *second)
    assert collision_to_dlog(params, first, second) == 2


def test_collision_extractor_random_planted_logs(toy_curve, rng):
    for _ in range(20):
        d = rng.randrange(1, 19)
        params = planted_log_curve(toy_curve, d)
        k, l = rng.randrange(19), rng.randrange(19)
        t = rng.randrange(1, 19)
        other = ((k + d * t) % 19, (l - t) % 19)
        extracted = collision_to_dlog(params, (k, l), other)
        assert extracted == d
        assert params.power(params.g, extracted) == params.h


def test_collision_extractor_on_modp_subgroup(toy_subgroup):
    from dataclasses import replace
    params = replace(toy_subgroup, h=toy_subgroup.power(toy_subgroup.g, 7), h_label=b"")
    collision = ((3, 2), ((3 + 7 * 4) % 11, (2 - 4) % 11))
    assert collision_to_dlog(params, *collision) == 7


def test_collision_extractor_rejects_non_collision(toy_curve):
    params = planted_log_curve(toy_curve)
    with pytest.raises(GroupError):
        collision_to_dlog(params, (1, 2), (3, 4))


def test_collision_extractor_rejects_equal_l(toy_curve):
    params = planted_log_curve(toy_curve)
    with pytest.raises(GroupError, match="k must equal"):
        collision_to_dlog(params, (6, 4), (6, 4))
