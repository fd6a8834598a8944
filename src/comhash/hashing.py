"""The two-generator commutative hash and the share algebra built on it.

The core map is the classic Chaum-van Heijst-Pfitzmann construction
``(x, y) -> g^x * h^y`` (``x*G + y*H`` on curves). Each participant
contributes one share; the multiset of shares combines, in any order, to
``g^(sum x) * h^(sum y)``, which is what makes the protocol's digest
independent of who holds the message. A key pair is long-lived, so a
non-owner's share is computed once per key pair and group and kept on the
key object. The owner's share folds in m: from a kept member share it is
that share times g^m, else it is computed whole.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import GroupError
from .groups import GroupParams, scalar_inv


@dataclass(frozen=True)
class ParticipantKeys:
    """One participant's secret exponent pair. ``_shares`` keeps its member
    share per group; it takes no part in construction, equality, hashing or
    repr, and lives and dies with the object."""

    x: int
    y: int
    _shares: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def random(cls, params: GroupParams, rng: random.Random) -> "ParticipantKeys":
        m = params.exponent_modulus
        return cls(rng.randrange(m), rng.randrange(m))


def cvhp(params: GroupParams, x: int, y: int):
    """g^x * h^y in the configured group."""
    return params.combine(params.power(params.g, x), params.power(params.h, y))


def member_share(params: GroupParams, keys: ParticipantKeys):
    """A non-owner's contribution: the hash of its own key pair, computed
    once per key pair and group and kept on ``keys``."""
    if params not in keys._shares:  # membership, not None: the curve identity is None
        keys._shares[params] = cvhp(params, keys.x, keys.y)
    return keys._shares[params]


def owner_share(params: GroupParams, keys: ParticipantKeys, m: int,
                blinding: Optional[int] = None, m2: Optional[int] = None):
    """The data owner's contribution, with the message folded into the
    first exponent.

    blinding multiplies the message by a shared secret factor before mixing
    (defeats digest brute-forcing by a curious server); m2 places a second
    message in the other exponent slot, doubling the plaintext space.
    Without m2, a key pair that keeps its member share for ``params`` pays
    one power, g^m, on top of it; otherwise g^(x+m) and h^y are computed.
    """
    mod = params.exponent_modulus
    if blinding is not None:
        if m2 is not None:
            raise ValueError("blinded and dual variants cannot be combined")
        if blinding % mod == 0:
            raise ValueError("blinding factor must be nonzero")
        m = m * blinding % mod
    if m2 is None and params in keys._shares:  # g^(x+m) * h^y = (g^x * h^y) * g^m
        return params.combine(keys._shares[params], params.power(params.g, m))
    x = (keys.x + m) % mod
    y = keys.y if m2 is None else (keys.y + m2) % mod
    return cvhp(params, x, y)


def combine_shares(params: GroupParams, shares: Sequence):
    """Fold the shares with the group law; order never matters."""
    if not shares:
        raise ValueError("cannot combine an empty share list")
    acc = shares[0]
    for share in shares[1:]:
        acc = params.combine(acc, share)
    return acc


def reference_digest(params: GroupParams, m: int,
                     keys_list: Sequence[ParticipantKeys]):
    """Test oracle: the digest computed directly from the summed exponents.

    No protocol party can evaluate this (nobody holds every key); the
    protocol's combined output must equal it exactly.
    """
    if not keys_list:
        raise ValueError("need at least one key pair")
    mod = params.exponent_modulus
    sx = (m + sum(k.x for k in keys_list)) % mod
    sy = sum(k.y for k in keys_list) % mod
    return cvhp(params, sx, sy)


def collision_to_dlog(params: GroupParams, first: tuple, second: tuple) -> int:
    """Extract log_g(h) from a hash collision: two distinct exponent pairs
    (k, l) != (k', l') with equal hashes yield (k - k') / (l' - l).

    This is the reduction that makes finding collisions as hard as the
    discrete logarithm problem.
    """
    (k1, l1), (k2, l2) = first, second
    if cvhp(params, k1, l1) != cvhp(params, k2, l2):
        raise GroupError("inputs are not a collision")
    mod = params.exponent_modulus
    if (l1 - l2) % mod == 0:
        # g^k1 = g^k2 forces k1 = k2: the "collision" is a single input
        raise GroupError("second exponents are equal, so k must equal k'; nothing to extract")
    d = (k1 - k2) * scalar_inv((l2 - l1) % mod, mod) % mod
    if params.power(params.g, d) != params.h:
        raise GroupError("extraction failed; h is not in the subgroup generated by g")
    return d
