import random

import pytest

from comhash import (
    modp_group,
    secp256k1,
    toy_ec,
    toy_modp_primitive,
    toy_modp_subgroup,
)
from comhash.net import Delivery


def distinct_nonzero_scalars(modulus: int, count: int, rng: random.Random) -> list[int]:
    """Pairwise-distinct nonzero scalars, Shamir evaluation points for the
    tests; rejection keeps it exact even when the modulus is tiny."""
    if count >= modulus:
        raise ValueError("not enough nonzero field elements")
    out: list[int] = []
    seen = set()
    while len(out) < count:
        v = rng.randrange(1, modulus)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def forging_route(route, j, dst, data, at_start):
    """A stand-in for ``net.route`` under which participant j also sends
    ``data`` to ``dst`` once: among the opening deliveries, or with its
    answer to the first frame it takes."""
    unsent = [(dst, data)]

    def forging(handlers, pending, **kwargs):
        if unsent and at_start:
            pending = [*pending, Delivery(j, *unsent.pop())]
        elif unsent:
            def answer_and_forge(src, got, answer=handlers[j]):
                replies = answer(src, got) + unsent
                unsent.clear()
                return replies

            handlers[j] = answer_and_forge
        return route(handlers, pending, **kwargs)

    return forging


@pytest.fixture(scope="session")
def toy_subgroup():
    return toy_modp_subgroup()


@pytest.fixture(scope="session")
def toy_primitive():
    return toy_modp_primitive()


@pytest.fixture(scope="session")
def toy_curve():
    return toy_ec()


@pytest.fixture(scope="session")
def secp():
    return secp256k1()


@pytest.fixture(scope="session")
def modp2048():
    return modp_group(2048)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
