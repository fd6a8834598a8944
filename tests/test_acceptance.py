"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time

import pytest

from comhash import (
    ErrorCode,
    MsgType,
    ParticipantKeys,
    Phase,
    collision_to_dlog,
    cvhp,
    decode_frame,
    element_to_bytes,
    generate_group,
    lagrange_at_zero,
    member_share,
    owner_share,
    reference_digest,
    run_basic_session,
    run_threshold_session,
    server_absorb,
    server_begin,
    server_finalize,
)
from comhash import pke
from comhash.bench import fit_points, reference_fit, run_bench
from comhash.net import Drop, Duplicate, FaultPlan, FlipByte, ReplaceNonce
from comhash.protocol import OwnerRole, ParticipantSession
from comhash.threshold import (
    MultiplyRole,
    MultiplySession,
    Polynomial,
    multiply_step,
    run_multiply,
)
from conftest import distinct_nonzero_scalars

SECP_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def test_c01_oracle_equivalence(toy_subgroup, toy_primitive, toy_curve, secp,
                                modp2048):
    """500 randomized end-to-end sessions reproduce the summed-exponent oracle."""
    start = time.perf_counter()
    rng = random.Random(20240001)
    small48 = generate_group("modp", 48, seed=101)
    # (params, sessions, max participants)
    schedule = [
        (toy_subgroup, 160, 8),
        (toy_primitive, 110, 8),
        (toy_curve, 160, 8),
        (small48, 30, 8),
        (secp, 30, 8),
        (modp2048, 10, 4),
    ]
    total = 0
    for params, count, max_n in schedule:
        for _ in range(count):
            n = rng.randrange(1, max_n + 1)
            keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
            m = rng.randrange(params.exponent_modulus)
            out = run_basic_session(params, keys, m, seed=rng.randrange(2**63))
            assert out.phase is Phase.DONE
            assert out.digest == reference_digest(params, m, keys)
            total += 1
    elapsed = time.perf_counter() - start
    assert total == 500
    assert elapsed < 30.0
    print(f"\nACCEPTANCE C1 PASS - oracle equivalence, 500 sessions, "
          f"{elapsed:.1f}s")


def test_c02_owner_position_and_order_invariance(toy_subgroup, toy_curve):
    """200 random key multisets: every owner placement and share ordering
    yields byte-identical digests."""
    rng = random.Random(20240002)
    for trial in range(200):
        params = toy_subgroup if trial % 2 == 0 else toy_curve
        n = rng.randrange(1, 7)
        keys = [ParticipantKeys.random(params, rng) for _ in range(n)]
        m = rng.randrange(params.exponent_modulus)
        digests = set()
        # all owner placements, via the full message exchange
        for owner_index in range(1, n + 1):
            out = run_basic_session(params, keys, m, owner_index=owner_index,
                                    seed=rng.randrange(2**63))
            assert out.phase is Phase.DONE
            digests.add(element_to_bytes(params, out.digest))
        # all share arrival orders (direct absorb; every permutation for
        # small n, sampled beyond that)
        kp = pke.generate_keypair(params, rng)
        server, nonces = server_begin(params, n, kp, rng)
        parts = [ParticipantSession(params, i + 1, keys[i], kp.public,
                                    owner=OwnerRole(m) if i == 0 else None,
                                    rng=rng, session_id=server.session_id)
                 for i in range(n)]
        shares = [parts[i].respond(nonces[i]) for i in range(n)]
        orders = (list(itertools.permutations(range(n))) if n <= 4
                  else [rng.sample(range(n), n) for _ in range(6)])
        for order in orders:
            server2, _ = server_begin(params, n, kp, rng)
            server2.requests = dict(server.requests)
            server2.session_id = server.session_id
            for i in order:
                server_absorb(server2, shares[i])
            digests.add(element_to_bytes(params, server_finalize(server2)))
        assert len(digests) == 1, f"trial {trial}: {digests}"
    print("\nACCEPTANCE C2 PASS - owner placement and share order invariance, "
          "200 multisets")


def test_c03_worked_toy_vector(toy_subgroup):
    """The hand-computed instance: p=23, g=2, h=3, keys (2,3),(4,6), m=5."""
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6)]
    assert owner_share(toy_subgroup, keys[0], 5) == 6
    assert member_share(toy_subgroup, keys[1]) == 3
    out = run_basic_session(toy_subgroup, keys, m=5, seed=3)
    assert out.phase is Phase.DONE
    assert out.digest == 18
    assert reference_digest(toy_subgroup, 5, keys) == 18
    print("\nACCEPTANCE C3 PASS - worked toy vector digest == 18")


def test_c04_threshold_identity(toy_subgroup, toy_curve):
    """n=5, k=3: all 10 subsets store the digest g^(m+s0) * h^t0; the toy
    instance (m=4, s0=5, t0=6) pins to 4."""
    expected = cvhp(toy_subgroup, (4 + 5) % 11, 6)
    assert expected == 4
    digests = set()
    for subset in itertools.combinations(range(1, 6), 3):
        run = run_threshold_session(toy_subgroup, 5, 6, 3, 5, 4,
                                    rng=random.Random(404), subset=subset)
        digests.add(run.digest)
    assert digests == {4}
    # same property on the curve backend
    ec_expected = cvhp(toy_curve, (12 + 5) % 19, 7)
    for subset in itertools.combinations(range(1, 6), 3):
        run = run_threshold_session(toy_curve, 5, 7, 3, 5, 12,
                                    rng=random.Random(405), subset=subset)
        assert run.digest == ec_expected
    print("\nACCEPTANCE C4 PASS - threshold digest identical for all 10 "
          "subsets, toy value 4")


def test_c05_multiply_protocol():
    """1000 random triples recover x*y; the pinned transcript matches."""
    p1 = MultiplySession(MultiplyRole.P1, 11, blinding=2, value=3)
    p2 = MultiplySession(MultiplyRole.P2, 11, blinding=5, value=4)
    server = MultiplySession(MultiplyRole.SERVER, 11, blinding=7)
    outputs = []
    incoming = None
    for machine in (p1, p2, server, p1, p2, server):
        incoming = multiply_step(machine, incoming)
        outputs.append(incoming)
    assert outputs == [6, 10, 4, 2, 7, 1]

    rng = random.Random(20240005)
    for trial in range(1000):
        modulus = (11, 101, SECP_ORDER)[trial % 3]
        x, y = rng.randrange(1, modulus), rng.randrange(1, modulus)
        product, _ = run_multiply(x, y, modulus, rng)
        assert product == x * y % modulus
    print("\nACCEPTANCE C5 PASS - multiply: pinned transcript + 1000 triples")


def test_c06_shamir_reconstruction():
    """Exhaustive k-subset reconstruction, n <= 6, over GF(11) and a 256-bit
    field."""
    for modulus in (11, SECP_ORDER):
        rng = random.Random(modulus)
        for n in range(2, 7):
            for k in range(1, n + 1):
                secret = rng.randrange(modulus)
                poly = Polynomial.random(secret, k - 1, modulus, rng)
                xs = distinct_nonzero_scalars(modulus, n, rng)
                shares = [(x, poly(x)) for x in xs]
                for subset in itertools.combinations(shares, k):
                    coeffs = lagrange_at_zero([x for x, _ in subset], modulus)
                    got = sum(fx * c for (_, fx), c in zip(subset, coeffs)) % modulus
                    assert got == secret
    print("\nACCEPTANCE C6 PASS - Shamir exhaustive reconstruction, "
          "GF(11) and 256-bit field")


def test_c07_fit_reproduction():
    """Least squares over the 13 published points matches the quoted lines:
    ec slope within 5% of 0.008, intercept within 0.05 of -0.733; modp slope
    within 5% of 0.13."""
    start = time.perf_counter()
    ec = reference_fit("ec")
    modp = reference_fit("modp")
    assert abs(ec.slope - 0.008) <= 0.05 * 0.008, ec
    assert abs(ec.intercept - (-0.733)) <= 0.05, ec
    assert abs(modp.slope - 0.13) <= 0.05 * 0.13, modp
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE C7 PASS - reference fits: ec {ec.slope:.5f}N"
          f"{ec.intercept:+.3f}, modp {modp.slope:.4f}N{modp.intercept:+.2f}")


def test_c08_fresh_measurement_properties(secp, modp2048):
    """Fresh timings: linear (R^2 >= 0.99) over N in 4..512 on the curve
    backend, and the curve backend at least 2x faster than 2048-bit modp at
    N = 64."""
    start = time.perf_counter()
    sizes = [4 * 2**i for i in range(8)]  # 4 .. 512
    ec_points = run_bench("ec", sizes, trials=3, seed=808, params=secp)
    fit = fit_points(ec_points)
    assert fit.r_squared >= 0.99, fit

    ec64 = next(p.mean_s for p in ec_points if p.n == 64)
    modp_points = run_bench("modp", [64], trials=2, seed=809, params=modp2048)
    modp64 = modp_points[0].mean_s
    assert modp64 >= 2.0 * ec64, (modp64, ec64)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\nACCEPTANCE C8 PASS - linearity R^2={fit.r_squared:.4f}; "
          f"modp64/ec64 = {modp64 / ec64:.1f}x; {elapsed:.0f}s")


def test_c09_error_paths_fuzz(toy_subgroup):
    """1000 fuzz cases across the four tamper classes: each produces its
    designated failure code and never a stored digest."""
    keys = [ParticipantKeys(2, 3), ParticipantKeys(4, 6), ParticipantKeys(7, 9)]
    baseline = run_basic_session(toy_subgroup, keys, m=6, seed=909)
    assert baseline.phase is Phase.DONE
    server_public = baseline.server.keypair.public
    frames = [(i, decode_frame(d.data)) for i, d in enumerate(baseline.trace)]
    nonce_ords = [i for i, f in frames if f.msg_type is MsgType.NONCE]
    share_ords = [i for i, f in frames if f.msg_type is MsgType.SHARE]
    rng = random.Random(20240009)
    counts = {code: 0 for code in (ErrorCode.NONCE_MISMATCH, ErrorCode.DUPLICATE,
                                   ErrorCode.MISSING, ErrorCode.DECRYPT_FAIL)}
    for case in range(1000):
        kind = case % 4
        if kind == 0:  # nonce replacement
            target = rng.choice(nonce_ords)
            mutation = ReplaceNonce(rng.randbytes(32))
            expected = ErrorCode.NONCE_MISMATCH
        elif kind == 1:  # duplicate share
            target = rng.choice(share_ords)
            mutation = Duplicate()
            expected = ErrorCode.DUPLICATE
        elif kind == 2:  # dropped share
            target = rng.choice(share_ords)
            mutation = Drop()
            expected = ErrorCode.MISSING
        else:  # corrupted ciphertext body/tag (parseable, so auth must fail)
            target = rng.choice(share_ords)
            data = baseline.trace[target].data
            # header(27) + element(1) + kem ephemeral(1) + length(2)
            body_start = 27 + 1 + 1 + 2
            mutation = FlipByte(rng.randrange(body_start, len(data)))
            expected = ErrorCode.DECRYPT_FAIL
        out = run_basic_session(toy_subgroup, keys, m=6, seed=909,
                                faults=FaultPlan({target: mutation}))
        assert out.phase is Phase.FAILED, (case, kind)
        assert out.error_code is expected, (case, kind, out.error_code)
        assert out.digest is None
        counts[expected] += 1
    assert sum(counts.values()) == 1000
    print(f"\nACCEPTANCE C9 PASS - 1000 fuzz cases: {dict(counts)}")


def test_c10_collision_extractor(toy_curve):
    """On the 19-point curve with a planted log, the extractor recovers it."""
    from dataclasses import replace

    planted = 2
    params = replace(toy_curve, h=toy_curve.power(toy_curve.g, planted),
                     h_label=b"")
    first, second = (5, 3), (1, 5)  # k + 2l = 11 in both
    assert cvhp(params, *first) == cvhp(params, *second)
    assert collision_to_dlog(params, first, second) == planted
    # a second, independently planted instance
    params7 = replace(toy_curve, h=toy_curve.power(toy_curve.g, 7), h_label=b"")
    pair_a, pair_b = (4, 9), ((4 + 7 * 3) % 19, (9 - 3) % 19)
    assert collision_to_dlog(params7, pair_a, pair_b) == 7
    print("\nACCEPTANCE C10 PASS - collision extractor recovers the planted log")
