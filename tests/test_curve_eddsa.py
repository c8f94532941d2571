"""Curve arithmetic and signature scheme tests."""

import random

import pytest

from helpers import ORDER_8, ref_add, ref_scalar_mul, ref_scalar_mul_base
from zkoracle import curve, eddsa
from zkoracle.curve import (GENERATOR, IDENTITY, D, L, Point, add, decode_point,
                            encode_point, is_on_curve, scalar_mul,
                            scalar_mul_base)
from zkoracle.errors import InvalidKey, InvalidPoint, OracleError
from zkoracle.field import P
from zkoracle.nodes import decode_vote, encode_vote, make_vote


def naive_mul(k, pt):
    acc = IDENTITY
    for _ in range(k):
        acc = add(acc, pt)
    return acc


def test_curve_sanity():
    assert is_on_curve(GENERATOR)
    assert scalar_mul(L, GENERATOR) == IDENTITY
    assert scalar_mul(2, GENERATOR) != IDENTITY
    assert not is_on_curve(Point(0, 0))
    assert is_on_curve(IDENTITY)


def test_group_laws():
    g2 = add(GENERATOR, GENERATOR)
    assert is_on_curve(g2)
    assert add(GENERATOR, IDENTITY) == GENERATOR
    assert add(GENERATOR, Point(P - GENERATOR.x, GENERATOR.y)) == IDENTITY
    assert add(GENERATOR, g2) == add(g2, GENERATOR)


def test_scalar_mul_matches_naive():
    rng = random.Random(10)
    for k in [0, 1, 2, 3, 7] + [rng.randint(4, 50) for _ in range(5)]:
        expected = naive_mul(k, GENERATOR)
        assert scalar_mul(k, GENERATOR) == expected
        assert scalar_mul_base(k) == expected


def test_scalar_mul_distributes():
    rng = random.Random(11)
    for _ in range(10):
        a = rng.randrange(1, L)
        b = rng.randrange(1, L)
        lhs = scalar_mul((a + b) % L, GENERATOR)
        rhs = add(scalar_mul_base(a), scalar_mul_base(b))
        assert lhs == rhs


# -- fast kernels against the reference forms in helpers.py ---------------------

TORSION = [IDENTITY, Point(0, P - 1)]  # (0, 1) and the point of order 2


def test_kernels_match_reference():
    rng = random.Random(17)
    scalars = [0, 1, 2, L - 1, L, L + 1, 1 << 256, (1 << 256) - 1, (1 << 256) + 1,
               (1 << 300) + 12345, (1 << 512) - 1]
    scalars += [rng.randrange(1 << 256) for _ in range(40)]
    for k in scalars:
        assert scalar_mul_base(k) == ref_scalar_mul_base(k), k

    # prime-order keys, torsion points and keys shifted out of the subgroup
    # by one, each reused with many scalars so its comb table is read warm
    assert is_on_curve(ORDER_8)
    assert naive_mul(4, ORDER_8) != IDENTITY and naive_mul(8, ORDER_8) == IDENTITY
    keys = [GENERATOR] + [ref_scalar_mul_base(rng.randrange(1, L)) for _ in range(3)]
    points = keys + TORSION + [ORDER_8] + [ref_add(pk, t) for pk in keys[:2]
                                           for t in TORSION[1:] + [ORDER_8]]
    expected = {(k, pt): ref_scalar_mul(k, pt) for pt in points
                for k in scalars[:11] + rng.sample(scalars[11:], 8)}
    for _ in range(2):  # from empty caches, then again after refilling them
        curve._comb_table.cache_clear()
        scalar_mul.cache_clear()
        for (k, pt), product in expected.items():
            assert scalar_mul(k, pt) == product, (k, pt)

    # off the curve the result is garbage but still a point; (0, 0) doubles
    # to Z = 0, which zeroes its whole table through the batched inversion
    assert curve._ext_double(curve._to_ext(Point(0, 0)))[2] == 0
    off = [Point(0, 0), Point(1, 1), Point(rng.randrange(P), rng.randrange(P))]
    for pt in off:
        assert not is_on_curve(pt)
        for k in scalars[:11]:
            assert isinstance(scalar_mul(k, pt), Point), (k, pt)


def test_comb_doubles_once_per_column_and_builds_one_table_per_point(monkeypatch):
    rng = random.Random(22)
    keys = [scalar_mul_base(rng.randrange(1, L)) for _ in range(512)]
    curve._comb_table.cache_clear()
    scalar_mul.cache_clear()
    for _ in range(2):  # two full depth-8 committees, every key checked twice
        for pk in keys:
            scalar_mul(rng.randrange(1, L), pk)
    info = curve._comb_table.cache_info()
    assert (info.misses, info.hits) == (512, 512)

    doublings = 0
    ext_double = curve._ext_double

    def counting_double(e):
        nonlocal doublings
        doublings += 1
        return ext_double(e)

    monkeypatch.setattr(curve, "_ext_double", counting_double)
    scalar_mul(rng.randrange(1, L), keys[0])  # warm: one doubling per column
    assert doublings == curve._COLUMNS == 51
    doublings = 0
    scalar_mul(rng.randrange(1, L), ORDER_8)  # cold: 4 teeth of 51 doublings first
    assert doublings == 5 * 51


def test_add_matches_reference_on_and_off_curve():
    rng = random.Random(18)
    on = [ref_scalar_mul_base(rng.randrange(L)) for _ in range(20)] + TORSION
    pairs = [(a, b) for a in on[:8] for b in on[:8]]
    pairs += [(rng.choice(on), rng.choice(on)) for _ in range(20)]
    pairs += [(Point(rng.randrange(P), rng.randrange(P)),
               Point(rng.randrange(P), rng.randrange(P))) for _ in range(40)]
    d_inv = pow(D, -1, P)
    # 1 + dxy = 0 and 1 - dxy = 0, the only inputs where the shared inverse is 0
    zero_plus = (Point(1, 1), Point(1, P - d_inv))
    zero_minus = (Point(1, 1), Point(1, d_inv))
    pairs += [zero_plus, zero_minus, (Point(P + 3, -5), Point(2 * P, 7))]
    for p, q in pairs:
        assert add(p, q) == ref_add(p, q), (p, q)
    assert add(*zero_plus).x == 0 and add(*zero_minus).y == 0


def signed_digits(k):
    """The fixed-base comb's signed window digits of k mod L, row by row."""
    k %= L
    rest, carry, digits = k, 0, []
    for _ in range(curve._BASE_ROWS):
        value = (rest & curve._WINDOW_MASK) + carry
        rest >>= curve._WINDOW
        carry = int(value > curve._HALF)
        digits.append(value - (carry << curve._WINDOW))
    assert rest == carry == 0
    assert sum(d << curve._WINDOW * i for i, d in enumerate(digits)) == k
    return digits


def test_signed_comb_matches_reference_through_every_carry():
    w, rows = curve._WINDOW, curve._BASE_ROWS
    half, full = 1 << (w - 1), (1 << w) - 1

    def from_windows(windows, top):
        return sum(v << w * i for i, v in enumerate(windows)) + (top << w * (rows - 1))

    rng = random.Random(23)
    patterns = [[half] * (rows - 1), [full] * (rows - 1), [full] + [half] * (rows - 2)]
    patterns += [[rng.choice((half, full)) for _ in range(rows - 1)] for _ in range(6)]
    scalars = [from_windows(p, top) for p in patterns for top in (0, 22)]
    assert all(k < L for k in scalars)  # the windows survive k %= L
    # a window of 63 takes the carry in to 64: a zero digit that carries again
    assert signed_digits(from_windows([full] * (rows - 1), 0)) == [-1] + [0] * (rows - 2) + [1]
    scalars += [0, 1, L - 1, L, L + 1, (1 << 251) - 1, (1 << 256) - 1]
    for k in scalars:
        scalar_mul_base.cache_clear()
        assert scalar_mul_base(k) == ref_scalar_mul_base(k), hex(k)


def test_check_scalars_read_every_row_with_both_signs():
    plus, minus = (signed_digits(k) for k in curve._CHECK_SCALARS)
    for row, (a, b) in enumerate(zip(plus[:-1], minus[:-1])):
        assert a * b < 0 and abs(a) == abs(b), row
    assert plus[-1] == minus[-1] > 0


def test_corrupt_comb_table_fails_the_import_check(monkeypatch):
    # each check scalar alone catches a corrupt entry at row 40, the first
    # reading it positively and the second negated
    for k, sign in zip(curve._CHECK_SCALARS, (1, -1)):
        digit = signed_digits(k)[40]
        assert digit * sign > 0
        corrupt = [list(row) for row in curve._BASE_COMB]
        entry = abs(digit) - 1
        corrupt[40][entry] = corrupt[40][entry ^ 1]
        monkeypatch.setattr(curve, "_BASE_COMB", corrupt)
        monkeypatch.setattr(curve, "_CHECK_SCALARS", (k,))
        scalar_mul_base.cache_clear()
        try:
            with pytest.raises(InvalidPoint):
                curve._check_parameters()
        finally:
            monkeypatch.undo()
            scalar_mul_base.cache_clear()


def test_point_codec():
    rng = random.Random(12)
    for _ in range(20):
        pt = scalar_mul_base(rng.randrange(1, L))
        data = encode_point(pt)
        assert len(data) == 64
        assert decode_point(data) == pt
    with pytest.raises(InvalidPoint):
        decode_point(b"\x00" * 63)
    with pytest.raises(InvalidPoint):
        decode_point(encode_point(Point(1, 1)))  # off the curve
    # (0, 1) with y + P still fits 32 bytes: a second encoding of the identity
    with pytest.raises(InvalidPoint):
        decode_point(encode_point(Point(0, 1 + P)))
    with pytest.raises(InvalidPoint):
        decode_point(encode_point(Point(P, 1)))


def test_keygen_on_curve_and_deterministic():
    rng = random.Random(13)
    for _ in range(100):
        seed = rng.getrandbits(256).to_bytes(32, "big")
        kp = eddsa.keygen(seed)
        assert is_on_curve(kp.pk)
        assert 1 <= kp.sk < L
        assert eddsa.keygen(seed) == kp


def test_keygen_no_collisions_in_sample():
    rng = random.Random(14)
    seeds = {rng.getrandbits(256).to_bytes(32, "big") for _ in range(1000)}
    pks = {eddsa.keygen(s).pk for s in seeds}
    assert len(pks) == len(seeds)


def test_sign_verify_completeness():
    rng = random.Random(15)
    for _ in range(1000):
        kp = eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big"))
        msg = rng.randrange(P)
        sig = eddsa.sign(kp.sk, msg)
        assert eddsa.verify_sig(kp.pk, msg, sig)


def test_sign_deterministic():
    kp = eddsa.keygen(b"\x01" * 32)
    assert eddsa.sign(kp.sk, 12345) == eddsa.sign(kp.sk, 12345)


def test_perturbed_message_fails():
    kp = eddsa.keygen(b"\x02" * 32)
    sig = eddsa.sign(kp.sk, 777)
    assert not eddsa.verify_sig(kp.pk, 778, sig)


def test_perturbed_s_fails():
    kp = eddsa.keygen(b"\x03" * 32)
    sig = eddsa.sign(kp.sk, 777)
    bad = eddsa.Signature(sig.r, (sig.s + 1) % L)
    assert not eddsa.verify_sig(kp.pk, 777, bad)


def test_single_bit_perturbations_reject():
    # bit flips across msg, R and s; off-curve Rs raise instead of verifying
    rng = random.Random(16)
    for _ in range(5):
        kp = eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big"))
        msg = rng.randrange(P)
        sig = eddsa.sign(kp.sk, msg)

        def rejected(pk, m, s):
            try:
                return not eddsa.verify_sig(pk, m, s)
            except InvalidPoint:
                return True

        for bit in rng.sample(range(250), 8):
            assert rejected(kp.pk, msg ^ (1 << bit), sig)
            assert rejected(kp.pk, msg, eddsa.Signature(sig.r, sig.s ^ (1 << bit)))
            r_x = eddsa.Signature(Point(sig.r.x ^ (1 << bit), sig.r.y), sig.s)
            assert rejected(kp.pk, msg, r_x)
            r_y = eddsa.Signature(Point(sig.r.x, sig.r.y ^ (1 << bit)), sig.s)
            assert rejected(kp.pk, msg, r_y)


def test_wrong_key_fails():
    a = eddsa.keygen(b"\x04" * 32)
    b = eddsa.keygen(b"\x05" * 32)
    sig = eddsa.sign(a.sk, 999)
    assert not eddsa.verify_sig(b.pk, 999, sig)


def test_sk_out_of_range():
    with pytest.raises(InvalidKey):
        eddsa.sign(0, 1)
    with pytest.raises(InvalidKey):
        eddsa.sign(L, 1)


def test_off_curve_points_raise():
    kp = eddsa.keygen(b"\x06" * 32)
    sig = eddsa.sign(kp.sk, 1)
    with pytest.raises(InvalidPoint):
        eddsa.verify_sig(Point(1, 1), 1, sig)
    with pytest.raises(InvalidPoint):
        eddsa.verify_sig(kp.pk, 1, eddsa.Signature(Point(1, 1), sig.s))


def test_signature_codec():
    kp = eddsa.keygen(b"\x07" * 32)
    sig = eddsa.sign(kp.sk, 31337)
    data = eddsa.encode_signature(sig)
    assert len(data) == 96
    assert eddsa.decode_signature(data) == sig


def test_non_canonical_s_rejected():
    # (R, s + L) satisfies s*G = R + c*pk as well; only s < L is a signature
    rng = random.Random(19)
    for _ in range(5):
        kp = eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big"))
        msg = rng.randrange(P)
        sig = eddsa.sign(kp.sk, msg)
        shifted = eddsa.Signature(sig.r, sig.s + L)
        assert eddsa.verify_sig(kp.pk, msg, sig)
        assert not eddsa.verify_sig(kp.pk, msg, shifted)
        assert not eddsa.verify_sig(kp.pk, msg, eddsa.Signature(sig.r, sig.s - L))
        with pytest.raises(OracleError):
            eddsa.decode_signature(eddsa.encode_signature(shifted))


def test_decoders_round_trip_or_raise_oracle_error():
    rng = random.Random(20)
    kp = eddsa.keygen(b"\x08" * 32)
    vote = make_vote(kp.sk, 5, 77, rng.getrandbits(256))
    cases = [(decode_point, encode_point, kp.pk),
             (eddsa.decode_signature, eddsa.encode_signature, vote.signature),
             (decode_vote, encode_vote, vote)]
    outcomes = {"round-trip": 0, "rejected": 0}
    for decode, encode, value in cases:
        good = encode(value)
        for trial in range(300):
            if trial % 3 == 0:
                data = rng.randbytes(len(good))
            else:  # a valid record with one byte changed
                data = bytearray(good)
                data[rng.randrange(len(data))] = rng.randrange(256)
                data = bytes(data)
            try:
                decoded = decode(data)
            except OracleError:
                outcomes["rejected"] += 1
                continue
            assert encode(decoded) == data
            outcomes["round-trip"] += 1
    assert outcomes["round-trip"] > 50 and outcomes["rejected"] > 300
