"""Curve arithmetic and signature scheme tests."""

import random

import pytest

from helpers import ORDER_8, ref_add, ref_scalar_mul, ref_scalar_mul_base
from zkoracle import curve, eddsa
from zkoracle.curve import (GENERATOR, IDENTITY, D, L, Point, add, is_on_curve,
                            scalar_mul, scalar_mul_base)
from zkoracle.errors import InvalidKey, InvalidPoint
from zkoracle.field import P


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
    for _ in range(2):  # from empty comb tables, then again after refilling them
        curve._comb_table.cache_clear()
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
    for _ in range(2):  # two full depth-8 committees, every key checked twice
        for pk in keys:
            scalar_mul(rng.randrange(1, L), pk)
    info = curve._comb_table.cache_info()
    assert (info.misses, info.hits) == (512, 512)

    doublings = 0
    ext_double = curve._ext_double
    additions = {"_ext_add": 0, "_ext_add_affine": 0}

    def counting_double(e):
        nonlocal doublings
        doublings += 1
        return ext_double(e)

    def counting(name):
        kernel = getattr(curve, name)

        def counted(p, q):
            additions[name] += 1
            return kernel(p, q)
        return counted

    monkeypatch.setattr(curve, "_ext_double", counting_double)
    for name in additions:
        monkeypatch.setattr(curve, name, counting(name))
    scalar_mul(rng.randrange(1, L), keys[0])  # warm: one doubling per column
    assert doublings == curve._COLUMNS == 51
    doublings = 0
    additions.update(dict.fromkeys(additions, 0))
    scalar_mul(rng.randrange(1, L), ORDER_8)  # cold: 4 teeth of 51 doublings first
    assert doublings == 5 * 51
    assert additions["_ext_add"] == 2 + 4 + 8 + 16  # one per entry past tooth 0
    assert len(curve._comb_table(keys[0])) == len(curve._comb_table(ORDER_8)) == 16

    # warm: one mixed addition per column, and one more to subtract p from
    # the walk of k + 1 for an even k
    for parity, mixed in ((1, 51), (0, 52)):
        additions.update(dict.fromkeys(additions, 0))
        scalar_mul(rng.randrange(1, L // 2) * 2 + parity, keys[0])
        assert additions == {"_ext_add": 0, "_ext_add_affine": mixed}, parity


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
        try:
            with pytest.raises(InvalidPoint):
                curve._check_parameters()
        finally:
            monkeypatch.undo()


def test_subgroup_check_tells_keys_from_torsion_shifts():
    # scalar_mul reduces k mod L, so L*p is the identity for every p; the
    # check (L - 1)*p + p tells the prime-order subgroup from its cosets.
    # The identity lies in the subgroup, so the import check rejects it with
    # its separate 2*G test
    rng = random.Random(33)
    keys = [GENERATOR] + [ref_scalar_mul_base(rng.randrange(1, L)) for _ in range(3)]
    outside = TORSION[1:] + [ORDER_8, ref_add(ORDER_8, ORDER_8)]
    outside += [ref_add(pk, t) for pk in keys for t in TORSION[1:] + [ORDER_8]]
    assert all(scalar_mul(L, p) == IDENTITY for p in keys + outside)
    assert all(curve.in_prime_subgroup(p) for p in keys + [IDENTITY])
    assert not any(curve.in_prime_subgroup(p) for p in outside)


def test_generator_outside_the_subgroup_fails_the_import_check(monkeypatch):
    # G + ORDER_8 is on the curve, 2*(G + ORDER_8) is not the identity, and a
    # comb built from it agrees with the variable-base multiplier, so only
    # the order check can refuse it
    shifted = ref_add(GENERATOR, ORDER_8)
    monkeypatch.setattr(curve, "GENERATOR", shifted)
    monkeypatch.setattr(curve, "_BASE_COMB", curve._base_comb())
    try:
        for k in curve._CHECK_SCALARS + curve._CHECK_KEY_SCALARS:
            assert scalar_mul_base(k) == scalar_mul(k, shifted)
        with pytest.raises(InvalidPoint, match="order L"):
            curve._check_parameters()
    finally:
        monkeypatch.undo()
        curve._comb_table.cache_clear()


def key_comb_reads(k):
    """(entry, negated) for each column of the variable-base walk of k mod L,
    from its signed binary digits: the walk reads k + 1 for an even k."""
    walked = k % L | 1
    m = (walked + (1 << 255) - 1) // 2
    digits = [2 * (m >> i & 1) - 1 for i in range(255)]
    assert sum(d << i for i, d in enumerate(digits)) == walked
    reads = []
    for col in range(curve._COLUMNS):
        tooth0, *rest = (digits[r * curve._COLUMNS + col] for r in range(curve._TEETH))
        # entry j adds tooth r where bit r - 1 of j is set; a column whose
        # tooth-0 digit is -1 reads the negation of its mirrored sum
        j = sum(1 << r for r, d in enumerate(rest) if d == tooth0)
        reads.append((j, tooth0 < 0))
    return reads


def test_key_check_scalars_read_every_entry_with_both_signs():
    plain, negated = curve._CHECK_KEY_SCALARS
    assert plain % 2 == 1 and negated % 2 == 0 and negated < plain < L
    assert set(key_comb_reads(plain)) == {(j, False) for j in range(16)}
    assert set(key_comb_reads(negated)) == {(j, True) for j in range(16)}


def test_corrupt_key_table_fails_the_import_check(monkeypatch):
    # each key check scalar alone catches a corrupt entry 5 of GENERATOR's
    # table, the first reading it as is and the second negated; the 2*G check
    # never reads entry 5, so the comparison is what fails
    entry = 5
    assert all(j != entry for j, _ in key_comb_reads(2))
    corrupt = list(curve._comb_table(GENERATOR))
    corrupt[entry] = corrupt[entry ^ 1]
    for k, negated in zip(curve._CHECK_KEY_SCALARS, (False, True)):
        assert (entry, negated) in key_comb_reads(k)
        monkeypatch.setattr(curve, "_comb_table", lambda p: corrupt)  # only G is multiplied
        monkeypatch.setattr(curve, "_CHECK_SCALARS", ())
        monkeypatch.setattr(curve, "_CHECK_KEY_SCALARS", (k,))
        try:
            with pytest.raises(InvalidPoint, match="disagrees"):
                curve._check_parameters()
        finally:
            monkeypatch.undo()


def test_even_and_odd_scalars_match_reference_off_the_subgroup():
    # (k + L)*p = k*p only in the prime-order subgroup: an even k must not be
    # walked as k + L, so check both parities on points of order 1, 2, 4 and
    # 8 and on a key shifted out of the subgroup
    rng = random.Random(27)
    pk = ref_scalar_mul_base(rng.randrange(1, L))
    points = [*TORSION, ref_add(ORDER_8, ORDER_8), ORDER_8, ref_add(pk, ORDER_8)]
    scalars = list(range(1, 10)) + [L - 1, L - 2, L + 2, 2 * L - 1]
    scalars += [rng.randrange(1, L // 2) * 2 + parity for parity in (0, 1) for _ in range(3)]
    for pt in points:
        for k in scalars:
            curve._comb_table.cache_clear()
            assert scalar_mul(k, pt) == ref_scalar_mul(k, pt), (k, pt)


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


def test_nonce_deterministic_in_range_and_bound_to_key_and_message():
    rng = random.Random(16)
    sks = [eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big")).sk for _ in range(20)]
    msgs = [rng.randrange(P) for _ in range(20)] + [0, 1, P - 1]
    nonces = set()
    for sk in sks:
        for msg in msgs:
            k = eddsa.nonce(sk, msg)
            assert 1 <= k < L
            assert eddsa.nonce(sk, msg) == k
            nonces.add(k)
    assert len(nonces) == len(sks) * len(msgs)
    # the challenge reads msg mod P, and so does the nonce
    assert eddsa.nonce(sks[0], msgs[0] + P) == eddsa.nonce(sks[0], msgs[0])
    # sign commits to exactly this nonce
    assert eddsa.sign(sks[0], msgs[0]).r == curve.scalar_mul_base(eddsa.nonce(sks[0], msgs[0]))


def test_sign_walks_the_base_comb_once_and_reads_its_key_from_the_memo(monkeypatch):
    """sign derives its key itself, from the public_key memo that keygen
    filled, so its one fixed-base walk is the nonce's."""
    walked = []
    walk = curve.scalar_mul_base
    monkeypatch.setattr(curve, "scalar_mul_base", lambda k: walked.append(k) or walk(k))
    eddsa.public_key.cache_clear()
    kp = eddsa.keygen(b"\x0b" * 32)
    assert walked == [kp.sk]
    assert eddsa.public_key.cache_info()[:2] == (0, 1)  # hits, misses
    for msg in range(5):
        sig = eddsa.sign(kp.sk, msg)
        assert walked[-1] == eddsa.nonce(kp.sk, msg)
        assert sig.r == ref_scalar_mul_base(eddsa.nonce(kp.sk, msg))
    assert len(walked) == 1 + 5
    assert eddsa.public_key.cache_info()[:2] == (5, 1)  # one hit per signature


def test_sign_hashes_only_the_challenge_with_mimc(monkeypatch):
    kp = eddsa.keygen(b"\x08" * 32)
    hashed = []
    real = eddsa.mimc_hash
    monkeypatch.setattr(eddsa, "mimc_hash", lambda xs: hashed.append(list(xs)) or real(xs))
    sig = eddsa.sign(kp.sk, 4242)
    assert hashed == [[kp.pk.x, kp.pk.y, sig.r.x, sig.r.y, 4242]]


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
