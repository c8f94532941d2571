"""Twisted Edwards curve embedded in F_P (Baby Jubjub, EIP-2494).

a*x^2 + y^2 = 1 + d*x^2*y^2 with a = 168700, d = 168696.  GENERATOR spans the
prime-order subgroup of order L (cofactor 8 removed).  The published constants
are re-verified at import: on-curve, 2*G != identity, the fixed-base comb
agrees with the variable-base multiplier on two scalars that read every row
of it with both signs and on two that read every entry of G's variable-base
table with both signs, and then (L - 1)*G + G = identity (L*G would prove
nothing, as scalar_mul reduces k mod L).

Scalar multiplication runs in extended coordinates (Hisil, Wong, Carter,
Dawson, *Twisted Edwards curves revisited*, 2008), so the only inversion is
the one that returns the affine result.  Both multipliers are combs:

- ``scalar_mul_base`` reads k in signed 6-bit windows, digits in [-31, 32]
  with a carry into the next row (Bernstein et al., *High-speed high-security
  signatures*, 2012).  Its comb of G has 42 rows, row i holding j * 64^i * G
  for j = 1..32, and a negative digit adds the negated entry, which is free:
  -(x, y) = (-x, y).  So k*G is one mixed addition per nonzero digit, at most
  42, and no doubling.  The 1344 entries are affine (x, y, d*x*y) triples
  from one batched inversion, about 0.26 MB, built at import in about 20 ms
  on a 2-core x86 VM;
- ``scalar_mul`` reads a signed Lim-Lee comb of its point (Lim, Lee, *More
  flexible exponentiation with precomputation*, CRYPTO '94; Hamburg, *Fast
  and compact elliptic-curve cryptography*, 2012).  An odd k < L is the sum
  of d_i * 2^i over i < 255 with every digit d_i = +-1, where bit i of
  m = (k + 2^255 - 1) / 2 sets d_i = +1; the digits form 5 rows of 51
  columns.  Entry j of the point's 16-entry table is tooth 0 plus or minus
  each tooth r >= 1, tooth r being 2^(51 r) * p, and a column whose row-0
  digit is -1 adds the negation of an entry, which is free.  So k*p is 51
  doublings and 51 mixed additions.  An even k walks k + 1 and adds -p once,
  never k + L, because (k + L)*p != k*p for a point of order 2, 4 or 8.
  Tables are affine (x, y, d*x*y) triples, one batched inversion per table,
  about 4 KB per point, and an LRU cache keeps 512 of them: the points
  multiplied are committee keys, which recur from one request to the next.
  A point seen once pays the 204 doublings and 30 additions of its table on
  top, which is about what the per-call 4-bit windows it replaced cost.

Neither product is memoized: ``eddsa`` keeps the memos of what recurs, a
signer's public key and a signature check's verdict.

``add_projective`` returns p + q as (X, Y, Z) with Z = (1 + dxy)(1 - dxy),
without the inversion, for ``eddsa.sig_equation``'s comparison of s*G with
R + c*pk.  Z is nonzero for on-curve inputs (the addition law is complete).
Affine ``add`` divides by the same Z with one inversion; only the tests and
the benchmark's layer hooks still call it.

Inverses come from ``pow(z, -1, P)`` (extended Euclid, about ten times faster
than Fermat's z^(P-2)), and 0 maps to 0 as under Fermat, so an off-curve
input still yields a point instead of raising.  On-curve results do not
depend on the method; off-curve ones do, and every caller rejects off-curve
points before their products matter.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidPoint
from .field import P

A = 168700
D = 168696

# Order of the prime subgroup generated by GENERATOR.
L = 2736030358979909402780800718157159386076813972158567259200215660948447373041


class Point(NamedTuple):
    x: int
    y: int


IDENTITY = Point(0, 1)

GENERATOR = Point(
    5299619240641551281634865583518297030282874472190772894086521144482721001553,
    16950150798460657717958625567821834550301663161624707787222815936182638968203,
)


def is_on_curve(pt: Point) -> bool:
    x, y = pt
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (A * x * x + y * y) % P == (1 + D * x * x % P * y % P * y) % P


def require_on_curve(pt: Point) -> Point:
    if not is_on_curve(pt):
        raise InvalidPoint(f"point not on curve: {pt}")
    return pt


def _inverse(z: int) -> int:
    """1/z mod P, and 0 for z = 0 (the value z^(P-2) gives)."""
    return pow(z, -1, P) if z % P else 0


def add(p: Point, q: Point) -> Point:
    """Affine addition; the Edwards law is complete for this curve."""
    x1, y1 = p
    x2, y2 = q
    dxy = D * x1 * x2 % P * y1 % P * y2 % P
    inv = _inverse((1 + dxy) * (1 - dxy))
    if inv:
        x3 = (x1 * y2 + y1 * x2) * (1 - dxy) % P * inv % P
        y3 = (y1 * y2 - A * x1 * x2) * (1 + dxy) % P * inv % P
    else:  # only off the curve: keep each coordinate's own inverse
        x3 = (x1 * y2 + y1 * x2) * _inverse(1 + dxy) % P
        y3 = (y1 * y2 - A * x1 * x2) * _inverse(1 - dxy) % P
    return Point(x3, y3)


def add_projective(p: Point, q: Point) -> tuple:
    """p + q as projective (X, Y, Z), x = X/Z and y = Y/Z, without the
    inversion: Z = (1 + dxy)(1 - dxy), which is 0 only off the curve."""
    x1, y1 = p
    x2, y2 = q
    dxy = D * x1 * x2 % P * y1 % P * y2 % P
    return ((x1 * y2 + y1 * x2) * (1 - dxy) % P,
            (y1 * y2 - A * x1 * x2) * (1 + dxy) % P,
            (1 + dxy) * (1 - dxy) % P)


# -- extended coordinates (X:Y:Z:T) with x = X/Z, y = Y/Z, T = XY/Z ----------

_EXT_IDENTITY = (0, 1, 1, 0)


def _to_ext(p: Point):
    return (p.x, p.y, 1, p.x * p.y % P)


def _from_ext(e) -> Point:
    x, y, z, _ = e
    zinv = _inverse(z)
    return Point(x * zinv % P, y * zinv % P)


def _ext_add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = x1 * x2 % P
    b = y1 * y2 % P
    c = D * t1 % P * t2 % P
    dd = z1 * z2 % P
    e = ((x1 + y1) * (x2 + y2) - a - b) % P
    f = (dd - c) % P
    g = (dd + c) % P
    h = (b - A * a) % P
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _ext_double(p):
    x1, y1, z1, _ = p
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = 2 * z1 * z1 % P
    d = A * a % P
    e = ((x1 + y1) * (x1 + y1) - a - b) % P
    g = (d + b) % P
    f = (g - c) % P
    h = (d - b) % P
    return (e * f % P, g * h % P, f * g % P, e * h % P)


# -- variable-base comb ---------------------------------------------------------
# Signed Lim-Lee with 5 teeth: an odd k < L is the sum of d_i * 2^i over
# i < 255 with every d_i = +-1, read as 5 rows of 51 columns, and entry j of a
# point's table is tooth 0 plus or minus each tooth r >= 1, where tooth r is
# 2^(51 r) * p and the sign is + where bit r - 1 of j is set.

_TEETH = 5
_COLUMNS = -(-L.bit_length() // _TEETH)
_COLUMN_MASK = (1 << _COLUMNS) - 1
_ENTRY_MASK = (1 << (_TEETH - 1)) - 1
_DIGITS = _TEETH * _COLUMNS
# m = (k + _RECODE) / 2 has bit i set where d_i = +1
_RECODE = (1 << _DIGITS) - 1


# room for two depth-8 committees; in practice the second is perfbench's
# reference run
@lru_cache(maxsize=1 << 9)
def _comb_table(p: Point) -> tuple:
    """The 16 comb entries of p as affine (x, y, D*x*y), built with 204
    doublings, 30 additions and one batched inversion."""
    tooth = _to_ext(p)
    ext = [tooth]
    for _ in range(_TEETH - 1):
        for _ in range(_COLUMNS):
            tooth = _ext_double(tooth)
        x, y, z, t = tooth
        neg = (-x, y, z, -t)  # _ext_add reduces every product mod P
        ext = [_ext_add(e, neg) for e in ext] + [_ext_add(e, tooth) for e in ext]
    return tuple(_batch_affine(ext))


def _batch_affine(ext) -> list:
    """Extended points as affine (x, y, D*x*y) entries, with one inversion of
    the product of all Zs; an off-curve input can make a Z zero, which zeroes
    every entry instead of raising."""
    prefix = [1]
    for e in ext:
        prefix.append(prefix[-1] * e[2] % P)
    inv = _inverse(prefix[-1])
    table = [None] * len(ext)
    for j in range(len(ext) - 1, -1, -1):
        x, y, z, _ = ext[j]
        zinv = inv * prefix[j] % P
        inv = inv * z % P
        x, y = x * zinv % P, y * zinv % P
        table[j] = (x, y, D * x % P * y % P)
    return table


def _ext_add_affine(p, q):
    """p + q for extended p and a comb entry q = (x, y, D*x*y), i.e. Z = 1."""
    x1, y1, z1, t1 = p
    x2, y2, dt2 = q
    a = x1 * x2 % P
    b = y1 * y2 % P
    c = t1 * dt2 % P
    e = ((x1 + y1) * (x2 + y2) - a - b) % P
    f = (z1 - c) % P
    g = (z1 + c) % P
    h = (b - A * a) % P
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def scalar_mul(k: int, p: Point) -> Point:
    """k*P for any point: one doubling and one addition per comb column, most
    significant first, over p's cached table.  An even k walks k + 1 and adds
    -p once; k + L would not do, as (k + L)*p differs from k*p for a point p
    outside the prime-order subgroup."""
    k %= L
    if k == 0:
        return IDENTITY
    table = _comb_table(p)
    # m's binary string puts each column's 5 bits 51 characters apart, row 4
    # first, so int() reads a column as the sum of its row-i bit << i
    bits = format(((k | 1) + _RECODE) >> 1, f"0{_DIGITS}b")
    acc = _EXT_IDENTITY
    for col in range(_COLUMNS):  # most significant column first
        acc = _ext_double(acc)
        v = int(bits[col::_COLUMNS], 2)
        if v & 1:
            acc = _ext_add_affine(acc, table[v >> 1])
        else:  # digit -1 on tooth 0: add the negation of the mirrored entry
            x, y, dxy = table[v >> 1 ^ _ENTRY_MASK]
            acc = _ext_add_affine(acc, (-x, y, -dxy))
    if not k & 1:
        x, y = p
        acc = _ext_add_affine(acc, (-x, y, -D * x % P * y % P))
    return _from_ext(acc)


# -- fixed-base comb ---------------------------------------------------------------
# k < L is read in signed 6-bit windows: window i plus the carry from window i-1
# is a value v in [0, 64]; v > 32 becomes the digit v - 64 in [-31, 0] and
# carries 1 into window i+1.  The top window holds at most 5 bits of k, so its
# digit is at most 32 and leaves no carry: 42 rows cover every k < L.

_WINDOW = 6
_HALF = 1 << (_WINDOW - 1)
_WINDOW_MASK = (1 << _WINDOW) - 1
_BASE_ROWS = -(-L.bit_length() // _WINDOW)


def _base_comb() -> list:
    """Row i holds j * 64^i * G for j = 1..32 (entry j - 1) as affine
    (x, y, D*x*y): 31 additions and a doubling per row, one inversion."""
    ext = []
    base = _to_ext(GENERATOR)
    for _ in range(_BASE_ROWS):
        row = [base]
        for _ in range(_HALF - 1):
            row.append(_ext_add(row[-1], base))
        ext += row
        base = _ext_double(row[-1])
    table = _batch_affine(ext)
    return [tuple(table[i:i + _HALF]) for i in range(0, len(table), _HALF)]


_BASE_COMB = _base_comb()


def scalar_mul_base(k: int) -> Point:
    """k*GENERATOR: one mixed addition per nonzero signed 6-bit digit of k,
    a negative digit adding the negated entry (-x, y, -D*x*y)."""
    k %= L
    if k == 0:
        return IDENTITY
    acc = _EXT_IDENTITY
    carry = 0
    for row in _BASE_COMB:
        digit = (k & _WINDOW_MASK) + carry
        k >>= _WINDOW
        carry = digit > _HALF
        if carry:
            digit -= 1 << _WINDOW
            if digit:
                x, y, dxy = row[-digit - 1]
                acc = _ext_add_affine(acc, (-x, y, -dxy))
        elif digit:
            acc = _ext_add_affine(acc, row[digit - 1])
    return _from_ext(acc)


# two scalars whose signed digits are nonzero in every row, so the check reads
# every row with both signs: row i < 41 gives the digit +-((5 i mod 31) + 1),
# with opposite signs in the two scalars and alternating from row to row, and
# the top row, whose negated entries no k < L reads, gives 20 in both
_CHECK_SCALARS = tuple(
    sum(sign * (-1) ** i * ((5 * i) % 31 + 1) << _WINDOW * i for i in range(_BASE_ROWS - 1))
    + (20 << _WINDOW * (_BASE_ROWS - 1))
    for sign in (1, -1))

# two scalars whose variable-base walks read every entry of a key's table, the
# first as is and the second negated: in both walks rows 1-4 of column c < 16
# spell c and the top bit, set for every k < L, is the only other set bit of
# rows 1-4; row 0 is all ones in the first walk and all zeros in the second,
# whose scalar is even, so it walks k + 1 and takes the -p fix-up too
_KEY_ROWS = (1 << (_DIGITS - 1)) | sum(
    (c >> (r - 1) & 1) << (r * _COLUMNS + c)
    for c in range(_ENTRY_MASK + 1) for r in range(1, _TEETH))
_CHECK_KEY_SCALARS = (2 * (_KEY_ROWS | _COLUMN_MASK) - _RECODE, 2 * _KEY_ROWS - _RECODE - 1)


def in_prime_subgroup(p: Point) -> bool:
    """Whether L*p is the identity: p lies in the subgroup of order L, the
    identity included.  scalar_mul reduces k mod L, so scalar_mul(L, p) is
    the identity for every p; (L - 1)*p + p is the identity, projectively
    Z != 0, X = 0 and Y = Z, only in the subgroup."""
    x, y, z = add_projective(scalar_mul(L - 1, p), p)
    return z != 0 and x == 0 and y == z


def _check_parameters() -> None:
    if not is_on_curve(GENERATOR):
        raise InvalidPoint("generator is not on the curve")
    if scalar_mul(2, GENERATOR) == IDENTITY:
        raise InvalidPoint("generator has low order")
    for k in _CHECK_SCALARS + _CHECK_KEY_SCALARS:
        if scalar_mul_base(k) != scalar_mul(k, GENERATOR):
            raise InvalidPoint("fixed-base comb disagrees with the variable-base multiplier")
    # last, so that it runs on a multiplier the two combs have checked
    if not in_prime_subgroup(GENERATOR):
        raise InvalidPoint("generator does not have order L")


_check_parameters()
