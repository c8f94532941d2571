"""Twisted Edwards curve embedded in F_P (Baby Jubjub, EIP-2494).

a*x^2 + y^2 = 1 + d*x^2*y^2 with a = 168700, d = 168696.  GENERATOR spans the
prime-order subgroup of order L (cofactor 8 removed).  The published constants
are re-verified at import: on-curve, L*G = identity, 2*G != identity.

Scalar multiplication runs in extended coordinates (no per-step inversion);
fixed-base multiples of GENERATOR are precomputed since signing and
verification both multiply the base point.
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


def add(p: Point, q: Point) -> Point:
    """Affine addition; the Edwards law is complete for this curve."""
    x1, y1 = p
    x2, y2 = q
    dxy = D * x1 * x2 % P * y1 % P * y2 % P
    x3 = (x1 * y2 + y1 * x2) * pow(1 + dxy, P - 2, P) % P
    y3 = (y1 * y2 - A * x1 * x2) * pow(1 - dxy, P - 2, P) % P
    return Point(x3, y3)


# -- extended coordinates (X:Y:Z:T) with x = X/Z, y = Y/Z, T = XY/Z ----------

_EXT_IDENTITY = (0, 1, 1, 0)


def _to_ext(p: Point):
    return (p.x, p.y, 1, p.x * p.y % P)


def _from_ext(e) -> Point:
    x, y, z, _ = e
    zinv = pow(z, P - 2, P)
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


# protocol hot paths re-verify identical signatures (mempool, witness check,
# proof re-execution); both multiplications are pure, so memoize them
@lru_cache(maxsize=1 << 14)
def scalar_mul(k: int, p: Point) -> Point:
    """k*P for any point; double-and-add over extended coordinates."""
    k %= L
    if k == 0:
        return IDENTITY
    acc = _EXT_IDENTITY
    base = _to_ext(p)
    while k:
        if k & 1:
            acc = _ext_add(acc, base)
        base = _ext_double(base)
        k >>= 1
    return _from_ext(acc)


def _base_table():
    table = []
    e = _to_ext(GENERATOR)
    for _ in range(L.bit_length()):
        table.append(e)
        e = _ext_double(e)
    return table


_BASE_POWERS = _base_table()


@lru_cache(maxsize=1 << 14)
def scalar_mul_base(k: int) -> Point:
    """k*GENERATOR using the precomputed doubling table."""
    k %= L
    if k == 0:
        return IDENTITY
    acc = _EXT_IDENTITY
    i = 0
    while k:
        if k & 1:
            acc = _ext_add(acc, _BASE_POWERS[i])
        k >>= 1
        i += 1
    return _from_ext(acc)


def encode_point(p: Point) -> bytes:
    """x || y, 64 bytes big-endian."""
    return p.x.to_bytes(32, "big") + p.y.to_bytes(32, "big")


def decode_point(data: bytes) -> Point:
    if len(data) != 64:
        raise InvalidPoint(f"expected 64 bytes, got {len(data)}")
    return Point(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


def _check_parameters() -> None:
    if not is_on_curve(GENERATOR):
        raise InvalidPoint("generator is not on the curve")
    if scalar_mul(L, GENERATOR) != IDENTITY:
        raise InvalidPoint("generator does not have order L")
    if scalar_mul(2, GENERATOR) == IDENTITY:
        raise InvalidPoint("generator has low order")


_check_parameters()
