"""Schnorr-style signatures over the embedded curve, hashed with MiMC.

Using MiMC for both the nonce and the challenge keeps the whole verification
equation native to the arithmetic circuits; nonces are derived from (sk, msg)
so signing carries no RNG state.
"""

from typing import NamedTuple

from . import curve
from .curve import L, Point
from .errors import InvalidInput, InvalidKey, InvalidPoint
from .field import P
from .mimc import mimc_hash


class KeyPair(NamedTuple):
    sk: int
    pk: Point


class Signature(NamedTuple):
    r: Point
    s: int


def keygen(seed: bytes) -> KeyPair:
    """Deterministic keypair from seed bytes; sk lands in [1, L)."""
    sk = int.from_bytes(seed, "big") % (L - 1) + 1
    return KeyPair(sk, curve.scalar_mul_base(sk))


def challenge(r: Point, pk: Point, msg: int) -> int:
    return mimc_hash([r.x, r.y, pk.x, pk.y, msg]) % L


def sign(sk: int, msg: int) -> Signature:
    if not 1 <= sk < L:
        raise InvalidKey("secret key out of range")
    h = mimc_hash([sk, msg])
    k = h % L
    while k == 0:
        h = mimc_hash([h])
        k = h % L
    pk = curve.scalar_mul_base(sk)
    r = curve.scalar_mul_base(k)
    s = (k + challenge(r, pk, msg) * sk) % L
    return Signature(r, s)


def verify_sig(pk: Point, msg: int, sig: Signature) -> bool:
    """True iff 0 <= s < L and s*G = R + c*pk, compared projectively as the
    circuits compare it.  An off-curve pk or R raises instead of returning
    False; an s outside [0, L) returns False, so (R, s + L) is not a second
    signature."""
    if not curve.is_on_curve(pk):
        raise InvalidPoint("public key not on curve")
    if not curve.is_on_curve(sig.r):
        raise InvalidPoint("signature R not on curve")
    if not 0 <= sig.s < L:
        return False
    c = challenge(sig.r, pk, msg)
    lhs = curve.scalar_mul_base(sig.s)
    x, y, z = curve.add_projective(sig.r, curve.scalar_mul(c, pk))
    return lhs.x * z % P == x and lhs.y * z % P == y


def encode_signature(sig: Signature) -> bytes:
    """R.x || R.y || s, 96 bytes big-endian."""
    return curve.encode_point(sig.r) + sig.s.to_bytes(32, "big")


def decode_signature(data: bytes) -> Signature:
    """Inverse of encode_signature for an on-curve R and a canonical s < L."""
    if len(data) != 96:
        raise InvalidPoint(f"expected 96 bytes, got {len(data)}")
    s = int.from_bytes(data[64:], "big")
    if s >= L:
        raise InvalidInput("signature scalar s must be below L")
    return Signature(curve.decode_point(data[:64]), s)
