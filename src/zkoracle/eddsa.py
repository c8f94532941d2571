"""Schnorr-style signatures over the embedded curve.

The challenge is a MiMC hash, which keeps the whole verification equation
native to the arithmetic circuits.  The nonce is never checked by a circuit,
so it is derived as RFC 8032 section 5.1.6 derives it: SHA-512 over the
secret key and the message.  Signing is deterministic, carries no RNG state
and spends no MiMC permutation on the nonce.  ``sign`` derives its public
key itself, through the ``public_key`` memo, and never takes it from the
caller: the nonce hashes sk and msg only, so two signatures of one message
under two claimed keys would share k and give away
sk = (s1 - s2) / (c1 - c2) (Chalkias, Garillot, Nikolaenko, *Taming the many
EdDSAs*, SSR 2020).

``sig_equation`` is the one copy of the check, for ``verify_sig`` and the
circuits alike: it compares s*G with R + c*pk projectively, with no
inversion, and memoizes the verdict over (pk, c, R, s), as each vote is
checked twice, at the aggregator's intake and in the contract's circuit.

The challenge hashes the signer's key first and R and the message after it.
MiMC's Miyaguchi-Preneel chain then opens with the same two permutations for
every signature under one key, which the permutation cache already holds; the
same trick as BIP-340's tagged hashes, which precompute the state after a
fixed prefix.  The order is a fixed injective encoding either way, so the
Schnorr security argument does not change.
"""

import hashlib
from functools import lru_cache
from typing import NamedTuple

from . import curve
from .curve import L, Point
from .errors import InvalidKey, InvalidPoint
from .field import P
from .mimc import mimc_hash

NONCE_TAG = b"zkoracle.eddsa.nonce"


class KeyPair(NamedTuple):
    sk: int
    pk: Point


class Signature(NamedTuple):
    r: Point
    s: int


@lru_cache(maxsize=1 << 14)
def public_key(sk: int) -> Point:
    """sk*G, which keygen and every signature under sk read."""
    return curve.scalar_mul_base(sk)


def keygen(seed: bytes) -> KeyPair:
    """Deterministic keypair from seed bytes; sk lands in [1, L)."""
    sk = int.from_bytes(seed, "big") % (L - 1) + 1
    return KeyPair(sk, public_key(sk))


def challenge_inputs(r: Point, pk: Point, msg: int) -> list:
    """The challenge's MiMC inputs, the fixed key ahead of R and msg; the
    signer, verify_sig and the circuits all hash this list."""
    return [pk.x, pk.y, r.x, r.y, msg]


def challenge(r: Point, pk: Point, msg: int) -> int:
    return mimc_hash(challenge_inputs(r, pk, msg)) % L


def nonce(sk: int, msg: int) -> int:
    """SHA-512(NONCE_TAG || sk || msg) mapped into [1, L), with sk and msg as
    32-byte big-endian integers.  msg is read mod P, as the challenge reads
    it, so msg and msg + P get one nonce."""
    digest = hashlib.sha512(NONCE_TAG + sk.to_bytes(32, "big")
                            + (msg % P).to_bytes(32, "big")).digest()
    return int.from_bytes(digest, "big") % (L - 1) + 1


def sign(sk: int, msg: int) -> Signature:
    if not 1 <= sk < L:
        raise InvalidKey("secret key out of range")
    k = nonce(sk, msg)
    pk = public_key(sk)
    r = curve.scalar_mul_base(k)
    s = (k + challenge(r, pk, msg) * sk) % L
    return Signature(r, s)


@lru_cache(maxsize=1 << 14)
def sig_equation(pk: Point, c: int, r: Point, s: int) -> tuple:
    """(s*G.x * Z == X, s*G.y * Z == Y) for R + c*pk = (X, Y, Z): both hold
    iff s*G = R + c*pk, for every on-curve pk and R."""
    lhs = curve.scalar_mul_base(s)
    x, y, z = curve.add_projective(r, curve.scalar_mul(c, pk))
    return lhs.x * z % P == x, lhs.y * z % P == y


def verify_sig(pk: Point, msg: int, sig: Signature) -> bool:
    """True iff 0 <= s < L and sig_equation holds.  An off-curve pk or R
    raises instead of returning False; an s outside [0, L) returns False, so
    (R, s + L) is not a second signature."""
    if not curve.is_on_curve(pk):
        raise InvalidPoint("public key not on curve")
    if not curve.is_on_curve(sig.r):
        raise InvalidPoint("signature R not on curve")
    if not 0 <= sig.s < L:
        return False
    return all(sig_equation(pk, challenge(sig.r, pk, msg), sig.r, sig.s))
