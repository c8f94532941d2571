"""Shared builders for the test suite."""

import random
from functools import cache

from zkoracle import eddsa
from zkoracle.curve import (_EXT_IDENTITY, A, D, GENERATOR, IDENTITY, L, Point,
                            _ext_add, _ext_double, _to_ext)
from zkoracle.field import P
from zkoracle.merkle import Account, StateTree
from zkoracle.nodes import make_vote


def build_committee(depth, count=None, stakes=None, key_salt=0):
    """Full or partial committee tree plus the members' keypairs."""
    capacity = 1 << depth
    count = capacity if count is None else count
    tree = StateTree(depth)
    keys = []
    for i in range(count):
        kp = eddsa.keygen((i + 1 + key_salt).to_bytes(4, "big") * 8)
        stake = stakes[i] if stakes else 100
        tree.set_account(i, Account(i, kp.pk, stake))
        keys.append(kp)
    return tree, keys


def honest_votes(keys, indices, request_id, block_hash):
    return [make_vote(keys[i].sk, i, request_id, block_hash) for i in indices]


def random_occupied_tree(rng: random.Random, depth, keys, min_occupied):
    """Random occupancy and balances over a fixed keypair pool."""
    capacity = 1 << depth
    count = rng.randint(min_occupied, capacity)
    indices = sorted(rng.sample(range(capacity), count))
    tree = StateTree(depth)
    for i in indices:
        tree.set_account(i, Account(i, keys[i].pk, rng.randint(0, 10_000)))
    return tree, indices


# -- reference curve kernels -------------------------------------------------------
# The textbook forms the fast kernels in zkoracle.curve replaced.  add must equal
# ref_add on every input, the multipliers their references on every on-curve
# point (off the curve each method yields its own garbage).


def ref_add(p, q):
    """Affine Edwards addition, one Fermat inversion per coordinate."""
    x1, y1 = p
    x2, y2 = q
    dxy = D * x1 * x2 % P * y1 % P * y2 % P
    x3 = (x1 * y2 + y1 * x2) * pow(1 + dxy, P - 2, P) % P
    y3 = (y1 * y2 - A * x1 * x2) * pow(1 - dxy, P - 2, P) % P
    return Point(x3, y3)


def _ref_from_ext(e):
    x, y, z, _ = e
    zinv = pow(z, P - 2, P)
    return Point(x * zinv % P, y * zinv % P)


def ref_scalar_mul(k, pt):
    """k*pt by double-and-add, least significant bit first."""
    k %= L
    if k == 0:
        return IDENTITY
    acc = _EXT_IDENTITY
    base = _to_ext(pt)
    while k:
        if k & 1:
            acc = _ext_add(acc, base)
        base = _ext_double(base)
        k >>= 1
    return _ref_from_ext(acc)


@cache
def _ref_base_powers():
    """2^i * GENERATOR for every bit i of a scalar below L."""
    powers = [_to_ext(GENERATOR)]
    for _ in range(L.bit_length() - 1):
        powers.append(_ext_double(powers[-1]))
    return powers


def ref_scalar_mul_base(k):
    """k*GENERATOR by adding one doubling-table entry per set bit."""
    k %= L
    if k == 0:
        return IDENTITY
    acc = _EXT_IDENTITY
    for power in _ref_base_powers():
        if k & 1:
            acc = _ext_add(acc, power)
        k >>= 1
    return _ref_from_ext(acc)
