"""Shared builders for the test suite."""

import json
import random
from functools import cache

from zkoracle import eddsa
from zkoracle.circuits import COST_POINT_ADD
from zkoracle.curve import (_EXT_IDENTITY, A, D, GENERATOR, IDENTITY, L, Point,
                            _ext_add, _ext_double, _to_ext)
from zkoracle.errors import IndexMismatch, IndexOutOfRange
from zkoracle.field import P
from zkoracle.merkle import (EMPTY_LEAF, Account, MerkleProof, StateTree,
                             empty_account, leaf_hash)
from zkoracle.mimc import mimc_hash
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


def hostile_payloads(payload):
    """Mutants of an aggregation or slash proof payload; every one must verify
    False.  The first ones once escaped verification with RecursionError,
    AttributeError, IndexError or OverflowError.  The rest are ones a lax
    decoder reads as the honest witness: a value of another JSON type, a
    field element plus P, a signature scalar plus L, directions that are not
    the index bits, a record with a key the encoder never writes.  They edit
    the aggregator's account and proof, which both circuits carry, and the
    first vote and its signature."""
    mutants = [b"[" * 200000, b"[]", b"null", b"1", b'"aggregator"']
    original = json.loads(payload)
    mutants.append(json.dumps(dict(original, extra="1")).encode())
    assert original["aggregator"]["index"] in (0, 1)  # so that bool() keeps it
    first_sig = ("votes", 0, "signature") if "votes" in original else ("victim", "signature")

    def plus_p(raw):
        return str(int(raw) + P)

    def plus_l(raw):
        return str(int(raw) + L)

    for path, change in [
            (("aggregator", "pubkey"), lambda pk: pk[:1]),
            (("aggregator", "pubkey"), lambda pk: pk + pk[:1]),
            (("aggregator", "balance"), lambda _: float("inf")),  # encoded as Infinity
            (("aggregator", "index"), bool),
            (("aggregator", "balance"), int),
            (("aggregator", "balance"), plus_p),
            (("aggregator", "pubkey", 0), plus_p),
            (("aggregator_proof", "path", 0), plus_p),
            (first_sig + ("r", 0), plus_p),
            (first_sig + ("s",), plus_l),
            (("aggregator_proof", "directions"), lambda _: [7] * 1000),
            # a lax decoder ignores keys it does not know
            (first_sig[:-1], lambda record: dict(record, extra="1")),
            (first_sig, lambda signature: dict(signature, extra="1")),
            (("aggregator_proof",), lambda proof: dict(proof, extra="1"))]:
        obj = json.loads(payload)
        record = obj
        for step in path[:-1]:
            record = record[step]
        record[path[-1]] = change(record[path[-1]])
        mutants.append(json.dumps(obj).encode())
    return mutants


def random_occupied_tree(rng: random.Random, depth, keys, min_occupied):
    """Random occupancy and balances over a fixed keypair pool."""
    capacity = 1 << depth
    count = rng.randint(min_occupied, capacity)
    indices = sorted(rng.sample(range(capacity), count))
    tree = StateTree(depth)
    for i in indices:
        tree.set_account(i, Account(i, keys[i].pk, rng.randint(0, 10_000)))
    return tree, indices


# a point of order 8, outside the prime-order subgroup: c*ORDER_8 depends only on
# c mod 8, and its coordinates are both nonzero
ORDER_8 = Point(
    17545522957889784193459637215142187266023652151580582754000402781682644312291,
    4826523245007015323400664741523384119579596407052839571721035538011798951543)


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


# -- reference signature gadget -------------------------------------------------------
# The affine form circuits._verify_sig replaced: R + c*pk is normalised with an
# inversion and compared coordinate by coordinate.  check_aggregation and
# check_slash must report the same ok, count and failure_site with either.


def ref_verify_sig(cs, pk, msg, sig, site):
    """s*G = R + c*pk with R + c*pk as an affine point."""
    cs.on_curve(pk, f"{site}.pk-on-curve")
    cs.on_curve(sig.r, f"{site}.r-on-curve")
    c = cs.mimc([pk.x, pk.y, sig.r.x, sig.r.y, msg]) % L
    lhs = cs.scalar_mul_base(sig.s % L)
    cs.count += COST_POINT_ADD
    rhs = ref_add(sig.r, cs.scalar_mul(c, pk))
    cs.assert_eq(lhs.x, rhs.x, f"{site}.sig-x")
    cs.assert_eq(lhs.y, rhs.y, f"{site}.sig-y")


# -- reference duplicate-vote check -------------------------------------------------
# The quadratic loop ConstraintMeter.assert_distinct replaced: ok, count and
# failure_site must come out equal for every list of values.


def ref_assert_distinct(cs, values, site):
    """assert_ne on every ordered pair (i, j), i != j, in loop order."""
    for i in range(len(values)):
        for j in range(len(values)):
            if i != j:
                cs.assert_ne(values[i], values[j], f"{site}[{i},{j}]")


# -- reference Merkle gadget -------------------------------------------------------
# The full folds that circuits._credit replaced: every running root is hashed
# to the top as soon as it exists.  check_aggregation and check_slash must
# report the same ok, count and failure_site with either, or raise the same
# error.


def ref_fold(cs, leaf, path, bits):
    h = leaf
    for sibling, bit in zip(path, bits, strict=True):
        h = cs.mimc([sibling, h]) if bit else cs.mimc([h, sibling])
    return h


def ref_membership(cs, root, account, proof, depth, site):
    bits = cs.decompose(account.index, depth, f"{site}.index-bits")
    leaf = cs.mimc([account.index, account.pubkey.x, account.pubkey.y, account.balance])
    cs.assert_eq(leaf, proof.leaf, f"{site}.leaf")
    cs.assert_eq(ref_fold(cs, leaf, proof.path, bits), root, f"{site}.membership")
    return bits


def ref_updated_root(cs, account, new_balance, proof, bits):
    new_leaf = cs.mimc([account.index, account.pubkey.x, account.pubkey.y, new_balance])
    return ref_fold(cs, new_leaf, proof.path, bits)


def ref_credit(cs, root, account, proof, balance, depth, site):
    bits = ref_membership(cs, root, account, proof, depth, site)
    return ref_updated_root(cs, account, balance, proof, bits)


# -- reference account tree ---------------------------------------------------------
# The eager form the lazy StateTree replaced: every write rehashes its whole path
# at once.  root and prove must equal StateTree's after any sequence of writes.


class RefTree:
    """Account tree that rehashes a leaf's path on every set_account."""

    def __init__(self, depth):
        self.depth = depth
        self.capacity = 1 << depth
        self.accounts = [empty_account(i) for i in range(self.capacity)]
        self.levels = [[EMPTY_LEAF] * self.capacity]
        for d in range(depth):
            below = self.levels[d]
            node = mimc_hash([below[0], below[0]])
            self.levels.append([node] * (len(below) // 2))

    @property
    def root(self):
        return self.levels[self.depth][0]

    def set_account(self, index, account):
        if not 0 <= index < self.capacity:
            raise IndexOutOfRange(f"index {index} outside capacity {self.capacity}")
        if account.index != index:
            raise IndexMismatch(f"account.index {account.index} != leaf position {index}")
        self.accounts[index] = account
        node = EMPTY_LEAF if account.is_empty() else leaf_hash(account)
        pos = index
        for d in range(self.depth):
            self.levels[d][pos] = node
            sibling = self.levels[d][pos ^ 1]
            node = mimc_hash([sibling, node]) if pos & 1 else mimc_hash([node, sibling])
            pos >>= 1
        self.levels[self.depth][0] = node

    def prove(self, index):
        path = tuple(self.levels[d][(index >> d) ^ 1] for d in range(self.depth))
        directions = tuple((index >> d) & 1 for d in range(self.depth))
        return MerkleProof(self.levels[0][index], path, directions)

    def copy(self):
        dup = RefTree.__new__(RefTree)
        dup.depth, dup.capacity = self.depth, self.capacity
        dup.accounts = list(self.accounts)
        dup.levels = [list(level) for level in self.levels]
        return dup
