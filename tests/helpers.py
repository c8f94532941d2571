"""Shared builders for the test suite."""

import random
from functools import cache

from zkoracle import curve, eddsa
from zkoracle.circuits import COST_POINT_ADD, COST_SCALAR_MUL, WORD, payload_size
from zkoracle.curve import (_EXT_IDENTITY, A, D, GENERATOR, IDENTITY, L, Point,
                            _ext_add, _ext_double, _to_ext)
from zkoracle.errors import IndexMismatch, IndexOutOfRange
from zkoracle.field import P
from zkoracle.merkle import (EMPTY_LEAF, MAX_LOG_DEPTH, Account, MerkleProof, StateTree,
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


def payload_words(payload):
    """A proof payload's 32-byte big-endian words."""
    return [int.from_bytes(payload[i:i + WORD], "big") for i in range(0, len(payload), WORD)]


def words_payload(words):
    return b"".join(w.to_bytes(WORD, "big") for w in words)


def hostile_payloads(circuit, payload):
    """Mutants of an honest aggregation or slash proof payload; every one
    must verify False.  Some have a length no depth gives the circuit: empty,
    a byte or a word short or long, and 5 MB long.  One has the length of
    another depth's payload: it decodes, but not as a witness for a public
    of this depth.  In the rest a word is edited: each word of the aggregator's
    record and the first vote's plus P, which no field element is; the first
    signature's s plus L; and either index at 2^D, which decodes and the
    circuit rejects.  The last is the payload as a str."""
    depth = next(d for d in range(1, MAX_LOG_DEPTH + 1)
                 if payload_size(circuit, d) == len(payload))
    other = payload_size(circuit, 8 if depth != 8 else 2)
    mutants = [b"", payload[:-1], payload + b"\0", payload[:-WORD], payload + payload[:WORD],
               payload + b" " * 5_000_000, (payload + b"\0" * other)[:other]]
    words = payload_words(payload)
    member = 5 + depth
    s = 2 * member + 2  # the first vote record: its member record, R.x, R.y, s
    edits = [(k, P) for k in range(2 * member + 4)]
    edits += [(s, L), (0, (1 << depth) - words[0]), (member, (1 << depth) - words[member])]
    for k, change in edits:
        edited = list(words)
        edited[k] += change
        mutants.append(words_payload(edited))
    return mutants + [payload.decode("latin-1")]


# One value of each kind a typed entry point meets from a hostile caller,
# keyed by a label, since a test id cannot print 10**5000.  Every int among
# them lies outside the range of every int argument the contract takes.
HOSTILE_VALUES = {
    "None": None, "'7'": "7", "1.5": 1.5, "True": True, "-1": -1,
    "10**5000": 10**5000, "-10**5000": -10**5000, "(1, 2)": (1, 2), "[1, 2]": [1, 2],
    "{}": {},
}


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
# inversion and compared coordinate by coordinate, from products that no memo
# holds.  check_aggregation and check_slash must report the same ok, count and
# failure_site with either.


def ref_verify_sig(cs, pk, msg, sig, site):
    """s*G = R + c*pk with R + c*pk as an affine point."""
    cs.on_curve(pk, f"{site}.pk-on-curve")
    cs.on_curve(sig.r, f"{site}.r-on-curve")
    c = cs.mimc([pk.x, pk.y, sig.r.x, sig.r.y, msg]) % L
    cs.count += 2 * COST_SCALAR_MUL + COST_POINT_ADD
    lhs = curve.scalar_mul_base(sig.s % L)
    rhs = ref_add(sig.r, curve.scalar_mul(c, pk))
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
        return MerkleProof(self.levels[0][index], path)

    def copy(self):
        dup = RefTree.__new__(RefTree)
        dup.depth, dup.capacity = self.depth, self.capacity
        dup.accounts = list(self.accounts)
        dup.levels = [list(level) for level in self.levels]
        return dup
