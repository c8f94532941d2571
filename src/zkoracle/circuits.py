"""Aggregation and slashing circuits as constraint-checked transitions.

Both circuits execute against a fixed arity derived from the tree depth D:
the aggregation circuit always carries exactly t = 2^D/2 + 1 votes, so every
accepted instance has popcount(validatorBits) = t.  Failures never raise; a
circuit has no exceptions, so the full constraint set is always evaluated and
the report carries ok/failure-site.  Constraint counts use a fixed cost model
(1 per multiplication-equivalent: 3 per MiMC round, 7 per curve addition) and
therefore depend only on (circuit, D, t), never on witness values.

The payouts the aggregation circuit credits, AGG_REWARD to the aggregator and
VAL_REWARD to each of the t voters, are constants of the circuit, as they
would be of a SNARK's verifying key; no caller can choose other values.  The
event log's params header restates them, and a log that states other values
is corrupt.

The default proof backend is transparent: the proof is the serialized witness
and verification re-executes the circuit against the claimed public inputs.
That is complete and sound by construction but explicitly not zero-knowledge;
a real SNARK backend can be registered behind the same interface.  Because a
transparent proof publishes its witness, no witness holds a secret: only
accounts, Merkle paths and the votes, each with the signature its validator
already sent over the wire.
"""

import json
from dataclasses import dataclass, replace
from typing import Optional

from . import curve
from .curve import A, D, L, Point
from .eddsa import Signature
from .errors import MixedVotes, NotSlashable, UnknownBackend, WrongVoteCount
from .field import P
from .merkle import Account, MerkleProof, StateTree
from .mimc import ROUNDS, permute

AGG_REWARD = 50
VAL_REWARD = 10

COST_MIMC_PERMUTE = 3 * ROUNDS
COST_POINT_ADD = 7
SCALAR_BITS = L.bit_length()
# one double plus one conditional add per scalar bit
COST_SCALAR_MUL = SCALAR_BITS * 2 * COST_POINT_ADD
COST_ON_CURVE = 5


def threshold(depth: int) -> int:
    """Majority threshold over the tree capacity: floor(2^D / 2) + 1."""
    return (1 << depth) // 2 + 1


@dataclass(frozen=True)
class AggregationPublic:
    pre_state_root: int
    post_state_root: int
    block_hash: int
    request_id: int
    validator_bits: int


@dataclass(frozen=True)
class VoteWitness:
    account: Account
    merkle_proof: MerkleProof
    signature: Signature
    claimed_block_hash: int


@dataclass(frozen=True)
class AggregationWitness:
    aggregator_account: Account
    aggregator_proof: MerkleProof
    votes: tuple  # exactly t VoteWitness entries


@dataclass(frozen=True)
class SlashPublic:
    pre_state_root: int
    post_state_root: int
    block_hash: int
    request_id: int
    agg_index: int
    val_index: int


@dataclass(frozen=True)
class SlashWitness:
    aggregator_account: Account
    aggregator_proof: MerkleProof
    victim: VoteWitness


@dataclass(frozen=True)
class ConstraintReport:
    ok: bool
    constraint_count: int
    failure_site: Optional[str] = None


@dataclass(frozen=True)
class Proof:
    backend_id: str
    circuit_id: str
    payload: bytes


class ConstraintMeter:
    """Accumulates the constraint count and the first failing assertion.

    Evaluation never stops at a failure: real circuits have a fixed size, so
    the count must come out identical for satisfied and unsatisfied witnesses.
    """

    def __init__(self):
        self.count = 0
        self.ok = True
        self.failure_site = None

    def _fail(self, site: str) -> None:
        if self.ok:
            self.ok = False
            self.failure_site = site

    def assert_eq(self, a: int, b: int, site: str) -> None:
        self.count += 1
        if a != b:
            self._fail(site)

    def assert_ne(self, a: int, b: int, site: str) -> None:
        self.count += 1
        if a == b:
            self._fail(site)

    def assert_distinct(self, values, site: str) -> None:
        """assert_ne on every ordered pair (i, j), i != j, of values: t(t-1)
        constraints, evaluated in one pass.  Values compare as dict keys, so
        1, 1.0 and True are one value.  The first failing pair in (i, j) loop
        order is i, the first position whose value recurs, and j, the next
        position holding that value."""
        t = len(values)
        self.count += t * (t - 1)
        first = {}
        pair = None
        for j, value in enumerate(values):
            i = first.setdefault(value, j)
            if i != j and (pair is None or i < pair[0]):
                pair = (i, j)
        if pair:
            self._fail(f"{site}[{pair[0]},{pair[1]}]")

    def mimc(self, inputs) -> int:
        h = 0
        for x in inputs:
            self.count += COST_MIMC_PERMUTE
            u = (x + h) % P
            h = (permute(u) + u) % P
        return h

    def decompose(self, value: int, width: int, site: str) -> tuple:
        """Constrain value to `width` bits; returns the bits LSB first."""
        self.count += width
        bits = tuple((value >> i) & 1 for i in range(width))
        self.assert_eq(sum(b << i for i, b in enumerate(bits)), value, site)
        return bits

    def on_curve(self, pt: Point, site: str) -> None:
        self.count += COST_ON_CURVE
        lhs = (A * pt.x * pt.x + pt.y * pt.y) % P
        rhs = (1 + D * pt.x * pt.x % P * pt.y % P * pt.y) % P
        self.assert_eq(lhs, rhs, site)

    def scalar_mul(self, k: int, p: Point) -> Point:
        self.count += COST_SCALAR_MUL
        return curve.scalar_mul(k, p)

    def scalar_mul_base(self, k: int) -> Point:
        self.count += COST_SCALAR_MUL
        return curve.scalar_mul_base(k)

    def report(self) -> ConstraintReport:
        return ConstraintReport(self.ok, self.count, self.failure_site)


def _leaf(cs: ConstraintMeter, account: Account, balance: int) -> int:
    return cs.mimc([account.index, account.pubkey.x, account.pubkey.y, balance])


def _fold(cs: ConstraintMeter, leaf: int, path, bits) -> int:
    h = leaf
    for sibling, bit in zip(path, bits, strict=True):
        h = cs.mimc([sibling, h]) if bit else cs.mimc([h, sibling])
    return h


def _membership(cs: ConstraintMeter, root: int, account: Account,
                proof: MerkleProof, depth: int, site: str) -> tuple:
    """Prove account is in the tree at the position given by its own index.

    Directions are derived in-circuit from the index bits, which also range
    checks the index below 2^D.  Returns the bits for the later root update.
    """
    bits = cs.decompose(account.index, depth, f"{site}.index-bits")
    leaf = _leaf(cs, account, account.balance)
    cs.assert_eq(leaf, proof.leaf, f"{site}.leaf")
    cs.assert_eq(_fold(cs, leaf, proof.path, bits), root, f"{site}.membership")
    return bits


def _updated_root(cs: ConstraintMeter, account: Account, new_balance: int,
                  proof: MerkleProof, bits) -> int:
    new_leaf = _leaf(cs, account, new_balance)
    return _fold(cs, new_leaf, proof.path, bits)


def _verify_sig(cs: ConstraintMeter, pk: Point, msg: int, sig: Signature, site: str) -> None:
    cs.on_curve(pk, f"{site}.pk-on-curve")
    cs.on_curve(sig.r, f"{site}.r-on-curve")
    c = cs.mimc([sig.r.x, sig.r.y, pk.x, pk.y, msg]) % L
    lhs = cs.scalar_mul_base(sig.s % L)
    # R + c*pk stays projective; Z is 0 only if R or c*pk is off the curve,
    # which the on-curve assertions above have already failed
    cs.count += COST_POINT_ADD
    x, y, z = curve.add_projective(sig.r, cs.scalar_mul(c, pk))
    cs.assert_eq(lhs.x * z % P, x, f"{site}.sig-x")
    cs.assert_eq(lhs.y * z % P, y, f"{site}.sig-y")


def check_aggregation(public: AggregationPublic,
                      witness: AggregationWitness) -> ConstraintReport:
    """Run the aggregation circuit over exactly t votes.

    Sequence: pairwise-distinct vote indices, which cost t(t-1) constraints
    and are evaluated in O(t); aggregator membership against the pre-state
    root and its reward update; per vote, membership against the running
    root, message hash, signature check, claimed-hash equality, reward update
    and bit accumulation; final equality of the accumulated validator bits
    and the running root with the public inputs.
    """
    depth = len(witness.aggregator_proof.path)
    t = threshold(depth)
    votes = witness.votes
    if len(votes) != t:
        raise WrongVoteCount(f"aggregation circuit arity is {t}, got {len(votes)} votes")

    cs = ConstraintMeter()
    cs.assert_distinct([v.account.index for v in votes], "duplicate-vote")

    agg = witness.aggregator_account
    bits = _membership(cs, public.pre_state_root, agg, witness.aggregator_proof,
                       depth, "aggregator")
    root = _updated_root(cs, agg, agg.balance + AGG_REWARD, witness.aggregator_proof, bits)

    mask = (1 << depth) - 1
    actual_bits = 0
    for i, v in enumerate(votes):
        site = f"vote[{i}]"
        vbits = _membership(cs, root, v.account, v.merkle_proof, depth, site)
        msg = cs.mimc([v.account.index, public.request_id, v.claimed_block_hash])
        _verify_sig(cs, v.account.pubkey, msg, v.signature, site)
        cs.assert_eq(v.claimed_block_hash, public.block_hash, f"{site}.block-hash")
        # the decomposition above already constrains the index to D bits;
        # masking only keeps the host-side shift bounded for bad witnesses
        actual_bits += 1 << (v.account.index & mask)
        root = _updated_root(cs, v.account, v.account.balance + VAL_REWARD,
                             v.merkle_proof, vbits)


    cs.assert_eq(actual_bits, public.validator_bits, "validator-bits")
    cs.assert_eq(root, public.post_state_root, "post-state-root")
    return cs.report()


def check_slash(public: SlashPublic, witness: SlashWitness) -> ConstraintReport:
    """Run the slashing circuit: a signed dissenting vote empties the victim's
    balance into the aggregator's account.

    The deducted amount is captured before the victim's balance is zeroed so
    the transfer is value-preserving, and both witness accounts are bound to
    the public indices (unbound public indices would carry no meaning).
    """
    depth = len(witness.victim.merkle_proof.path)
    cs = ConstraintMeter()
    victim = witness.victim
    agg = witness.aggregator_account

    cs.assert_ne(public.agg_index, public.val_index, "distinct-indices")
    cs.assert_eq(victim.account.index, public.val_index, "victim-index")
    cs.assert_eq(agg.index, public.agg_index, "aggregator-index")

    vbits = _membership(cs, public.pre_state_root, victim.account,
                        victim.merkle_proof, depth, "victim")
    msg = cs.mimc([victim.account.index, public.request_id, victim.claimed_block_hash])
    _verify_sig(cs, victim.account.pubkey, msg, victim.signature, "victim")

    deducted = victim.account.balance
    root = _updated_root(cs, victim.account, 0, victim.merkle_proof, vbits)

    abits = _membership(cs, root, agg, witness.aggregator_proof, depth, "aggregator")
    root = _updated_root(cs, agg, agg.balance + deducted, witness.aggregator_proof, abits)

    # the circuit sees the claimed hash as a field element: h + P is a vote for h
    cs.assert_ne(public.block_hash, victim.claimed_block_hash % P, "dissent")
    cs.assert_eq(root, public.post_state_root, "post-state-root")
    return cs.report()


def build_aggregation_witness(tree: StateTree, agg_index: int, votes, request_id: int,
                              block_hash: int):
    """Stage proofs in circuit execution order against a snapshot of the tree.

    The aggregator's proof is taken against the pre-state root; each vote's
    proof against the intermediate tree after the previous reward updates.
    Returns (public, witness) such that check_aggregation accepts whenever the
    votes themselves are valid.
    """
    t = threshold(tree.depth)
    votes = list(votes)
    if len(votes) != t:
        raise WrongVoteCount(f"need exactly {t} votes, got {len(votes)}")
    if any(v.block_hash != block_hash for v in votes):
        raise MixedVotes("all packaged votes must claim the submitted block hash")
    return _stage_aggregation(tree, agg_index, votes, request_id, block_hash)


def _stage_aggregation(tree, agg_index, votes, request_id, block_hash):
    """The staging half of build_aggregation_witness, without its guards, so
    the brute-force soundness check can package votes the circuit must reject."""
    work = tree.copy()
    pre_root = work.root

    agg_account = work.account(agg_index)
    agg_proof = work.prove(agg_index)
    work.set_account(agg_index, replace(agg_account, balance=agg_account.balance + AGG_REWARD))

    bits = 0
    vote_witnesses = []
    for v in votes:
        account = work.account(v.validator_index)
        proof = work.prove(v.validator_index)
        vote_witnesses.append(VoteWitness(account, proof, v.signature, v.block_hash))
        work.set_account(v.validator_index,
                         replace(account, balance=account.balance + VAL_REWARD))
        bits |= 1 << v.validator_index

    public = AggregationPublic(pre_root, work.root, block_hash, request_id, bits)
    witness = AggregationWitness(agg_account, agg_proof, tuple(vote_witnesses))
    return public, witness


def build_slash_witness(tree: StateTree, agg_index: int, victim_vote, request_id: int,
                        majority_hash: int):
    """Stage a slash instance; the victim's vote must dissent from the answer."""
    if victim_vote.block_hash % P == majority_hash:
        raise NotSlashable("vote matches the majority answer")

    work = tree.copy()
    pre_root = work.root
    val_index = victim_vote.validator_index

    victim_account = work.account(val_index)
    victim_proof = work.prove(val_index)
    deducted = victim_account.balance
    work.set_account(val_index, replace(victim_account, balance=0))

    agg_account = work.account(agg_index)
    agg_proof = work.prove(agg_index)
    work.set_account(agg_index, replace(agg_account, balance=agg_account.balance + deducted))

    public = SlashPublic(pre_root, work.root, majority_hash, request_id,
                         agg_index, val_index)
    witness = SlashWitness(agg_account, agg_proof,
                           VoteWitness(victim_account, victim_proof,
                                       victim_vote.signature, victim_vote.block_hash))
    return public, witness


# -- witness serialization (decimal JSON records) ----------------------------
# Decoding is strict about values: a field element is the decimal string of a
# value in [0, P), a signature's s is also below L, an index is a JSON integer
# (not true or false), and a proof's directions are the low D bits of its
# account's index.


def _elements(raws) -> list:
    """Field elements, each the decimal string of a value in [0, P)."""
    # join raises TypeError unless every entry is a str, and bytes.isdigit,
    # unlike str.isdigit and int(), accepts ASCII digits only; one check for
    # a whole record costs little next to its int() calls
    if not "".join(raws).encode().isdigit():
        raise ValueError("field elements are decimal strings")
    values = list(map(int, raws))
    if max(values) >= P:
        raise ValueError("a field element is not below P")
    return values


def _point_obj(p: Point):
    return [str(p.x), str(p.y)]


def _coordinates(obj) -> list:
    if type(obj) is not list or len(obj) != 2:
        raise ValueError("a point is a list of two coordinates")
    return obj


def _account_obj(a: Account):
    return {"index": a.index, "pubkey": _point_obj(a.pubkey), "balance": str(a.balance)}


def _proof_obj(p: MerkleProof):
    return {"leaf": str(p.leaf), "path": [str(x) for x in p.path],
            "directions": list(p.directions)}


def _member_from(account_obj, proof_obj) -> tuple:
    """An account and its Merkle proof."""
    index, path = account_obj["index"], proof_obj["path"]
    if type(index) is not int:  # JSON true and false load as bools, which are ints
        raise TypeError(f"index {index!r} is not an integer")
    if type(path) is not list:
        raise TypeError("a Merkle path is a list")
    x, y, balance, leaf, *path = _elements(
        [*_coordinates(account_obj["pubkey"]), account_obj["balance"], proof_obj["leaf"],
         *path])
    bits = [index >> d & 1 for d in range(len(path))]
    directions = proof_obj["directions"]
    if directions != bits or not all(type(d) is int for d in directions):
        raise ValueError("directions must be the low bits of the account index")
    return (Account(index, Point(x, y), balance),
            MerkleProof(leaf, tuple(path), tuple(bits)))


def _vote_witness_obj(v: VoteWitness):
    return {"account": _account_obj(v.account), "proof": _proof_obj(v.merkle_proof),
            "signature": {"r": _point_obj(v.signature.r), "s": str(v.signature.s)},
            "block_hash": str(v.claimed_block_hash)}


def _vote_witness_from(obj) -> VoteWitness:
    signature = obj["signature"]
    rx, ry, s, block_hash = _elements(
        [*_coordinates(signature["r"]), signature["s"], obj["block_hash"]])
    if s >= L:  # the circuit reduces s mod L, so (R, s + L) would verify too
        raise ValueError("signature scalar s is not below L")
    return VoteWitness(*_member_from(obj["account"], obj["proof"]),
                       Signature(Point(rx, ry), s), block_hash)


def aggregation_witness_to_obj(w: AggregationWitness):
    return {"aggregator": _account_obj(w.aggregator_account),
            "aggregator_proof": _proof_obj(w.aggregator_proof),
            "votes": [_vote_witness_obj(v) for v in w.votes]}


def aggregation_witness_from_obj(obj) -> AggregationWitness:
    return AggregationWitness(*_member_from(obj["aggregator"], obj["aggregator_proof"]),
                              tuple(_vote_witness_from(v) for v in obj["votes"]))


def slash_witness_to_obj(w: SlashWitness):
    return {"aggregator": _account_obj(w.aggregator_account),
            "aggregator_proof": _proof_obj(w.aggregator_proof),
            "victim": _vote_witness_obj(w.victim)}


def slash_witness_from_obj(obj) -> SlashWitness:
    return SlashWitness(*_member_from(obj["aggregator"], obj["aggregator_proof"]),
                        _vote_witness_from(obj["victim"]))


AGGREGATION = "aggregation"
SLASH = "slash"


class TransparentBackend:
    """Proof = serialized witness; verify = re-execute the circuit.

    Complete and sound for exactly the relation the circuits enforce, and
    bound to the claimed public inputs by re-execution.  Not zero-knowledge.
    """

    backend_id = "transparent"

    def prove(self, circuit_id: str, public, witness) -> Proof:
        if circuit_id == AGGREGATION:
            obj = aggregation_witness_to_obj(witness)
        elif circuit_id == SLASH:
            obj = slash_witness_to_obj(witness)
        else:
            raise UnknownBackend(f"unknown circuit: {circuit_id}")
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        return Proof(self.backend_id, circuit_id, payload)

    def verify(self, circuit_id: str, public, proof: Proof) -> bool:
        if proof.backend_id != self.backend_id or proof.circuit_id != circuit_id:
            return False
        try:
            obj = json.loads(proof.payload)
            if circuit_id == AGGREGATION:
                report = check_aggregation(public, aggregation_witness_from_obj(obj))
            elif circuit_id == SLASH:
                report = check_slash(public, slash_witness_from_obj(obj))
            else:
                raise UnknownBackend(f"unknown circuit: {circuit_id}")
        # RecursionError: json.loads on deeply nested arrays
        except (KeyError, ValueError, TypeError, RecursionError, WrongVoteCount):
            return False
        return report.ok


_BACKENDS = {TransparentBackend.backend_id: TransparentBackend()}


def get_backend(backend_id: str):
    try:
        return _BACKENDS[backend_id]
    except KeyError:
        raise UnknownBackend(f"unknown backend: {backend_id}") from None


def prove(backend_id: str, circuit_id: str, public, witness) -> Proof:
    if circuit_id not in (AGGREGATION, SLASH):
        raise UnknownBackend(f"unknown circuit: {circuit_id}")
    return get_backend(backend_id).prove(circuit_id, public, witness)


def verify(backend_id: str, circuit_id: str, public, proof: Proof) -> bool:
    if circuit_id not in (AGGREGATION, SLASH):
        raise UnknownBackend(f"unknown circuit: {circuit_id}")
    return get_backend(backend_id).verify(circuit_id, public, proof)
