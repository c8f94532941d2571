"""Aggregation and slashing circuits as constraint-checked transitions.

Both circuits execute against a fixed arity derived from the tree depth D:
the aggregation circuit always carries exactly t = 2^D/2 + 1 votes, so every
accepted instance has popcount(validatorBits) = t.  Failures never raise; a
circuit has no exceptions, so the full constraint set is always evaluated and
the report carries ok/failure-site.  Constraint counts use a fixed cost model
(1 per multiplication-equivalent: 3 per MiMC round, 7 per curve addition) and
therefore depend only on (circuit, D, t), never on witness values.
`constraint_count(circuit, depth)` reads a count once per process from an
evaluation over the widest witness, so no prover re-runs its own circuit to
report what a proof costs.

The evaluator hashes only what a decision reads: a running root stays a
pending fold (`_same_root`), while the meter charges every node hash of a
full fold, so counts and failure sites are those of hashing every root to
the top.  A verify right after the build hashes nothing the builder's tree
did not.

The payouts the aggregation circuit credits, AGG_REWARD to the aggregator and
VAL_REWARD to each of the t voters, are constants of the circuit, as they
would be of a SNARK's verifying key; no caller can choose other values.  The
event log's params header restates them, and a log that states other values
is corrupt.

The one proof backend is transparent: the proof is the serialized witness
and verification re-executes the circuit against the claimed public inputs.
That is complete and sound by construction but explicitly not zero-knowledge;
a SNARK backend would sit behind the same `prove` / `verify` interface, which
names the backend in every call.  The contract and the nodes reach it only
through those two functions, with the id `TRANSPARENT`.  Because a
transparent proof publishes its witness, no witness holds a secret: only
accounts, Merkle paths and the votes, each with the signature its validator
already sent over the wire.
"""

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from . import curve
from .curve import A, D, L, Point
from .eddsa import Signature, challenge_inputs
from .errors import MixedVotes, NotSlashable, UnknownBackend, WrongVoteCount
from .field import P
from .merkle import MAX_LOG_DEPTH, Account, MerkleProof, StateTree
from .mimc import ROUNDS, mimc_hash, permute

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


def vote_message_inputs(validator_index: int, request_id: int, block_hash: int) -> list:
    """The MiMC inputs of the message a vote signs; the signer and the
    circuits both hash this list.  The request and the hash come first, so
    every vote for one (request, hash) pair opens the chain with the same
    two permutations, which the permutation cache holds after the first."""
    return [request_id, block_hash, validator_index]


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


@dataclass(frozen=True, slots=True)
class _Fold:
    """A root left unhashed: leaf folded up along path, bits choosing the sides."""
    leaf: int
    path: tuple
    bits: tuple


def _fold(cs: ConstraintMeter, leaf: int, proof: MerkleProof, bits) -> _Fold:
    """leaf folded up proof's path: every node hash is counted now and
    computed only when a decision reads it."""
    if len(proof.path) != len(bits):
        raise ValueError("a Merkle path has one sibling per tree level")
    cs.count += len(bits) * 2 * COST_MIMC_PERMUTE
    return _Fold(leaf, proof.path, bits)


def _root_hash(fold: _Fold) -> int:
    """The fold hashed all the way up."""
    h = fold.leaf
    for sibling, bit in zip(fold.path, fold.bits):
        h = mimc_hash([sibling, h]) if bit else mimc_hash([h, sibling])
    return h


def _same_root(a: _Fold, b) -> bool:
    """Whether fold a ends at root b, a hash or another fold.

    Two folds that hash the same ordered pair at some level, under the same
    siblings and directions above it, end at the same root whatever those
    are, so neither is hashed past that level.  Folds that never meet are
    hashed to the top and compared, so the answer is exact for every
    witness, colliding ones included.
    """
    if not isinstance(b, _Fold):
        return _root_hash(a) == b
    # from level meet up, both folds climb under the same siblings and directions
    meet = len(a.path)
    while meet and (a.path[meet - 1], a.bits[meet - 1]) == (b.path[meet - 1], b.bits[meet - 1]):
        meet -= 1
    ha, hb = a.leaf, b.leaf
    for level, (sa, ba, sb, bb) in enumerate(zip(a.path, a.bits, b.path, b.bits)):
        pair_a = [sa, ha] if ba else [ha, sa]
        pair_b = [sb, hb] if bb else [hb, sb]
        if level + 1 >= meet and pair_a == pair_b:
            return True
        ha, hb = mimc_hash(pair_a), mimc_hash(pair_b)
    return ha == hb


def _credit(cs: ConstraintMeter, root, account: Account, proof: MerkleProof,
            balance: int, depth: int, site: str) -> _Fold:
    """Prove account is in the tree at the position its own index gives, and
    return the root with its balance set to balance.

    Directions are derived in-circuit from the index bits, which also range
    checks the index below 2^D.  root is a hash or the fold of an earlier
    credit.  The update asserts nothing, so it never sets a failure site.
    """
    bits = cs.decompose(account.index, depth, f"{site}.index-bits")
    leaf = _leaf(cs, account, account.balance)
    cs.assert_eq(leaf, proof.leaf, f"{site}.leaf")
    member = _fold(cs, leaf, proof, bits)
    cs.assert_eq(_same_root(member, root), True, f"{site}.membership")
    return _fold(cs, _leaf(cs, account, balance), proof, bits)


def _verify_sig(cs: ConstraintMeter, pk: Point, msg: int, sig: Signature, site: str) -> None:
    cs.on_curve(pk, f"{site}.pk-on-curve")
    cs.on_curve(sig.r, f"{site}.r-on-curve")
    c = cs.mimc(challenge_inputs(sig.r, pk, msg)) % L
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
    and are evaluated in O(t); the aggregator's reward credited against the
    pre-state root; per vote, its reward credited against the running root,
    then message hash, signature check, claimed-hash equality and bit
    accumulation; final equality of the accumulated validator bits and the
    running root with the public inputs.  The running root is a pending fold
    until the post-state comparison, which hashes it to the top.
    """
    depth = len(witness.aggregator_proof.path)
    t = threshold(depth)
    votes = witness.votes
    if len(votes) != t:
        raise WrongVoteCount(f"aggregation circuit arity is {t}, got {len(votes)} votes")

    cs = ConstraintMeter()
    cs.assert_distinct([v.account.index for v in votes], "duplicate-vote")

    agg = witness.aggregator_account
    root = _credit(cs, public.pre_state_root, agg, witness.aggregator_proof,
                   agg.balance + AGG_REWARD, depth, "aggregator")

    mask = (1 << depth) - 1
    actual_bits = 0
    for i, v in enumerate(votes):
        site = f"vote[{i}]"
        root = _credit(cs, root, v.account, v.merkle_proof,
                       v.account.balance + VAL_REWARD, depth, site)
        msg = cs.mimc(vote_message_inputs(v.account.index, public.request_id,
                                          v.claimed_block_hash))
        _verify_sig(cs, v.account.pubkey, msg, v.signature, site)
        cs.assert_eq(v.claimed_block_hash, public.block_hash, f"{site}.block-hash")
        # the decomposition in _credit already constrains the index to D bits;
        # masking only keeps the host-side shift bounded for bad witnesses
        actual_bits += 1 << (v.account.index & mask)

    cs.assert_eq(actual_bits, public.validator_bits, "validator-bits")
    cs.assert_eq(_root_hash(root), public.post_state_root, "post-state-root")
    return cs.report()


def check_slash(public: SlashPublic, witness: SlashWitness) -> ConstraintReport:
    """Run the slashing circuit: a signed dissenting vote empties the victim's
    balance into the aggregator's account.

    Sequence: distinct public indices, each bound to its witness account
    (unbound ones would mean nothing); the victim zeroed against the pre-state
    root; message hash and signature check; the victim's whole former balance
    credited to the aggregator; dissent; the running root against the post root.
    """
    depth = len(witness.victim.merkle_proof.path)
    cs = ConstraintMeter()
    victim = witness.victim
    agg = witness.aggregator_account

    cs.assert_ne(public.agg_index, public.val_index, "distinct-indices")
    cs.assert_eq(victim.account.index, public.val_index, "victim-index")
    cs.assert_eq(agg.index, public.agg_index, "aggregator-index")

    root = _credit(cs, public.pre_state_root, victim.account, victim.merkle_proof,
                   0, depth, "victim")
    msg = cs.mimc(vote_message_inputs(victim.account.index, public.request_id,
                                      victim.claimed_block_hash))
    _verify_sig(cs, victim.account.pubkey, msg, victim.signature, "victim")
    root = _credit(cs, root, agg, witness.aggregator_proof,
                   agg.balance + victim.account.balance, depth, "aggregator")

    # the circuit sees the claimed hash as a field element: h + P is a vote for h
    cs.assert_ne(public.block_hash, victim.claimed_block_hash % P, "dissent")
    cs.assert_eq(_root_hash(root), public.post_state_root, "post-state-root")
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

    agg_proof = work.prove(agg_index)
    agg_account = work.credit(agg_index, AGG_REWARD)

    bits = 0
    vote_witnesses = []
    for v in votes:
        proof = work.prove(v.validator_index)
        account = work.credit(v.validator_index, VAL_REWARD)
        vote_witnesses.append(VoteWitness(account, proof, v.signature, v.block_hash))
        bits |= 1 << v.validator_index

    public = AggregationPublic(pre_root, work.root, block_hash, request_id, bits)
    witness = AggregationWitness(agg_account, agg_proof, tuple(vote_witnesses))
    return public, witness


def build_slash_witness(tree: StateTree, agg_index: int, victim_vote, request_id: int,
                        majority_hash: int):
    """Stage a slash instance; the victim's vote must dissent from the answer."""
    if victim_vote.block_hash % P == majority_hash:
        raise NotSlashable("vote matches the majority answer")
    return _stage_slash(tree.copy(), agg_index, victim_vote, request_id, majority_hash)


def _stage_slash(work, agg_index, victim_vote, request_id, majority_hash):
    """The staging half of build_slash_witness, without its guard: it moves
    the victim's balance to the aggregator on work itself, so a node chaining
    slashes stages each on the tree the previous one left, with no copy."""
    pre_root = work.root
    val_index = victim_vote.validator_index

    victim_proof = work.prove(val_index)
    victim_account = work.credit(val_index, -work.account(val_index).balance)
    agg_proof = work.prove(agg_index)
    agg_account = work.credit(agg_index, victim_account.balance)

    public = SlashPublic(pre_root, work.root, majority_hash, request_id,
                         agg_index, val_index)
    witness = SlashWitness(agg_account, agg_proof,
                           VoteWitness(victim_account, victim_proof,
                                       victim_vote.signature, victim_vote.block_hash))
    return public, witness


# -- witness serialization (decimal JSON records) ----------------------------
# Decoding is strict about keys and values: a record has exactly the keys
# the encoder writes, a field element is the decimal string of a value in
# [0, P), a signature's s is also below L, an index is a JSON integer (not
# true or false), and a proof's directions are the low D bits of its
# account's index.  Every decoder reads each key its encoder writes, so a
# record of the encoder's length has no other key; that costs one len() per
# record, where comparing key sets made a depth-4 decode 45 % slower.

_EXTRA_KEY = "a record has a key its encoder never writes"


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
    if len(account_obj) != 3 or len(proof_obj) != 3:
        raise ValueError(_EXTRA_KEY)
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
    if len(obj) != 4 or len(signature) != 2:
        raise ValueError(_EXTRA_KEY)
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
    if len(obj) != 3:
        raise ValueError(_EXTRA_KEY)
    return AggregationWitness(*_member_from(obj["aggregator"], obj["aggregator_proof"]),
                              tuple(_vote_witness_from(v) for v in obj["votes"]))


def slash_witness_to_obj(w: SlashWitness):
    return {"aggregator": _account_obj(w.aggregator_account),
            "aggregator_proof": _proof_obj(w.aggregator_proof),
            "victim": _vote_witness_obj(w.victim)}


def slash_witness_from_obj(obj) -> SlashWitness:
    if len(obj) != 3:
        raise ValueError(_EXTRA_KEY)
    return SlashWitness(*_member_from(obj["aggregator"], obj["aggregator_proof"]),
                        _vote_witness_from(obj["victim"]))


AGGREGATION = "aggregation"
SLASH = "slash"
TRANSPARENT = "transparent"  # the one backend's id


def _payload(circuit_id: str, witness) -> bytes:
    if circuit_id == AGGREGATION:
        obj = aggregation_witness_to_obj(witness)
    elif circuit_id == SLASH:
        obj = slash_witness_to_obj(witness)
    else:
        raise UnknownBackend(f"unknown circuit: {circuit_id}")
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class TransparentBackend:
    """Proof = serialized witness; verify = re-execute the circuit.

    Complete and sound for exactly the relation the circuits enforce, and
    bound to the claimed public inputs by re-execution.  Not zero-knowledge.
    """

    backend_id = TRANSPARENT

    def prove(self, circuit_id: str, public, witness) -> Proof:
        return Proof(self.backend_id, circuit_id, _payload(circuit_id, witness))

    def verify(self, circuit_id: str, public, proof: Proof) -> bool:
        if proof.backend_id != self.backend_id or proof.circuit_id != circuit_id:
            return False
        if circuit_id not in (AGGREGATION, SLASH):
            raise UnknownBackend(f"unknown circuit: {circuit_id}")
        try:
            # an oversize payload is refused unread: trailing spaces keep its JSON
            if len(proof.payload) > _payload_bound(circuit_id, public):
                return False
            obj = json.loads(proof.payload)
            if circuit_id == AGGREGATION:
                report = check_aggregation(public, aggregation_witness_from_obj(obj))
            else:
                report = check_slash(public, slash_witness_from_obj(obj))
        # RecursionError: json.loads on deeply nested arrays
        except (KeyError, ValueError, TypeError, RecursionError, WrongVoteCount):
            return False
        return report.ok


_TRANSPARENT = TransparentBackend()


def _widest_witness(circuit_id: str, depth: int):
    """The circuit's witness layout at this depth with every index at
    2^D - 1, every field element at P - 1 and s at L - 1, the widest values
    the decoder accepts.  It satisfies nothing."""
    top = P - 1
    widest = Point(top, top)
    account = Account((1 << depth) - 1, widest, top)
    proof = MerkleProof(top, (top,) * depth, (1,) * depth)
    vote = VoteWitness(account, proof, Signature(widest, L - 1), top)
    if circuit_id == AGGREGATION:
        return AggregationWitness(account, proof, (vote,) * threshold(depth))
    return SlashWitness(account, proof, vote)


@lru_cache(maxsize=None)
def max_payload_size(circuit_id: str, depth: int) -> int:
    """Bytes in the longest payload an honest prover emits at this depth, the
    widest witness's.  A longer payload is padded or malformed, so a verifier
    can refuse it before parsing it.  The widest witness's vote records all
    have one length, so its payload is the one-vote payload plus t - 1 more
    records and commas, and no bound serializes t votes."""
    witness = _widest_witness(circuit_id, depth)
    if circuit_id != AGGREGATION:
        return len(_payload(circuit_id, witness))
    one, two = (len(_payload(AGGREGATION, replace(witness, votes=witness.votes[:n])))
                for n in (1, 2))
    return one + (threshold(depth) - 1) * (two - one)


def _payload_bound(circuit_id: str, public) -> int:
    """The longest honest payload for these public inputs: an aggregation's
    depth D follows from its vote count t = 2^(D-1) + 1, and 0 when no D in
    [1, MAX_LOG_DEPTH] fits; a slash is bounded at the deepest tree."""
    if circuit_id == SLASH:
        return max_payload_size(SLASH, MAX_LOG_DEPTH)
    above_half = int.bit_count(public.validator_bits) - 1
    depth = above_half.bit_length()
    if not 1 <= depth <= MAX_LOG_DEPTH or above_half != 1 << (depth - 1):
        return 0
    return max_payload_size(AGGREGATION, depth)


@lru_cache(maxsize=None)
def constraint_count(circuit_id: str, depth: int) -> int:
    """Constraints in the circuit at this depth.  No count depends on a
    witness value, so the widest witness, which satisfies nothing, gives it."""
    witness = _widest_witness(circuit_id, depth)
    if circuit_id == AGGREGATION:
        return check_aggregation(AggregationPublic(0, 0, 0, 0, 0), witness).constraint_count
    return check_slash(SlashPublic(0, 0, 0, 0, 0, 0), witness).constraint_count


def _backend(backend_id: str, circuit_id: str) -> TransparentBackend:
    if circuit_id not in (AGGREGATION, SLASH):
        raise UnknownBackend(f"unknown circuit: {circuit_id}")
    if backend_id != TRANSPARENT:
        raise UnknownBackend(f"unknown backend: {backend_id}")
    return _TRANSPARENT


def prove(backend_id: str, circuit_id: str, public, witness) -> Proof:
    return _backend(backend_id, circuit_id).prove(circuit_id, public, witness)


def verify(backend_id: str, circuit_id: str, public, proof: Proof) -> bool:
    return _backend(backend_id, circuit_id).verify(circuit_id, public, proof)
