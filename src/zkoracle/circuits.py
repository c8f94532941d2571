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
already sent over the wire.  The witness is written as fixed-width
field-element words, so every payload of a circuit at one depth has the same
size (`payload_size`), a verifier refuses any other length unread, and a
payload that decodes is the one encoding of its witness.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import eddsa
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

    def sig_equation(self, pk: Point, c: int, r: Point, s: int) -> tuple:
        """eddsa.sig_equation's two comparisons, charged as s*G, c*pk and
        the addition of R."""
        self.count += 2 * COST_SCALAR_MUL + COST_POINT_ADD
        return eddsa.sig_equation(pk, c, r, s)

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
    # off the curve the comparisons are garbage, and the on-curve assertions
    # above have already failed
    x_holds, y_holds = cs.sig_equation(pk, c, sig.r, sig.s % L)
    cs.assert_eq(x_holds, True, f"{site}.sig-x")
    cs.assert_eq(y_holds, True, f"{site}.sig-y")


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


# -- witness serialization (fixed-width words) --------------------------------
# A payload is the witness's field elements, each a 32-byte big-endian word
# below P, with no keys, separators or length prefix.  A member record is the
# index, pk.x, pk.y, balance, leaf and the D path siblings, leaf level first;
# a vote record is a member record plus R.x, R.y, s and the claimed hash.  An
# aggregation is the aggregator's member record and t vote records, a slash
# the aggregator's and the victim's.  A Merkle proof has no directions to
# write: they are the low D bits of its account's index.  Both circuits'
# payload sizes grow strictly with D, so a payload's length names its depth,
# and every payload that decodes is the one encoding of its witness.

WORD = 32


def _member_words(account: Account, proof: MerkleProof) -> list:
    return [account.index, *account.pubkey, account.balance, proof.leaf, *proof.path]


def _vote_words(v: VoteWitness) -> list:
    return [*_member_words(v.account, v.merkle_proof), *v.signature.r, v.signature.s,
            v.claimed_block_hash]


def _member_from(words) -> tuple:
    """An account and its Merkle proof from a member record's 5 + D words."""
    index, x, y, balance, leaf, *path = words
    return Account(index, Point(x, y), balance), MerkleProof(leaf, tuple(path))


def _vote_from(words) -> VoteWitness:
    *member, rx, ry, s, block_hash = words
    if s >= L:  # the circuit reduces s mod L, so (R, s + L) would verify too
        raise ValueError("signature scalar s is not below L")
    return VoteWitness(*_member_from(member), Signature(Point(rx, ry), s), block_hash)


AGGREGATION = "aggregation"
SLASH = "slash"
TRANSPARENT = "transparent"  # the one backend's id


def encode_witness(circuit_id: str, witness) -> bytes:
    """The witness's words in record order, 32 bytes each."""
    words = _member_words(witness.aggregator_account, witness.aggregator_proof)
    for v in witness.votes if circuit_id == AGGREGATION else (witness.victim,):
        words += _vote_words(v)
    return b"".join(w.to_bytes(WORD, "big") for w in words)


def payload_size(circuit_id: str, depth: int) -> int:
    """Bytes in every payload of this circuit at depth D: the aggregator's
    5 + D words plus 9 + D per vote record, t of them in an aggregation and
    the victim's in a slash."""
    votes = threshold(depth) if circuit_id == AGGREGATION else 1
    return WORD * ((5 + depth) + votes * (9 + depth))


# (circuit, payload length) -> the one depth in [1, MAX_LOG_DEPTH] that gives it
_PAYLOAD_DEPTH = {(circuit_id, payload_size(circuit_id, depth)): depth
                  for circuit_id in (AGGREGATION, SLASH)
                  for depth in range(1, MAX_LOG_DEPTH + 1)}


def _words(payload: bytes) -> list:
    words = [int.from_bytes(payload[i:i + WORD], "big") for i in range(0, len(payload), WORD)]
    if max(words) >= P:
        raise ValueError("a word is not below P")
    return words


def decode_witness(circuit_id: str, payload: bytes):
    """The witness a payload encodes, read from its bytes alone: ValueError
    unless the payload is bytes of the length some depth gives this circuit,
    every word is below P and every signature's s is below L.  An index is a
    field element, so one at or above 2^D decodes and the circuit rejects it."""
    if not isinstance(payload, bytes):
        raise ValueError("a payload is bytes")
    depth = _PAYLOAD_DEPTH.get((circuit_id, len(payload)))
    if depth is None:
        raise ValueError(f"no depth has a {len(payload)}-byte {circuit_id} payload")
    words = _words(payload)
    member, vote = 5 + depth, 9 + depth
    aggregator = _member_from(words[:member])
    votes = [_vote_from(words[i:i + vote]) for i in range(member, len(words), vote)]
    if circuit_id == AGGREGATION:
        return AggregationWitness(*aggregator, tuple(votes))
    return SlashWitness(*aggregator, *votes)


def _sized_for_bitmap(payload, bits) -> bool:
    """Whether an aggregation payload is bytes of the size at the depth its
    public bitmap names: t = 2^(D-1) + 1 flagged votes.  A payload of another
    depth would run the circuit at that depth whatever the public, so it is
    refused unread.  The bitmap must be an int, as the circuit's comparison
    would take 7.0 for 7."""
    if type(bits) is not int or not isinstance(payload, bytes):
        return False
    return len(payload) == payload_size(AGGREGATION, (bits.bit_count() - 1).bit_length())


class TransparentBackend:
    """Proof = serialized witness; verify = re-execute the circuit.

    Complete and sound for exactly the relation the circuits enforce, and
    bound to the claimed public inputs by re-execution.  Not zero-knowledge.
    """

    backend_id = TRANSPARENT

    def prove(self, circuit_id: str, public, witness) -> Proof:
        return Proof(self.backend_id, circuit_id, encode_witness(circuit_id, witness))

    def verify(self, circuit_id: str, public, proof: Proof) -> bool:
        if proof.backend_id != self.backend_id or proof.circuit_id != circuit_id:
            return False
        if circuit_id not in (AGGREGATION, SLASH):
            raise UnknownBackend(f"unknown circuit: {circuit_id}")
        if circuit_id == AGGREGATION and not _sized_for_bitmap(proof.payload,
                                                               public.validator_bits):
            return False
        try:
            witness = decode_witness(circuit_id, proof.payload)
        except ValueError:
            return False
        check = check_aggregation if circuit_id == AGGREGATION else check_slash
        return check(public, witness).ok


_TRANSPARENT = TransparentBackend()


def _widest_witness(circuit_id: str, depth: int):
    """The circuit's witness layout at this depth with every index at
    2^D - 1, every other field element at P - 1 and s at L - 1.  It
    satisfies nothing."""
    top = P - 1
    widest = Point(top, top)
    account = Account((1 << depth) - 1, widest, top)
    proof = MerkleProof(top, (top,) * depth)
    vote = VoteWitness(account, proof, Signature(widest, L - 1), top)
    if circuit_id == AGGREGATION:
        return AggregationWitness(account, proof, (vote,) * threshold(depth))
    return SlashWitness(account, proof, vote)


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
