"""Off-chain node logic: validators vote, the aggregator collects and submits.

Every node is a single-threaded event processor over immutable messages; its
account tree is mutated only by its own sync loop, replaying the contract's
event log.  Votes travel as fixed-layout records so independent nodes produce
bit-identical submissions from the same log and chain view.
"""

from dataclasses import dataclass
from typing import Optional

from . import circuits, eddsa
from .circuits import AGGREGATION, SLASH, Proof, check_aggregation, check_slash
from .contract import Params, apply_event_to_tree, apply_slash_transfer
from .errors import CorruptLog, InvalidInput, OracleError
from .eddsa import Signature
from .field import P
from .merkle import StateTree
from .mimc import mimc_hash

DEFAULT_FINALITY = 6


@dataclass(frozen=True)
class Vote:
    validator_index: int
    request_id: int
    block_hash: int
    signature: Signature


def vote_message(validator_index: int, request_id: int, block_hash: int) -> int:
    return mimc_hash([validator_index, request_id, block_hash])


def make_vote(sk: int, validator_index: int, request_id: int, block_hash: int) -> Vote:
    msg = vote_message(validator_index, request_id, block_hash)
    return Vote(validator_index, request_id, block_hash, eddsa.sign(sk, msg))


def encode_vote(vote: Vote) -> bytes:
    """index (8 BE) || request id (8 BE) || block hash (32) || signature (96)."""
    return (vote.validator_index.to_bytes(8, "big")
            + vote.request_id.to_bytes(8, "big")
            + vote.block_hash.to_bytes(32, "big")
            + eddsa.encode_signature(vote.signature))


def decode_vote(data: bytes) -> Vote:
    if len(data) != 144:
        raise OracleError(f"vote record must be 144 bytes, got {len(data)}")
    block_hash = int.from_bytes(data[16:48], "big")
    if block_hash >= P:
        raise InvalidInput(f"block hash {block_hash} outside [0, P)")
    return Vote(int.from_bytes(data[:8], "big"),
                int.from_bytes(data[8:16], "big"),
                block_hash,
                eddsa.decode_signature(data[48:]))


def check_finality(chain, block_number: int, threshold: int) -> bool:
    """Final iff the canonical branch reaches `threshold` blocks past it."""
    if chain.tip - block_number < threshold:
        return False
    return chain.block_at(block_number) is not None


class Mempool:
    """Per-request vote store; the first vote per validator wins."""

    def __init__(self):
        self._votes = {}   # request_id -> {validator_index: Vote}
        self._tallies = {}  # request_id -> {block_hash: count}

    def add(self, vote: Vote) -> bool:
        stored = self._votes.setdefault(vote.request_id, {})
        if vote.validator_index in stored:
            return False
        stored[vote.validator_index] = vote
        tally = self._tallies.setdefault(vote.request_id, {})
        tally[vote.block_hash] = tally.get(vote.block_hash, 0) + 1
        return True

    def has(self, request_id: int, validator_index: int) -> bool:
        return validator_index in self._votes.get(request_id, {})

    def tally(self, request_id: int) -> dict:
        return dict(self._tallies.get(request_id, {}))

    def votes(self, request_id: int):
        """All stored votes, ascending validator index."""
        stored = self._votes.get(request_id, {})
        return [stored[i] for i in sorted(stored)]

    def votes_for(self, request_id: int, block_hash: int):
        return [v for v in self.votes(request_id) if v.block_hash == block_hash]

    def count(self, request_id: int) -> int:
        return len(self._votes.get(request_id, {}))


@dataclass(frozen=True)
class Submission:
    request_id: int
    block_hash: int
    validator_bits: int
    post_state_root: int
    proof: Proof
    constraint_count: int


@dataclass(frozen=True)
class SlashAction:
    request_id: int
    val_index: int
    post_state_root: int
    proof: Proof
    constraint_count: int


class OracleNode:
    def __init__(self, name: str, keypair: eddsa.KeyPair, params: Params,
                 finality: int = DEFAULT_FINALITY):
        self.name = name
        self.keypair = keypair
        self.params = params
        self.finality = finality
        self.backend = circuits.TransparentBackend()
        self.index: Optional[int] = None  # assigned when registered on-chain
        self.local_tree = StateTree(params.depth)
        self.last_seq = 0
        self.mempool = Mempool()

    # -- state sync -------------------------------------------------------

    def sync(self, events) -> None:
        """Catch up on events past last_seq; afterwards the local root equals
        the contract root at that seq."""
        for event in events[self.last_seq:]:
            if event.seq != self.last_seq:
                raise CorruptLog(f"expected seq {self.last_seq}, got {event.seq}")
            apply_event_to_tree(self.local_tree, event)
            self.last_seq += 1

    # -- validator side -----------------------------------------------------

    def answer(self, block_number: int, chain) -> int:
        """The block hash this node answers a request for block_number with,
        from the synced chain view; 0 means 'absent or not final', which is a
        definitive answer, unlike an unreachable chain.  Signing it is the
        caller's step, so an answer that never goes on the wire costs no
        signature."""
        block = chain.block_at(block_number)
        if block is None or not check_finality(chain, block_number, self.finality):
            return 0
        return block.hash % P

    # -- aggregator side ------------------------------------------------------

    def on_vote(self, vote: Vote):
        """Accept into the mempool iff the vote names a block hash in [0, P),
        is fresh and is authenticated by the key registered at its index.
        Returns (accepted, reason)."""
        if not 0 <= vote.validator_index < self.params.capacity:
            return False, "index-out-of-range"
        if not 0 <= vote.block_hash < P:
            return False, "block-hash-out-of-range"
        account = self.local_tree.account(vote.validator_index)
        if account.is_empty():
            return False, "unregistered-validator"
        if self.mempool.has(vote.request_id, vote.validator_index):
            return False, "duplicate-vote"
        msg = vote_message(vote.validator_index, vote.request_id, vote.block_hash)
        try:
            valid = eddsa.verify_sig(account.pubkey, msg, vote.signature)
        except OracleError:
            valid = False
        if not valid:
            return False, "invalid-signature"
        self.mempool.add(vote)
        return True, None

    def try_submit(self, request_id: int) -> Optional[Submission]:
        """Package the first t same-hash votes (ascending index) once a
        majority exists."""
        t = self.params.threshold
        tally = self.mempool.tally(request_id)
        winner = None
        for block_hash, count in tally.items():
            if count >= t:
                winner = block_hash
                break
        if winner is None:
            return None
        votes = self.mempool.votes_for(request_id, winner)[:t]
        public, witness = circuits.build_aggregation_witness(
            self.local_tree, self.index, votes, request_id, winner)
        report = check_aggregation(public, witness)
        proof = self.backend.prove(AGGREGATION, public, witness)
        return Submission(request_id, winner, public.validator_bits,
                          public.post_state_root, proof, report.constraint_count)

    def build_slashes(self, request_id: int, answer_hash: int):
        """Chain slash transactions for every provably dissenting vote,
        ascending victim index; each pre-root is the previous post-root."""
        actions = []
        work = self.local_tree.copy()
        for vote in self.mempool.votes(request_id):
            if vote.block_hash == answer_hash or vote.validator_index == self.index:
                continue
            account = work.account(vote.validator_index)
            msg = vote_message(vote.validator_index, request_id, vote.block_hash)
            try:
                valid = eddsa.verify_sig(account.pubkey, msg, vote.signature)
            except OracleError:
                valid = False
            if not valid:
                continue  # an unauthenticated vote cannot be proven in-circuit
            public, witness = circuits.build_slash_witness(
                work, self.index, vote, request_id, answer_hash)
            report = check_slash(public, witness)
            proof = self.backend.prove(SLASH, public, witness)
            actions.append(SlashAction(request_id, vote.validator_index,
                                       public.post_state_root, proof,
                                       report.constraint_count))
            apply_slash_transfer(work, self.index, vote.validator_index)
        return actions
