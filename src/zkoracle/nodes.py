"""Off-chain node logic: validators vote, the aggregator collects and submits.

Every node is a single-threaded event processor over immutable messages; its
account tree is mutated only by its own sync loop, replaying the contract's
event log.  A node holds no tree until its first sync: validators only
vote, so only the nodes that aggregate pay for one.  Votes are immutable
values; the aggregator keeps the first accepted vote per validator and
request, packages votes in ascending validator index, and hands over each
witness builder's public inputs with the proof `circuits.prove` makes of
them, so independent nodes produce bit-identical submissions from the same
log and chain view.  After it has submitted, it stores votes for its answer
without checking their signatures, and never packages them.  A request's
votes are one map from validator index to (vote, key), the key being the one
the vote's signature was checked under, or None while it is unchecked; the
node drops the map with the request's answer once it has built the request's
slashes.  catch_up is the one way a tree
follows the contract's log, for a node's own sync and for a check of it on a
copy, or on a fresh tree for a node that never synced.  build_slashes stages
its slashes one after another on one working copy of the tree.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import circuits, eddsa
from .circuits import AGGREGATION, SLASH, TRANSPARENT, vote_message_inputs
from .contract import Params, apply_event_to_tree
from .errors import CorruptLog, OracleError
from .eddsa import Signature
from .field import P
from .merkle import StateTree
from .mimc import mimc_hash

FINALITY = 6  # confirmations past a block before validators answer for it


@dataclass(frozen=True)
class Vote:
    validator_index: int
    request_id: int
    block_hash: int
    signature: Signature


def vote_message(validator_index: int, request_id: int, block_hash: int) -> int:
    return mimc_hash(vote_message_inputs(validator_index, request_id, block_hash))


def make_vote(sk: int, validator_index: int, request_id: int, block_hash: int) -> Vote:
    msg = vote_message(validator_index, request_id, block_hash)
    return Vote(validator_index, request_id, block_hash, eddsa.sign(sk, msg))


def signed_by(pubkey, vote: Vote) -> bool:
    """Whether pubkey signed the vote; a malformed signature is False."""
    msg = vote_message(vote.validator_index, vote.request_id, vote.block_hash)
    try:
        return eddsa.verify_sig(pubkey, msg, vote.signature)
    except OracleError:
        return False


def catch_up(tree: StateTree, events, seq: int):
    """Apply events[seq:] to tree in log order, yielding the number of events
    the tree reflects after each one; CorruptLog at the first event whose seq
    is not its position in the log."""
    for event in events[seq:]:
        if event.seq != seq:
            raise CorruptLog(f"expected seq {seq}, got {event.seq}")
        apply_event_to_tree(tree, event)
        seq += 1
        yield seq


class OracleNode:
    def __init__(self, name: str, keypair: eddsa.KeyPair, params: Params):
        self.name = name
        self.keypair = keypair
        self.params = params
        self.index: Optional[int] = None  # assigned when registered on-chain
        self.local_tree: Optional[StateTree] = None  # created by the first sync
        self.last_seq = 0
        # request_id -> {validator_index: (first accepted vote, the key its
        # signature was checked under or None)}; build_slashes drops the request
        self.votes = {}
        self.answered = {}  # request_id -> the block hash this node submitted

    # -- state sync -------------------------------------------------------

    def sync(self, events) -> None:
        """Catch up on events past last_seq, creating the local tree at the
        first call; afterwards the local root equals the contract root at that
        seq.  On CorruptLog, last_seq counts the events applied before it."""
        if self.local_tree is None:
            self.local_tree = StateTree(self.params.depth)
        for self.last_seq in catch_up(self.local_tree, events, self.last_seq):
            pass

    # -- validator side -----------------------------------------------------

    def answer(self, block_number: int, chain) -> Optional[int]:
        """The block hash this node answers a request for block_number with,
        from the synced chain view, or None when its view cannot decide: the
        block is absent or not final.  Such a node signs nothing, so only a
        signed hash can be slashed as a dissent, never a slow view.  A request
        for a block that never becomes final is answered by no one, and it
        times out through the committee.  A block is final once the canonical
        branch reaches FINALITY blocks past it.  Signing the answer is the
        caller's step, so an answer that never goes on the wire costs no
        signature."""
        block = chain.block_at(block_number)
        if block is None or chain.tip - block_number < FINALITY:
            return None
        return block.hash % P

    # -- aggregator side ------------------------------------------------------

    def on_vote(self, vote: Vote):
        """Store the vote iff it names a block hash in [0, P), is the first from
        its validator for the request and is authenticated by the key
        registered at its index.  Returns (accepted, reason).  The vote is
        stored as (vote, key) in `votes[vote.request_id]`, key being the
        registered key its signature was checked under.  A node that has
        never synced knows no registration, so every in-range vote is from an
        unregistered validator to it.

        Once this node has submitted an answer, a vote for that answer can be
        neither packaged nor slashed, so it is stored with its signature
        unchecked, key None.  Such a vote holds its validator's slot only
        until a second vote from that validator arrives: the stored one is
        checked then and given the key if it passes; if it fails, the new vote
        takes the slot, as if it had come first."""
        if not 0 <= vote.validator_index < self.params.capacity:
            return False, "index-out-of-range"
        if not 0 <= vote.block_hash < P:
            return False, "block-hash-out-of-range"
        if self.local_tree is None:
            return False, "unregistered-validator"
        account = self.local_tree.account(vote.validator_index)
        if account.is_empty():
            return False, "unregistered-validator"
        stored = self.votes.get(vote.request_id, {})
        if vote.validator_index in stored:
            first, key = stored[vote.validator_index]
            if key is None and signed_by(account.pubkey, first):
                key = account.pubkey
                stored[vote.validator_index] = (first, key)
            if key is not None:
                return False, "duplicate-vote"
            del stored[vote.validator_index]
        key = None
        if self.answered.get(vote.request_id) != vote.block_hash:
            if not signed_by(account.pubkey, vote):
                return False, "invalid-signature"
            key = account.pubkey
        self.votes.setdefault(vote.request_id, {})[vote.validator_index] = (vote, key)
        return True, None

    def try_submit(self, request_id: int):
        """(AggregationPublic, Proof) for the first t same-hash checked votes,
        ascending index, once a majority exists; None before."""
        t = self.params.threshold
        stored = self.votes.get(request_id, {})
        if len(stored) < t:
            return None  # no hash can have t checked votes yet
        checked = [vote for vote, key in stored.values() if key is not None]
        tally = Counter(vote.block_hash for vote in checked)
        winner = next((h for h, count in tally.items() if count >= t), None)
        if winner is None:
            return None
        votes = sorted((v for v in checked if v.block_hash == winner),
                       key=lambda v: v.validator_index)[:t]
        public, witness = circuits.build_aggregation_witness(
            self.local_tree, self.index, votes, request_id, winner)
        self.answered[request_id] = winner
        return public, circuits.prove(TRANSPARENT, AGGREGATION, public, witness)

    def build_slashes(self, request_id: int, answer_hash: int):
        """(SlashPublic, Proof) for every provably dissenting vote, ascending
        victim index; each pre-root is the previous post-root.  The last read
        of the request's votes, so it drops them and the request's answer."""
        stored = self.votes.pop(request_id, {})
        self.answered.pop(request_id, None)
        if self.local_tree is None:
            return []  # a node that never synced stored no vote
        slashes = []
        work = self.local_tree.copy()
        for index, (vote, key) in sorted(stored.items()):
            if vote.block_hash == answer_hash or index == self.index:
                continue
            pubkey = work.account(index).pubkey
            # a vote checked under the index's current key needs no second check
            if pubkey != key and not signed_by(pubkey, vote):
                continue  # an unauthenticated vote cannot be proven in-circuit
            # stages the transfer on work, where the next slash starts
            public, witness = circuits._stage_slash(
                work, self.index, vote, request_id, answer_hash)
            slashes.append((public, circuits.prove(TRANSPARENT, SLASH, public, witness)))
        return slashes
