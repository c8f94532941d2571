"""Deterministic emulation of the on-chain oracle contract.

The contract is event-sourced: a transaction validates its input and hands
the event recording it to the one reducer, `Contract._apply`, and replay
feeds logged events to the same reducer.  Before that, `_emit` refuses any
payload value that the log could not write and read back as its field's
type, so every event the contract emits parses back.  The tree part of every
event is `apply_event_to_tree`, which off-chain nodes also sync with.

Proofs are checked by `circuits.verify` under the one backend id,
`circuits.TRANSPARENT`, never the id a proof names, so a proof for another
backend or circuit is an `InvalidProof`.

The contract keeps a private hash tree (as the real contract does for the
membership operations) but external state changes arriving via submit/slash
are accepted only if the claimed post root matches the canonical update
implied by the public inputs; that is what keeps the event log replayable.

The aggregator rotates round robin: the first member at or after a cursor
that moves past each submitting or timed-out aggregator.
"""

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

from . import circuits, curve
from .circuits import (AGG_REWARD, AGGREGATION, SLASH, TRANSPARENT, VAL_REWARD,
                       AggregationPublic, Proof, SlashPublic)
from .curve import Point
from .errors import (AlreadyExiting, AlreadySlashed, CommitteeFull, CorruptLog,
                     ExitTimeNotReached, FeeTooLow, InsufficientStake, InvalidInput,
                     InvalidProof, NoCommittee, NotAggregator, NotExiting, NotOwner,
                     OracleError, RequestNotPending, RequestPending, StakeTooLow)
from .field import P
from .merkle import (MAX_LOG_DEPTH, Account, MerkleProof, StateTree, empty_account,
                     leaf_hash, proof_index, verify_proof)

MIN_STAKE = 100
EXIT_DELAY = 7 * 24 * 3600  # two-step departure: announce, then wait this long

MAX_BALANCE = 1 << 128  # balances stay far below P so additions never wrap

ROUND_ROBIN = "round_robin"  # the only aggregator rotation

PENDING = "pending"
ANSWERED = "answered"


@dataclass(frozen=True)
class Params:
    """The settings a deployment chooses: only the tree depth.  The stake
    floor, the exit delay, the circuit's payouts and the aggregator rotation
    are constants; they read as attributes so the log header can state them."""
    depth: int = 8

    min_stake: ClassVar[int] = MIN_STAKE
    val_reward: ClassVar[int] = VAL_REWARD
    agg_reward: ClassVar[int] = AGG_REWARD
    exit_delay: ClassVar[int] = EXIT_DELAY
    aggregator_mode: ClassVar[str] = ROUND_ROBIN

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    @property
    def threshold(self) -> int:
        return circuits.threshold(self.depth)

    @property
    def request_fee(self) -> int:
        """The minimum fee, which is exactly what one submission pays out."""
        return AGG_REWARD + self.threshold * VAL_REWARD


@dataclass
class Request:
    id: int
    block_number: int
    fee: int
    client: str
    status: str = PENDING
    answer_hash: Optional[int] = None
    validator_bits: Optional[int] = None
    agg_index: Optional[int] = None  # the aggregator that answered


@dataclass(frozen=True)
class Event:
    seq: int
    time: float
    kind: str
    payload: dict


REGISTERED = "Registered"
REPLACED = "Replaced"
EXITED = "Exited"
WITHDRAWN = "Withdrawn"
BLOCK_REQUESTED = "BlockRequested"
BLOCK_SUBMITTED = "BlockSubmitted"
SLASHED = "Slashed"
AGGREGATOR_TIMEOUT = "AggregatorTimeout"

EVENT_KINDS = (REGISTERED, REPLACED, EXITED, WITHDRAWN, BLOCK_REQUESTED,
               BLOCK_SUBMITTED, SLASHED, AGGREGATOR_TIMEOUT)


class Contract:
    def __init__(self, params: Params = Params()):
        self.params = params
        self._tree = StateTree(params.depth)
        self.owner_of = {}
        self.ip_of = {}
        self.exit_time_of = {}
        self.requests = {}
        self.next_request_id = 0
        self.aggregator_cursor = 0
        self.escrow = 0
        self.slashed = set()
        self.events = []
        self.now = 0.0

    # -- read side ------------------------------------------------------

    @property
    def state_root(self) -> int:
        return self._tree.root

    def account(self, index: int) -> Account:
        return self._tree.account(index)

    def prove(self, index: int) -> MerkleProof:
        return self._tree.prove(index)

    def tree_snapshot(self) -> StateTree:
        return self._tree.copy()

    # owner_of's keys are the non-empty leaves: member keys are on the curve,
    # Withdrawn empties a leaf and drops its owner, no event credits a non-member
    def occupied_indices(self):
        return sorted(self.owner_of)

    def total_staked(self) -> int:
        return sum(self._tree.account(i).balance for i in self.owner_of)

    def get_aggregator(self) -> int:
        """The first member at or after the cursor, wrapping around."""
        if not self.owner_of:
            raise NoCommittee("no registered oracle nodes")
        n = self.params.capacity
        return min(self.owner_of, key=lambda i: (i - self.aggregator_cursor) % n)

    # -- time -----------------------------------------------------------

    def set_time(self, t: float) -> None:
        if not _reads_back(float, t):
            raise InvalidInput(f"time {t!r} is not a finite number")
        if t < self.now:
            raise InvalidInput("time cannot move backwards")
        self.now = float(t)  # the type the log reads an event's time back as

    # -- membership transactions -----------------------------------------

    def register(self, caller: str, pubkey: Point, ip: str, stake: int) -> int:
        if stake < self.params.min_stake:
            raise InsufficientStake(f"stake {stake} below minimum {self.params.min_stake}")
        index = self._lowest_empty_index()
        if index is None:
            raise CommitteeFull("all leaves occupied; a newcomer must replace")
        self._emit(REGISTERED, index=index, owner=caller, ip=ip,
                   pubkey_x=pubkey.x, pubkey_y=pubkey.y, stake=stake)
        return index

    def replace(self, caller: str, pubkey: Point, ip: str, stake: int,
                target_index: int, target_account: Account, proof: MerkleProof) -> int:
        self._check_account_proof(target_index, target_account, proof)
        if stake <= target_account.balance:
            raise StakeTooLow(f"stake {stake} must exceed target balance "
                              f"{target_account.balance}")
        self._emit(REPLACED, index=target_index, owner=caller, ip=ip,
                   pubkey_x=pubkey.x, pubkey_y=pubkey.y, stake=stake,
                   displaced_owner=self.owner_of.get(target_index, ""),
                   returned=target_account.balance)
        return target_index

    def exit(self, caller: str, account: Account, proof: MerkleProof) -> float:
        index = account.index
        if self.owner_of.get(index) != caller:
            raise NotOwner(f"{caller} does not own index {index}")
        if index in self.exit_time_of:
            raise AlreadyExiting(f"index {index} already announced an exit")
        self._check_account_proof(index, account, proof)
        exit_time = self.now + self.params.exit_delay
        self._emit(EXITED, index=index, exit_time=exit_time)
        return exit_time

    def withdraw(self, caller: str, account: Account, proof: MerkleProof) -> int:
        index = account.index
        if index not in self.exit_time_of:
            raise NotExiting(f"index {index} never announced an exit")
        if self.owner_of.get(index) != caller:
            raise NotOwner(f"{caller} does not own index {index}")
        if self.now < self.exit_time_of[index]:
            raise ExitTimeNotReached(
                f"now {self.now} before exit time {self.exit_time_of[index]}")
        self._check_account_proof(index, account, proof)
        self._emit(WITHDRAWN, index=index, owner=caller, amount=account.balance)
        return account.balance

    # -- request lifecycle -------------------------------------------------

    def request_block(self, client: str, block_number: int, fee: int) -> int:
        if fee < self.params.request_fee:
            raise FeeTooLow(f"fee {fee} below required {self.params.request_fee}")
        request_id = self.next_request_id
        self._emit(BLOCK_REQUESTED, request_id=request_id, block_number=block_number,
                   fee=fee, client=client)
        return request_id

    def submit_block(self, caller: str, request_id: int, block_hash: int,
                     validator_bits: int, post_state_root: int, proof: Proof) -> None:
        agg_index = self.get_aggregator()
        if self.owner_of.get(agg_index) != caller:
            raise NotAggregator(f"{caller} is not the current aggregator")
        self._pending(request_id)
        # the reducer repeats these checks; running them first spares a
        # submission they refuse the proof's re-execution
        self._check_submission(block_hash, validator_bits)
        self._check_payload_size(AGGREGATION, proof)

        public = AggregationPublic(self.state_root, post_state_root, block_hash,
                                   request_id, validator_bits)
        if not circuits.verify(TRANSPARENT, AGGREGATION, public, proof):
            raise InvalidProof("aggregation proof rejected")

        self._emit(BLOCK_SUBMITTED, request_id=request_id, agg_index=agg_index,
                   block_hash=block_hash, validator_bits=validator_bits,
                   post_state_root=post_state_root)

    def slash(self, caller: str, request_id: int, val_index: int,
              post_state_root: int, proof: Proof) -> None:
        """Only the aggregator that answered the request may slash a dissenter
        of it, and the victim's stake goes to that aggregator."""
        request = self._slashable(request_id, val_index)
        if self.owner_of.get(request.agg_index) != caller:
            raise NotAggregator(f"{caller} is not the aggregator that answered "
                                f"request {request_id}")
        self._check_payload_size(SLASH, proof)
        public = SlashPublic(self.state_root, post_state_root, request.answer_hash,
                             request_id, request.agg_index, val_index)
        if not circuits.verify(TRANSPARENT, SLASH, public, proof):
            raise InvalidProof("slash proof rejected")
        self._emit(SLASHED, request_id=request_id, agg_index=request.agg_index,
                   val_index=val_index, post_state_root=post_state_root)

    def _check_payload_size(self, circuit_id: str, proof: Proof) -> None:
        """Refuse a payload longer than any honest one at this depth before
        the backend parses it."""
        bound = circuits.max_payload_size(circuit_id, self.params.depth)
        if len(proof.payload) > bound:
            raise InvalidProof(f"{circuit_id} payload of {len(proof.payload)} bytes "
                               f"exceeds the {bound}-byte bound at depth "
                               f"{self.params.depth}")

    def timeout_aggregator(self) -> int:
        """Rotate past an unresponsive aggregator; driven by the network layer."""
        skipped = self.get_aggregator()
        self._emit(AGGREGATOR_TIMEOUT, index=skipped)
        return skipped

    # -- the reducer -------------------------------------------------------

    def _apply(self, event: Event) -> None:
        """Fold one event into the state; the only writer of contract state
        after __init__.  Every check runs before the first write and a
        proof-gated tree update is swapped in only once it reaches the
        event's post root, so an event that raises leaves the state as it was.
        """
        p = event.payload
        kind = event.kind
        params = self.params
        if kind in (REGISTERED, REPLACED):
            if kind == REGISTERED and p["index"] in self.owner_of:
                raise InvalidInput(f"index {p['index']} is already registered")
            curve.require_on_curve(Point(p["pubkey_x"], p["pubkey_y"]))
            if not 0 <= p["stake"] < MAX_BALANCE:
                raise InvalidInput(f"stake {p['stake']} outside [0, 2^128)")
            apply_event_to_tree(self._tree, event)
            self.owner_of[p["index"]] = p["owner"]
            self.ip_of[p["index"]] = p["ip"]
            self.exit_time_of.pop(p["index"], None)
        elif kind == EXITED:
            self._require_member(p["index"])
            self.exit_time_of[p["index"]] = p["exit_time"]
        elif kind == WITHDRAWN:
            self._require_member(p["index"])
            apply_event_to_tree(self._tree, event)
            del self.owner_of[p["index"]]
            del self.ip_of[p["index"]]
            self.exit_time_of.pop(p["index"], None)
        elif kind == BLOCK_REQUESTED:
            if p["request_id"] != self.next_request_id:
                raise InvalidInput(f"request id {p['request_id']} out of order")
            self.requests[p["request_id"]] = Request(
                p["request_id"], p["block_number"], p["fee"], p["client"])
            self.next_request_id += 1
            self.escrow += p["fee"]
        elif kind == BLOCK_SUBMITTED:
            request = self._pending(p["request_id"])
            if p["agg_index"] != self.get_aggregator():
                raise NotAggregator(f"index {p['agg_index']} is not the aggregator")
            self._check_submission(p["block_hash"], p["validator_bits"])
            self._tree = self._updated_tree(event)
            request.status = ANSWERED
            request.answer_hash = p["block_hash"]
            request.validator_bits = p["validator_bits"]
            request.agg_index = p["agg_index"]
            self.escrow -= params.request_fee
            self.aggregator_cursor = (p["agg_index"] + 1) % params.capacity
        elif kind == SLASHED:
            request = self._slashable(p["request_id"], p["val_index"])
            if p["agg_index"] != request.agg_index:
                raise NotAggregator(f"index {p['agg_index']} did not answer the request")
            self._require_member(p["agg_index"])  # its leaf is credited
            self._require_member(p["val_index"])
            self._tree = self._updated_tree(event)
            self.slashed.add((p["request_id"], p["val_index"]))
        elif kind == AGGREGATOR_TIMEOUT:
            if p["index"] != self.get_aggregator():
                raise NotAggregator(f"index {p['index']} is not the aggregator")
            self.aggregator_cursor = (p["index"] + 1) % params.capacity
        self.now = event.time
        self.events.append(event)

    def _check_submission(self, block_hash: int, validator_bits: int) -> None:
        """The BLOCK_SUBMITTED checks that need no proof: the hash is a field
        element, the bits flag t registered members, and the escrow covers the
        rewards."""
        params = self.params
        if not 0 <= block_hash < P:
            raise InvalidInput(f"block hash {block_hash} outside [0, P)")
        # bits at or above capacity are rejected without scanning them, so a
        # hostile million-bit value costs no quadratic scan
        voters = flagged_indices(validator_bits & ((1 << params.capacity) - 1))
        if validator_bits < 0 or validator_bits >> params.capacity \
                or len(voters) != params.threshold or not self.owner_of.keys() >= set(voters):
            raise InvalidInput("validator bits must flag t registered members")
        if self.escrow < params.request_fee:
            raise InvalidInput("escrow cannot cover the submission rewards")

    def _updated_tree(self, event: Event) -> StateTree:
        """A copy of the tree with a proof-gated event applied; InvalidProof
        unless it reaches the event's post state root."""
        tree = self._tree.copy()
        apply_event_to_tree(tree, event)
        if tree.root != event.payload["post_state_root"]:
            raise InvalidProof(f"post root differs from the canonical {event.kind} update")
        return tree

    # -- internals ---------------------------------------------------------

    def _emit(self, kind: str, **payload) -> None:
        """Hand the reducer an event that the log writes and reads back: every
        payload value must be of the type LOG_FIELDS gives its field."""
        for key, field_type in LOG_FIELDS[kind].items():
            if not _reads_back(field_type, payload[key]):
                # no value in the message: a too-long int cannot be printed
                raise InvalidInput(f"{kind} {key} ({type(payload[key]).__name__}) would "
                                   f"not read back from the log as {field_type.__name__}")
        self._apply(Event(len(self.events), self.now, kind, payload))

    def _pending(self, request_id: int) -> Request:
        request = self.requests.get(request_id)
        if request is None or request.status != PENDING:
            raise RequestNotPending(f"request {request_id} is not pending")
        return request

    def _slashable(self, request_id: int, val_index: int) -> Request:
        request = self.requests.get(request_id)
        if request is None or request.status != ANSWERED:
            raise RequestPending(f"request {request_id} has not been answered")
        if (request_id, val_index) in self.slashed:
            raise AlreadySlashed(f"validator {val_index} already slashed for "
                                 f"request {request_id}")
        return request

    def _require_member(self, index: int) -> None:
        if index not in self.owner_of:
            raise InvalidInput(f"index {index} is not a registered member")

    def _lowest_empty_index(self) -> Optional[int]:
        return next((i for i in range(self.params.capacity) if i not in self.owner_of), None)

    def _check_account_proof(self, index: int, account: Account,
                             proof: MerkleProof) -> None:
        if (account.index != index or proof_index(proof) != index
                or proof.leaf != leaf_hash(account)
                or len(proof.path) != self.params.depth
                or not verify_proof(self.state_root, proof)):
            raise InvalidProof(f"account proof for index {index} does not match "
                               "the current state root")


# -- shared tree updates (contract reducer, node sync, slash building) ---------


def flagged_indices(bits: int) -> list:
    """Leaf indices whose bit is set, ascending."""
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def apply_slash_transfer(tree: StateTree, agg_index: int, val_index: int) -> None:
    """Move the victim's whole balance to the aggregator."""
    victim = tree.credit(val_index, -tree.account(val_index).balance)
    tree.credit(agg_index, victim.balance)


def apply_event_to_tree(tree: StateTree, event: Event) -> None:
    """Account-state effect of one event; used by the reducer and node sync."""
    p = event.payload
    if event.kind == REGISTERED or event.kind == REPLACED:
        tree.set_account(p["index"], Account(p["index"],
                                             Point(p["pubkey_x"], p["pubkey_y"]),
                                             p["stake"]))
    elif event.kind == WITHDRAWN:
        tree.set_account(p["index"], empty_account(p["index"]))
    elif event.kind == BLOCK_SUBMITTED:
        tree.credit(p["agg_index"], AGG_REWARD)
        for index in flagged_indices(p["validator_bits"]):
            tree.credit(index, VAL_REWARD)
    elif event.kind == SLASHED:
        apply_slash_transfer(tree, p["agg_index"], p["val_index"])


# -- replay and audit ------------------------------------------------------------


def replay(events, params: Params = Params()) -> Contract:
    """Rebuild a contract by feeding its event log to the contract's reducer;
    raises CorruptLog on a seq gap, an unknown kind, time running backwards
    or an event the contract would not have accepted."""
    contract = Contract(params)
    for event in events:
        _replay_event(contract, event)
    return contract


def _replay_event(contract: Contract, event: Event) -> None:
    if event.seq != len(contract.events):
        raise CorruptLog(f"expected seq {len(contract.events)}, found {event.seq}")
    if event.kind not in EVENT_KINDS:
        raise CorruptLog(f"unknown event kind {event.kind!r}")
    if event.time < contract.now:
        raise CorruptLog(f"event {event.seq}: time moves backwards")
    try:
        contract._apply(event)
    except OracleError as exc:
        raise CorruptLog(f"event {event.seq} ({event.kind}): {exc}") from None


def conservation_trace(contract: Contract) -> list:
    """Replay the log event by event: after each, the staked total must equal
    the net flows the events declare, and at the end the escrow must equal
    fees minus rewards and the replayed root the live one."""
    problems = []
    fee = contract.params.request_fee  # what one submission pays out
    rebuilt = Contract(contract.params)
    staked = escrow = 0
    for event in contract.events:
        try:
            _replay_event(rebuilt, event)
        except CorruptLog as exc:
            return problems + [f"replay failed: {exc}"]
        p = event.payload
        rewards = fee if event.kind == BLOCK_SUBMITTED else 0
        # stakes in, displaced stakes and withdrawals out, rewards in
        staked += p.get("stake", 0) - p.get("returned", 0) - p.get("amount", 0) + rewards
        escrow += p.get("fee", 0) - rewards
        if rebuilt.total_staked() != staked:
            # a slash that failed to conserve would surface here as well
            problems.append(f"after event {event.seq} ({event.kind}): tree total "
                            f"{rebuilt.total_staked()} != flow total {staked}")
    if contract.escrow != escrow:
        problems.append(f"escrow {contract.escrow} != fees minus rewards {escrow}")
    if rebuilt.state_root != contract.state_root:
        problems.append("replayed root differs from the live root")
    return problems


# -- event log text format ----------------------------------------------------

PARAMS_HEADER = "# params"

_JOINED = dict(index=int, owner=str, ip=str, pubkey_x=int, pubkey_y=int, stake=int)
# Every field of every log line with its type, keyed by event kind; the
# params header is keyed by PARAMS_HEADER and lists its fields in line order.
# The header states Params' constants too, and they must read as this build's.
LOG_FIELDS = {
    PARAMS_HEADER: dict(depth=int, min_stake=int, val_reward=int, agg_reward=int,
                        exit_delay=int, aggregator_mode=str),
    REGISTERED: _JOINED,
    REPLACED: dict(_JOINED, displaced_owner=str, returned=int),
    EXITED: dict(index=int, exit_time=float),
    WITHDRAWN: dict(index=int, owner=str, amount=int),
    BLOCK_REQUESTED: dict(request_id=int, block_number=int, fee=int, client=str),
    BLOCK_SUBMITTED: dict(request_id=int, agg_index=int, block_hash=int,
                          validator_bits=int, post_state_root=int),
    SLASHED: dict(request_id=int, agg_index=int, val_index=int, post_state_root=int),
    AGGREGATOR_TIMEOUT: dict(index=int),
}


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


_DECODERS = {int: int, float: _finite_float, str: str}


def _reads_back(field_type: type, value) -> bool:
    """Whether the log writes the value as one bare token, free of
    whitespace (the field and line separators) and '=', that the field's
    decoder reads back as an equal value.  So an int field takes only an int,
    a float field a finite int or float, and a str field a string."""
    try:
        text = str(value)  # ValueError: an int too long to write
        return not any(c.isspace() or c == "=" for c in text) \
            and _DECODERS[field_type](text) == value
    except ValueError:
        return False


def dump_events(events) -> str:
    """Line per event: seq kind time key=value..., keys sorted, decimal ints."""
    lines = []
    for e in events:
        parts = [str(e.seq), e.kind, repr(e.time)]
        for key in sorted(e.payload):
            parts.append(f"{key}={e.payload[key]}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def dump_log(contract: Contract) -> str:
    """Event log with a leading '# params' line so replay is self-contained."""
    header = " ".join([PARAMS_HEADER] + [f"{key}={getattr(contract.params, key)}"
                                         for key in LOG_FIELDS[PARAMS_HEADER]])
    return header + "\n" + dump_events(contract.events)


def parse_log(text: str):
    """Inverse of dump_log: returns (params, events)."""
    params = Params()
    lines = text.splitlines()
    if lines and lines[0].startswith(PARAMS_HEADER + " "):
        items = lines[0][len(PARAMS_HEADER) + 1:].split(" ")
        header = _parse_fields(items, PARAMS_HEADER, "params header")
        params = Params(**{f.name: header.pop(f.name) for f in fields(Params)})
        for key, value in header.items():
            if value != getattr(Params, key):
                raise CorruptLog(f"params header: {key}={value} differs from the "
                                 f"constant {getattr(Params, key)}")
        if not 1 <= params.depth <= MAX_LOG_DEPTH:
            raise CorruptLog(f"params header: depth {params.depth} outside "
                             f"[1, {MAX_LOG_DEPTH}]")
        lines = lines[1:]
    return params, parse_events("\n".join(lines))


def parse_events(text: str):
    """Inverse of dump_events; every line must carry exactly the fields
    LOG_FIELDS lists for its kind, each of its listed type."""
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(" ")
        where = f"line {lineno}"
        if len(parts) < 3 or parts[1] not in EVENT_KINDS:
            raise CorruptLog(f"{where}: not an event record")
        try:
            seq = int(parts[0])
            time = _finite_float(parts[2])
        except ValueError as exc:
            raise CorruptLog(f"{where}: {exc}") from None
        events.append(Event(seq, time, parts[1],
                            _parse_fields(parts[3:], parts[1], where)))
    return events


def _parse_fields(items, kind: str, where: str) -> dict:
    types = LOG_FIELDS[kind]
    values = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or key not in types or key in values:
            raise CorruptLog(f"{where}: unexpected field {item!r}")
        try:
            values[key] = _DECODERS[types[key]](raw)
        except ValueError:
            raise CorruptLog(f"{where}: {key}={raw!r} is not "
                             f"{types[key].__name__}") from None
    if values.keys() != types.keys():
        raise CorruptLog(f"{where}: expected the fields {sorted(types)}")
    return values
