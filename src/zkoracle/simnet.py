"""Deterministic harness for whole-protocol scenarios.

A single logical clock drives everything, and one seeded RNG feeds the mock
source chain and the message bus.  A request is a loop over aggregator
attempts that never overlap: each attempt's votes go to that attempt's
aggregator, which hears them in arrival order, ties in send order, until it
submits or its deadline passes.  The same (config, seed) therefore always
produces byte-identical metrics and event logs.  A node syncs only when it
aggregates, and its tree is made at its first sync, so only the nodes that
aggregated hold a tree at all.  verify_run checks a finished run without
changing it: it catches up a copy of one node's tree, or a fresh tree for the
nodes that never synced, per distinct (last_seq, local root) pair.
"""

import json
import math
import random
from dataclasses import dataclass, field, fields
from typing import Optional

from . import eddsa
from .circuits import AGGREGATION, SLASH, constraint_count
from .contract import MAX_LOG_DEPTH, MIN_STAKE, Contract, Params, conservation_trace
from .errors import ConfigError
from .field import P
from .merkle import EMPTY_NODES, StateTree
from .mimc import mimc_hash
from .nodes import FINALITY, OracleNode, catch_up, make_vote

HONEST = "honest"
WRONG_HASH = "wrong_hash"
ZERO_VOTE = "zero_vote"
EQUIVOCATE = "equivocate"
DUPLICATE_VOTE = "duplicate_vote"
OFFLINE_AGGREGATOR = "offline_aggregator"

BEHAVIORS = (HONEST, WRONG_HASH, ZERO_VOTE, EQUIVOCATE, DUPLICATE_VOTE,
             OFFLINE_AGGREGATOR)
# behaviors that can put a wrong hash on the wire
_DISSENTING = (WRONG_HASH, ZERO_VOTE, EQUIVOCATE)

T_AGG = 60.0  # seconds an aggregator has before anyone may time it out


# -- mock source blockchain ----------------------------------------------------


@dataclass(frozen=True)
class Block:
    number: int
    hash: int


class MockChain:
    """Toy source chain: one branch of hash-linked blocks that only grows, so
    a block that is final stays final."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.blocks = [self._mint(0, 0)]

    def _mint(self, number: int, parent_hash: int) -> Block:
        nonce = self.rng.getrandbits(64)
        return Block(number, mimc_hash([number, parent_hash, nonce]))

    @property
    def tip(self) -> int:
        return self.blocks[-1].number

    def block_at(self, number: int) -> Optional[Block]:
        if 0 <= number <= self.tip:
            return self.blocks[number]
        return None

    def advance(self, k: int) -> None:
        """Append k blocks."""
        for _ in range(k):
            self.blocks.append(self._mint(self.tip + 1, self.blocks[-1].hash))


# -- message bus ---------------------------------------------------------------


class MessageBus:
    """Seeded delay and drop; FIFO preserved per (src, dst) pair.

    Self-addressed messages are local calls: zero delay, never dropped.
    """

    def __init__(self, rng: random.Random, max_delay: float, drop_rate: float):
        self.rng = rng
        self.max_delay = max_delay
        self.drop_rate = drop_rate
        self._last = {}

    def deliver(self, src: int, dst: int, send_time: float) -> Optional[float]:
        if src == dst:
            return send_time
        if self.drop_rate > 0 and self.rng.random() < self.drop_rate:
            return None
        at = send_time + (self.rng.random() * self.max_delay if self.max_delay else 0.0)
        key = (src, dst)
        at = max(at, self._last.get(key, at))
        self._last[key] = at
        return at


# -- scenario configuration ----------------------------------------------------

@dataclass
class ScenarioConfig:
    name: str = "scenario"
    depth: int = 2
    committee: int = 4
    rounds: int = 10
    adversaries: dict = field(default_factory=dict)  # validator index -> behavior
    drop_rate: float = 0.0
    max_delay: float = 0.05
    seed: int = 0
    expect_violation: bool = False

    def params(self) -> Params:
        return Params(depth=self.depth)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # exact types (JSON true is no int), except that an int is a float
            if type(value) is not f.type and (f.type, type(value)) != (float, int):
                raise ConfigError(f"{f.name} must be of type {f.type.__name__}, "
                                  f"got {value!r}")
            if type(value) is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        # the event log's header admits no deeper tree
        if not 1 <= self.depth <= MAX_LOG_DEPTH:
            raise ConfigError(f"depth must be in [1, {MAX_LOG_DEPTH}]")
        p = self.params()
        if not 1 <= self.committee <= p.capacity:
            raise ConfigError(f"committee must be in [1, {p.capacity}]")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ConfigError("drop_rate must be in [0, 1]")
        if self.max_delay < 0:
            raise ConfigError("max_delay must be non-negative")
        dissenters = 0
        for index, behavior in self.adversaries.items():
            if type(index) is not int or not 0 <= index < self.committee:
                raise ConfigError(f"adversary index {index} outside committee")
            if behavior not in BEHAVIORS:
                raise ConfigError(f"unknown behavior {behavior!r}")
            if behavior in _DISSENTING:
                dissenters += 1
        if dissenters >= p.threshold and not self.expect_violation:
            raise ConfigError("that many dissenters can break safety; "
                              "label the scenario with expect_violation")

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            obj = json.loads(text)
        # ValueError also covers an integer literal too long to convert
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "adversaries" in obj:
            adversaries = obj["adversaries"]
            # int() would also read " 1", "0_1" and non-ASCII digits
            if type(adversaries) is not dict or not all(
                    k.isascii() and k.isdigit() for k in adversaries):
                raise ConfigError("adversaries must map decimal indices to behaviors")
            obj["adversaries"] = {int(k): v for k, v in adversaries.items()}
        config = cls(**obj)
        config.validate()
        return config


# -- metrics ---------------------------------------------------------------------


@dataclass
class RoundRecord:
    round: int
    request_id: int
    block_number: int
    # the defaults describe a request that no aggregator answered
    answered: bool = False
    correct: bool = False
    latency: Optional[float] = None
    votes_received: int = 0
    slashes: int = 0
    aggregation_constraints: int = 0
    slash_constraints: int = 0


CSV_HEADER = ("round,request_id,block_number,answered,correct,latency,"
              "votes_received,slashes,aggregation_constraints,slash_constraints")


@dataclass
class Metrics:
    rows: list
    safety_violations: int
    liveness_stalls: int
    answered: int
    final_balances: dict
    final_root: int
    escrow: int

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join([
                str(r.round), str(r.request_id), str(r.block_number),
                str(int(r.answered)), str(int(r.correct)),
                repr(r.latency) if r.latency is not None else "",
                str(r.votes_received), str(r.slashes),
                str(r.aggregation_constraints), str(r.slash_constraints),
            ]))
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "requests": len(self.rows),
            "answered": self.answered,
            "safety_violations": self.safety_violations,
            "liveness_stalls": self.liveness_stalls,
            "slashes": sum(r.slashes for r in self.rows),
            "final_root": str(self.final_root),
            "escrow": self.escrow,
            "final_balances": {str(k): v for k, v in sorted(self.final_balances.items())},
        }


@dataclass
class ScenarioRun:
    config: ScenarioConfig
    metrics: Metrics
    contract: Contract
    nodes: list


# -- scenario execution ------------------------------------------------------------


def _behavior_plan(behavior: str, node: OracleNode, answer: int, request_id: int,
                   round_index: int):
    """Votes a node puts on the wire, in send order; only these are signed."""
    def vote(block_hash):
        return make_vote(node.keypair.sk, node.index, request_id, block_hash)

    if behavior in (HONEST, OFFLINE_AGGREGATOR):
        return [vote(answer)]
    if behavior == DUPLICATE_VOTE:
        return [vote(answer)] * 2
    if behavior == WRONG_HASH:
        return [vote((answer + 1) % P)]
    if behavior == ZERO_VOTE:
        return [vote(0)]
    if behavior == EQUIVOCATE:
        honest, wrong = vote(answer), vote((answer + 1) % P)
        return [wrong, honest] if round_index % 2 == 0 else [honest, wrong]
    raise ConfigError(f"unknown behavior {behavior!r}")


def run_scenario(config: ScenarioConfig) -> ScenarioRun:
    """Execute every round to completion; deterministic for a given config."""
    config.validate()
    rng = random.Random(config.seed)
    chain = MockChain(random.Random(rng.getrandbits(64)))
    bus = MessageBus(random.Random(rng.getrandbits(64)), config.max_delay,
                     config.drop_rate)
    params = config.params()
    contract = Contract(params)

    nodes = []  # node i registers at index i of the fresh contract
    for i in range(config.committee):
        keypair = eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big"))
        node = OracleNode(f"node-{i}", keypair, params)
        node.index = contract.register(node.name, keypair.pk, f"10.0.0.{i}", MIN_STAKE)
        nodes.append(node)

    behavior = {i: config.adversaries.get(i, HONEST) for i in range(config.committee)}
    chain.advance(FINALITY + 1)

    clock = 0.0
    rows = []
    for round_index in range(config.rounds):
        chain.advance(1)
        clock += 1.0
        record, clock = _run_request(round_index, clock, chain, bus, contract,
                                     nodes, behavior)
        rows.append(record)

    balances = {i: contract.account(i).balance for i in contract.occupied_indices()}
    metrics = Metrics(rows, sum(r.answered and not r.correct for r in rows),
                      sum(not r.answered for r in rows),
                      sum(r.answered for r in rows), balances,
                      contract.state_root, contract.escrow)
    return ScenarioRun(config, metrics, contract, nodes)


def _run_request(round_index, clock, chain, bus, contract, nodes, behavior):
    """One request, as a loop over aggregator attempts of T_AGG each.

    Attempt k starts at clock + k * T_AGG, when every node sends its planned
    votes to the current aggregator.  The aggregator hears them in arrival
    order (send order on ties) up to the attempt's deadline, and tries to
    submit after each one.  Once it has submitted it also hears the later
    arrivals, so that late dissents reach its slashes.  An attempt without a
    submission ends in a timeout, and the next attempt solicits the successor.
    """
    contract.set_time(clock)
    block_number = chain.tip - FINALITY
    expected = chain.block_at(block_number).hash
    request_id = contract.request_block("client-0", block_number,
                                        contract.params.request_fee)
    plans = []
    # answers read only the chain; a node syncs its tree when it aggregates,
    # and plans no vote when its view cannot decide
    for node in nodes:
        answer = node.answer(block_number, chain)
        plans.append([] if answer is None else
                     _behavior_plan(behavior[node.index], node, answer, request_id,
                                    round_index))
    node_at_ip = {contract.ip_of[n.index]: n for n in nodes}

    submission = None
    for attempt in range(len(contract.owner_of)):
        sent = clock + attempt * T_AGG
        # not sent + T_AGG, which can round one ulp apart in the logged times
        deadline = clock + (attempt + 1) * T_AGG
        # validators resolve the aggregator through its registered IP
        aggregator = node_at_ip[contract.ip_of[contract.get_aggregator()]]
        arrivals = []
        for node, plan in zip(nodes, plans):
            for vote in plan:
                at = bus.deliver(node.index, aggregator.index, sent)
                if at is not None:
                    arrivals.append((at, len(arrivals), vote))
        if behavior[aggregator.index] == OFFLINE_AGGREGATOR:
            arrivals = []  # it ignores its aggregation duty
        aggregator.sync(contract.events)
        for at, _, vote in sorted(arrivals):
            if submission is None and at > deadline:
                break
            aggregator.on_vote(vote)
            settle_time = at
            if submission is None:
                submission = aggregator.try_submit(request_id)
                if submission is not None:
                    public, proof = submission
                    answer_time = at
                    contract.set_time(at)
                    contract.submit_block(aggregator.name, request_id, public.block_hash,
                                          public.validator_bits, public.post_state_root, proof)
        if submission is not None:
            break
        contract.set_time(deadline)
        contract.timeout_aggregator()
        aggregator.votes.pop(request_id, None)  # it never answers this request
    else:
        return RoundRecord(round_index, request_id, block_number), deadline

    votes_received = len(aggregator.votes[request_id])
    contract.set_time(settle_time)
    aggregator.sync(contract.events)
    answer_hash = contract.requests[request_id].answer_hash
    slashes = aggregator.build_slashes(request_id, answer_hash)
    for public, proof in slashes:
        contract.slash(aggregator.name, request_id, public.val_index,
                       public.post_state_root, proof)
    depth = contract.params.depth
    record = RoundRecord(
        round_index, request_id, block_number, answered=True,
        correct=answer_hash == expected, latency=answer_time - clock,
        votes_received=votes_received, slashes=len(slashes),
        aggregation_constraints=constraint_count(AGGREGATION, depth),
        slash_constraints=len(slashes) * constraint_count(SLASH, depth))
    return record, settle_time


# -- post-run verification (used by the CLI and the test suite) -----------------


def verify_run(run: ScenarioRun) -> list:
    """Conservation, replayability and the scenario's safety expectation.

    Each node's tree, caught up from its own last_seq, must reach the
    contract root; a node that never synced holds no tree and stands for an
    empty one at seq 0.  Nodes with the same last_seq and local root reach
    the same tree, so one catch-up per distinct pair decides for all of them;
    at n256 the 255 nodes that never aggregated share one.  The catch-up runs
    on a copy, or on a fresh tree for a never-synced node, that is dropped
    before the next, so verify_run changes no node, gives none a tree, and a
    second call returns the same list.  Returns a list of
    human-readable violations; empty means the run holds.
    """
    contract = run.contract
    problems = conservation_trace(contract)
    reaches = {}  # (last_seq, local root) -> catching up reaches the contract root
    for node in run.nodes:
        synced = node.local_tree
        root = EMPTY_NODES[node.params.depth] if synced is None else synced.root
        key = (node.last_seq, root)
        if key not in reaches:
            tree = StateTree(node.params.depth) if synced is None else synced.copy()
            for _ in catch_up(tree, contract.events, node.last_seq):
                pass
            reaches[key] = tree.root == contract.state_root
        if not reaches[key]:
            problems.append(f"{node.name} local root diverges after sync")

    if run.config.expect_violation:
        if run.metrics.safety_violations == 0:
            problems.append("attack scenario did not demonstrate a violation")
    elif run.metrics.safety_violations:
        problems.append(f"{run.metrics.safety_violations} wrong answers accepted")
    return problems
