"""Deterministic discrete-event harness for whole-protocol scenarios.

A single logical clock drives everything: one seeded RNG feeds the mock
source chain and the message bus, the event queue breaks time ties by
insertion order, and node handlers run sequentially at their scheduled
times.  The same (config, seed) therefore always produces byte-identical
metrics and event logs.
"""

import heapq
import json
import math
import random
from dataclasses import dataclass, field, fields
from typing import Optional

from . import eddsa
from .contract import MAX_LOG_DEPTH, MIN_STAKE, Contract, Params, conservation_trace
from .errors import ConfigError
from .field import P
from .mimc import mimc_hash
from .nodes import FINALITY, OracleNode, make_vote

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
    parent: int


class MockChain:
    """Toy source chain: one branch of hash-linked blocks that only grows, so
    a block that is final stays final."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.blocks = [self._mint(0, 0)]

    def _mint(self, number: int, parent_hash: int) -> Block:
        nonce = self.rng.getrandbits(64)
        return Block(number, mimc_hash([number, parent_hash, nonce]), parent_hash)

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
    answered: bool
    correct: bool
    latency: Optional[float]
    votes_received: int
    slashes: int
    aggregation_constraints: int
    slash_constraints: int


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
    contract.set_time(clock)
    block_number = chain.tip - FINALITY
    expected = chain.block_at(block_number).hash
    request_id = contract.request_block("client-0", block_number,
                                        contract.params.request_fee)
    issue_time = clock

    plans = {}
    for node in nodes:
        node.sync(contract.events)
        answer = node.answer(block_number, chain)
        plans[node.index] = _behavior_plan(behavior[node.index], node, answer,
                                           request_id, round_index)

    heap = []
    counter = 0
    node_at_ip = {contract.ip_of[n.index]: n for n in nodes}

    def solicit(agg_index: int, at: float):
        # validators resolve the destination through the registered IP
        nonlocal counter
        target = node_at_ip[contract.ip_of[agg_index]]
        for node in nodes:
            for vote in plans[node.index]:
                when = bus.deliver(node.index, target.index, at)
                if when is not None:
                    heapq.heappush(heap, (when, counter, "vote",
                                          (target.index, vote)))
                    counter += 1

    attempts = 0
    max_attempts = len(contract.occupied_indices())
    solicit(contract.get_aggregator(), clock)
    heapq.heappush(heap, (issue_time + T_AGG, counter, "timeout", None))
    counter += 1

    answered = False
    answer_time = None
    answer_agg = None
    settle_time = clock
    votes_received = 0
    slashes = 0
    agg_constraints = 0
    slash_constraints = 0

    while heap:
        at, _, kind, data = heapq.heappop(heap)
        if kind == "vote":
            agg_index, vote = data
            if answered:
                # the round's aggregator keeps listening so late dissents
                # still land in its mempool before it issues the slashes
                if agg_index == answer_agg:
                    nodes[agg_index].on_vote(vote)
                    settle_time = max(settle_time, at)
                continue
            if agg_index != contract.get_aggregator():
                continue  # stale delivery to a rotated-out aggregator
            node = nodes[agg_index]
            if behavior[agg_index] == OFFLINE_AGGREGATOR:
                continue  # ignores its aggregation duty; timeout will fire
            node.sync(contract.events)
            node.on_vote(vote)
            submission = node.try_submit(request_id)
            if submission is None:
                continue
            contract.set_time(at)
            contract.submit_block(node.name, request_id, submission.block_hash,
                                  submission.validator_bits,
                                  submission.post_state_root, submission.proof)
            answered = True
            answer_time = at
            answer_agg = agg_index
            settle_time = at
            agg_constraints = submission.constraint_count
        elif not answered:  # timeout on a still-pending request
            contract.set_time(at)
            contract.timeout_aggregator()
            attempts += 1
            if attempts >= max_attempts:
                break
            solicit(contract.get_aggregator(), at)
            heapq.heappush(heap, (issue_time + (attempts + 1) * T_AGG,
                                  counter, "timeout", None))
            counter += 1

    if answered:
        node = nodes[answer_agg]
        votes_received = node.mempool.count(request_id)
        contract.set_time(settle_time)
        node.sync(contract.events)
        answer_hash = contract.requests[request_id].answer_hash
        for action in node.build_slashes(request_id, answer_hash):
            contract.slash(node.name, action.request_id, action.val_index,
                           action.post_state_root, action.proof)
            slashes += 1
            slash_constraints += action.constraint_count
        clock = settle_time
    else:
        clock = max(clock, issue_time + attempts * T_AGG)

    record = RoundRecord(
        round=round_index,
        request_id=request_id,
        block_number=block_number,
        answered=answered,
        correct=answered and contract.requests[request_id].answer_hash == expected,
        latency=(answer_time - issue_time) if answered else None,
        votes_received=votes_received,
        slashes=slashes,
        aggregation_constraints=agg_constraints,
        slash_constraints=slash_constraints,
    )
    return record, clock


# -- post-run verification (used by the CLI and the test suite) -----------------


def verify_run(run: ScenarioRun) -> list:
    """Conservation, replayability and the scenario's safety expectation.

    Returns a list of human-readable violations; empty means the run holds.
    """
    contract = run.contract
    problems = conservation_trace(contract)
    for node in run.nodes:
        node.sync(contract.events)
        if node.local_tree.root != contract.state_root:
            problems.append(f"{node.name} local root diverges after sync")

    if run.config.expect_violation:
        if run.metrics.safety_violations == 0:
            problems.append("attack scenario did not demonstrate a violation")
    elif run.metrics.safety_violations:
        problems.append(f"{run.metrics.safety_violations} wrong answers accepted")
    return problems
