"""Simulation harness tests: chain, bus, scenarios, determinism."""

import collections
import dataclasses
import hashlib
import json
import random
import sys

import pytest

from helpers import payload_words
from zkoracle import circuits, eddsa, simnet
from zkoracle.circuits import WORD
from zkoracle.cli import bundled_scenarios, main
from zkoracle.contract import dump_events, dump_log
from zkoracle.merkle import Account, dump_snapshot
from zkoracle.mimc import mimc_hash
from zkoracle.nodes import OracleNode
from zkoracle.errors import ConfigError
from zkoracle.simnet import (T_AGG, MessageBus, MockChain, ScenarioConfig,
                             run_scenario, verify_run)


# -- mock chain --------------------------------------------------------------


def test_chain_advance_and_hash_links():
    chain = MockChain(random.Random(1))
    chain.advance(5)
    assert chain.tip == 5
    # each block hashes in its parent's hash, under the nonces the chain's rng draws
    nonces = random.Random(1)
    parent_hash = 0
    for n in range(6):
        block = chain.block_at(n)
        assert block.hash == mimc_hash([n, parent_hash, nonces.getrandbits(64)])
        parent_hash = block.hash


def test_chain_advance_zero_is_noop():
    chain = MockChain(random.Random(2))
    chain.advance(3)
    tip_block = chain.block_at(chain.tip)
    chain.advance(0)
    assert chain.block_at(chain.tip) == tip_block






# -- message bus --------------------------------------------------------------


def test_bus_zero_delay_zero_drop():
    bus = MessageBus(random.Random(5), max_delay=0.0, drop_rate=0.0)
    assert [bus.deliver(1, 2, 10.0), bus.deliver(2, 3, 10.0)] == [10.0, 10.0]


def test_bus_full_drop():
    bus = MessageBus(random.Random(6), max_delay=0.1, drop_rate=1.0)
    assert [bus.deliver(1, 2, 0.0) for _ in range(10)] == [None] * 10
    # self-delivery bypasses the network entirely
    assert bus.deliver(4, 4, 3.0) == 3.0


def test_bus_deterministic_given_seed():
    msgs = [(i % 3, 7, float(i)) for i in range(20)]
    a, b = (MessageBus(random.Random(9), 0.5, 0.2) for _ in range(2))
    assert [a.deliver(*m) for m in msgs] == [b.deliver(*m) for m in msgs]


def test_bus_fifo_per_pair():
    bus = MessageBus(random.Random(10), max_delay=1.0, drop_rate=0.0)
    times = [bus.deliver(1, 2, 0.0) for _ in range(50)]
    assert times == sorted(times)


# -- scenario configs -----------------------------------------------------------


def test_config_json_roundtrip():
    config = ScenarioConfig(name="x", depth=3, committee=8, rounds=7,
                            adversaries={6: "zero_vote"}, drop_rate=0.2, seed=3)
    text = ('{"name": "x", "depth": 3, "committee": 8, "rounds": 7,'
            ' "adversaries": {"6": "zero_vote"}, "drop_rate": 0.2, "seed": 3}')
    assert ScenarioConfig.from_json(text) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json('{"depth": 2, "bogus": 1}')
    with pytest.raises(ConfigError):  # round robin is the only rotation
        ScenarioConfig.from_json('{"depth": 2, "aggregator_mode": "round_robin"}')
    # one request per round, finality, the aggregator timeout and the stake
    # are constants of the simulation, so a config may not name them, even
    # at their constant values
    for key, value in (("requests_per_round", 1), ("finality", 6),
                       ("t_agg", 60.0), ("stakes", None)):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json(json.dumps({"depth": 2, key: value}))


def test_config_fields_are_the_settings_scenarios_vary():
    assert [f.name for f in dataclasses.fields(ScenarioConfig)] == [
        "name", "depth", "committee", "rounds", "adversaries", "drop_rate",
        "max_delay", "seed", "expect_violation"]


# a valid config, and single values of the wrong type or outside their range
VALID_CONFIG = {"name": "x", "depth": 2, "committee": 4, "rounds": 2, "seed": 3,
                "adversaries": {}, "drop_rate": 0.0, "max_delay": 0.05,
                "expect_violation": False}
ILL_TYPED = (
    ("expect_violation", "no"), ("expect_violation", 0), ("rounds", 1.5),
    ("rounds", True), ("committee", "4"), ("depth", False), ("seed", 11.0),
    ("max_delay", float("nan")), ("drop_rate", float("inf")),
    ("max_delay", "0.05"), ("drop_rate", True), ("name", 5), ("depth", 0),
    ("depth", 17), ("depth", 40), ("adversaries", ["zero_vote"]),
    ("adversaries", {"0_1": "zero_vote"}), ("adversaries", {" 1": "zero_vote"}),
)


def test_config_rejects_ill_typed_values(tmp_path):
    ScenarioConfig.from_json(json.dumps(VALID_CONFIG))
    path = tmp_path / "config.json"
    for key, value in ILL_TYPED:
        text = json.dumps(dict(VALID_CONFIG, **{key: value}))
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json(text)
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    # a literal too long to convert and nesting too deep to parse
    for text in ('{"rounds": ' + "1" * 5000 + "}", '{"name": ' + "[" * 100000 + "}"):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json(text)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ScenarioConfig(committee=5, depth=2).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(drop_rate=1.5).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(adversaries={0: "bogus"}).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(adversaries={9: "zero_vote"}).validate()


def test_config_dissenter_majority_needs_label():
    adversaries = {1: "wrong_hash", 2: "wrong_hash", 3: "wrong_hash"}
    with pytest.raises(ConfigError):
        ScenarioConfig(adversaries=adversaries).validate()
    ScenarioConfig(adversaries=adversaries, expect_violation=True).validate()


# -- scenarios -------------------------------------------------------------------


def test_all_honest_scenario():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=10, seed=21))
    m = run.metrics
    assert m.answered == 10
    assert m.safety_violations == 0
    assert sum(r.slashes for r in m.rows) == 0
    assert verify_run(run) == []
    # every round rewards the three lowest-index voters plus the aggregator
    total_rewards = 10 * (50 + 3 * 10)
    assert sum(m.final_balances.values()) == 4 * 100 + total_rewards


def test_wronghash_adversary_slashed_first_round():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=6, seed=22,
                                      adversaries={3: "wrong_hash"}))
    m = run.metrics
    assert m.safety_violations == 0
    assert m.answered == 6
    assert m.final_balances[3] == 0
    assert m.rows[0].slashes == 1
    assert verify_run(run) == []


def test_offline_aggregator_liveness():
    config = ScenarioConfig(depth=2, committee=4, rounds=8, seed=23,
                            adversaries={0: "offline_aggregator"})
    run = run_scenario(config)
    m = run.metrics
    assert m.answered == 8
    assert m.liveness_stalls == 0
    bound = config.committee * T_AGG
    assert all(r.latency is not None and r.latency <= bound for r in m.rows)
    # rounds led by the offline node resolve only after its timeout
    assert any(r.latency >= T_AGG for r in m.rows)
    assert verify_run(run) == []


def test_attack_scenario_violates_safety():
    run = run_scenario(ScenarioConfig(
        depth=2, committee=4, rounds=3, seed=24, expect_violation=True,
        adversaries={1: "wrong_hash", 2: "wrong_hash", 3: "wrong_hash"}))
    assert run.metrics.safety_violations >= 1
    assert verify_run(run) == []


def test_equivocate_and_duplicate_behaviors():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=6, seed=25,
                                      adversaries={3: "equivocate"}))
    assert run.metrics.safety_violations == 0
    assert verify_run(run) == []
    # stored-wrong rounds produce slashes; stored-honest rounds do not
    assert 0 < sum(r.slashes for r in run.metrics.rows) < 6

    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=4, seed=26,
                                      adversaries={2: "duplicate_vote"}))
    assert run.metrics.safety_violations == 0
    assert sum(r.slashes for r in run.metrics.rows) == 0
    assert verify_run(run) == []


def test_a_lagging_view_abstains_and_is_not_slashed(monkeypatch):
    """Node 3 sees the chain one block behind, so no requested block is
    FINALITY deep in its view.  It signs nothing, the others answer, and it
    keeps its stake; before abstaining it signed 0 and was slashed."""
    real = OracleNode.answer

    class OneBehind:
        def __init__(self, chain):
            self.chain, self.tip = chain, chain.tip - 1

        def block_at(self, number):
            return self.chain.block_at(number) if number <= self.tip else None

    def answer(node, block_number, chain):
        return real(node, block_number, OneBehind(chain) if node.index == 3 else chain)

    monkeypatch.setattr(OracleNode, "answer", answer)
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=3, seed=5))
    m = run.metrics
    assert [r.slashes for r in m.rows] == [0, 0, 0]
    assert m.answered == 3 and m.safety_violations == 0
    assert m.final_balances[3] == 100
    assert verify_run(run) == []


# -- post-run verification ----------------------------------------------------


def _node_states(run):
    return [(node.last_seq, node.local_tree and dump_snapshot(node.local_tree))
            for node in run.nodes]


def test_only_nodes_that_synced_hold_a_tree():
    run = run_scenario(ScenarioConfig(depth=4, committee=16, rounds=3, seed=27))
    synced = [node.index for node in run.nodes if node.last_seq > 0]
    assert 0 < len(synced) < len(run.nodes)
    assert [node.index for node in run.nodes if node.local_tree is not None] == synced
    assert verify_run(run) == []
    assert [node.index for node in run.nodes if node.local_tree is not None] == synced


def test_verify_run_changes_no_node():
    run = run_scenario(ScenarioConfig(depth=4, committee=16, rounds=3, seed=27))
    # a never-synced node's state is (0, None): it holds no tree
    before = _node_states(run)
    aggregators = {e.payload["agg_index"] for e in run.contract.events
                   if e.kind == "BlockSubmitted"}
    assert {node.index for node in run.nodes if node.last_seq > 0} == aggregators
    problems = verify_run(run)
    assert problems == []
    assert _node_states(run) == before
    assert verify_run(run) == problems


def test_verify_run_reports_a_diverged_node():
    run = run_scenario(ScenarioConfig(depth=4, committee=16, rounds=3, seed=27))
    node = next(node for node in run.nodes if node.last_seq > 0)
    # later rewards add to this balance, so catching up keeps the difference
    account = node.local_tree.account(5)
    node.local_tree.set_account(5, dataclasses.replace(account,
                                                       balance=account.balance + 1))
    assert verify_run(run) == [f"{node.name} local root diverges after sync"]


def test_verify_run_catches_up_once_per_distinct_tree(monkeypatch):
    run = run_scenario(ScenarioConfig(depth=4, committee=16, rounds=3, seed=27))
    # the never-synced nodes, which hold no tree, share the key (0, None)
    distinct = {(node.last_seq, node.local_tree and node.local_tree.root)
                for node in run.nodes}
    calls = 0
    catch_up = simnet.catch_up

    def counting(tree, events, seq):
        nonlocal calls
        calls += 1
        return catch_up(tree, events, seq)

    monkeypatch.setattr(simnet, "catch_up", counting)
    assert verify_run(run) == []
    assert calls == len(distinct) < len(run.nodes)


def test_verify_run_reports_every_node_of_a_shared_tree():
    run = run_scenario(ScenarioConfig(depth=3, committee=5, rounds=1, seed=3))
    never_synced = [node for node in run.nodes if node.last_seq == 0]
    assert len(never_synced) == 4
    # two nodes synced to the same seq and edited alike share one catch-up;
    # both must be reported.  No event writes index 7, so catching up keeps
    # the edit
    registrations = run.contract.events[:len(run.nodes)]
    for node in never_synced[:2]:
        node.sync(registrations)
        node.local_tree.set_account(7, Account(7, never_synced[0].keypair.pk, 1))
    assert verify_run(run) == [f"{node.name} local root diverges after sync"
                               for node in never_synced[:2]]


def test_only_votes_sent_are_signed(monkeypatch):
    # one node of each adversary kind: every node signs the one vote it sends
    # (a duplicate voter sends the same vote twice), the equivocator two
    signed = collections.Counter()
    sign = eddsa.sign

    def counting(sk, msg):
        signed[sk] += 1
        return sign(sk, msg)

    monkeypatch.setattr(eddsa, "sign", counting)
    rounds = 2
    run = run_scenario(ScenarioConfig(
        depth=4, committee=16, rounds=rounds, seed=36,
        adversaries={0: "offline_aggregator", 3: "duplicate_vote",
                     6: "wrong_hash", 9: "equivocate", 12: "zero_vote"}))
    assert signed == {node.keypair.sk: rounds * (2 if node.index == 9 else 1)
                      for node in run.nodes}
    assert sum(signed.values()) == 17 * rounds


def test_total_drop_stalls_liveness():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=2, seed=27,
                                      drop_rate=1.0))
    assert run.metrics.answered == 0
    assert run.metrics.liveness_stalls == 2


def test_drop_with_retries_recovers():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=10, seed=28,
                                      drop_rate=0.3))
    assert run.metrics.safety_violations == 0
    assert run.metrics.answered >= 7
    assert verify_run(run) == []


def test_determinism_byte_identical():
    config_text = ('{"depth": 2, "committee": 4, "rounds": 5, "seed": 31,'
                   ' "adversaries": {"3": "zero_vote"}, "drop_rate": 0.2}')
    outputs = []
    for _ in range(2):
        run = run_scenario(ScenarioConfig.from_json(config_text))
        outputs.append((run.metrics.to_csv(), dump_events(run.contract.events)))
    assert outputs[0] == outputs[1]


def test_different_seed_changes_outcome():
    a = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=3, seed=1))
    b = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=3, seed=2))
    assert a.contract.state_root != b.contract.state_root






def test_verified_proofs_carry_no_secret_key(monkeypatch):
    # a transparent proof publishes its witness, so no secret may ride in it
    payloads = []
    verify = circuits.TransparentBackend.verify

    def recording(backend, circuit_id, public, proof):
        payloads.append((circuit_id, proof.payload))
        return verify(backend, circuit_id, public, proof)

    monkeypatch.setattr(circuits.TransparentBackend, "verify", recording)
    config = dataclasses.replace(bundled_scenarios()["safety_wrong_hash_n4"], rounds=3)
    run = run_scenario(config)
    assert {circuit_id for circuit_id, _ in payloads} == {"aggregation", "slash"}
    secrets = {node.keypair.sk for node in run.nodes}
    for _, payload in payloads:
        assert not secrets & set(payload_words(payload))
        assert not any(sk.to_bytes(WORD, "big") in payload for sk in secrets)


# sha256 of metrics.csv + events.log + tree.snapshot for configs whose votes
# can miss a deadline (max_delay > T_AGG), meet an offline aggregator, drop,
# or find no majority at all (a committee of one); every bundled scenario
# delivers within 0.05 s, so its golden bytes exercise none of these paths
LATE_VOTE_DIGESTS = (
    (dict(depth=2, committee=4, rounds=6, seed=41, max_delay=90.0,
          adversaries={3: "wrong_hash"}),
     "d1e39962d9171315cf7fbe38c3567bb1ae5765a82016417efe3eb514cd7c8729"),
    (dict(depth=3, committee=8, rounds=5, seed=42, max_delay=200.0, drop_rate=0.3,
          adversaries={0: "offline_aggregator", 5: "equivocate"}),
     "1afed80c6aa4141fa57dc320e4bf76cf5904854969be12d76ecd901785abea7a"),
    (dict(depth=1, committee=1, rounds=3, seed=43, max_delay=90.0),
     "d04d9044327f16230c799c27e521aa52855415bdfc71d5f5a0c3b0ee8b2d95bd"),
    (dict(depth=2, committee=4, rounds=6, seed=44, max_delay=200.0, drop_rate=0.4,
          adversaries={1: "offline_aggregator", 2: "zero_vote"}),
     "3e9f12ba877d73c5032ba30b73d8c0bd1dcff75cdead1385662a2d865707f3db"),
)


def test_late_votes_timeouts_and_drops_keep_their_bytes():
    runs = [run_scenario(ScenarioConfig(**settings)) for settings, _ in LATE_VOTE_DIGESTS]
    for run, (settings, expected) in zip(runs, LATE_VOTE_DIGESTS):
        text = (run.metrics.to_csv() + dump_log(run.contract)
                + dump_snapshot(run.contract.tree_snapshot()))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, settings
        assert verify_run(run) == []
    # the first config answers after timeouts and stalls once, and its
    # dissenter is slashed in every answered round
    rows = runs[0].metrics.rows
    assert any(r.latency > T_AGG for r in rows if r.answered)
    assert any(not r.answered for r in rows)
    assert all(r.slashes == 1 for r in rows if r.answered)


def test_each_circuit_runs_once_per_contract_verification(monkeypatch):
    # the prover does not re-run its own circuit; only verification does
    config = dataclasses.replace(bundled_scenarios()["safety_wrong_hash_n4"], rounds=3)
    for circuit in ("aggregation", "slash"):  # a process reads each count once
        circuits.constraint_count(circuit, config.depth)
    runs = collections.Counter()
    for name in ("check_aggregation", "check_slash"):
        original = getattr(circuits, name)

        def counting(public, witness, name=name, original=original):
            runs[name] += 1
            return original(public, witness)

        # every zkoracle module that binds the function, under any name
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "zkoracle":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    verified = collections.Counter()
    verify = circuits.TransparentBackend.verify

    def recording(backend, circuit_id, public, proof):
        verified[circuit_id] += 1
        return verify(backend, circuit_id, public, proof)

    monkeypatch.setattr(circuits.TransparentBackend, "verify", recording)
    run_scenario(config)
    assert verified["aggregation"] > 0 and verified["slash"] > 0
    assert runs == {"check_aggregation": verified["aggregation"],
                    "check_slash": verified["slash"]}
