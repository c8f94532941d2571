"""Simulation harness tests: chain, bus, scenarios, determinism."""

import collections
import dataclasses
import random
import re

import pytest

from zkoracle import circuits, eddsa
from zkoracle.cli import bundled_scenarios
from zkoracle.contract import dump_events
from zkoracle.errors import ConfigError
from zkoracle.simnet import (MessageBus, MockChain, ScenarioConfig, run_scenario,
                             verify_run)


# -- mock chain --------------------------------------------------------------


def test_chain_advance_and_hash_links():
    chain = MockChain(random.Random(1))
    chain.advance(5)
    assert chain.tip == 5
    for n in range(1, 6):
        assert chain.block_at(n).parent == chain.block_at(n - 1).hash


def test_chain_advance_zero_is_noop():
    chain = MockChain(random.Random(2))
    chain.advance(3)
    tip_block = chain.block_at(chain.tip)
    chain.advance(0)
    assert chain.block_at(chain.tip) == tip_block


def test_fork_overtake_reorgs():
    chain = MockChain(random.Random(3))
    chain.advance(10)
    old_tip = chain.block_at(10)
    chain.advance(0, fork_spec=(9, 2))  # branch from 9, two blocks: 10', 11'
    assert chain.tip == 11
    assert chain.block_at(10) != old_tip
    assert chain.block_at(9).hash == chain.block_at(10).parent


def test_short_fork_stays_side_branch():
    chain = MockChain(random.Random(4))
    chain.advance(10)
    canonical_9 = chain.block_at(9)
    chain.advance(0, fork_spec=(8, 1))  # branch tip 9 < canonical tip 10
    assert chain.tip == 10
    assert chain.block_at(9) == canonical_9
    # the side branch was kept: two more blocks on it (9', 10', 11') overtake
    chain.advance(0, fork_spec=(8, 2))
    assert chain.tip == 11
    assert chain.block_at(9) != canonical_9


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
    bound = config.committee * config.t_agg
    assert all(r.latency is not None and r.latency <= bound for r in m.rows)
    # rounds led by the offline node resolve only after its timeout
    assert any(r.latency >= config.t_agg for r in m.rows)
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


def test_multiple_requests_per_round():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=3, seed=34,
                                      requests_per_round=2))
    m = run.metrics
    assert len(m.rows) == 6
    assert m.answered == 6
    assert [r.request_id for r in m.rows] == list(range(6))
    # both requests of a round target the same block
    assert m.rows[0].block_number == m.rows[1].block_number
    assert verify_run(run) == []


def test_configured_stakes_apply():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=0, seed=35,
                                      stakes=[100, 250, 333, 404]))
    assert run.metrics.final_balances == {0: 100, 1: 250, 2: 333, 3: 404}


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
    secrets = {str(node.keypair.sk).encode() for node in run.nodes}
    for _, payload in payloads:
        assert not secrets & set(re.findall(rb"\d+", payload))
