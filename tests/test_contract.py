"""Contract state machine tests: membership, requests, proof-gated updates,
slashing, event log replay."""

import copy
import inspect
import random
from dataclasses import fields, replace
from functools import cache

import pytest

from helpers import HOSTILE_VALUES, RefTree, honest_votes, hostile_payloads
from zkoracle import circuits, eddsa
from zkoracle.circuits import AGGREGATION, TRANSPARENT, build_aggregation_witness, prove
from zkoracle.contract import (MAX_BALANCE, SLASHED, Contract, Event, Params,
                               apply_slash_transfer, dump_events, dump_log, parse_events,
                               parse_log, replay)
from zkoracle.errors import (AlreadyExiting, AlreadySlashed, CommitteeFull,
                             CorruptLog, ExitTimeNotReached, FeeTooLow,
                             InsufficientStake, InvalidInput, InvalidProof,
                             NoCommittee, NotAggregator, NotExiting, NotOwner,
                             NotSlashable, OracleError, RequestNotPending, RequestPending,
                             StakeTooLow)
from zkoracle.field import P
from zkoracle.merkle import Account
from zkoracle.nodes import OracleNode, make_vote

P4 = Params(depth=2)


def fresh_keys(n, salt=0):
    return [eddsa.keygen((salt + i + 1).to_bytes(4, "big") * 8) for i in range(n)]


def register_all(contract, keys, stakes=None):
    indices = []
    for i, kp in enumerate(keys):
        stake = stakes[i] if stakes else contract.params.min_stake
        indices.append(contract.register(f"owner-{i}", kp.pk, f"10.0.0.{i}", stake))
    return indices


def answer_request(contract, keys, request_id, block_hash=777):
    """Drive one honest aggregation through the contract."""
    agg_index = contract.get_aggregator()
    t = contract.params.threshold
    votes = honest_votes(keys, range(t), request_id, block_hash)
    public, witness = build_aggregation_witness(
        contract.tree_snapshot(), agg_index, votes, request_id, block_hash)
    proof = prove("transparent", AGGREGATION, public, witness)
    contract.submit_block(contract.owner_of[agg_index], request_id, block_hash,
                          public.validator_bits, public.post_state_root, proof)
    return public


# -- register ------------------------------------------------------------------


def test_register_fills_lowest_slot():
    contract = Contract(P4)
    keys = fresh_keys(2)
    assert contract.register("a", keys[0].pk, "ip0", 100) == 0
    assert contract.register("b", keys[1].pk, "ip1", 150) == 1
    assert contract.owner_of == {0: "a", 1: "b"}
    assert contract.account(1).balance == 150


def test_register_minimum_stake():
    contract = Contract(P4)
    kp = fresh_keys(1)[0]
    with pytest.raises(InsufficientStake):
        contract.register("a", kp.pk, "ip", 99)
    contract.register("a", kp.pk, "ip", 100)


def test_register_committee_full():
    contract = Contract(P4)
    keys = fresh_keys(5)
    register_all(contract, keys[:4])
    with pytest.raises(CommitteeFull):
        contract.register("late", keys[4].pk, "ip", 1000)


def test_register_reuses_withdrawn_slot():
    contract = Contract(P4)
    keys = fresh_keys(3)
    register_all(contract, keys[:2])
    contract.exit("owner-0", contract.account(0), contract.prove(0))
    contract.set_time(contract.params.exit_delay)
    contract.withdraw("owner-0", contract.account(0), contract.prove(0))
    assert contract.register("c", keys[2].pk, "ip", 100) == 0


# -- replace ---------------------------------------------------------------------


def test_replace_requires_strictly_higher_stake():
    contract = Contract(P4)
    keys = fresh_keys(5)
    register_all(contract, keys[:4])
    newcomer = keys[4]

    target = contract.account(1)
    with pytest.raises(StakeTooLow):
        contract.replace("n", newcomer.pk, "ip", 100, 1, target, contract.prove(1))
    contract.replace("n", newcomer.pk, "ip", 101, 1, target, contract.prove(1))
    assert contract.owner_of[1] == "n"
    assert contract.account(1).balance == 101
    event = contract.events[-1]
    assert event.kind == "Replaced"
    assert event.payload["returned"] == 100
    assert event.payload["displaced_owner"] == "owner-1"


def test_replace_stale_proof_rejected():
    contract = Contract(P4)
    keys = fresh_keys(5)
    register_all(contract, keys[:4])
    target = contract.account(1)
    proof = contract.prove(1)
    # another leaf mutates first; the proof no longer matches the root
    contract.replace("x", keys[4].pk, "ip", 500, 2, contract.account(2),
                     contract.prove(2))
    with pytest.raises(InvalidProof):
        contract.replace("y", keys[4].pk, "ip", 500, 1, target, proof)


def test_replace_clears_exit_state():
    contract = Contract(P4)
    keys = fresh_keys(5)
    register_all(contract, keys[:4])
    contract.exit("owner-1", contract.account(1), contract.prove(1))
    contract.replace("n", keys[4].pk, "ip", 200, 1, contract.account(1),
                     contract.prove(1))
    assert 1 not in contract.exit_time_of


def test_replace_keeps_the_stake_floor():
    # index 3 is slashed to a balance of 0, so a stake of 1 exceeds it; the
    # floor still holds, as at register
    from zkoracle.simnet import ScenarioConfig, run_scenario
    contract = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=1, seed=1,
                                           adversaries={3: "wrong_hash"})).contract
    assert contract.account(3).balance == 0
    pk = fresh_keys(1, salt=9)[0].pk
    log = dump_log(contract)
    with pytest.raises(InsufficientStake):
        contract.replace("cheap", pk, "ip", 1, 3, contract.account(3), contract.prove(3))
    assert dump_log(contract) == log
    contract.replace("cheap", pk, "ip", contract.params.min_stake, 3, contract.account(3),
                     contract.prove(3))
    assert contract.owner_of[3] == "cheap"


# -- exit / withdraw ---------------------------------------------------------------


def test_exit_seven_days():
    contract = Contract(P4)
    keys = fresh_keys(1)
    register_all(contract, keys)
    exit_time = contract.exit("owner-0", contract.account(0), contract.prove(0))
    assert exit_time == 604800


def test_exit_not_owner():
    contract = Contract(P4)
    keys = fresh_keys(1)
    register_all(contract, keys)
    with pytest.raises(NotOwner):
        contract.exit("stranger", contract.account(0), contract.prove(0))


def test_exit_twice_rejected():
    contract = Contract(P4)
    keys = fresh_keys(1)
    register_all(contract, keys)
    contract.exit("owner-0", contract.account(0), contract.prove(0))
    with pytest.raises(AlreadyExiting):
        contract.exit("owner-0", contract.account(0), contract.prove(0))


def test_withdraw_timing_and_cleanup():
    contract = Contract(P4)
    keys = fresh_keys(1)
    register_all(contract, keys, stakes=[150])
    contract.exit("owner-0", contract.account(0), contract.prove(0))

    contract.set_time(604799)
    with pytest.raises(ExitTimeNotReached):
        contract.withdraw("owner-0", contract.account(0), contract.prove(0))

    contract.set_time(604800)
    amount = contract.withdraw("owner-0", contract.account(0), contract.prove(0))
    assert amount == 150
    assert contract.account(0).is_empty()
    assert 0 not in contract.owner_of
    with pytest.raises(NotExiting):
        contract.withdraw("owner-0", contract.account(0), contract.prove(0))


def test_withdraw_without_exit():
    contract = Contract(P4)
    keys = fresh_keys(1)
    register_all(contract, keys)
    with pytest.raises(NotExiting):
        contract.withdraw("owner-0", contract.account(0), contract.prove(0))


def test_exiting_node_stays_active():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.exit("owner-0", contract.account(0), contract.prove(0))
    assert contract.get_aggregator() == 0  # still schedulable until withdrawn


# -- requests -----------------------------------------------------------------------


def test_request_ids_count_up():
    contract = Contract(P4)
    fee = contract.params.request_fee
    assert contract.request_block("client", 10, fee) == 0
    assert contract.request_block("client", 11, fee) == 1
    assert contract.escrow == 2 * fee


def test_request_fee_too_low():
    contract = Contract(P4)
    with pytest.raises(FeeTooLow):
        contract.request_block("client", 10, contract.params.request_fee - 1)


def test_params_constants_are_not_settings():
    # the payouts are circuit constants: a contract and the auditor's backend
    # cannot be built with values the other does not share
    for field in ("min_stake", "val_reward", "agg_reward", "exit_delay",
                  "aggregator_mode"):
        with pytest.raises(TypeError):
            Params(depth=2, **{field: getattr(Params, field)})
    with pytest.raises(TypeError):
        circuits.TransparentBackend(60, 10)
    assert [f.name for f in fields(Params)] == ["depth"]
    # proofs are checked and made by the one transparent backend, reached
    # only through circuits.prove / verify
    with pytest.raises(TypeError):
        Contract(P4, backend=circuits.TransparentBackend())
    with pytest.raises(TypeError):
        OracleNode("n", fresh_keys(1)[0], P4, backend=circuits.TransparentBackend())
    assert not hasattr(Contract(P4), "backend")
    assert not hasattr(OracleNode("n", fresh_keys(1)[0], P4), "backend")


def test_request_replay_reconstructs_table():
    contract = Contract(P4)
    fee = contract.params.request_fee
    contract.request_block("client", 10, fee)
    contract.request_block("client", 99, fee + 5)
    rebuilt = replay(contract.events, P4)
    assert rebuilt.requests.keys() == contract.requests.keys()
    assert rebuilt.requests[1].block_number == 99
    assert rebuilt.escrow == contract.escrow
    assert rebuilt.next_request_id == 2


# -- aggregator rotation ---------------------------------------------------------------


def test_get_aggregator_round_robin():
    contract = Contract(P4)
    keys = fresh_keys(3)
    register_all(contract, keys)
    assert contract.get_aggregator() == 0

    contract.request_block("client", 10, contract.params.request_fee)
    answer_request(contract, keys, 0)
    assert contract.get_aggregator() == 1


def test_get_aggregator_skips_empty():
    contract = Contract(P4)
    keys = fresh_keys(3)
    register_all(contract, keys)
    contract.exit("owner-1", contract.account(1), contract.prove(1))
    contract.set_time(contract.params.exit_delay)
    contract.withdraw("owner-1", contract.account(1), contract.prove(1))
    contract.aggregator_cursor = 1
    assert contract.get_aggregator() == 2


def test_get_aggregator_empty_committee():
    contract = Contract(P4)
    with pytest.raises(NoCommittee):
        contract.get_aggregator()


def test_timeout_advances_cursor_and_logs():
    contract = Contract(P4)
    keys = fresh_keys(2)
    register_all(contract, keys)
    skipped = contract.timeout_aggregator()
    assert skipped == 0
    assert contract.get_aggregator() == 1
    assert contract.events[-1].kind == "AggregatorTimeout"


# -- submit_block -------------------------------------------------------------------------


def test_submit_block_happy_path():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    fee = contract.params.request_fee
    contract.request_block("client", 10, fee)

    public = answer_request(contract, keys, 0)
    request = contract.requests[0]
    assert request.status == "answered"
    assert request.answer_hash == 777
    assert request.validator_bits == public.validator_bits
    assert contract.state_root == public.post_state_root
    assert contract.escrow == 0
    # rewards: aggregator 0 also voted
    assert contract.account(0).balance == 100 + 50 + 10
    assert contract.account(1).balance == 110
    assert contract.account(3).balance == 100


def test_credits_keep_keys_and_pay_a_voting_aggregator_twice():
    # request 1 is answered by aggregator 1, whose own vote is among the bits
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    for request_id in (0, 1):
        contract.request_block("client", 10, contract.params.request_fee)
        answer_request(contract, keys, request_id)
    assert contract.requests[1].agg_index == 1
    assert contract.requests[1].validator_bits == 0b0111
    balances = [100 + 50 + 10 + 10, 100 + 10 + 50 + 10, 100 + 10 + 10, 100]
    shadow = RefTree(2)
    for i, kp in enumerate(keys):
        assert contract.account(i) == Account(i, kp.pk, balances[i])
        shadow.set_account(i, Account(i, kp.pk, balances[i]))
    assert contract.state_root == shadow.root

    # a slash reads the victim before the aggregator: a self-slash zeroes the
    # balance and then credits it back instead of doubling it
    tree = contract.tree_snapshot()
    apply_slash_transfer(tree, 1, 2)
    assert tree.account(2) == Account(2, keys[2].pk, 0)
    assert tree.account(1) == Account(1, keys[1].pk, 170 + 120)
    apply_slash_transfer(tree, 1, 1)
    assert tree.account(1) == Account(1, keys[1].pk, 170 + 120)


def test_submit_block_rejects_block_hash_outside_field():
    # votes signed for 123 verify for 123 + P, so the circuit accepts them
    # relabelled; the contract must not record a hash no source block has
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    votes = [replace(v, block_hash=123 + P) for v in honest_votes(keys, range(3), 0, 123)]
    public, witness = build_aggregation_witness(
        contract.tree_snapshot(), 0, votes, 0, 123 + P)
    proof = prove("transparent", AGGREGATION, public, witness)
    log_before = dump_log(contract)
    with pytest.raises(InvalidInput):
        contract.submit_block("owner-0", 0, 123 + P, public.validator_bits,
                              public.post_state_root, proof)
    assert dump_log(contract) == log_before
    assert contract.requests[0].status == "pending"


def test_submit_block_resubmission_rejected():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    answer_request(contract, keys, 0)
    with pytest.raises(RequestNotPending):
        answer_request(contract, keys, 0)


def test_submit_block_wrong_sender():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    votes = honest_votes(keys, range(3), 0, 777)
    public, witness = build_aggregation_witness(
        contract.tree_snapshot(), 0, votes, 0, 777)
    proof = prove("transparent", AGGREGATION, public, witness)
    with pytest.raises(NotAggregator):
        contract.submit_block("owner-2", 0, 777, public.validator_bits,
                              public.post_state_root, proof)


def test_submit_block_bad_proof_rejected():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    votes = honest_votes(keys, range(3), 0, 777)
    public, witness = build_aggregation_witness(
        contract.tree_snapshot(), 0, votes, 0, 777)
    proof = prove("transparent", AGGREGATION, public, witness)
    root_before = contract.state_root
    with pytest.raises(InvalidProof):
        contract.submit_block("owner-0", 0, 777, public.validator_bits,
                              public.post_state_root + 1, proof)
    assert contract.state_root == root_before
    assert contract.requests[0].status == "pending"


def test_submit_block_underfull_bits_rejected():
    # a witness with a duplicated vote index flags only two members, which
    # the contract refuses before it verifies the proof, atomically
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    votes = honest_votes(keys, [0, 1, 1], 0, 777)
    work = contract.tree_snapshot()
    pre = work.root
    agg_account = work.account(0)
    agg_proof = work.prove(0)
    work.set_account(0, replace(agg_account, balance=agg_account.balance + 50))
    witnesses = []
    for v in votes:
        account = work.account(v.validator_index)
        proof_v = work.prove(v.validator_index)
        witnesses.append(circuits.VoteWitness(account, proof_v, v.signature,
                                              v.block_hash))
        work.set_account(v.validator_index,
                         replace(account, balance=account.balance + 10))
    public = circuits.AggregationPublic(pre, work.root, 777, 0, 0b011)
    witness = circuits.AggregationWitness(agg_account, agg_proof, tuple(witnesses))
    proof = prove("transparent", AGGREGATION, public, witness)
    log_before = dump_log(contract)
    with pytest.raises(InvalidInput):
        contract.submit_block("owner-0", 0, 777, 0b011, public.post_state_root, proof)
    assert dump_log(contract) == log_before
    assert contract.requests[0].status == "pending"


def test_submit_block_cheap_rejections_skip_verification(monkeypatch):
    # every submission the contract can refuse without the proof is refused
    # before the proof is re-executed, and leaves the log as it was
    verify_calls = []
    verify = circuits.TransparentBackend.verify

    def counting(backend, circuit_id, public, proof):
        verify_calls.append(circuit_id)
        return verify(backend, circuit_id, public, proof)

    monkeypatch.setattr(circuits.TransparentBackend, "verify", counting)
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys[:3])
    contract.request_block("client", 10, contract.params.request_fee)
    agg = contract.get_aggregator()
    votes = honest_votes(keys, range(3), 0, 777)
    public, witness = build_aggregation_witness(contract.tree_snapshot(), agg, votes,
                                                0, 777)
    proof = prove("transparent", AGGREGATION, public, witness)
    good = dict(caller=contract.owner_of[agg], request_id=0, block_hash=777,
                validator_bits=public.validator_bits,
                post_state_root=public.post_state_root, proof=proof)
    cases = [dict(block_hash=777 + P), dict(block_hash=-1),
             dict(validator_bits=0b011), dict(validator_bits=0b1111),
             dict(validator_bits=0b1011), dict(validator_bits=-0b111),
             dict(validator_bits=(1 << 100_000) | 0b111),
             dict(caller=contract.owner_of[(agg + 1) % 3]), dict(request_id=1)]
    log_before = dump_log(contract)
    for change in cases:
        with pytest.raises(OracleError):
            contract.submit_block(**{**good, **change})
        assert verify_calls == [], change
        assert dump_log(contract) == log_before, change
    contract.escrow = 0  # no transaction can leave a pending request unfunded
    with pytest.raises(InvalidInput):
        contract.submit_block(**good)
    assert verify_calls == []
    contract.escrow = contract.params.request_fee
    contract.submit_block(**good)
    assert verify_calls == [AGGREGATION]
    assert contract.requests[0].status == "answered"


# -- slash ---------------------------------------------------------------------------------


def slashable_setup():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    answer_request(contract, keys, 0, block_hash=777)
    dissent = make_vote(keys[3].sk, 3, 0, 888)
    public, witness = circuits.build_slash_witness(
        contract.tree_snapshot(), 0, dissent, 0, 777)
    proof = prove("transparent", "slash", public, witness)
    return contract, keys, dissent, public, proof


def test_slash_transfers_balance():
    contract, keys, _, public, proof = slashable_setup()
    before_agg = contract.account(0).balance
    contract.slash("owner-0", 0, 3, public.post_state_root, proof)
    assert contract.account(3).balance == 0
    assert contract.account(0).balance == before_agg + 100
    assert (0, 3) in contract.slashed


def test_slash_before_answer_rejected():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    dissent = make_vote(keys[3].sk, 3, 0, 888)
    public, witness = circuits.build_slash_witness(
        contract.tree_snapshot(), 0, dissent, 0, 777)
    proof = prove("transparent", "slash", public, witness)
    with pytest.raises(RequestPending):
        contract.slash("owner-0", 0, 3, public.post_state_root, proof)


def test_slash_twice_rejected():
    contract, keys, dissent, public, proof = slashable_setup()
    contract.slash("owner-0", 0, 3, public.post_state_root, proof)
    # rebuild against the new root; replay protection must still reject
    public2, witness2 = circuits.build_slash_witness(
        contract.tree_snapshot(), 0, dissent, 0, 777)
    proof2 = prove("transparent", "slash", public2, witness2)
    with pytest.raises(AlreadySlashed):
        contract.slash("owner-0", 0, 3, public2.post_state_root, proof2)


def test_slash_of_a_non_member_skips_verification(monkeypatch):
    # index 3 holds no member, which the contract sees without the proof
    contract = Contract(P4)
    keys = fresh_keys(3)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    answer_request(contract, keys, 0, block_hash=777)
    public, witness = circuits.build_slash_witness(
        contract.tree_snapshot(), 0, make_vote(keys[2].sk, 2, 0, 888), 0, 777)
    proof = prove("transparent", "slash", public, witness)
    verify_calls = []
    verify = circuits.TransparentBackend.verify
    monkeypatch.setattr(circuits.TransparentBackend, "verify",
                        lambda *args: verify_calls.append(args[1]) or verify(*args))
    log = dump_log(contract)
    with pytest.raises(InvalidInput):
        contract.slash("owner-0", 0, 3, public.post_state_root, proof)
    assert verify_calls == []
    assert dump_log(contract) == log


def test_slash_conserves_total():
    contract, keys, _, public, proof = slashable_setup()
    total_before = contract.total_staked()
    contract.slash("owner-0", 0, 3, public.post_state_root, proof)
    assert contract.total_staked() == total_before


def test_slash_bound_to_the_answering_aggregator():
    # index 0 answered request 0: no one else may slash its dissenters, and
    # the stake cannot be sent to another member
    contract, keys, dissent, _, _ = slashable_setup()
    assert contract.requests[0].agg_index == 0
    public, witness = circuits.build_slash_witness(
        contract.tree_snapshot(), 2, dissent, 0, 777)
    proof = prove("transparent", "slash", public, witness)
    root = contract.state_root
    for caller in ("mallory", "owner-2"):
        with pytest.raises(NotAggregator):
            contract.slash(caller, 0, 3, public.post_state_root, proof)
    with pytest.raises(InvalidProof):
        contract.slash("owner-0", 0, 3, public.post_state_root, proof)
    assert contract.state_root == root
    assert not contract.slashed


def test_replayed_slash_cannot_credit_a_withdrawn_aggregator():
    # live, only the answering aggregator's owner may slash; replay must refuse
    # the same event once that aggregator has withdrawn, or the stake would
    # land on an empty leaf that no member owns
    contract, _, _, _, _ = slashable_setup()
    contract.exit("owner-0", contract.account(0), contract.prove(0))
    contract.set_time(contract.now + contract.params.exit_delay)
    contract.withdraw("owner-0", contract.account(0), contract.prove(0))
    tree = contract.tree_snapshot()
    apply_slash_transfer(tree, 0, 3)
    forged = Event(len(contract.events), contract.now, SLASHED,
                   dict(request_id=0, agg_index=0, val_index=3,
                        post_state_root=tree.root))
    with pytest.raises(CorruptLog, match="index 0 is not a registered member"):
        replay(contract.events + [forged], P4)


def test_slash_of_a_relabelled_majority_vote_rejected():
    # member 1 voted for the answer 777; its signature also verifies for
    # 777 + P, but that is the same field element, so the vote does not dissent
    contract, keys, _, _, _ = slashable_setup()
    assert contract.requests[0].answer_hash == 777
    honest = make_vote(keys[1].sk, 1, 0, 777)
    with pytest.raises(NotSlashable):
        circuits.build_slash_witness(contract.tree_snapshot(), 0,
                                     replace(honest, block_hash=777 + P), 0, 777)
    public, witness = circuits.build_slash_witness(
        contract.tree_snapshot(), 0, replace(honest, block_hash=888), 0, 777)
    witness = replace(witness, victim=replace(witness.victim, claimed_block_hash=777 + P))
    proof = prove("transparent", "slash", public, witness)
    log, balance = dump_log(contract), contract.account(1).balance
    with pytest.raises(InvalidProof):
        contract.slash("owner-0", 0, 1, public.post_state_root, proof)
    assert dump_log(contract) == log
    assert contract.account(1).balance == balance > 0


def test_hostile_proof_payloads_raise_invalid_proof():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    votes = honest_votes(keys, range(3), 0, 777)
    public, witness = build_aggregation_witness(
        contract.tree_snapshot(), 0, votes, 0, 777)
    proof = prove("transparent", AGGREGATION, public, witness)
    log = dump_log(contract)
    for payload in hostile_payloads(AGGREGATION, proof.payload):
        with pytest.raises(InvalidProof):
            contract.submit_block("owner-0", 0, 777, public.validator_bits,
                                  public.post_state_root, replace(proof, payload=payload))
        assert dump_log(contract) == log

    contract, _, _, s_public, s_proof = slashable_setup()
    log = dump_log(contract)
    for payload in hostile_payloads(circuits.SLASH, s_proof.payload):
        with pytest.raises(InvalidProof):
            contract.slash("owner-0", 0, 3, s_public.post_state_root,
                           replace(s_proof, payload=payload))
        assert dump_log(contract) == log
    contract.slash("owner-0", 0, 3, s_public.post_state_root, s_proof)
    assert contract.account(3).balance == 0


def test_proof_for_another_backend_or_circuit_is_invalid():
    """The contract verifies under its own backend id, not the one a proof
    names, so a relabelled proof is InvalidProof, not UnknownBackend."""
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    votes = honest_votes(keys, range(3), 0, 777)
    public, witness = build_aggregation_witness(
        contract.tree_snapshot(), 0, votes, 0, 777)
    proof = prove("transparent", AGGREGATION, public, witness)
    log = dump_log(contract)
    for relabelled in (replace(proof, backend_id="groth16"),
                       replace(proof, circuit_id=circuits.SLASH)):
        with pytest.raises(InvalidProof):
            contract.submit_block("owner-0", 0, 777, public.validator_bits,
                                  public.post_state_root, relabelled)
        assert dump_log(contract) == log

    contract, _, _, s_public, s_proof = slashable_setup()
    log = dump_log(contract)
    for relabelled in (replace(s_proof, backend_id="groth16"),
                       replace(s_proof, circuit_id=AGGREGATION)):
        with pytest.raises(InvalidProof):
            contract.slash("owner-0", 0, 3, s_public.post_state_root, relabelled)
        assert dump_log(contract) == log
    contract.slash("owner-0", 0, 3, s_public.post_state_root, s_proof)
    assert contract.account(3).balance == 0


def test_oversize_payloads_refused_before_verification(monkeypatch):
    """The backend refuses a payload padded by 5 MB unread, and the contract
    refuses, before the backend sees it, any payload that is not bytes of
    the length every payload of the circuit has at its depth."""
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    votes = honest_votes(keys, range(3), 0, 777)
    public, witness = build_aggregation_witness(
        contract.tree_snapshot(), 0, votes, 0, 777)
    proof = prove("transparent", AGGREGATION, public, witness)
    padded = replace(proof, payload=proof.payload + b" " * 5_000_000)
    assert not circuits.verify("transparent", AGGREGATION, public, padded)

    def sized(p, size):
        return replace(p, payload=(p.payload + bytes(size))[:size])

    calls = []
    real = circuits.TransparentBackend.verify
    monkeypatch.setattr(circuits.TransparentBackend, "verify",
                        lambda *args: calls.append(args[1]) or real(*args))
    size = circuits.payload_size(AGGREGATION, 2)
    assert len(proof.payload) == size
    log = dump_log(contract)
    for wrong in (padded, sized(proof, size + 1), sized(proof, size - 1), sized(proof, 0),
                  sized(proof, circuits.payload_size(AGGREGATION, 3)),
                  replace(proof, payload=None), replace(proof, payload=size),
                  replace(proof, payload=proof.payload.decode("latin-1"))):
        with pytest.raises(InvalidProof):
            contract.submit_block("owner-0", 0, 777, public.validator_bits,
                                  public.post_state_root, wrong)
        assert dump_log(contract) == log
    assert calls == []
    contract.submit_block("owner-0", 0, 777, public.validator_bits,
                          public.post_state_root, proof)
    assert calls == [AGGREGATION]

    contract, _, _, s_public, s_proof = slashable_setup()
    calls = []
    size = circuits.payload_size(circuits.SLASH, 2)
    assert len(s_proof.payload) == size
    log = dump_log(contract)
    for wrong in (sized(s_proof, size + 5_000_000), sized(s_proof, size + 1),
                  sized(s_proof, size - 1), sized(s_proof, 0),
                  sized(s_proof, circuits.payload_size(circuits.SLASH, 3)),
                  replace(s_proof, payload=None),
                  replace(s_proof, payload=s_proof.payload.decode("latin-1"))):
        with pytest.raises(InvalidProof):
            contract.slash("owner-0", 0, 3, s_public.post_state_root, wrong)
        assert dump_log(contract) == log
    assert calls == []
    contract.slash("owner-0", 0, 3, s_public.post_state_root, s_proof)
    assert calls == [circuits.SLASH]


@cache
def well_typed_setup():
    """A contract and, for each typed entry point, arguments with which it
    applies.  Six members of a depth-3 tree; request 0 answered by index 0
    without index 5, whose dissent is slashable; request 1 pending, index 1
    its aggregator, with a proven answer; index 3 past its exit time; two
    slots free."""
    contract = Contract(Params(depth=3))
    keys = fresh_keys(7)
    register_all(contract, keys[:6])
    fee = contract.params.request_fee
    contract.request_block("client", 10, fee)
    answer_request(contract, keys, 0)
    s_public, witness = circuits.build_slash_witness(
        contract.tree_snapshot(), 0, make_vote(keys[5].sk, 5, 0, 888), 0, 777)
    s_proof = prove(TRANSPARENT, circuits.SLASH, s_public, witness)
    contract.request_block("client", 11, fee)
    votes = honest_votes(keys, range(contract.params.threshold), 1, 778)
    public, witness = build_aggregation_witness(contract.tree_snapshot(), 1, votes, 1, 778)
    proof = prove(TRANSPARENT, AGGREGATION, public, witness)
    contract.exit("owner-3", contract.account(3), contract.prove(3))
    contract.set_time(contract.exit_time_of[3])
    pk = keys[6].pk
    return contract, {
        "account": (0,), "prove": (0,), "set_time": (contract.now + 1,),
        "register": ("newcomer", pk, "10.0.0.9", 100),
        "replace": ("newcomer", pk, "10.0.0.9", 500, 2, contract.account(2),
                    contract.prove(2)),
        "exit": ("owner-2", contract.account(2), contract.prove(2)),
        "withdraw": ("owner-3", contract.account(3), contract.prove(3)),
        "request_block": ("client", 12, fee),
        "submit_block": ("owner-1", 1, 778, public.validator_bits, public.post_state_root,
                         proof),
        "slash": ("owner-0", 0, 5, s_public.post_state_root, s_proof),
    }


TYPED_METHODS = {name: method for name, method in vars(Contract).items()
                 if hasattr(method, "__wrapped__")}

# values refused, beside every hostile int, where their type is right
OUT_OF_RANGE = {("request_block", "block_number"): {"2**64": 1 << 64},
                ("request_block", "fee"): {"MAX_BALANCE": MAX_BALANCE}}


def hostile_cases():
    """Cases (method, position, place, value, refused) for each typed method,
    each parameter and each hostile value in its place; for a record
    parameter also in place of each of its fields, and of the first element
    of a tuple field.  A value not of its place's type must be refused, and
    so must every int, which is out of range everywhere; a str or a tuple
    where one belongs may apply."""
    cases = []
    for name, method in TYPED_METHODS.items():
        params = list(inspect.signature(method).parameters)[1:]  # after self
        for position, param in enumerate(params):
            kind = method.__annotations__[param]
            places = [((), kind)]
            for field, field_kind in getattr(kind, "__annotations__", {}).items():
                places.append(((field,), field_kind))
                if field_kind is tuple:
                    places.append(((field, 0), int))
            values = {**HOSTILE_VALUES, **OUT_OF_RANGE.get((name, param), {})}
            for place, place_kind in places:
                where = "".join(f"[{p}]" if type(p) is int else f".{p}" for p in place)
                for label, value in values.items():
                    refused = type(value) is not place_kind or place_kind is int
                    cases.append(pytest.param(name, position, place, value, refused,
                                              id=f"{name} {param}{where}={label}"))
    return cases


def with_value(record, place, value):
    """The record with value at place: a field name, then an element index."""
    if not place:
        return value
    head, rest = place[0], place[1:]
    if type(record) is tuple:
        return record[:head] + (with_value(record[head], rest, value),) + record[head + 1:]
    fields_ = {f: getattr(record, f) for f in type(record).__annotations__}
    fields_[head] = with_value(fields_[head], rest, value)
    return type(record)(**fields_)


@pytest.mark.parametrize("method, position, place, value, refused", hostile_cases())
def test_ill_typed_arguments_raise_oracle_error(method, position, place, value, refused):
    """Each call raises an OracleError and leaves the log as it was, or, for
    a value that may apply, leaves a log that parse_log and replay reproduce.
    Each case runs on its own copy of one setup."""
    pristine, calls = well_typed_setup()
    contract = copy.deepcopy(pristine)
    args = list(calls[method])
    args[position] = with_value(args[position], place, value)
    log = dump_log(contract)
    try:
        getattr(contract, method)(*args)
    except OracleError:
        assert dump_log(contract) == log
        return
    assert not refused, "applied"
    text = dump_log(contract)
    params, events = parse_log(text)
    assert dump_log(replay(events, params)) == text


def test_well_typed_calls_apply():
    """So each hostile case differs from a call that applies in one place."""
    pristine, calls = well_typed_setup()
    assert calls.keys() == TYPED_METHODS.keys()
    for method, args in calls.items():
        getattr(copy.deepcopy(pristine), method)(*args)


def test_every_public_method_with_a_parameter_is_typed():
    """A new entry point cannot skip the argument rule unnoticed."""
    public = {name: member for name, member in vars(Contract).items()
              if callable(member) and not name.startswith("_")}
    for name, member in public.items():
        if len(inspect.signature(member).parameters) > 1:
            assert hasattr(member, "__wrapped__"), name


def test_payout_must_be_the_balance_even_when_it_proves_modulo_p():
    """An account's fields hash modulo P, so an account whose balance is off
    by P proves against the root; withdraw and replace must still pay out the
    leaf's balance, and replay refuses an event that does not."""
    contract = Contract(P4)
    keys = fresh_keys(5)
    register_all(contract, keys[:4])
    contract.exit("owner-3", contract.account(3), contract.prove(3))
    contract.set_time(contract.exit_time_of[3])
    log = dump_log(contract)
    for index, call in ((3, lambda a, pr: contract.withdraw("owner-3", a, pr)),
                        (2, lambda a, pr: contract.replace("n", keys[4].pk, "ip", 101, 2,
                                                           a, pr))):
        account = contract.account(index)
        for balance in (account.balance + P, account.balance - P):
            with pytest.raises(OracleError):
                call(replace(account, balance=balance), contract.prove(index))
            assert dump_log(contract) == log
    contract.withdraw("owner-3", contract.account(3), contract.prove(3))
    params, events = parse_log(dump_log(contract).replace("amount=100", f"amount={100 + P}"))
    with pytest.raises(CorruptLog):
        replay(events, params)


# -- replay and event log --------------------------------------------------------------------


def test_replay_empty_log_is_genesis():
    contract = replay([], P4)
    assert contract.state_root == Contract(P4).state_root
    assert contract.next_request_id == 0


def test_replay_full_scenario_state():
    from zkoracle.simnet import ScenarioConfig, run_scenario

    configs = [
        # slashing path
        ScenarioConfig(depth=2, committee=4, rounds=4, seed=8,
                       adversaries={3: "wrong_hash"}),
        # timeout path: cursor advances past the offline node
        ScenarioConfig(depth=2, committee=4, rounds=4, seed=9,
                       adversaries={0: "offline_aggregator"}),
    ]
    for config in configs:
        live = run_scenario(config).contract
        rebuilt = replay(live.events, live.params)
        assert rebuilt.state_root == live.state_root
        assert rebuilt.escrow == live.escrow
        assert rebuilt.owner_of == live.owner_of
        assert rebuilt.ip_of == live.ip_of
        assert rebuilt.aggregator_cursor == live.aggregator_cursor
        assert rebuilt.slashed == live.slashed
        assert rebuilt.next_request_id == live.next_request_id
        assert {k: (r.status, r.answer_hash) for k, r in rebuilt.requests.items()} \
            == {k: (r.status, r.answer_hash) for k, r in live.requests.items()}


def test_replay_prefix_property():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    contract.request_block("client", 10, contract.params.request_fee)
    answer_request(contract, keys, 0)
    for cut in range(len(contract.events) + 1):
        rebuilt = replay(contract.events[:cut], P4)
        assert rebuilt.state_root is not None


def test_replay_gap_detected():
    contract = Contract(P4)
    keys = fresh_keys(4)
    register_all(contract, keys)
    events = contract.events[:1] + contract.events[2:]
    with pytest.raises(CorruptLog):
        replay(events, P4)


def test_event_log_text_roundtrip():
    from zkoracle.simnet import ScenarioConfig, run_scenario

    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=3, seed=4,
                                      adversaries={2: "zero_vote"}))
    text = dump_events(run.contract.events)
    parsed = parse_events(text)
    assert parsed == run.contract.events
    assert dump_events(parsed) == text

    params, events = parse_log(dump_log(run.contract))
    assert params == run.contract.params
    assert events == run.contract.events


def test_root_consistency_against_shadow_tree():
    # a shadow tree applying the same logical updates tracks the contract root
    # after every transaction
    from zkoracle.merkle import Account, StateTree, empty_account

    contract = Contract(P4)
    shadow = StateTree(2)
    keys = fresh_keys(5)

    def check():
        assert contract.state_root == shadow.root

    for i in range(4):
        contract.register(f"owner-{i}", keys[i].pk, "ip", 100 + i)
        shadow.set_account(i, Account(i, keys[i].pk, 100 + i))
        check()

    contract.request_block("client", 10, contract.params.request_fee)
    check()
    public = answer_request(contract, keys, 0)
    agg = replace(shadow.account(0), balance=shadow.account(0).balance + 50)
    shadow.set_account(0, agg)
    for i in range(3):
        voted = replace(shadow.account(i), balance=shadow.account(i).balance + 10)
        shadow.set_account(i, voted)
    check()

    dissent = make_vote(keys[3].sk, 3, 0, 888)
    s_public, s_witness = circuits.build_slash_witness(
        contract.tree_snapshot(), 0, dissent, 0, 777)
    s_proof = prove("transparent", "slash", s_public, s_witness)
    contract.slash("owner-0", 0, 3, s_public.post_state_root, s_proof)
    amount = shadow.account(3).balance
    shadow.set_account(3, replace(shadow.account(3), balance=0))
    shadow.set_account(0, replace(shadow.account(0),
                                  balance=shadow.account(0).balance + amount))
    check()

    contract.exit("owner-2", contract.account(2), contract.prove(2))
    check()  # exit does not touch the tree
    contract.set_time(contract.params.exit_delay)
    contract.withdraw("owner-2", contract.account(2), contract.prove(2))
    shadow.set_account(2, empty_account(2))
    check()

    contract.replace("new", keys[4].pk, "ip", 500, 0, contract.account(0),
                     contract.prove(0))
    shadow.set_account(0, Account(0, keys[4].pk, 500))
    check()


# -- committee maximality against a greedy oracle ------------------------------------------------


def test_top_stake_committee_matches_greedy_oracle():
    rng = random.Random(50)
    for trial in range(30):
        contract = Contract(P4)
        oracle_stakes = []  # greedy shadow: the n highest accepted stakes
        arrivals = [rng.randint(95, 400) for _ in range(rng.randint(1, 12))]
        for i, stake in enumerate(arrivals):
            kp = eddsa.keygen((trial * 100 + i + 1).to_bytes(4, "big") * 8)
            occupied = contract.occupied_indices()
            if len(occupied) < 4:
                try:
                    contract.register(f"o{i}", kp.pk, "ip", stake)
                    oracle_stakes.append(stake)
                except InsufficientStake:
                    pass
                continue
            weakest = min(occupied, key=lambda j: contract.account(j).balance)
            target = contract.account(weakest)
            try:
                contract.replace(f"o{i}", kp.pk, "ip", stake, weakest, target,
                                 contract.prove(weakest))
                oracle_stakes.remove(target.balance)
                oracle_stakes.append(stake)
            except StakeTooLow:
                pass
        final = sorted(contract.account(j).balance
                       for j in contract.occupied_indices())
        assert final == sorted(oracle_stakes), f"trial {trial}"
