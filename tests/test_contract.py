"""Contract state machine tests: membership, requests, proof-gated updates,
slashing, event log replay."""

import random
from dataclasses import replace

import pytest

from helpers import RefTree, honest_votes
from zkoracle import circuits, eddsa
from zkoracle.circuits import AGGREGATION, build_aggregation_witness, prove
from zkoracle.contract import (Contract, Params, apply_slash_transfer, dump_events,
                               dump_log, parse_events, parse_log, replay)
from zkoracle.errors import (AlreadyExiting, AlreadySlashed, CommitteeFull,
                             CorruptLog, ExitTimeNotReached, FeeTooLow,
                             InsufficientStake, InvalidInput, InvalidProof,
                             NoCommittee, NotAggregator, NotExiting, NotOwner,
                             RequestNotPending, RequestPending, StakeTooLow)
from zkoracle.field import P
from zkoracle.merkle import Account
from zkoracle.nodes import make_vote

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
        contract.tree_snapshot(), agg_index, votes, request_id, block_hash,
        contract.params.agg_reward, contract.params.val_reward)
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
        contract.tree_snapshot(), 0, votes, 0, 123 + P, 50, 10)
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
        contract.tree_snapshot(), 0, votes, 0, 777, 50, 10)
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
        contract.tree_snapshot(), 0, votes, 0, 777, 50, 10)
    proof = prove("transparent", AGGREGATION, public, witness)
    root_before = contract.state_root
    with pytest.raises(InvalidProof):
        contract.submit_block("owner-0", 0, 777, public.validator_bits,
                              public.post_state_root + 1, proof)
    assert contract.state_root == root_before
    assert contract.requests[0].status == "pending"


def test_submit_block_underfull_bits_rejected():
    # a witness with a duplicated vote index never verifies
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
    with pytest.raises(InvalidProof):
        contract.submit_block("owner-0", 0, 777, 0b011, public.post_state_root, proof)


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
