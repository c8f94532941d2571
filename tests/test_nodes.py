"""Node logic tests: voting, mempool, aggregation, slashing, state sync."""

import random
from dataclasses import replace

import pytest

from zkoracle import eddsa
from zkoracle.contract import Contract, Params, apply_slash_transfer
from zkoracle.curve import L
from zkoracle.errors import CorruptLog, InvalidInput
from zkoracle.field import P
from zkoracle.nodes import (Mempool, OracleNode, check_finality, decode_vote,
                            encode_vote, make_vote, vote_message)
from zkoracle.simnet import MockChain, ScenarioConfig, run_scenario

P4 = Params(depth=2)


def make_node(i, params=P4, finality=6):
    kp = eddsa.keygen((i + 1).to_bytes(4, "big") * 8)
    node = OracleNode(f"node-{i}", kp, params, finality=finality)
    node.index = i
    return node


def committee_with_contract(params=P4, count=None):
    count = count if count is not None else params.capacity
    contract = Contract(params)
    nodes = []
    for i in range(count):
        node = make_node(i, params)
        node.index = contract.register(node.name, node.keypair.pk, f"10.0.0.{i}",
                                       params.min_stake)
        nodes.append(node)
    for node in nodes:
        node.sync(contract.events)
    return contract, nodes


# -- vote wire format ------------------------------------------------------------


VOTE_GOLDEN = (
    "0000000000000003000000000000002a"
    "00000000000000000000000000000000000000000000000000000000000001c8"
    "14e02c2050e39c3ee75a100d3f6e21df9e7a63bc8b0299cc2be53a9933bc50f5"
    "06d0a7c312d295ac8d2908b15120686b569f74d1be99856c3ed151813e9ce355"
    "057901b1412837d25b7fd4e845ab72b184cfe15e997b76d2c0d1cb906967dd14"
)


def test_vote_wire_format_roundtrip():
    kp = eddsa.keygen(b"\x09" * 32)
    vote = make_vote(kp.sk, 3, 42, 456)
    data = encode_vote(vote)
    assert len(data) == 144
    assert decode_vote(data) == vote
    # fixed layout: index and request id up front, big-endian
    assert data[:8] == (3).to_bytes(8, "big")
    assert data[8:16] == (42).to_bytes(8, "big")
    assert data[16:48] == (456).to_bytes(32, "big")
    assert data.hex() == VOTE_GOLDEN


def test_vote_signature_covers_contents():
    kp = eddsa.keygen(b"\x0a" * 32)
    vote = make_vote(kp.sk, 1, 2, 3)
    msg = vote_message(1, 2, 3)
    assert eddsa.verify_sig(kp.pk, msg, vote.signature)
    assert not eddsa.verify_sig(kp.pk, vote_message(1, 2, 4), vote.signature)


# -- finality -----------------------------------------------------------------------


def test_finality_boundaries():
    chain = MockChain(random.Random(1))
    chain.advance(106)  # tip = 106
    assert check_finality(chain, 100, 6)
    assert not check_finality(chain, 101, 6)
    assert not check_finality(chain, 200, 6)


def test_finality_orphaned_fork():
    chain = MockChain(random.Random(2))
    chain.advance(10)
    doomed = chain.block_at(9)
    # a fork from 8 overtakes; the old block 9 is no longer canonical
    chain.advance(0, fork_spec=(8, 3))
    assert chain.tip == 11
    assert chain.block_at(9) != doomed
    assert check_finality(chain, 9, 2)  # the new branch's block is final


# -- validator behavior ----------------------------------------------------------------


def test_on_request_happy_path():
    contract, nodes = committee_with_contract()
    chain = MockChain(random.Random(3))
    chain.advance(20)
    assert nodes[1].answer(10, chain) == chain.block_at(10).hash


def test_on_request_absent_block_votes_zero():
    contract, nodes = committee_with_contract()
    chain = MockChain(random.Random(4))
    chain.advance(20)
    assert nodes[1].answer(999, chain) == 0


def test_on_request_unfinal_block_votes_zero():
    contract, nodes = committee_with_contract()
    chain = MockChain(random.Random(5))
    chain.advance(10)  # tip 10; block 5 has exactly 5 < 6 confirmations
    assert nodes[1].answer(5, chain) == 0
    chain.advance(1)
    assert nodes[1].answer(5, chain) == chain.block_at(5).hash


class RpcDown(Exception):
    pass


class DownChain:
    tip = 100

    def block_at(self, number):
        raise RpcDown("rpc endpoint down")


def test_on_request_unreachable_chain_is_retryable():
    # a chain error propagates instead of turning into a zero vote
    contract, nodes = committee_with_contract()
    with pytest.raises(RpcDown):
        nodes[1].answer(10, DownChain())


# -- mempool / aggregator vote intake -----------------------------------------------------


def test_mempool_first_vote_wins():
    pool = Mempool()
    kp = eddsa.keygen(b"\x0b" * 32)
    first = make_vote(kp.sk, 1, 5, 100)
    second = make_vote(kp.sk, 1, 5, 200)
    assert pool.add(first)
    assert not pool.add(second)
    assert pool.votes(5) == [first]
    assert pool.tally(5) == {100: 1}


def test_on_vote_accepts_valid():
    contract, nodes = committee_with_contract()
    vote = make_vote(nodes[2].keypair.sk, 2, 0, 123)
    accepted, reason = nodes[0].on_vote(vote)
    assert accepted and reason is None


def test_on_vote_rejects_duplicate():
    contract, nodes = committee_with_contract()
    vote = make_vote(nodes[2].keypair.sk, 2, 0, 123)
    nodes[0].on_vote(vote)
    accepted, reason = nodes[0].on_vote(vote)
    assert not accepted and reason == "duplicate-vote"


def test_on_vote_rejects_unregistered():
    params = Params(depth=3)
    contract, nodes = committee_with_contract(params, count=4)
    stranger = eddsa.keygen(b"\x0c" * 32)
    vote = make_vote(stranger.sk, 6, 0, 123)
    accepted, reason = nodes[0].on_vote(vote)
    assert not accepted and reason == "unregistered-validator"


def test_on_vote_rejects_bad_signature():
    contract, nodes = committee_with_contract()
    vote = make_vote(nodes[2].keypair.sk, 2, 0, 123)
    forged = replace(vote, signature=eddsa.Signature(vote.signature.r,
                                                     (vote.signature.s + 1) % L))
    accepted, reason = nodes[0].on_vote(forged)
    assert not accepted and reason == "invalid-signature"


def test_on_vote_rejects_non_canonical_s():
    # s + L passes s*G = R + c*pk; the vote must not take the slot of the
    # canonical one
    rng = random.Random(21)
    contract, nodes = committee_with_contract()
    for i in range(1, 4):
        vote = make_vote(nodes[i].keypair.sk, i, rng.randrange(1 << 32),
                         rng.randrange(P))
        shifted = replace(vote, signature=eddsa.Signature(vote.signature.r,
                                                          vote.signature.s + L))
        assert nodes[0].on_vote(shifted) == (False, "invalid-signature")
        assert nodes[0].on_vote(vote) == (True, None)


def test_on_vote_rejects_block_hash_outside_field():
    # the vote message reduces its inputs mod P, so a vote signed for h also
    # verifies for h + P; the relabelled copy must not take the canonical slot
    contract, nodes = committee_with_contract()
    for i in range(1, 4):
        vote = make_vote(nodes[i].keypair.sk, i, 0, 123)
        for bad in (123 + P, -1):
            relabelled = replace(vote, block_hash=bad)
            assert nodes[0].on_vote(relabelled) == (False, "block-hash-out-of-range")
        assert nodes[0].on_vote(vote) == (True, None)
    with pytest.raises(InvalidInput):
        decode_vote(encode_vote(replace(vote, block_hash=123 + P)))
    assert decode_vote(encode_vote(replace(vote, block_hash=P - 1))).block_hash == P - 1
    assert nodes[0].try_submit(0).block_hash == 123


def test_on_vote_rejects_wrong_key_for_index():
    contract, nodes = committee_with_contract()
    vote = make_vote(nodes[2].keypair.sk, 3, 0, 123)  # signed with 2's key
    accepted, reason = nodes[0].on_vote(vote)
    assert not accepted and reason == "invalid-signature"


# -- aggregation -------------------------------------------------------------------------


def test_try_submit_below_threshold():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    for i in (1, 2):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99))
    assert agg.try_submit(0) is None


def test_try_submit_selects_lowest_indices():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    for i in (3, 2, 1, 0):  # arrival order irrelevant, selection by index
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99))
    submission = agg.try_submit(0)
    assert submission is not None
    assert submission.validator_bits == 0b0111  # 2t votes -> t lowest rewarded
    assert submission.block_hash == 99


def test_try_submit_majority_of_mixed_votes():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    agg.on_vote(make_vote(nodes[3].keypair.sk, 3, 0, 55))  # minority
    for i in (0, 1, 2):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99))
    submission = agg.try_submit(0)
    assert submission.block_hash == 99
    assert submission.validator_bits == 0b0111


def test_submission_deterministic_across_nodes():
    # two independently synced nodes produce bit-identical submissions
    results = []
    for _ in range(2):
        contract, nodes = committee_with_contract()
        agg = nodes[0]
        for i in (2, 0, 1):
            agg.on_vote(make_vote(nodes[i].keypair.sk, i, 7 - 7, 99))
        results.append(agg.try_submit(0))
    a, b = results
    assert a.post_state_root == b.post_state_root
    assert a.validator_bits == b.validator_bits
    assert a.proof.payload == b.proof.payload


# -- slashing ---------------------------------------------------------------------------------


def test_build_slashes_single_dissenter():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    for i in (0, 1, 2):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99))
    agg.on_vote(make_vote(nodes[3].keypair.sk, 3, 0, 55))
    actions = agg.build_slashes(0, 99)
    assert [a.val_index for a in actions] == [3]


def test_build_slashes_chained_roots():
    params = Params(depth=3)
    contract, nodes = committee_with_contract(params)
    agg = nodes[0]
    for i in range(5):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99))
    for i in (5, 6):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 55))
    actions = agg.build_slashes(0, 99)
    assert [a.val_index for a in actions] == [5, 6]

    # second slash must consume the first one's post root
    shadow = agg.local_tree.copy()
    apply_slash_transfer(shadow, 0, 5)
    mid_root = shadow.root
    assert actions[0].post_state_root == mid_root
    apply_slash_transfer(shadow, 0, 6)
    assert actions[1].post_state_root == shadow.root


def test_build_slashes_skips_unprovable_votes():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    good = make_vote(nodes[2].keypair.sk, 2, 0, 55)
    forged = replace(good, validator_index=3)  # wrong key for the index
    agg.mempool.add(forged)
    agg.mempool.add(good)
    actions = agg.build_slashes(0, 99)
    assert [a.val_index for a in actions] == [2]


def test_zero_vote_is_slashable_dissent():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    agg.on_vote(make_vote(nodes[3].keypair.sk, 3, 0, 0))
    actions = agg.build_slashes(0, 99)
    assert [a.val_index for a in actions] == [3]


# -- sync -------------------------------------------------------------------------------------


def test_sync_fresh_node_matches_root():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=3, seed=12,
                                      adversaries={3: "wrong_hash"}))
    late = make_node(9, run.contract.params)
    late.sync(run.contract.events)
    assert late.local_tree.root == run.contract.state_root


def test_sync_catch_up_after_offline_window():
    contract, nodes = committee_with_contract()
    offline = make_node(8)
    offline.sync(contract.events)

    from test_contract import answer_request  # reuse the driver

    keys = [n.keypair for n in nodes]
    for request in range(3):
        contract.request_block("client", 10 + request, contract.params.request_fee)
        answer_request(contract, keys, request)
    assert offline.local_tree.root != contract.state_root
    offline.sync(contract.events)
    assert offline.local_tree.root == contract.state_root
    before = offline.last_seq
    offline.sync(contract.events)  # empty delta is a no-op
    assert offline.last_seq == before


def test_sync_rejects_gap():
    contract, nodes = committee_with_contract()
    node = make_node(7)
    with pytest.raises(CorruptLog):
        node.sync(contract.events[1:])
