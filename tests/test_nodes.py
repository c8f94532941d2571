"""Node logic tests: voting, vote intake, aggregation, slashing, state sync."""

import random
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

from zkoracle import circuits, curve, eddsa, mimc
from zkoracle.circuits import SLASH
from zkoracle.contract import Contract, Params, apply_slash_transfer
from zkoracle.curve import L
from zkoracle.errors import CorruptLog
from zkoracle.field import P
from zkoracle.merkle import StateTree
from zkoracle.nodes import OracleNode, make_vote, signed_by, vote_message
from zkoracle.simnet import MockChain, ScenarioConfig, run_scenario

P4 = Params(depth=2)


def make_node(i, params=P4):
    kp = eddsa.keygen((i + 1).to_bytes(4, "big") * 8)
    node = OracleNode(f"node-{i}", kp, params)
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


# -- votes -------------------------------------------------------------------------


# R.x, R.y and s of the vote below; signing is deterministic, so a change to
# the nonce, the challenge or the vote message moves these
VOTE_GOLDEN = (
    439314758284198150894940282572630855433251897061659354414440764826579155317,
    20284047391659955091352521943502573207139074863061528391239256964471998002470,
    359000684589265761927631315415501257720611953963206801276315494245055551603,
)


def test_vote_signature_golden():
    kp = eddsa.keygen(b"\x09" * 32)
    vote = make_vote(kp.sk, 3, 42, 456)
    assert (vote.validator_index, vote.request_id, vote.block_hash) == (3, 42, 456)
    assert (vote.signature.r.x, vote.signature.r.y, vote.signature.s) == VOTE_GOLDEN


def test_vote_signature_covers_contents():
    kp = eddsa.keygen(b"\x0a" * 32)
    vote = make_vote(kp.sk, 1, 2, 3)
    msg = vote_message(1, 2, 3)
    assert eddsa.verify_sig(kp.pk, msg, vote.signature)
    assert not eddsa.verify_sig(kp.pk, vote_message(1, 2, 4), vote.signature)


def test_warm_vote_makes_four_permute_misses():
    """With B's key prefix warm and A's vote for (request, hash) signed, B's
    vote for that pair misses the permutation cache 4 times: once for its
    index in the message, three times for R.x, R.y and msg in the challenge.
    The nonce takes none."""
    a = eddsa.keygen(b"\x0d" * 32)
    b = eddsa.keygen(b"\x0e" * 32)
    make_vote(b.sk, 1, 919_191, 1)  # B's key prefix
    make_vote(a.sk, 0, 424_243, 8_675_309)  # the (request, hash) prefix
    before = mimc.permute.cache_info().misses
    vote = make_vote(b.sk, 1, 424_243, 8_675_309)
    assert mimc.permute.cache_info().misses - before == 4
    assert eddsa.verify_sig(b.pk, vote_message(1, 424_243, 8_675_309), vote.signature)


# -- finality -----------------------------------------------------------------------


def test_finality_boundaries():
    chain = MockChain(random.Random(1))
    chain.advance(106)  # tip = 106
    node = make_node(0)
    assert node.answer(100, chain) == chain.block_at(100).hash % P != 0
    assert node.answer(101, chain) is None
    assert node.answer(200, chain) is None


def test_finality_orphaned_fork():
    # a block the chain view no longer returns, as when a reorg orphaned it,
    # is not final however deep the tip is
    class StubChain:
        tip = 20

        def block_at(self, number):
            return None if number == 9 else SimpleNamespace(hash=P + 7)

    node = make_node(0)
    assert node.answer(10, StubChain()) == 7
    assert node.answer(9, StubChain()) is None


# -- validator behavior ----------------------------------------------------------------


def test_on_request_happy_path():
    contract, nodes = committee_with_contract()
    chain = MockChain(random.Random(3))
    chain.advance(20)
    assert nodes[1].answer(10, chain) == chain.block_at(10).hash


def test_on_request_absent_block_abstains():
    contract, nodes = committee_with_contract()
    chain = MockChain(random.Random(4))
    chain.advance(20)
    assert nodes[1].answer(999, chain) is None


def test_on_request_unfinal_block_abstains():
    contract, nodes = committee_with_contract()
    chain = MockChain(random.Random(5))
    chain.advance(10)  # tip 10; block 5 has exactly 5 < 6 confirmations
    assert nodes[1].answer(5, chain) is None
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


# -- aggregator vote intake ---------------------------------------------------------------


def test_on_vote_first_vote_wins_under_equivocation():
    # validator 1 votes 100, then 200: the second vote is refused, and the
    # first still counts towards the majority for 100
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    sk = nodes[1].keypair.sk
    assert agg.on_vote(make_vote(sk, 1, 0, 100)) == (True, None)
    assert agg.on_vote(make_vote(sk, 1, 0, 200)) == (False, "duplicate-vote")
    for i in (0, 3):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 100))
    public, _ = agg.try_submit(0)
    assert public.block_hash == 100
    assert public.validator_bits == 0b1011


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


def test_never_synced_node_rejects_a_valid_vote_as_unregistered():
    contract, nodes = committee_with_contract(Params(depth=3), count=4)
    idle = make_node(9, contract.params)
    assert idle.local_tree is None
    vote = make_vote(nodes[1].keypair.sk, 1, 0, 123)
    assert nodes[0].on_vote(vote) == (True, None)
    assert idle.on_vote(vote) == (False, "unregistered-validator")
    assert idle.votes == {} and idle.try_submit(0) is None
    assert idle.build_slashes(0, 456) == [] and idle.local_tree is None


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
    public, _ = nodes[0].try_submit(0)
    assert public.block_hash == 123


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
    public, _ = agg.try_submit(0)
    assert public.validator_bits == 0b0111  # 2t votes -> t lowest rewarded
    assert public.block_hash == 99


def test_try_submit_majority_of_mixed_votes():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    agg.on_vote(make_vote(nodes[3].keypair.sk, 3, 0, 55))  # minority
    for i in (0, 1, 2):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99))
    public, _ = agg.try_submit(0)
    assert public.block_hash == 99
    assert public.validator_bits == 0b0111


def test_submission_deterministic_across_nodes():
    # two independently synced nodes produce bit-identical submissions
    results = []
    for _ in range(2):
        contract, nodes = committee_with_contract()
        agg = nodes[0]
        for i in (2, 0, 1):
            agg.on_vote(make_vote(nodes[i].keypair.sk, i, 7 - 7, 99))
        results.append(agg.try_submit(0))
    (a, a_proof), (b, b_proof) = results
    assert a == b
    assert a_proof.payload == b_proof.payload


def test_contract_recheck_of_checked_votes_makes_no_curve_arithmetic(monkeypatch):
    # the aggregator's on_vote checked each packaged signature, so the
    # contract's circuit reads their verdicts: no doubling, no comb addition
    contract, nodes = committee_with_contract()
    request_id = contract.request_block("client", 10, contract.params.request_fee)
    agg = nodes[contract.get_aggregator()]
    for node in nodes:
        assert agg.on_vote(make_vote(node.keypair.sk, node.index, request_id, 4242)) \
            == (True, None)
    public, proof = agg.try_submit(request_id)
    calls = []
    for name in ("_ext_double", "_ext_add_affine"):
        kernel = getattr(curve, name)
        monkeypatch.setattr(curve, name,
                            lambda *args, name=name, kernel=kernel:
                            calls.append(name) or kernel(*args))
    contract.submit_block(agg.name, request_id, 4242, public.validator_bits,
                          public.post_state_root, proof)
    assert contract.requests[request_id].status == "answered"
    assert calls == []
    curve.scalar_mul_base(12345)  # the counters do count
    assert "_ext_add_affine" in calls


# -- slashing ---------------------------------------------------------------------------------


def test_build_slashes_single_dissenter():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    for i in (0, 1, 2):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99))
    agg.on_vote(make_vote(nodes[3].keypair.sk, 3, 0, 55))
    slashes = agg.build_slashes(0, 99)
    assert [public.val_index for public, _ in slashes] == [3]


def test_build_slashes_chained_roots():
    params = Params(depth=3)
    contract, nodes = committee_with_contract(params)
    agg = nodes[0]
    for i in range(5):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99))
    for i in (5, 6):
        agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 55))
    slashes = agg.build_slashes(0, 99)
    assert [public.val_index for public, _ in slashes] == [5, 6]

    # second slash must consume the first one's post root
    shadow = agg.local_tree.copy()
    apply_slash_transfer(shadow, 0, 5)
    mid_root = shadow.root
    assert slashes[0][0].post_state_root == mid_root
    assert slashes[1][0].pre_state_root == mid_root
    apply_slash_transfer(shadow, 0, 6)
    assert slashes[1][0].post_state_root == shadow.root


def test_build_slashes_skips_unprovable_votes():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    good = make_vote(nodes[2].keypair.sk, 2, 0, 55)
    forged = replace(good, validator_index=3)  # wrong key for the index
    # as if both had passed a signature check at intake, the forgery under a
    # key index 3 has since replaced
    agg.votes[0] = {3: (forged, nodes[2].keypair.pk), 2: (good, nodes[2].keypair.pk)}
    slashes = agg.build_slashes(0, 99)
    assert [public.val_index for public, _ in slashes] == [2]


def test_zero_vote_is_slashable_dissent():
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    agg.on_vote(make_vote(nodes[3].keypair.sk, 3, 0, 0))
    slashes = agg.build_slashes(0, 99)
    assert [public.val_index for public, _ in slashes] == [3]


# -- votes after the answer ------------------------------------------------------------------


def answered_committee(voters=(1, 2, 3)):
    """A depth-2 committee whose aggregator, node 0, has answered request 0
    with hash 99 from the checked votes of the voters."""
    contract, nodes = committee_with_contract()
    agg = nodes[0]
    contract.request_block("client", 10, contract.params.request_fee)
    for i in voters:
        assert agg.on_vote(make_vote(nodes[i].keypair.sk, i, 0, 99)) == (True, None)
    public, proof = agg.try_submit(0)
    contract.submit_block(agg.name, 0, 99, public.validator_bits, public.post_state_root,
                          proof)
    return contract, nodes, agg


def test_forged_late_vote_cannot_shield_a_dissenter(monkeypatch):
    contract, nodes, agg = answered_committee(voters=(0, 1, 2))
    # a vote for the answer in validator 3's name, signed with another key
    forged = make_vote(nodes[2].keypair.sk, 3, 0, 99)
    checks = []
    real = eddsa.verify_sig
    monkeypatch.setattr(eddsa, "verify_sig", lambda *a: checks.append(1) or real(*a))
    assert agg.on_vote(forged) == (True, None)
    assert checks == []  # stored unchecked
    # validator 3's genuine dissent finds the forgery in its slot, checks it
    # and takes the slot
    dissent = make_vote(nodes[3].keypair.sk, 3, 0, 55)
    assert agg.on_vote(dissent) == (True, None)
    assert len(checks) == 2
    assert agg.votes[0][3] == (dissent, nodes[3].keypair.pk)
    agg.sync(contract.events)
    slashes = agg.build_slashes(0, 99)
    assert [s_public.val_index for s_public, _ in slashes] == [3]
    s_public, s_proof = slashes[0]
    contract.slash(agg.name, 0, 3, s_public.post_state_root, s_proof)
    assert contract.account(3).balance == 0


def test_copy_of_a_valid_unchecked_vote_is_a_duplicate():
    contract, nodes, agg = answered_committee()
    late = make_vote(nodes[0].keypair.sk, 0, 0, 99)
    assert agg.on_vote(late) == (True, None)
    assert agg.votes[0][0] == (late, None)
    assert agg.on_vote(late) == (False, "duplicate-vote")
    assert agg.votes[0][0] == (late, nodes[0].keypair.pk)
    assert agg.on_vote(make_vote(nodes[0].keypair.sk, 0, 0, 55)) == (False, "duplicate-vote")
    assert agg.votes[0][0] == (late, nodes[0].keypair.pk)


def test_unchecked_votes_are_never_packaged():
    contract, nodes, agg = answered_committee()
    # validator 0's vote is valid and has the lowest index, but arrived late
    assert agg.on_vote(make_vote(nodes[0].keypair.sk, 0, 0, 99)) == (True, None)
    public, proof = agg.try_submit(0)
    assert public.validator_bits == 0b1110


def test_honest_committee_checks_only_the_votes_it_packages(monkeypatch):
    checks = []
    real = eddsa.verify_sig
    monkeypatch.setattr(eddsa, "verify_sig", lambda *a: checks.append(1) or real(*a))
    run = run_scenario(ScenarioConfig(depth=4, committee=16, rounds=2, seed=5))
    assert [r.votes_received for r in run.metrics.rows] == [16, 16]
    assert len(checks) == 2 * 9  # t = 9 of the 16 votes per request


# one node of each adversary kind and 20% drops, as in the n16 benchmark
FAULTS = ScenarioConfig(depth=4, committee=16, rounds=40, seed=3, drop_rate=0.2,
                        adversaries={0: "offline_aggregator", 3: "duplicate_vote",
                                     6: "wrong_hash", 9: "equivocate", 12: "zero_vote"})


def test_build_slashes_rechecks_no_vote(monkeypatch):
    """Every dissent build_slashes proves was checked at intake under the key
    its index still has, so it makes no signature check of its own."""
    callers = []

    def counting(pubkey, vote):
        callers.append(sys._getframe(1).f_code.co_name)
        return signed_by(pubkey, vote)

    monkeypatch.setattr("zkoracle.nodes.signed_by", counting)
    run = run_scenario(FAULTS)
    assert sum(r.slashes for r in run.metrics.rows) > 0
    assert callers.count("on_vote") > 0
    assert callers.count("build_slashes") == 0


def test_build_slashes_copies_its_tree_once(monkeypatch):
    """build_slashes stages each slash on its one working copy.  Against the
    path it replaced, which staged on a copy of that copy and then repeated
    the transfer, every slash saves one StateTree.copy, and the slash proofs
    keep their bytes."""
    real_copy, real_prove, real_stage = StateTree.copy, circuits.prove, circuits._stage_slash

    def observed_run():
        copies, slash_payloads = [], []

        def prove(backend, circuit, public, witness):
            proof = real_prove(backend, circuit, public, witness)
            if circuit == SLASH:
                slash_payloads.append(proof.payload)
            return proof

        monkeypatch.setattr(StateTree, "copy",
                            lambda tree: copies.append(1) or real_copy(tree))
        monkeypatch.setattr(circuits, "prove", prove)
        run = run_scenario(FAULTS)
        return sum(r.slashes for r in run.metrics.rows), len(copies), slash_payloads

    def copy_then_transfer(work, agg_index, vote, request_id, answer_hash):
        staged = real_stage(work.copy(), agg_index, vote, request_id, answer_hash)
        apply_slash_transfer(work, agg_index, vote.validator_index)
        return staged

    slashes, copies, payloads = observed_run()
    monkeypatch.setattr(circuits, "_stage_slash", copy_then_transfer)
    old_slashes, old_copies, old_payloads = observed_run()
    assert slashes == old_slashes > 0
    assert old_copies - copies == slashes
    assert payloads == old_payloads


@pytest.mark.parametrize("config, timed_out", [
    (ScenarioConfig(depth=4, committee=16, rounds=40, seed=1), []),
    # online aggregators 7 and 15 time out holding votes that do not reach t
    (FAULTS, [0, 7, 15, 0, 15, 0]),
], ids=["honest", "faults"])
def test_no_vote_state_outlives_its_request(config, timed_out):
    """build_slashes drops what its aggregator held for the request, and a
    timed-out aggregator's votes go with its attempt."""
    run = run_scenario(config)
    assert [e.payload["index"] for e in run.contract.events
            if e.kind == "AggregatorTimeout"] == timed_out
    assert sum(r.votes_received for r in run.metrics.rows) > 0
    for node in run.nodes:
        assert node.votes == {} and node.answered == {}


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
    # a gap further in: last_seq counts the events applied before it
    with pytest.raises(CorruptLog):
        node.sync(contract.events[:2] + contract.events[3:])
    assert node.last_seq == 2
