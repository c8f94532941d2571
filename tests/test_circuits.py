"""Aggregation and slashing circuit tests."""

import json
import random
from dataclasses import replace

import pytest

from helpers import (ORDER_8, build_committee, honest_votes, hostile_payloads,
                     random_occupied_tree, ref_assert_distinct, ref_credit,
                     ref_verify_sig)
from zkoracle import circuits, curve, eddsa, merkle, mimc, selfcheck
from zkoracle.circuits import (AGGREGATION, SLASH, AggregationWitness,
                               ConstraintMeter, _stage_aggregation,
                               aggregation_witness_from_obj,
                               aggregation_witness_to_obj,
                               build_aggregation_witness, build_slash_witness,
                               check_aggregation, check_slash, prove,
                               slash_witness_from_obj, threshold, verify)
from zkoracle.errors import MixedVotes, NotSlashable, UnknownBackend, WrongVoteCount
from zkoracle.field import P
from zkoracle.merkle import MAX_LOG_DEPTH, Account
from zkoracle.nodes import Vote, make_vote, vote_message

AGG_REWARD = 50
VAL_REWARD = 10


def honest_instance(depth=2, request_id=5, block_hash=777, agg_index=0, key_salt=0):
    tree, keys = build_committee(depth, key_salt=key_salt)
    t = threshold(depth)
    votes = honest_votes(keys, range(t), request_id, block_hash)
    public, witness = build_aggregation_witness(tree, agg_index, votes, request_id,
                                                block_hash)
    return tree, keys, votes, public, witness


def shadow_apply_aggregation(tree, agg_index, voted_indices):
    shadow = tree.copy()
    account = shadow.account(agg_index)
    shadow.set_account(agg_index, replace(account, balance=account.balance + AGG_REWARD))
    for i in voted_indices:
        account = shadow.account(i)
        shadow.set_account(i, replace(account, balance=account.balance + VAL_REWARD))
    return shadow.root


def test_honest_instance_accepts():
    tree, _, votes, public, witness = honest_instance()
    report = check_aggregation(public, witness)
    assert report.ok, report.failure_site
    assert public.validator_bits == 0b111
    assert public.post_state_root == shadow_apply_aggregation(
        tree, 0, [v.validator_index for v in votes])


def test_validator_bits_accumulation():
    # voters 0, 2, 3 at depth 2 force bits 2^0 + 2^2 + 2^3
    tree, keys = build_committee(2)
    votes = honest_votes(keys, [0, 2, 3], 5, 777)
    public, witness = build_aggregation_witness(tree, 1, votes, 5, 777)
    assert public.validator_bits == 0b1101
    assert check_aggregation(public, witness).ok


def test_wrong_claimed_hash_fails_at_blockhash_site():
    tree, keys = build_committee(2)
    votes = honest_votes(keys, [0, 1], 5, 777)
    votes.append(make_vote(keys[2].sk, 2, 5, 778))
    public, witness = _stage_aggregation(tree, 0, votes, 5, 777)
    report = check_aggregation(public, witness)
    assert not report.ok
    assert report.failure_site == "vote[2].block-hash"


def test_duplicate_vote_index_fails():
    tree, keys = build_committee(2)
    votes = honest_votes(keys, [0, 1], 5, 777)
    votes.append(votes[0])
    public, witness = _stage_aggregation(tree, 0, votes, 5, 777)
    report = check_aggregation(public, witness)
    assert not report.ok
    assert report.failure_site.startswith("duplicate-vote")


def _distinct_reports(values):
    fast, ref = ConstraintMeter(), ConstraintMeter()
    fast.assert_distinct(values, "duplicate-vote")
    ref_assert_distinct(ref, values, "duplicate-vote")
    return fast.report(), ref.report()


def test_duplicate_check_matches_quadratic_reference():
    rng = random.Random(41)
    t = threshold(8)
    cases = [
        [], [7], [3, 1, 2],                     # no duplicates
        [4, 9, 4],                              # one pair
        [5, 3, 7, 3, 5, 1],                     # several: the earliest i wins, not the first j
        [6, 0, 1, 2, 6], [0, 1, 2, 3, 2],       # duplicate in the first / last position
        [8, 4, 8, 8], [2, 8, 4, 8, 8],          # three copies of one index
        [2, 1, 1.0], [True, 0, 1], [1.0, 5, True, 1], [0, False, 0.0],  # equal across types
        list(range(t)),
        rng.sample(range(1 << 8), t),
    ]
    for _ in range(4):                          # t = 129 votes with planted duplicates
        values = rng.sample(range(1 << 8), t)
        for _ in range(rng.randint(1, 3)):
            values[rng.randrange(t)] = values[rng.randrange(t)]
        cases.append(values)
    for _ in range(200):                        # short lists over a small alphabet
        cases.append([rng.randrange(6) for _ in range(rng.randint(2, 9))])
    for values in cases:
        fast, ref = _distinct_reports(values)
        assert fast == ref, values
    assert _distinct_reports([5, 3, 7, 3, 5, 1])[0].failure_site == "duplicate-vote[0,4]"
    assert _distinct_reports(list(range(t)))[0].constraint_count == t * (t - 1)


def test_underfull_popcount_cannot_be_accepted():
    # a t-slot witness claiming popcount t-1 needs a duplicated index
    tree, keys = build_committee(2)
    votes = honest_votes(keys, [0, 1], 5, 777) + honest_votes(keys, [1], 5, 777)
    public, witness = _stage_aggregation(tree, 0, votes, 5, 777)
    assert bin(public.validator_bits).count("1") == 2
    report = check_aggregation(public, witness)
    assert not report.ok


def test_wrong_declared_bits_fails():
    _, _, _, public, witness = honest_instance()
    tampered = replace(public, validator_bits=0b1011)
    report = check_aggregation(tampered, witness)
    assert not report.ok
    assert report.failure_site == "validator-bits"


def test_tampered_signature_fails():
    tree, keys, votes, public, witness = honest_instance()
    bad_sig = eddsa.Signature(witness.votes[1].signature.r,
                              (witness.votes[1].signature.s + 1) % curve.L)
    bad_votes = list(witness.votes)
    bad_votes[1] = replace(bad_votes[1], signature=bad_sig)
    report = check_aggregation(public, replace(witness, votes=tuple(bad_votes)))
    assert not report.ok
    assert report.failure_site == "vote[1].sig-x"


# constraint counts at depth 2, identical for every witness
AGGREGATION_COUNT_D2 = 45202
SLASH_COUNT_D2 = 17984
# off the curve; the curve kernels give garbage for it that differs between
# multiplication methods, which the circuits must never let through
OFF_CURVE = curve.Point(5, 7)


def _with_off_curve_key(index):
    tree, keys = build_committee(2)
    tree.set_account(index, Account(index, OFF_CURVE, 100))
    return tree, keys


def _with_off_curve_r(vote_witness):
    return replace(vote_witness, signature=eddsa.Signature(OFF_CURVE,
                                                           vote_witness.signature.s))


def test_off_curve_vote_key_or_r_fails_on_curve_site():
    tree, keys = _with_off_curve_key(1)
    votes = honest_votes(keys, range(3), 5, 777)
    public, witness = build_aggregation_witness(tree, 0, votes, 5, 777)
    bad_key = check_aggregation(public, witness)

    _, _, _, public, witness = honest_instance()
    bad_votes = list(witness.votes)
    bad_votes[2] = _with_off_curve_r(bad_votes[2])
    bad_r = check_aggregation(public, replace(witness, votes=tuple(bad_votes)))
    for report, site in ((bad_key, "vote[1].pk-on-curve"), (bad_r, "vote[2].r-on-curve")):
        assert not report.ok
        assert report.failure_site == site
        assert report.constraint_count == AGGREGATION_COUNT_D2


def test_off_curve_victim_key_or_r_fails_on_curve_site():
    tree, keys = _with_off_curve_key(3)
    public, witness = build_slash_witness(tree, 0, make_vote(keys[3].sk, 3, 9, 555),
                                          9, 666)
    bad_key = check_slash(public, witness)

    tree, keys = build_committee(2)
    public, witness = build_slash_witness(tree, 0, make_vote(keys[3].sk, 3, 9, 555),
                                          9, 666)
    assert check_slash(public, witness).constraint_count == SLASH_COUNT_D2
    bad_r = check_slash(public, replace(witness, victim=_with_off_curve_r(witness.victim)))
    for report, site in ((bad_key, "victim.pk-on-curve"), (bad_r, "victim.r-on-curve")):
        assert not report.ok
        assert report.failure_site == site
        assert report.constraint_count == SLASH_COUNT_D2


def _zero_z_vote(index, request_id, block_hash):
    """A vote under the key ORDER_8 whose off-curve R makes R + c*ORDER_8
    projective with Z = (1 + dxy)(1 - dxy) = 0: R is chosen for each odd
    multiple Q of ORDER_8 so that d*R.x*R.y*Q.x*Q.y = 1, until its challenge
    c gives c*ORDER_8 = Q."""
    msg = vote_message(index, request_id, block_hash)
    targets = [curve.scalar_mul(k, ORDER_8) for k in (1, 3, 5, 7)]
    for rx in range(1, 100):
        for q in targets:
            r = curve.Point(rx, pow(curve.D * rx * q.x * q.y, -1, P))
            c = eddsa.challenge(r, ORDER_8, msg)
            if curve.scalar_mul(c, ORDER_8) == q:
                assert curve.add_projective(r, q)[2] == 0
                return Vote(index, request_id, block_hash, eddsa.Signature(r, 1))
    raise AssertionError("no R found")


def _with_s_plus_l(vote_witness):
    sig = vote_witness.signature
    return replace(vote_witness, signature=eddsa.Signature(sig.r, sig.s + curve.L))


def test_signature_check_matches_affine_reference(monkeypatch):
    # the projective comparison reports what the affine one did, on every
    # witness: honest, decodable hostile payloads, off-curve R or pk, R + c*pk
    # with Z = 0, and s + L (which only the decoder rejects)
    tree, keys, _, public, witness = honest_instance()
    s_public, s_witness = build_slash_witness(tree, 0, make_vote(keys[3].sk, 3, 5, 888),
                                              5, 777)
    cases = [(check_aggregation, public, witness), (check_slash, s_public, s_witness)]
    for circuit, pub, wit, check, decode in (
            (AGGREGATION, public, witness, check_aggregation, aggregation_witness_from_obj),
            (SLASH, s_public, s_witness, check_slash, slash_witness_from_obj)):
        # the decoders reject every mutant there is today; one added later
        # that decodes is compared here too
        for payload in hostile_payloads(prove("transparent", circuit, pub, wit).payload):
            try:
                cases.append((check, pub, decode(json.loads(payload))))
            except (KeyError, ValueError, TypeError, RecursionError):
                pass

    key_tree, key_keys = _with_off_curve_key(1)
    cases.append((check_aggregation, *build_aggregation_witness(
        key_tree, 0, honest_votes(key_keys, range(3), 5, 777), 5, 777)))
    key_tree, key_keys = _with_off_curve_key(3)
    cases.append((check_slash, *build_slash_witness(
        key_tree, 0, make_vote(key_keys[3].sk, 3, 9, 555), 9, 666)))
    votes = list(witness.votes)
    cases.append((check_aggregation, public, replace(
        witness, votes=(_with_off_curve_r(votes[0]), *votes[1:]))))
    cases.append((check_slash, s_public,
                  replace(s_witness, victim=_with_off_curve_r(s_witness.victim))))

    torsion_tree, torsion_keys = build_committee(2)
    torsion_tree.set_account(2, Account(2, ORDER_8, 100))
    torsion_tree.set_account(3, Account(3, ORDER_8, 100))
    cases.append((check_aggregation, *build_aggregation_witness(
        torsion_tree, 0, honest_votes(torsion_keys, [0, 1], 5, 777)
        + [_zero_z_vote(2, 5, 777)], 5, 777)))
    cases.append((check_slash, *build_slash_witness(
        torsion_tree, 0, _zero_z_vote(3, 9, 555), 9, 666)))

    cases.append((check_aggregation, public, replace(
        witness, votes=(_with_s_plus_l(votes[0]), *votes[1:]))))
    cases.append((check_slash, s_public,
                  replace(s_witness, victim=_with_s_plus_l(s_witness.victim))))

    reports = [check(pub, wit) for check, pub, wit in cases]
    monkeypatch.setattr(circuits, "_verify_sig", ref_verify_sig)
    assert reports == [check(pub, wit) for check, pub, wit in cases]
    sites = [report.failure_site for report in reports[-8:-2]]
    assert sites == ["vote[1].pk-on-curve", "victim.pk-on-curve", "vote[0].r-on-curve",
                     "victim.r-on-curve", "vote[2].r-on-curve", "victim.r-on-curve"]
    assert [report.ok for report in reports[:2] + reports[-2:]] == [True] * 4


def test_warm_signature_checks_make_no_inversion(monkeypatch):
    _, keys, votes, public, witness = honest_instance()
    msg = vote_message(0, 5, 777)
    assert check_aggregation(public, witness).ok  # fills the scalar caches
    assert eddsa.verify_sig(keys[0].pk, msg, votes[0].signature)

    inversions = 0
    inverse = curve._inverse

    def counting(z):
        nonlocal inversions
        inversions += 1
        return inverse(z)

    monkeypatch.setattr(curve, "_inverse", counting)
    assert check_aggregation(public, witness).ok
    assert inversions == 0
    assert eddsa.verify_sig(keys[0].pk, msg, votes[0].signature)
    assert inversions == 0


def test_nonmember_account_fails_membership():
    tree, keys = build_committee(2)
    outsider = eddsa.keygen(b"\xee" * 32)
    votes = honest_votes(keys, [0, 1], 5, 777)
    votes.append(make_vote(outsider.sk, 2, 5, 777))
    # witness claims the outsider's key at index 2, which the tree never held
    work = tree.copy()
    public, witness = _stage_aggregation(work, 0, votes, 5, 777)
    bad_votes = list(witness.votes)
    bad_votes[2] = replace(bad_votes[2],
                           account=replace(bad_votes[2].account, pubkey=outsider.pk))
    report = check_aggregation(public, replace(witness, votes=tuple(bad_votes)))
    assert not report.ok
    assert report.failure_site in ("vote[2].leaf", "vote[2].membership")


def test_wrong_post_root_fails():
    _, _, _, public, witness = honest_instance()
    tampered = replace(public, post_state_root=public.post_state_root + 1)
    report = check_aggregation(tampered, witness)
    assert not report.ok
    assert report.failure_site == "post-state-root"


def test_wrong_vote_count_raises():
    tree, keys = build_committee(2)
    votes = honest_votes(keys, [0, 1], 5, 777)
    with pytest.raises(WrongVoteCount):
        build_aggregation_witness(tree, 0, votes, 5, 777)


def test_mixed_votes_raises():
    tree, keys = build_committee(2)
    votes = honest_votes(keys, [0, 1], 5, 777)
    votes.append(make_vote(keys[2].sk, 2, 5, 888))
    with pytest.raises(MixedVotes):
        build_aggregation_witness(tree, 0, votes, 5, 777)


def test_aggregator_may_vote():
    tree, keys = build_committee(2)
    votes = honest_votes(keys, [0, 1, 2], 5, 777)
    public, witness = build_aggregation_witness(tree, 0, votes, 5, 777)
    report = check_aggregation(public, witness)
    assert report.ok
    assert public.post_state_root == shadow_apply_aggregation(tree, 0, [0, 1, 2])


def test_constraint_count_deterministic_and_value_independent():
    reports = []
    for salt in (0, 50):
        _, _, _, public, witness = honest_instance(key_salt=salt)
        reports.append(check_aggregation(public, witness))
    assert reports[0].constraint_count == reports[1].constraint_count
    # a failing instance has the identical count
    tampered = replace(public, post_state_root=1)
    failing = check_aggregation(tampered, witness)
    assert failing.constraint_count == reports[0].constraint_count


def test_constraint_count_is_the_count_of_every_witness():
    # read once from the widest witness, which satisfies nothing
    assert circuits.constraint_count(AGGREGATION, 2) == AGGREGATION_COUNT_D2
    assert circuits.constraint_count(SLASH, 2) == SLASH_COUNT_D2
    for depth in (2, 3):
        tree, keys, _, public, witness = honest_instance(depth=depth)
        report = check_aggregation(public, witness)
        assert report.ok
        assert circuits.constraint_count(AGGREGATION, depth) == report.constraint_count
        s_public, s_witness = build_slash_witness(
            tree, 0, make_vote(keys[1].sk, 1, 5, 778), 5, 777)
        s_report = check_slash(s_public, s_witness)
        assert s_report.ok
        assert circuits.constraint_count(SLASH, depth) == s_report.constraint_count


def test_slash_count_depends_only_on_depth():
    counts = {}
    for depth in (2, 3, 4):
        for victim_balance in (0, 500):
            tree, keys = build_committee(depth, stakes=[victim_balance] * (1 << depth))
            vote = make_vote(keys[1].sk, 1, 9, 111)
            public, witness = build_slash_witness(tree, 0, vote, 9, 222)
            report = check_slash(public, witness)
            assert report.ok, report.failure_site
            counts.setdefault(depth, set()).add(report.constraint_count)
    assert all(len(v) == 1 for v in counts.values())
    assert counts[2] != counts[3] != counts[4]


# -- slashing circuit ---------------------------------------------------------


def test_slash_transfers_whole_balance():
    tree, keys = build_committee(2, stakes=[100, 100, 100, 100])
    dissent = make_vote(keys[3].sk, 3, 9, 555)
    public, witness = build_slash_witness(tree, 0, dissent, 9, 666)
    report = check_slash(public, witness)
    assert report.ok, report.failure_site

    shadow = tree.copy()
    shadow.set_account(3, replace(shadow.account(3), balance=0))
    shadow.set_account(0, replace(shadow.account(0), balance=200))
    assert public.post_state_root == shadow.root


def test_slash_zero_balance_victim():
    tree, keys = build_committee(2, stakes=[100, 100, 100, 0])
    dissent = make_vote(keys[3].sk, 3, 9, 555)
    public, witness = build_slash_witness(tree, 0, dissent, 9, 666)
    assert check_slash(public, witness).ok
    # net transfer 0 but both leaves rewritten; root equals the rewrite
    shadow = tree.copy()
    shadow.set_account(3, replace(shadow.account(3), balance=0))
    shadow.set_account(0, replace(shadow.account(0), balance=100))
    assert public.post_state_root == shadow.root


def test_majority_voter_not_slashable():
    tree, keys = build_committee(2)
    vote = make_vote(keys[2].sk, 2, 9, 666)
    with pytest.raises(NotSlashable):
        build_slash_witness(tree, 0, vote, 9, 666)


def test_slash_equal_hash_fails_dissent_site():
    tree, keys = build_committee(2)
    vote = make_vote(keys[2].sk, 2, 9, 555)
    public, witness = build_slash_witness(tree, 0, vote, 9, 666)
    forced = replace(public, block_hash=555)
    report = check_slash(forced, witness)
    assert not report.ok
    assert report.failure_site == "dissent"


def test_slash_relabelled_majority_vote_fails_dissent_site():
    # a vote for 666 also verifies as a vote for 666 + P, which the circuit
    # sees as the same field element: it agrees with the answer
    tree, keys = build_committee(2)
    vote = make_vote(keys[2].sk, 2, 9, 666)
    relabelled = replace(vote, block_hash=666 + P)
    with pytest.raises(NotSlashable):
        build_slash_witness(tree, 0, relabelled, 9, 666)
    public, witness = build_slash_witness(tree, 0, replace(vote, block_hash=555), 9, 666)
    forced = replace(witness, victim=replace(witness.victim, claimed_block_hash=666 + P))
    report = check_slash(public, forced)
    assert not report.ok
    assert report.failure_site == "dissent"
    assert report.constraint_count == check_slash(public, witness).constraint_count


def test_slash_forged_signature_fails():
    tree, keys = build_committee(2)
    vote = make_vote(keys[2].sk, 2, 9, 555)
    forged = replace(vote, signature=eddsa.Signature(vote.signature.r,
                                                     (vote.signature.s + 1) % curve.L))
    public, witness = build_slash_witness(tree, 0, forged, 9, 666)
    report = check_slash(public, witness)
    assert not report.ok
    assert report.failure_site == "victim.sig-x"


def test_slash_index_binding():
    tree, keys = build_committee(2)
    vote = make_vote(keys[2].sk, 2, 9, 555)
    public, witness = build_slash_witness(tree, 0, vote, 9, 666)
    assert not check_slash(replace(public, val_index=1), witness).ok
    assert not check_slash(replace(public, agg_index=3), witness).ok
    same = replace(public, agg_index=2)
    report = check_slash(same, witness)
    assert not report.ok
    assert report.failure_site == "distinct-indices"


# -- proof backend -------------------------------------------------------------


def test_prove_verify_roundtrip():
    _, _, _, public, witness = honest_instance()
    proof = prove("transparent", AGGREGATION, public, witness)
    assert verify("transparent", AGGREGATION, public, proof)


def test_verify_rejects_tampered_public():
    _, _, _, public, witness = honest_instance()
    proof = prove("transparent", AGGREGATION, public, witness)
    bad = replace(public, post_state_root=public.post_state_root + 1)
    assert not verify("transparent", AGGREGATION, bad, proof)


def test_verify_rejects_cross_instance_replay():
    _, _, _, public, witness = honest_instance(request_id=5)
    proof = prove("transparent", AGGREGATION, public, witness)
    other = replace(public, request_id=6)
    assert not verify("transparent", AGGREGATION, other, proof)


def test_unknown_backend_and_circuit():
    _, _, _, public, witness = honest_instance()
    with pytest.raises(UnknownBackend):
        prove("groth16", AGGREGATION, public, witness)
    with pytest.raises(UnknownBackend):
        prove("transparent", "nonsense", public, witness)


def test_verify_rejects_hostile_payloads_without_raising():
    tree, keys, _, public, witness = honest_instance()
    proof = prove("transparent", AGGREGATION, public, witness)
    s_public, s_witness = build_slash_witness(tree, 0, make_vote(keys[3].sk, 3, 5, 888),
                                              5, 777)
    s_proof = prove("transparent", SLASH, s_public, s_witness)
    for circuit, pub, good in ((AGGREGATION, public, proof), (SLASH, s_public, s_proof)):
        assert verify("transparent", circuit, pub, good)
        for payload in hostile_payloads(good.payload):
            bad = replace(good, payload=payload)
            assert verify("transparent", circuit, pub, bad) is False, payload[:40]


def test_verify_refuses_oversize_payloads_unread(monkeypatch):
    tree, keys, _, public, witness = honest_instance()
    proof = prove("transparent", AGGREGATION, public, witness)
    s_public, s_witness = build_slash_witness(tree, 0, make_vote(keys[3].sk, 3, 5, 888),
                                              5, 777)
    s_proof = prove("transparent", SLASH, s_public, s_witness)

    def pad_to(p, size):
        return replace(p, payload=p.payload + b" " * (size - len(p.payload)))

    # an aggregation's depth follows from its vote count, 3 = 2^(2-1) + 1; a
    # slash is bounded at the deepest tree
    for circuit, pub, good, bound in (
            (AGGREGATION, public, proof, circuits.max_payload_size(AGGREGATION, 2)),
            (SLASH, s_public, s_proof, circuits.max_payload_size(SLASH, MAX_LOG_DEPTH))):
        assert verify("transparent", circuit, pub, pad_to(good, bound))
        loads = []
        monkeypatch.setattr(circuits.json, "loads", lambda raw: loads.append(raw))
        assert not verify("transparent", circuit, pub, pad_to(good, bound + 1))
        assert loads == []
        monkeypatch.undo()
    # vote counts no depth in [1, MAX_LOG_DEPTH] has, and bits of other types
    for bits in (0, 0b1, 0b1111, (1 << (1 << MAX_LOG_DEPTH) + 1) - 1, "0b111", None, 7.0):
        assert not verify("transparent", AGGREGATION, replace(public, validator_bits=bits),
                          proof)


def test_witness_serialization_roundtrip():
    _, _, _, public, witness = honest_instance()
    obj = aggregation_witness_to_obj(witness)
    assert aggregation_witness_from_obj(obj) == witness


JUNK_VALUES = [None, True, False, 0, 1, -1, 1.5, float("inf"), "", "x", "-1", " 1",
               "1e3", str(P), [], {}, ["1"], {"1": "1"}]


def _mutate_record(obj, rng):
    """Drop, replace or add one value somewhere inside a decoded payload."""
    records = []

    def walk(node):
        if isinstance(node, (dict, list)):
            records.append(node)
            for child in (node.values() if isinstance(node, dict) else node):
                walk(child)
    walk(obj)
    record = rng.choice(records)
    keys = list(record) if isinstance(record, dict) else list(range(len(record)))
    action = rng.choice(("drop", "replace", "add")) if keys else "add"
    if action == "drop":
        del record[rng.choice(keys)]
    elif action == "replace":
        record[rng.choice(keys)] = rng.choice(JUNK_VALUES)
    elif isinstance(record, dict):
        record[rng.choice(("extra", "aggregator_secret"))] = rng.choice(JUNK_VALUES)
    else:
        record.append(rng.choice(record) if record else "0")


def _fuzzed_payloads(payload, rng):
    """150 seeded mutants of a payload: seven in ten edit one decoded value,
    the others overwrite one byte and cut the payload at or after it."""
    mutants = []
    for _ in range(150):
        if rng.random() < 0.7:
            obj = json.loads(payload)
            _mutate_record(obj, rng)
            mutants.append(json.dumps(obj).encode())
        else:
            data = bytearray(payload)
            k = rng.randrange(len(data))
            data[k] = rng.randrange(256)
            mutants.append(bytes(data[:rng.randrange(k, len(data)) + 1]))
    return mutants


def test_fuzzed_payloads_verify_false_or_decode_to_the_witness():
    # every mutant of a real payload either verifies False without raising or
    # decodes to the very witness the prover encoded
    tree, keys, _, public, witness = honest_instance()
    s_public, s_witness = build_slash_witness(tree, 0, make_vote(keys[3].sk, 3, 5, 888),
                                              5, 777)
    rng = random.Random(2409)
    for circuit, pub, wit in ((AGGREGATION, public, witness), (SLASH, s_public, s_witness)):
        good = prove("transparent", circuit, pub, wit)
        for payload in _fuzzed_payloads(good.payload, rng):
            if verify("transparent", circuit, pub, replace(good, payload=payload)):
                decode = (aggregation_witness_from_obj if circuit == AGGREGATION
                          else slash_witness_from_obj)
                assert decode(json.loads(payload)) == wit, payload[:80]


def test_serialized_instances_golden():
    # regression pins for the canonical decimal-record encodings; fixed keys
    import hashlib

    _, keys, votes, public, witness = honest_instance()
    proof = prove("transparent", AGGREGATION, public, witness)
    assert hashlib.sha256(proof.payload).hexdigest() == \
        "2b2b0f75419f13b4a694218566f5c72f4f653136ff146cca5c848a0d8195db72"
    assert public.pre_state_root == \
        1245594603875225791434294640521501230096359233096937346900404774255669017008
    assert public.post_state_root == \
        16196475012961180160665806220046311013974894402116167899345554101994514142248

    dissent = make_vote(keys[3].sk, 3, 5, 888)
    tree, _ = build_committee(2)
    s_public, s_witness = build_slash_witness(tree, 0, dissent, 5, 777)
    s_proof = prove("transparent", SLASH, s_public, s_witness)
    assert hashlib.sha256(s_proof.payload).hexdigest() == \
        "36f39f1c730ac78dd1da29bb298c6d8f14426b55a24143dc74ef83aa33b43804"


def test_slash_proof_roundtrip():
    tree, keys = build_committee(2)
    vote = make_vote(keys[2].sk, 2, 9, 555)
    public, witness = build_slash_witness(tree, 0, vote, 9, 666)
    proof = prove("transparent", SLASH, public, witness)
    assert verify("transparent", SLASH, public, proof)
    assert not verify("transparent", SLASH, replace(public, val_index=1), proof)


def test_full_committee_build_hashes_each_changed_node_once(monkeypatch):
    tree, keys = build_committee(8)
    votes = honest_votes(keys, range(threshold(8)), 5, 777)
    tree.root
    calls = []
    real = merkle.mimc_hash
    monkeypatch.setattr(merkle, "mimc_hash", lambda xs: calls.append(1) or real(xs))
    public, witness = build_aggregation_witness(tree, 0, votes, 5, 777)
    # The build writes leaves 0 (the aggregator, then vote 0) to 128.  Their
    # stale ancestors are leaves 0..128 and, a level up each time, 65, 33, 17,
    # 9, 5, 3, 2 and 1 nodes: 129 + 135.  Each is hashed once, when a later
    # proof reads it as a sibling or the post root is read; only leaf 0 is
    # hashed twice, as vote 0's proof reads it between its two writes.  The
    # full-path rehash hashed 1179 times here.
    assert len(calls) <= 129 + 135 + 1
    monkeypatch.undo()
    # verifying the proof right away hashes only what the build hashed
    proof = prove("transparent", AGGREGATION, public, witness)
    misses = mimc.permute.cache_info().misses
    assert verify("transparent", AGGREGATION, public, proof)
    assert mimc.permute.cache_info().misses == misses


# -- state-transition equivalence over random instances ---------------------------


def test_random_instances_match_shadow_tree():
    rng = random.Random(31)
    pool = [eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big")) for _ in range(16)]
    for _ in range(40):
        depth = rng.choice((2, 3, 4))
        t = threshold(depth)
        tree, occupied = random_occupied_tree(rng, depth, pool, min_occupied=t)
        voters = sorted(rng.sample(occupied, t))
        agg_index = rng.choice(occupied)
        request_id = rng.randrange(1000)
        block_hash = rng.randrange(1 << 200)
        votes = [make_vote(pool[i].sk, i, request_id, block_hash) for i in voters]
        public, witness = build_aggregation_witness(
            tree, agg_index, votes, request_id, block_hash)
        report = check_aggregation(public, witness)
        assert report.ok, report.failure_site
        assert public.post_state_root == shadow_apply_aggregation(tree, agg_index, voters)


# -- lazy root folds against the full-fold reference --------------------------------


def _member(witness, k):
    """(account, proof) of member k: 0 is the aggregator, k > 0 vote k - 1
    or the victim."""
    if k == 0:
        return witness.aggregator_account, witness.aggregator_proof
    vote = witness.votes[k - 1] if isinstance(witness, AggregationWitness) else witness.victim
    return vote.account, vote.merkle_proof


def _with_member(witness, k, account, proof):
    if k == 0:
        return replace(witness, aggregator_account=account, aggregator_proof=proof)
    if not isinstance(witness, AggregationWitness):
        return replace(witness, victim=replace(witness.victim, account=account,
                                               merkle_proof=proof))
    votes = list(witness.votes)
    votes[k - 1] = replace(votes[k - 1], account=account, merkle_proof=proof)
    return replace(witness, votes=tuple(votes))


def _in_memory_mutants(rng, public, witness):
    """Witnesses no decoder would produce, each edited in one place: a
    sibling plus P or replaced at random, a balance plus P, a path one
    sibling short or long, the post root plus 1 or plus P, and, for an
    aggregation, two votes swapped or one duplicated."""
    members = 1 + (len(witness.votes) if isinstance(witness, AggregationWitness) else 1)

    def edit_path(change):
        k = rng.randrange(members)
        account, proof = _member(witness, k)
        return _with_member(witness, k, account, replace(proof, path=change(list(proof.path))))

    def at_random_level(value):
        def change(path):
            level = rng.randrange(len(path))
            path[level] = value(path[level])
            return tuple(path)
        return change

    k = rng.randrange(members)
    account, proof = _member(witness, k)
    mutants = [(public, witness),
               (public, edit_path(at_random_level(lambda s: s + P))),
               (public, edit_path(at_random_level(lambda s: rng.randrange(P)))),
               (public, _with_member(witness, k, replace(account, balance=account.balance + P),
                                     proof)),
               (public, edit_path(lambda path: tuple(path[:-1]))),
               (public, edit_path(lambda path: (*path, rng.randrange(P)))),
               (replace(public, post_state_root=public.post_state_root + 1), witness),
               (replace(public, post_state_root=public.post_state_root + P), witness)]
    if isinstance(witness, AggregationWitness):
        votes = list(witness.votes)
        i, j = sorted(rng.sample(range(len(votes)), 2))
        swapped = votes[:i] + [votes[j]] + votes[i + 1:j] + [votes[i]] + votes[j + 1:]
        duplicated = votes[:j] + [votes[i]] + votes[j + 1:]
        mutants += [(public, replace(witness, votes=tuple(swapped))),
                    (public, replace(witness, votes=tuple(duplicated)))]
    return mutants


def _outcome(check, public, witness):
    try:
        return check(public, witness)
    except (ValueError, WrongVoteCount) as exc:
        return type(exc)


def test_lazy_root_folds_match_full_folds(monkeypatch):
    # hashing each running root only as far as the decision needs reports
    # exactly what hashing it to the top did: over the hostile and fuzzed
    # payloads that decode, criterion 1's exhaustive packagings and seeded
    # in-memory mutants of random instances
    cases = []
    tree, keys, _, public, witness = honest_instance()
    s_public, s_witness = build_slash_witness(tree, 0, make_vote(keys[3].sk, 3, 5, 888),
                                              5, 777)
    fuzz = random.Random(2409)
    for circuit, pub, wit, check, decode in (
            (AGGREGATION, public, witness, check_aggregation, aggregation_witness_from_obj),
            (SLASH, s_public, s_witness, check_slash, slash_witness_from_obj)):
        good = prove("transparent", circuit, pub, wit).payload
        for payload in hostile_payloads(good) + _fuzzed_payloads(good, fuzz):
            try:
                cases.append((check, pub, decode(json.loads(payload))))
            except (KeyError, ValueError, TypeError, RecursionError):
                pass

    def record(public, witness):
        cases.append((check_aggregation, public, witness))
        return check_aggregation(public, witness)
    monkeypatch.setattr(selfcheck, "check_aggregation", record)
    assert selfcheck.aggregation_brute_force() == []
    monkeypatch.undo()

    rng = random.Random(1808)
    pool = [eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big")) for _ in range(16)]
    for _ in range(20):
        depth = rng.choice((2, 3, 4))
        tree, occupied = random_occupied_tree(rng, depth, pool, min_occupied=threshold(depth))
        agg_index = rng.choice(occupied)
        voters = sorted(rng.sample(occupied, threshold(depth)))
        votes = [make_vote(pool[i].sk, i, 3, 777) for i in voters]
        cases += [(check_aggregation, *mutant) for mutant in _in_memory_mutants(
            rng, *build_aggregation_witness(tree, agg_index, votes, 3, 777))]
        victim = rng.choice([i for i in occupied if i != agg_index])
        cases += [(check_slash, *mutant) for mutant in _in_memory_mutants(
            rng, *build_slash_witness(tree, agg_index, make_vote(pool[victim].sk, victim, 3, 888),
                                      3, 777))]

    lazy = [_outcome(*case) for case in cases]
    monkeypatch.setattr(circuits, "_credit", ref_credit)
    monkeypatch.setattr(circuits, "_root_hash", lambda root: root)  # already a hash
    assert lazy == [_outcome(*case) for case in cases]
    assert len(cases) >= 600
    # the cases accept, fail at both root checks and raise both errors
    sites = {outcome if type(outcome) is type else (outcome.failure_site or "").split(".")[-1]
             for outcome in lazy}
    assert {"", "membership", "post-state-root", ValueError, WrongVoteCount} <= sites
