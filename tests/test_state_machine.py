"""Seeded property tests of the contract state machine: random transaction
sequences, including ones that fail, against replay, atomicity and the log
codec."""

import random
from dataclasses import astuple

from zkoracle import circuits, eddsa
from zkoracle.circuits import AGGREGATION, SLASH, build_aggregation_witness, prove
from zkoracle.contract import (BLOCK_SUBMITTED, EXITED, REGISTERED, REPLACED, SLASHED,
                               WITHDRAWN, Contract, Params, conservation_trace,
                               dump_log, parse_log, replay)
from zkoracle.errors import OracleError
from zkoracle.merkle import dump_snapshot
from zkoracle.nodes import make_vote

KEYS = [eddsa.keygen(bytes([i + 1]) * 32) for i in range(6)]
SECRET = {kp.pk: kp.sk for kp in KEYS}
# names that look like numbers must come back from the log as strings
OWNERS = ["o0", "o1", "123", "1e3", "", "bad name"]


def state(c):
    """Every field the reducer writes, the log included."""
    return (c.state_root, dump_snapshot(c.tree_snapshot()), dict(c.owner_of),
            dict(c.ip_of), dict(c.exit_time_of),
            {k: astuple(r) for k, r in c.requests.items()}, c.escrow,
            c.next_request_id, c.aggregator_cursor,
            set(c.slashed), list(c.events))


def owner_or_stranger(c, rng, index):
    return c.owner_of.get(index, "o0") if rng.random() < 0.8 else "mallory"


def op_register(c, rng):
    key = rng.choice(KEYS)
    c.register(rng.choice(OWNERS), key.pk, f"10.0.0.{rng.randrange(9)}",
               rng.choice((99, 100, 150, 1 << 128)))


def op_replace(c, rng):
    index = rng.randrange(c.params.capacity)
    target = c.account(index)
    proof = c.prove(rng.choice((index, index, (index + 1) % c.params.capacity)))
    c.replace(rng.choice(OWNERS), rng.choice(KEYS).pk, "10.0.1.1",
              target.balance + rng.choice((0, 1, 50)), index, target, proof)


def op_exit(c, rng):
    index = rng.randrange(c.params.capacity)
    c.exit(owner_or_stranger(c, rng, index), c.account(index), c.prove(index))


def op_withdraw(c, rng):
    index = rng.randrange(c.params.capacity)
    c.withdraw(owner_or_stranger(c, rng, index), c.account(index), c.prove(index))


def op_time(c, rng):
    c.set_time(c.now + rng.choice((-1.0, 0.5, 30.0, float(c.params.exit_delay))))


def op_request(c, rng):
    c.request_block("client", rng.randrange(100),
                    c.params.request_fee + rng.choice((-1, 0, 5)))


def op_submit(c, rng):
    pending = [r for r in c.requests.values() if r.status == "pending"]
    members = c.occupied_indices()
    t = c.params.threshold
    if not pending or len(members) < t:
        return "skipped"
    request = rng.choice(pending)
    aggregator = c.get_aggregator()
    # a valid proof may name another aggregator: its post root cannot match
    named = rng.choice(members) if rng.random() < 0.3 else aggregator
    block_hash = rng.choice((777, 888))
    votes = [make_vote(SECRET[c.account(i).pubkey], i, request.id, block_hash)
             for i in sorted(rng.sample(members, t))]
    public, witness = build_aggregation_witness(
        c.tree_snapshot(), named, votes, request.id, block_hash)
    proof = prove("transparent", AGGREGATION, public, witness)
    post = public.post_state_root + (rng.random() < 0.1)
    c.submit_block(owner_or_stranger(c, rng, aggregator), request.id, block_hash,
                   public.validator_bits, post, proof)
    return "foreign-aggregator" if named != aggregator else None


def op_slash(c, rng):
    answered = [r for r in c.requests.values() if r.status == "answered"]
    members = c.occupied_indices()
    if not answered or len(members) < 2:
        return "skipped"
    request = rng.choice(answered)
    victim = rng.choice(members)
    beneficiary = request.agg_index if rng.random() < 0.8 else rng.choice(members)
    if beneficiary not in members:
        return "skipped"
    dissent = make_vote(SECRET[c.account(victim).pubkey], victim, request.id,
                        request.answer_hash + 1)
    public, witness = circuits.build_slash_witness(
        c.tree_snapshot(), beneficiary, dissent, request.id, request.answer_hash)
    proof = prove("transparent", SLASH, public, witness)
    c.slash(owner_or_stranger(c, rng, request.agg_index), request.id, victim,
            public.post_state_root, proof)


def op_timeout(c, rng):
    c.timeout_aggregator()


OPS = [op_register, op_replace, op_exit, op_withdraw, op_time, op_request,
       op_request, op_submit, op_submit, op_submit, op_slash, op_slash, op_timeout]


def test_random_transactions_replay_atomically():
    outcomes = {}
    for seq in range(8):
        rng = random.Random(7000 + seq)
        c = Contract(Params(depth=2))
        for i in range(rng.randint(3, 4)):
            c.register(f"o{i}", KEYS[i].pk, "10.0.0.1", 100)
        for _ in range(60):
            op = rng.choice(OPS)
            before = state(c), c.now
            try:
                outcome = op(c, rng) or "ok"
            except OracleError as exc:
                assert (state(c), c.now) == before, \
                    f"{op.__name__} raised {exc!r} after a write"
                outcome = type(exc).__name__
                if outcome == "InvalidProof" and "canonical" in str(exc):
                    outcome = "post-root-mismatch"
            key = (op.__name__, outcome)
            outcomes[key] = outcomes.get(key, 0) + 1

        rebuilt = replay(c.events, c.params)
        assert state(rebuilt) == state(c)
        params, events = parse_log(dump_log(c))
        assert (params, events) == (c.params, c.events)
        assert state(replay(events, params)) == state(c)
        assert conservation_trace(c) == []

    # the sequences reached every transition and the interesting failures
    for key in [("op_register", "ok"), ("op_register", "InvalidInput"),
                ("op_replace", "ok"), ("op_exit", "ok"), ("op_withdraw", "ok"),
                ("op_request", "ok"), ("op_submit", "ok"),
                ("op_submit", "post-root-mismatch"), ("op_slash", "ok"),
                ("op_slash", "NotAggregator"), ("op_timeout", "ok")]:
        assert outcomes.get(key), f"no {key} in {sorted(outcomes)}"


def test_membership_matches_tree_scan_after_every_event():
    # occupied_indices, get_aggregator and total_staked read owner_of, never
    # the leaves: after every transaction, failed ones included, owner_of's
    # keys must be exactly the tree's non-empty leaves
    kinds = set()
    for seq in range(4):
        rng = random.Random(7100 + seq)
        c = Contract(Params(depth=2))
        for i in range(rng.randint(3, 4)):
            c.register(f"o{i}", KEYS[i].pk, "10.0.0.1", 100)
        for _ in range(150):
            try:
                rng.choice(OPS)(c, rng)
            except OracleError:
                pass
            tree = c.tree_snapshot()
            scan = [i for i in range(c.params.capacity) if not tree.account(i).is_empty()]
            assert c.occupied_indices() == scan
            assert c.total_staked() == sum(tree.account(i).balance for i in scan)
            if scan:  # the first member at or after the cursor, wrapping around
                cursor = c.aggregator_cursor
                assert c.get_aggregator() == next((i for i in scan if i >= cursor), scan[0])
        kinds.update(event.kind for event in c.events)
    assert {REGISTERED, REPLACED, EXITED, WITHDRAWN, BLOCK_SUBMITTED, SLASHED} <= kinds
