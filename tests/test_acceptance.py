"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import random
import time
from dataclasses import replace

from helpers import random_occupied_tree
from zkoracle import eddsa
from zkoracle.circuits import (AGGREGATION, SLASH, build_aggregation_witness,
                               build_slash_witness, check_aggregation, check_slash,
                               payload_size, threshold)
from zkoracle.cli import bundled_scenarios, scaling_row
from zkoracle.contract import Contract, Params, dump_log, parse_log, replay
from zkoracle.errors import ExitTimeNotReached, StakeTooLow
from zkoracle.merkle import Account, StateTree, dump_snapshot
from zkoracle.nodes import make_vote
from zkoracle.selfcheck import aggregation_brute_force, conservation_suite
from zkoracle.simnet import T_AGG, ScenarioConfig, run_scenario

AGG_REWARD = 50
VAL_REWARD = 10

_RUNS = {}


def bundled_run(name):
    if name not in _RUNS:
        _RUNS[name] = run_scenario(bundled_scenarios()[name])
    return _RUNS[name]


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, detail


# -- 1. circuit brute-force soundness -------------------------------------------


def test_criterion_1_brute_force_soundness():
    start = time.monotonic()
    problems = aggregation_brute_force()
    elapsed = time.monotonic() - start
    report(1, not problems and elapsed < 10.0,
           f"brute force over 3^4 assignments, {len(problems)} mismatches, "
           f"{elapsed:.1f}s")


# -- 2. state-transition oracle ----------------------------------------------------


def _prepared_pool(depth, rng):
    keys = [eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big"))
            for _ in range(1 << depth)]
    request_id, block_hash, wrong_hash = 11, 999_999, 555_555
    votes = [make_vote(kp.sk, i, request_id, block_hash)
             for i, kp in enumerate(keys)]
    dissents = [make_vote(kp.sk, i, request_id, wrong_hash)
                for i, kp in enumerate(keys)]
    return keys, votes, dissents, request_id, block_hash


def test_criterion_2_state_transition_oracle():
    rng = random.Random(2024)
    agg_counts = {2: 250, 4: 200, 8: 50}
    slash_counts = {2: 100, 4: 60, 8: 40}
    checked = failures = 0

    for depth in (2, 4, 8):
        keys, votes, dissents, request_id, block_hash = _prepared_pool(depth, rng)
        t = threshold(depth)

        for _ in range(agg_counts[depth]):
            tree, occupied = random_occupied_tree(rng, depth, keys, min_occupied=t)
            voters = sorted(rng.sample(occupied, t))
            agg_index = rng.choice(occupied)
            public, witness = build_aggregation_witness(
                tree, agg_index, [votes[i] for i in voters], request_id, block_hash)
            ok = check_aggregation(public, witness).ok

            shadow = tree.copy()
            account = shadow.account(agg_index)
            shadow.set_account(agg_index,
                               replace(account, balance=account.balance + AGG_REWARD))
            for i in voters:
                account = shadow.account(i)
                shadow.set_account(i, replace(account,
                                              balance=account.balance + VAL_REWARD))
            checked += 1
            if not ok or public.post_state_root != shadow.root:
                failures += 1

        for _ in range(slash_counts[depth]):
            tree, occupied = random_occupied_tree(rng, depth, keys, min_occupied=2)
            victim, agg_index = rng.sample(occupied, 2)
            public, witness = build_slash_witness(tree, agg_index, dissents[victim],
                                                  request_id, block_hash)
            ok = check_slash(public, witness).ok

            shadow = tree.copy()
            amount = shadow.account(victim).balance
            shadow.set_account(victim, replace(shadow.account(victim), balance=0))
            account = shadow.account(agg_index)
            shadow.set_account(agg_index,
                               replace(account, balance=account.balance + amount))
            checked += 1
            if not ok or public.post_state_root != shadow.root:
                failures += 1

    report(2, checked == 700 and failures == 0,
           f"{checked} instances, {failures} shadow-tree mismatches")


# -- 3. conservation ---------------------------------------------------------------


def test_criterion_3_conservation():
    problems = conservation_suite(count=50, base_seed=3000)
    report(3, not problems,
           f"50 random scenarios audited transaction-by-transaction, "
           f"{len(problems)} violations" + (f"; first: {problems[0]}" if problems else ""))


# -- 4. safety suite -----------------------------------------------------------------


def test_criterion_4_safety_suite():
    names = [n for n in bundled_scenarios() if n.startswith("safety_")]
    assert len(names) == 12
    wrong_answers = 0
    answered = 0
    for name in names:
        run = bundled_run(name)
        wrong_answers += run.metrics.safety_violations
        answered += run.metrics.answered
    attack = bundled_run("attack_majority_n4")
    tight = attack.metrics.safety_violations >= 1
    report(4, wrong_answers == 0 and answered > 0 and tight,
           f"{len(names)} safety scenarios x 100 rounds: {wrong_answers} wrong "
           f"answers ({answered} answered); attack scenario violations: "
           f"{attack.metrics.safety_violations}")


# -- 5. liveness suite ----------------------------------------------------------------


def test_criterion_5_liveness_suite():
    stalls = 0
    late = 0
    for name in ("liveness_offline_n4", "liveness_offline_n8"):
        run = bundled_run(name)
        config = run.config
        bound = config.committee * T_AGG
        stalls += run.metrics.liveness_stalls
        late += sum(1 for r in run.metrics.rows
                    if not r.answered or r.latency > bound)
        assert run.metrics.answered == config.rounds
    report(5, stalls == 0 and late == 0,
           f"offline-aggregator scenarios: {stalls} stalls, {late} requests "
           f"past committee*T_agg across 200 rounds")


# -- 6. scaling trend -----------------------------------------------------------------


# (aggregation, slash) constraints per committee size, as `zkoracle scaling`
# prints them; only a change to a circuit or its cost model moves these
SCALING_CONSTRAINTS = {
    4: (45202, 17984),
    8: (78988, 20170),
    16: (148770, 22356),
    32: (294988, 24542),
    64: (603110, 26728),
    128: (1253680, 28914),
    256: (2628730, 31100),
}


def test_criterion_6_scaling_trend():
    start = time.monotonic()
    sizes = (4, 8, 16, 32, 64, 128, 256)
    rows = {size: scaling_row(size) for size in sizes}
    counts = {size: (rows[size]["aggregation_constraints"],
                     rows[size]["slash_constraints"]) for size in sizes}
    assert counts == SCALING_CONSTRAINTS
    # every honest payload has the exact size the contract enforces
    for size, row in rows.items():
        assert row["aggregation_witness_bytes"] == payload_size(AGGREGATION, row["depth"])
        assert row["slash_witness_bytes"] == payload_size(SLASH, row["depth"])

    ratios = []
    for small, big in ((32, 64), (64, 128), (128, 256)):
        ratios.append(rows[big]["aggregation_constraints"]
                      / rows[small]["aggregation_constraints"])
    ratios_ok = all(1.85 <= r <= 2.15 for r in ratios)

    # slash counts are a function of the depth alone: rebuild with different
    # balances and victims, then confirm strict stepping across depths
    depth_ok = True
    rng = random.Random(6)
    for size in sizes:
        depth = size.bit_length() - 1
        tree = StateTree(depth)
        keys = []
        for i in range(size):
            kp = eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big"))
            tree.set_account(i, Account(i, kp.pk, rng.randint(0, 5000)))
            keys.append(kp)
        victim = rng.randrange(1, size)
        vote = make_vote(keys[victim].sk, victim, 3, 1)
        public, witness = build_slash_witness(tree, 0, vote, 3, 2)
        if check_slash(public, witness).constraint_count != \
                rows[size]["slash_constraints"]:
            depth_ok = False
    slash_series = [rows[s]["slash_constraints"] for s in sizes]
    depth_ok = depth_ok and slash_series == sorted(set(slash_series))

    elapsed = time.monotonic() - start
    report(6, ratios_ok and depth_ok and elapsed < 60.0,
           f"doubling ratios 32..256: {[round(r, 3) for r in ratios]}, slash "
           f"counts depth-determined {slash_series}, {elapsed:.1f}s")


# -- 7. incentive arithmetic ------------------------------------------------------------


def test_criterion_7_incentive_arithmetic():
    # zero delay = full synchronous participation: every vote is on the
    # aggregator's desk before the threshold fires, so the selection rule
    # always picks the three lowest indices
    rounds = 8
    run = run_scenario(ScenarioConfig(name="incentives", depth=2, committee=4,
                                      rounds=rounds, seed=700, max_delay=0.0))
    balances = run.metrics.final_balances
    # full participation: all four vote, the three lowest indices are selected
    agg_turns = {i: sum(1 for r in range(rounds) if r % 4 == i) for i in range(4)}
    expected = {i: 100 + AGG_REWARD * agg_turns[i]
                + (VAL_REWARD * rounds if i < 3 else 0) for i in range(4)}
    exact = balances == expected

    # every submission credits the aggregator exactly AGG_REWARD (plus its own
    # validator share when its bit is set)
    credits_ok = True
    events = run.contract.events
    for k, event in enumerate(events):
        if event.kind != "BlockSubmitted":
            continue
        before = replay(events[:k], run.contract.params)
        after = replay(events[:k + 1], run.contract.params)
        agg = event.payload["agg_index"]
        own_share = VAL_REWARD if (event.payload["validator_bits"] >> agg) & 1 else 0
        delta = after.account(agg).balance - before.account(agg).balance
        if delta != AGG_REWARD + own_share:
            credits_ok = False

    # a slashed dissenter ends at exactly zero; the slasher gains the pre-slash
    # balance to the unit
    attack = run_scenario(ScenarioConfig(name="slash-check", depth=2, committee=4,
                                         rounds=2, seed=701, max_delay=0.0,
                                         adversaries={3: "wrong_hash"}))
    events = attack.contract.events
    slash_ok = attack.metrics.final_balances[3] == 0
    first_slash = next(k for k, e in enumerate(events) if e.kind == "Slashed")
    before = replay(events[:first_slash], attack.contract.params)
    after = replay(events[:first_slash + 1], attack.contract.params)
    victim_before = before.account(3).balance
    slash_ok = (slash_ok and victim_before == 100
                and after.account(3).balance == 0
                and after.account(0).balance
                == before.account(0).balance + victim_before)

    report(7, exact and credits_ok and slash_ok,
           f"honest balances {balances} == {expected}; per-submission aggregator "
           f"credit exact: {credits_ok}; slash transfer exact: {slash_ok}")


# -- 8. membership rules -------------------------------------------------------------------


def test_criterion_8_membership_rules():
    rng = random.Random(800)
    strict_ok = timing_ok = True

    for trial in range(25):
        contract = Contract(Params(depth=2))
        keys = [eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big"))
                for _ in range(5)]
        stakes = [rng.randint(100, 500) for _ in range(4)]
        for i in range(4):
            contract.register(f"o{i}", keys[i].pk, "ip", stakes[i])
        target_index = rng.randrange(4)
        target = contract.account(target_index)
        try:
            contract.replace("n", keys[4].pk, "ip", target.balance, target_index,
                             target, contract.prove(target_index))
            strict_ok = False  # equal stake must never displace
        except StakeTooLow:
            pass
        contract.replace("n", keys[4].pk, "ip", target.balance + 1, target_index,
                         target, contract.prove(target_index))
        if contract.account(target_index).balance != target.balance + 1:
            strict_ok = False

        # withdraw strictly before exit + 604800 must fail
        contract.exit("o0" if target_index != 0 else "n",
                      contract.account(0), contract.prove(0))
        early = rng.randrange(604800)
        contract.set_time(early)
        try:
            contract.withdraw(contract.owner_of[0], contract.account(0),
                              contract.prove(0))
            timing_ok = False
        except ExitTimeNotReached:
            pass
        contract.set_time(604800)
        contract.withdraw(contract.owner_of[0], contract.account(0),
                          contract.prove(0))

    # occupied committee equals the greedy top-stake oracle on random sequences
    greedy_ok = True
    for trial in range(30):
        contract = Contract(Params(depth=2))
        expected = []
        for i, stake in enumerate(rng.randint(95, 400)
                                  for _ in range(rng.randint(1, 14))):
            kp = eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big"))
            occupied = contract.occupied_indices()
            if len(occupied) < 4:
                if stake >= 100:
                    contract.register(f"t{i}", kp.pk, "ip", stake)
                    expected.append(stake)
                continue
            weakest = min(occupied, key=lambda j: contract.account(j).balance)
            target = contract.account(weakest)
            if stake > target.balance:
                contract.replace(f"t{i}", kp.pk, "ip", stake, weakest, target,
                                 contract.prove(weakest))
                expected.remove(target.balance)
                expected.append(stake)
        got = sorted(contract.account(j).balance
                     for j in contract.occupied_indices())
        if got != sorted(expected):
            greedy_ok = False

    report(8, strict_ok and timing_ok and greedy_ok,
           f"strict-stake replace: {strict_ok}; exit-window timing: {timing_ok}; "
           f"top-stake committee vs greedy oracle: {greedy_ok}")


# -- 9. determinism and replay ------------------------------------------------------------------


def test_criterion_9_determinism_and_replay():
    identical = True
    for name in ("honest_n4", "safety_zero_vote_n4", "attack_majority_n4"):
        first = bundled_run(name)
        second = run_scenario(bundled_scenarios()[name])
        if first.metrics.to_csv() != second.metrics.to_csv():
            identical = False
        if dump_log(first.contract) != dump_log(second.contract):
            identical = False

    replayed = True
    for name, run in _RUNS.items():
        params, events = parse_log(dump_log(run.contract))
        if replay(events, params).state_root != run.contract.state_root:
            replayed = False

    report(9, identical and replayed,
           f"byte-identical reruns: {identical}; replayed roots exact over "
           f"{len(_RUNS)} logs: {replayed}")


# -- golden bytes ----------------------------------------------------------------------

# sha256 of metrics.csv + events.log + tree.snapshot, as `zkoracle run` writes
# them, for each bundled scenario at its own seed
GOLDEN_DIGESTS = {
    "attack_majority_n4":
        "8f48a89a3554c6c666b2d5292a51a0c9838fe5c32b23e3a3b195604892c231fe",
    "honest_n4":
        "e5b9757a7071c4bcce4f2c57ad997014a1f557b25ef3b79a0a660ee5ae0fddbe",
    "liveness_offline_n4":
        "cbdf6a40f445f9b5abd467d606f72000474eed13bc10e00d11a24c101c759dd2",
    "liveness_offline_n8":
        "0986c73680835e6d640e087d0053fd9e77c690358bd4b719b380716a1d67a106",
    "safety_duplicate_vote_n16":
        "f46af1208081e1a2b70d41d2e9a15253d81cf098aabd1eabb55c5b6c816094a6",
    "safety_duplicate_vote_n4":
        "e7220a6a6418414a5bff9c6962d07d108a0bc4a48b121a9d0268beec2d02098b",
    "safety_duplicate_vote_n8":
        "079e2200eb43f7de89dc92104aad554f96ca24440270e6e38345e043e6b987c8",
    "safety_equivocate_n16":
        "c1076a580af69dcfae122193baa177937ce84156387ee46d7e05708944becf16",
    "safety_equivocate_n4":
        "9f0c61600dadcb50113fe125f0fcc90069667599541fc93e8f1b1d3b468fa0dc",
    "safety_equivocate_n8":
        "d182a30fe7e26836094411fc13a5bc70e654efec7ff44605b1ee9b098e6ff5cb",
    "safety_wrong_hash_n16":
        "c32c58d0a24d5e24ee380297babfe2ddd2e223f0ce5b686d87824a78ccad1716",
    "safety_wrong_hash_n4":
        "f6de4460159c985437fdc738c65667a182f973c10c6aa50566c7f7c9c15ece2b",
    "safety_wrong_hash_n8":
        "cf99fb445a0d57b470d2582ce655ddf439973b0f82ca87f9138c0d37f82ea799",
    "safety_zero_vote_n16":
        "60396e24d5a98893fd4cf15c6b09c14c470915998c569095334c8f317a044650",
    "safety_zero_vote_n4":
        "63e19d46b8b22311edac2dfcdeebbe7cd48ac8a983fa90d541c27bc708a05bfb",
    "safety_zero_vote_n8":
        "4b81b270a9ac71b75f4eb0c1bb048c0942047b88214ae0443db2225f16cd8e2f",
}


def test_bundled_scenarios_write_their_golden_bytes():
    assert sorted(GOLDEN_DIGESTS) == sorted(bundled_scenarios())
    moved = []
    for name, expected in GOLDEN_DIGESTS.items():
        run = bundled_run(name)
        text = (run.metrics.to_csv() + dump_log(run.contract)
                + dump_snapshot(run.contract.tree_snapshot()))
        if hashlib.sha256(text.encode()).hexdigest() != expected:
            moved.append(name)
    assert moved == [], f"outputs moved: {moved}"
