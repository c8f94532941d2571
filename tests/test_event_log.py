"""Event log codec and replay at the trust boundary: typed per-kind fields,
strings that stay strings, and hostile logs that fail only with CorruptLog."""

import random
from dataclasses import replace

import pytest

from helpers import honest_votes
from zkoracle import eddsa
from zkoracle.circuits import AGGREGATION, build_aggregation_witness, prove
from zkoracle.contract import (Contract, Params, _reads_back, apply_slash_transfer,
                               dump_log, parse_log, replay)
from zkoracle.curve import Point
from zkoracle.errors import CorruptLog, InvalidInput
from zkoracle.field import P
from zkoracle.selfcheck import _exercise_membership
from zkoracle.simnet import ScenarioConfig, run_scenario

P4 = Params(depth=2)
KEY = eddsa.keygen(b"\x07" * 32)


def roundtrip(contract):
    params, events = parse_log(dump_log(contract))
    return replay(events, params)


# -- strings stay strings ------------------------------------------------------


@pytest.mark.parametrize("owner, ip", [("123", "10.0.0.1"), ("alice", "1e3"),
                                       ("-0", "0x10"), ("", "nan")])
def test_numeric_looking_strings_replay_as_strings(owner, ip):
    contract = Contract(P4)
    contract.register(owner, KEY.pk, ip, 100)
    contract.request_block(owner, 5, contract.params.request_fee)
    rebuilt = roundtrip(contract)
    assert rebuilt.owner_of == {0: owner}
    assert rebuilt.ip_of == {0: ip}
    assert rebuilt.requests[0].client == owner
    assert dump_log(rebuilt) == dump_log(contract)


@pytest.mark.parametrize("bad", ["a b", "a\tb", "line\nbreak", "\u2028", "x=y", " ",
                                 123])
def test_unloggable_strings_rejected_at_entry(bad):
    contract = Contract(P4)
    with pytest.raises(InvalidInput):
        contract.register(bad, KEY.pk, "ip", 100)
    with pytest.raises(InvalidInput):
        contract.register("owner", KEY.pk, bad, 100)
    with pytest.raises(InvalidInput):
        contract.request_block(bad, 5, contract.params.request_fee)
    contract.register("owner", KEY.pk, "ip", 100)
    with pytest.raises(InvalidInput):
        contract.replace(bad, KEY.pk, "ip", 500, 0, contract.account(0),
                         contract.prove(0))
    assert len(contract.events) == 1
    assert dump_log(roundtrip(contract)) == dump_log(contract)


def test_str_token_check_matches_the_per_character_scan():
    """_reads_back reads a string as one token iff no character in it is
    whitespace or '=', the per-character scan it replaced, for every code
    point of the Basic Multilingual Plane alone and inside a token."""
    for code in range(0x10000):
        c = chr(code)
        expected = not (c.isspace() or c == "=")
        assert _reads_back(str, c) == expected, hex(code)
        assert _reads_back(str, f"a{c}b") == expected, hex(code)


def test_values_of_another_type_rejected_at_entry():
    """Each value below would be logged in a form that dump_log cannot write
    or parse_log refuses: a float where the log reads an int, a string where
    it reads an int, an int too long to write, or a time that is no finite
    number."""
    keys = [eddsa.keygen(bytes([i + 1]) * 32) for i in range(3)]  # slot 3 stays free
    contract = Contract(P4)
    for i, kp in enumerate(keys):
        contract.register(f"o{i}", kp.pk, f"ip{i}", 100)
    fee = contract.params.request_fee
    contract.request_block("client", 7, fee)
    votes = honest_votes(keys, range(3), 0, 0)
    public, witness = build_aggregation_witness(contract.tree_snapshot(), 0, votes, 0, 0)
    proof = prove("transparent", AGGREGATION, public, witness)
    log = dump_log(contract)
    rejected = [
        lambda: contract.submit_block("o0", 0, 0.0, public.validator_bits,
                                      public.post_state_root, proof),
        lambda: contract.request_block("client", "7 x=1", fee),
        lambda: contract.request_block("client", 7, 1e9),
        lambda: contract.request_block("client", 10 ** 5000, fee),  # too long to write
        lambda: contract.register("a", KEY.pk, "ip", 100.0),
        lambda: contract.register("b", Point(0.0, 1.0), "ip", 100),
        lambda: contract.set_time(float("nan")),
        lambda: contract.set_time(float("inf")),
        lambda: contract.set_time("5"),
    ]
    for call in rejected:
        with pytest.raises(InvalidInput):
            call()
        assert dump_log(contract) == log
    # the same calls with values of the logged types go through
    contract.set_time(5)
    contract.submit_block("o0", 0, 0, public.validator_bits, public.post_state_root, proof)
    contract.request_block("client", 7, fee)
    assert dump_log(roundtrip(contract)) == dump_log(contract)


# -- hostile logs ----------------------------------------------------------------

PK = f"pubkey_x={KEY.pk.x} pubkey_y={KEY.pk.y}"
HEADER = dump_log(Contract(P4)).splitlines()[0]
REGISTER = f"0 Registered 0.0 index=0 ip=ip owner=o {PK} stake=100"
EXIT_TIME = 1.0 + Params.exit_delay
EXITED = f"1 Exited 1.0 exit_time={EXIT_TIME} index=0"  # an honest exit of REGISTER's member
DIGITS_5001 = "1" + "0" * 5000  # 10**5000, which str() refuses under the default limit


@pytest.mark.parametrize("lines", [
    pytest.param([REGISTER, "1 BlockSubmitted 1.0 agg_index=0 block_hash=1 "
                            "post_state_root=2 request_id=9 validator_bits=7"],
                 id="unknown-request"),
    pytest.param(["0 Registered 0.0 index=0 ip=ip owner=o"], id="missing-fields"),
    pytest.param([f"0 Registered 0.0 index=0 ip=ip owner=o pubkey_x=abc "
                  f"pubkey_y={KEY.pk.y} stake=100"], id="non-numeric-pubkey"),
    pytest.param(["0 Registered 0.0 index=0 ip=ip owner=o pubkey_x=1 pubkey_y=1 "
                  "stake=100"], id="off-curve-pubkey"),
    pytest.param([REGISTER, "1 Withdrawn 1.0 amount=100 index=3 owner=o"],
                 id="withdraw-unknown-index"),
    pytest.param([REGISTER, "1 Exited 1.0 exit_time=9.0 index=2"],
                 id="exit-unknown-index"),
    pytest.param([REGISTER + " colour=red"], id="extra-field"),
    pytest.param([REGISTER + " stake=100"], id="repeated-field"),
    pytest.param([REGISTER.replace("stake=100", "stake=-5")], id="negative-stake"),
    pytest.param([REGISTER, "1 BlockRequested 1.0 block_number=3 client=c fee=80 "
                            "request_id=4"], id="request-id-out-of-order"),
    pytest.param([REGISTER, "1 BlockRequested 1.0 block_number=-1 client=c fee=80 "
                            "request_id=0"], id="negative-block-number"),
    pytest.param([REGISTER, f"1 BlockRequested 1.0 block_number={1 << 64} client=c "
                            "fee=80 request_id=0"], id="block-number-at-2^64"),
    pytest.param([REGISTER, "1 BlockRequested 1.0 block_number=3 client=c fee=79 "
                            "request_id=0"], id="fee-below-the-request-fee"),
    pytest.param([REGISTER, f"1 BlockRequested 1.0 block_number=3 client=c fee={1 << 128} "
                            "request_id=0"], id="fee-at-2^128"),
    pytest.param([REGISTER, EXITED, f"2 Withdrawn {EXIT_TIME} amount=101 index=0 owner=o"],
                 id="withdrawal-of-more-than-the-balance"),
    pytest.param([REGISTER, "1 AggregatorTimeout 1.0 index=2"],
                 id="timeout-of-non-aggregator"),
    pytest.param([REGISTER.replace(" 0.0 ", " nan ")], id="non-finite-time"),
    pytest.param([REGISTER, "1" + REGISTER[1:].replace("owner=o", "owner=b")],
                 id="duplicate-registration"),
    # every record below is one the live contract cannot emit
    pytest.param([REGISTER, "1 Withdrawn 1.0 amount=100 index=0 owner=o"],
                 id="withdrawal-without-exit"),
    pytest.param([REGISTER, EXITED, "2 Withdrawn 2.0 amount=100 index=0 owner=o"],
                 id="withdrawal-before-the-exit-time"),
    pytest.param([REGISTER, EXITED, f"2 Withdrawn {EXIT_TIME} amount=100 index=0 owner=b"],
                 id="withdrawal-by-a-non-owner"),
    pytest.param([REGISTER, EXITED, "2 Exited 2.0 exit_time=604802.0 index=0"],
                 id="second-exit"),
    pytest.param([REGISTER, "1 Exited 1.0 exit_time=9.0 index=0"],
                 id="exit-time-not-the-delay-after-the-event"),
    pytest.param([REGISTER.replace("stake=100", "stake=5")], id="stake-below-the-floor"),
    pytest.param([REGISTER.replace("index=0", "index=3")], id="registration-above-an-empty-slot"),
    pytest.param([REGISTER, f"1 Replaced 1.0 displaced_owner=o index=0 ip=ip owner=b {PK} "
                            "returned=100 stake=100"], id="replacement-stake-not-above-returned"),
    pytest.param([REGISTER, f"1 Replaced 1.0 displaced_owner=x index=0 ip=ip owner=b {PK} "
                            "returned=100 stake=200"], id="replacement-of-a-forged-owner"),
    pytest.param([REGISTER, f"1 Replaced 1.0 displaced_owner= index=1 ip=ip owner=b {PK} "
                            "returned=0 stake=200"], id="replacement-of-an-empty-slot"),
    # with the int digit limit off these parse, and the reducer's ranges refuse them
    pytest.param([REGISTER.replace("stake=100", f"stake={DIGITS_5001}")],
                 id="stake-of-5001-digits"),
    pytest.param([REGISTER, f"1 BlockRequested 1.0 block_number=3 client=c fee={DIGITS_5001} "
                            "request_id=0"], id="fee-of-5001-digits"),
    pytest.param([REGISTER, EXITED,
                  f"2 Withdrawn {EXIT_TIME} amount={DIGITS_5001} index=0 owner=o"],
                 id="withdrawal-of-5001-digits"),
])
def test_hostile_log_fails_with_corrupt_log(lines):
    with pytest.raises(CorruptLog):
        params, events = parse_log("\n".join([HEADER] + lines) + "\n")
        replay(events, params)


@pytest.mark.parametrize("header", [
    "# params depth=2 min_stake=100",
    "# params depth=100 min_stake=100 val_reward=10 agg_reward=50 "
    "exit_delay=604800 aggregator_mode=round_robin",
    "# params depth=2 min_stake=x val_reward=10 agg_reward=50 "
    "exit_delay=604800 aggregator_mode=round_robin",
    # the payouts and the stake floor are constants, not settings a log chooses
    "# params depth=2 min_stake=100 val_reward=10 agg_reward=60 "
    "exit_delay=604800 aggregator_mode=round_robin",
    "# params depth=2 min_stake=99 val_reward=10 agg_reward=50 "
    "exit_delay=604800 aggregator_mode=round_robin",
    # so is the rotation: round robin is the only one
    "# params depth=2 min_stake=100 val_reward=10 agg_reward=50 "
    "exit_delay=604800 aggregator_mode=randomized",
])
def test_hostile_params_header_fails_with_corrupt_log(header):
    with pytest.raises(CorruptLog):
        parse_log(header + "\n")


def test_slash_crediting_a_non_answering_aggregator_is_corrupt():
    # a forged Slashed record whose post root is consistent with crediting
    # another member still fails: only the answering aggregator may slash
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=2, seed=8,
                                      adversaries={3: "wrong_hash"}))
    params, events = parse_log(dump_log(run.contract))
    k = next(i for i, e in enumerate(events) if e.kind == "Slashed")
    slash = events[k].payload
    other = next(i for i in range(3) if i != slash["agg_index"])
    tree = replay(events[:k], params).tree_snapshot()
    apply_slash_transfer(tree, other, slash["val_index"])
    forged = replace(events[k], payload=dict(slash, agg_index=other,
                                             post_state_root=tree.root))
    with pytest.raises(CorruptLog):
        replay(events[:k] + [forged], params)


def test_block_hash_outside_field_is_corrupt():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=1, seed=8))
    params, events = parse_log(dump_log(run.contract))
    k = next(i for i, e in enumerate(events) if e.kind == "BlockSubmitted")
    assert replay(events, params).state_root == run.contract.state_root
    submitted = events[k].payload
    relabelled = replace(events[k], payload=dict(
        submitted, block_hash=submitted["block_hash"] + P))
    with pytest.raises(CorruptLog):
        replay(events[:k] + [relabelled] + events[k + 1:], params)


def test_seed_fields_are_corrupt_at_parse_time():
    # round robin is the only rotation, so no BlockSubmitted line carries a
    # next seed, not even one that replay would reach
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=1, seed=8))
    lines = dump_log(run.contract).splitlines()
    k = next(i for i, line in enumerate(lines) if " BlockSubmitted " in line)
    lines[k] += f" seed_x={KEY.pk.x} seed_y={KEY.pk.y}"
    with pytest.raises(CorruptLog):
        parse_log("\n".join(lines) + "\n")


# -- seeded fuzz ---------------------------------------------------------------------

JUNK = ["x", "=", "index=", "index=1", "stake=-1", "seed_x=5", "", "nan", "1e400",
        "owner=a", "9" * 30, "request_id=0", "validator_bits=-1", "agg_index=3"]


def _mutate(lines, rng):
    lines = list(lines)
    row = rng.randrange(len(lines))
    parts = lines[row].split(" ")
    fields = [i for i, part in enumerate(parts) if "=" in part]
    action = rng.choice(("drop", "swap", "junk"))
    if action == "drop" and fields:
        del parts[rng.choice(fields)]
    elif action == "swap" and len(fields) >= 2:
        i, j = rng.sample(fields, 2)
        (ki, _, vi), (kj, _, vj) = parts[i].partition("="), parts[j].partition("=")
        parts[i], parts[j] = f"{ki}={vj}", f"{kj}={vi}"
    else:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(JUNK))
    lines[row] = " ".join(parts)
    return "\n".join(lines) + "\n"


def test_mutated_logs_replay_or_fail_with_corrupt_log():
    run = run_scenario(ScenarioConfig(depth=2, committee=4, rounds=3, seed=8,
                                      adversaries={0: "offline_aggregator",
                                                   3: "wrong_hash"}))
    _exercise_membership(run.contract, run.contract.params.exit_delay)
    lines = dump_log(run.contract).splitlines()
    rng = random.Random(2405)
    outcomes = {"replayed": 0, "corrupt": 0}
    for _ in range(400):
        text = _mutate(lines, rng)
        try:
            params, events = parse_log(text)
            replay(events, params)
            outcomes["replayed"] += 1
        except CorruptLog:
            outcomes["corrupt"] += 1
    assert outcomes["corrupt"] > 300
