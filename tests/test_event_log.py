"""Event log codec and replay at the trust boundary: typed per-kind fields,
strings that stay strings, and hostile logs that fail only with CorruptLog."""

import random
from dataclasses import replace

import pytest

from zkoracle import eddsa
from zkoracle.contract import (Contract, Params, apply_slash_transfer, dump_log,
                               parse_log, replay)
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
        contract.replace(bad, KEY.pk, "ip", 500, 1, contract.account(1),
                         contract.prove(1))
    assert len(contract.events) == 1
    assert dump_log(roundtrip(contract)) == dump_log(contract)


# -- hostile logs ----------------------------------------------------------------

PK = f"pubkey_x={KEY.pk.x} pubkey_y={KEY.pk.y}"
HEADER = dump_log(Contract(P4)).splitlines()[0]
REGISTER = f"0 Registered 0.0 index=0 ip=ip owner=o {PK} stake=100"


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
    pytest.param([REGISTER, "1 AggregatorTimeout 1.0 index=2"],
                 id="timeout-of-non-aggregator"),
    pytest.param([REGISTER.replace(" 0.0 ", " nan ")], id="non-finite-time"),
    pytest.param([REGISTER, "1" + REGISTER[1:].replace("owner=o", "owner=b")],
                 id="duplicate-registration"),
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
