"""Executable protocol checks shared by the CLI selftest and the test suite.

Each function returns a list of problem strings; empty means the check holds.
"""

import random
from itertools import combinations, product

from . import eddsa
from .circuits import _stage_aggregation, check_aggregation, threshold
from .merkle import Account, StateTree
from .nodes import make_vote
from .simnet import ScenarioConfig, run_scenario, verify_run

_ABSENT = "absent"


def _small_committee():
    """A depth-2 tree of four members staking 100 each, and their keys."""
    tree = StateTree(2)
    keys = []
    for i in range(4):
        kp = eddsa.keygen(bytes([i + 1]) * 32)
        tree.set_account(i, Account(i, kp.pk, 100))
        keys.append(kp)
    return tree, keys


def aggregation_brute_force() -> list:
    """Exhaustive soundness check at depth 2 (n = 4, t = 3).

    Every validator independently votes the true hash, a wrong hash, or not
    at all (3^4 assignments).  For both candidate answers, every 3-vote
    packaging of the available votes must be accepted iff all three votes
    carry that answer.  Votes are distinct and correctly signed throughout,
    so the hash assertion is the only thing separating accept from reject.
    """
    problems = []
    tree, keys = _small_committee()
    true_hash = 12345
    wrong_hash = 99999
    request_id = 7

    for assignment in product((true_hash, wrong_hash, _ABSENT), repeat=4):
        available = []
        for index, choice in enumerate(assignment):
            if choice == _ABSENT:
                continue
            available.append(make_vote(keys[index].sk, index, request_id, choice))
        for answer in (true_hash, wrong_hash):
            packagings = [(p, True) for p in combinations(available, 3)]
            if len(available) >= 2:
                # a duplicated vote can never count twice, even if every vote
                # matches the answer
                packagings.append(((available[0], available[0], available[1]),
                                   False))
            for packaging, distinct in packagings:
                # unguarded staging: the circuit's own assertions are under test
                public, witness = _stage_aggregation(tree, 0, packaging,
                                                     request_id, answer)
                report = check_aggregation(public, witness)
                expected = distinct and all(v.block_hash == answer
                                            for v in packaging)
                if report.ok != expected:
                    problems.append(
                        f"assignment {assignment} answer {answer}: expected "
                        f"{'accept' if expected else 'reject'}, got "
                        f"{report.failure_site or 'accept'}")
    return problems


def random_scenario_config(seed: int) -> ScenarioConfig:
    rng = random.Random(seed)
    depth = 2
    committee = 4
    t = threshold(depth)
    behaviors = ("wrong_hash", "zero_vote", "equivocate", "duplicate_vote")
    adversaries = {}
    for index in rng.sample(range(committee), rng.randint(0, t - 1)):
        adversaries[index] = rng.choice(behaviors)
    return ScenarioConfig(
        name=f"random-{seed}",
        depth=depth,
        committee=committee,
        rounds=rng.randint(3, 6),
        adversaries=adversaries,
        drop_rate=rng.choice((0.0, 0.1, 0.3)),
        max_delay=0.02,
        seed=seed,
    )


def _exercise_membership(contract, time_warp: float) -> None:
    """Round-trip a withdraw and a replace so conservation sees every flow."""
    params = contract.params
    indices = contract.occupied_indices()
    leaver, displaced = indices[0], indices[1]

    account = contract.account(leaver)
    contract.exit(contract.owner_of[leaver], account, contract.prove(leaver))
    contract.set_time(contract.now + time_warp)
    account = contract.account(leaver)
    contract.withdraw(contract.owner_of[leaver], account, contract.prove(leaver))

    newcomer = eddsa.keygen(b"\xaa" * 32)
    target = contract.account(displaced)
    contract.replace("late-joiner", newcomer.pk, "10.0.9.9", target.balance + 1,
                     displaced, target, contract.prove(displaced))
    contract.register("refill", newcomer.pk, "10.0.9.8", params.min_stake)


def conservation_suite(count: int = 50, base_seed: int = 1000) -> list:
    """Random full scenarios plus membership churn, audited transaction by
    transaction (verify_run runs the conservation trace)."""
    problems = []
    for i in range(count):
        config = random_scenario_config(base_seed + i)
        run = run_scenario(config)
        _exercise_membership(run.contract, run.contract.params.exit_delay)
        problems.extend(f"{config.name}: {p}" for p in verify_run(run))
    return problems
