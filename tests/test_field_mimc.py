"""Field and MiMC hash tests.

Expected values are frozen from an independent straight-line implementation
of the same round function (reproduced below as the oracle).
"""

import hashlib
import random

import pytest

from zkoracle.errors import InvalidInput
from zkoracle.field import P
from zkoracle.mimc import CONSTANTS, ROUNDS, SEED, mimc_hash, permute

MIMC_ZERO = 20480970831563890370416455357282984018960104999813493870732780816150879805105
MIMC_1_2 = 20168442345138702190327693105842912756410612765480439814575112342233983791894
MIMC_2_1 = 15848057676043047675388883381942006964666783628275178665998570919100962510942


def oracle_mimc(values):
    """Independent re-derivation: iterated SHA-256 constants, x^7 rounds,
    Miyaguchi-Preneel chaining."""
    constants = [0]
    digest = SEED
    for _ in range(1, ROUNDS):
        digest = hashlib.sha256(digest).digest()
        constants.append(int.from_bytes(digest, "big") % P)
    h = 0
    for v in values:
        x = (v + h) % P
        u = x
        for c in constants:
            x = pow((x + c) % P, 7, P)
        h = (x + u) % P
    return h


def test_frozen_values_match_oracle():
    assert oracle_mimc([0]) == MIMC_ZERO
    assert oracle_mimc([1, 2]) == MIMC_1_2
    assert oracle_mimc([2, 1]) == MIMC_2_1


def test_single_zero_input():
    assert mimc_hash([0]) == MIMC_ZERO


def test_chaining_is_order_sensitive():
    assert mimc_hash([1, 2]) == MIMC_1_2
    assert mimc_hash([2, 1]) == MIMC_2_1
    assert MIMC_1_2 != MIMC_2_1


def test_matches_oracle_on_random_inputs():
    rng = random.Random(42)
    for _ in range(20):
        values = [rng.randrange(P) for _ in range(rng.randint(1, 5))]
        assert mimc_hash(values) == oracle_mimc(values)


def test_deterministic():
    rng = random.Random(7)
    for _ in range(10):
        x = rng.randrange(P)
        assert mimc_hash([x]) == mimc_hash([x])


def test_empty_input_rejected():
    with pytest.raises(InvalidInput):
        mimc_hash([])


def test_output_in_field():
    rng = random.Random(3)
    for _ in range(100):
        assert 0 <= mimc_hash([rng.randrange(P)]) < P


def test_round_constants():
    assert len(CONSTANTS) == ROUNDS
    assert CONSTANTS[0] == 0
    first = int.from_bytes(hashlib.sha256(SEED).digest(), "big") % P
    assert CONSTANTS[1] == first
    second = int.from_bytes(
        hashlib.sha256(hashlib.sha256(SEED).digest()).digest(), "big") % P
    assert CONSTANTS[2] == second


def test_permute_is_injective_sample():
    rng = random.Random(5)
    xs = [rng.randrange(P) for _ in range(200)]
    assert len({permute(x) for x in xs}) == len(set(xs))


def test_collision_smoke():
    # 1e5 random single-element inputs, no collisions
    rng = random.Random(99)
    seen = set()
    for _ in range(100_000):
        seen.add(mimc_hash([rng.randrange(P)]))
    assert len(seen) == 100_000


def test_additive_inverse_identity():
    rng = random.Random(2)
    for _ in range(1000):
        x = rng.randrange(P)
        assert (x + (P - x)) % P == 0
