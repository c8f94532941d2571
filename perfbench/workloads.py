"""Scenario configurations shared by the benchmark and its audit producer.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
exits with an error if the checkout holds no ``src/zkoracle``: the benchmark
measures the source next to it, never an installed copy.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "zkoracle" / "__init__.py").is_file():
    sys.exit(f"perfbench: no zkoracle package under {SRC}; run from the root "
             "of a zkoracle checkout")
sys.path.insert(0, str(SRC))

import zkoracle  # noqa: E402
from zkoracle.contract import dump_log  # noqa: E402
from zkoracle.merkle import dump_snapshot  # noqa: E402
from zkoracle.simnet import ScenarioConfig  # noqa: E402

if Path(zkoracle.__file__).resolve().parent != SRC / "zkoracle":
    sys.exit(f"perfbench: imported zkoracle from {zkoracle.__file__}, not {SRC}")

# Every run also runs its workload's scenario at this seed for
# REFERENCE_ROUNDS rounds and compares the output digest with pins.json.
DEFAULT_SEED = 0
REFERENCE_ROUNDS = {"sim_n16_faults": 8, "sim_n256_honest": 1, "audit_cold": 8}


def n16_faults(seed: int, rounds: int) -> ScenarioConfig:
    """Committee 16 with one node of each adversary kind, 20% vote drops."""
    return ScenarioConfig(
        name="perfbench_n16_faults", depth=4, committee=16, rounds=rounds,
        adversaries={0: "offline_aggregator", 3: "duplicate_vote",
                     6: "wrong_hash", 9: "equivocate", 12: "zero_vote"},
        drop_rate=0.2, max_delay=0.05, seed=seed)


def n256_honest(seed: int, rounds: int) -> ScenarioConfig:
    """Full depth-8 committee, all honest, no drops."""
    return ScenarioConfig(name="perfbench_n256_honest", depth=8, committee=256,
                          rounds=rounds, drop_rate=0.0, max_delay=0.05, seed=seed)


def n16_dissenters(seed: int, rounds: int) -> ScenarioConfig:
    """Committee 16 with three dissenters, so most requests also end in slashes."""
    return ScenarioConfig(
        name="perfbench_n16_dissenters", depth=4, committee=16, rounds=rounds,
        adversaries={2: "wrong_hash", 7: "zero_vote", 11: "equivocate"},
        drop_rate=0.0, max_delay=0.05, seed=seed)


def output_digest(run) -> str:
    """sha256 over the run's metrics.csv, events.log and tree.snapshot texts,
    exactly as ``zkoracle run`` writes them."""
    text = (run.metrics.to_csv() + dump_log(run.contract)
            + dump_snapshot(run.contract.tree_snapshot()))
    return hashlib.sha256(text.encode()).hexdigest()
