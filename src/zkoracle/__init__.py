"""Proof-gated cross-chain oracle: contract emulation, circuits, nodes, simnet."""

from .circuits import (AggregationPublic, AggregationWitness, ConstraintReport,
                       Proof, SlashPublic, SlashWitness, VoteWitness,
                       build_aggregation_witness, build_slash_witness,
                       check_aggregation, check_slash, prove, verify)
from .contract import Contract, Event, Params, Request, replay
from .curve import GENERATOR, Point
from .eddsa import KeyPair, Signature, keygen, sign, verify_sig
from .errors import OracleError
from .field import P
from .merkle import (Account, MerkleProof, StateTree, empty_account, leaf_hash,
                     root_from_path, verify_proof)
from .mimc import mimc_hash
from .nodes import OracleNode, Vote, make_vote
from .simnet import (Metrics, MockChain, ScenarioConfig, ScenarioRun, run_scenario,
                     verify_run)

__version__ = "0.1.0"
