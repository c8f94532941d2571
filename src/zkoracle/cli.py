"""Operator entry point: run scenarios, audit event logs, emit scaling reports.

Exit codes: 0 full success, 1 assertion/audit failure, 2 bad input.
"""

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import circuits, eddsa
from .circuits import AGGREGATION, SLASH, TRANSPARENT, check_aggregation, check_slash
from .contract import Params, conservation_trace, dump_log, parse_log, replay
from .errors import ConfigError, CorruptLog, OracleError
from .merkle import Account, StateTree, dump_snapshot, load_snapshot
from .nodes import make_vote
from .selfcheck import aggregation_brute_force, conservation_suite
from .simnet import ScenarioConfig, run_scenario, verify_run

SCALING_HEADER = ("committee,depth,threshold,aggregation_constraints,"
                  "aggregation_witness_bytes,slash_constraints,slash_witness_bytes")


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = ScenarioConfig.from_json(text)
        if args.seed is not None:
            config.seed = args.seed
            config.validate()
    except ConfigError as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2

    run = run_scenario(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "metrics.csv", run.metrics.to_csv())
    summary = dict(run.metrics.summary(), scenario=config.name, seed=config.seed)
    _write_atomic(out / "summary.json",
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_atomic(out / "events.log", dump_log(run.contract))
    _write_atomic(out / "tree.snapshot", dump_snapshot(run.contract.tree_snapshot()))

    problems = verify_run(run)
    print(f"{config.name}: {run.metrics.answered}/{len(run.metrics.rows)} answered, "
          f"{run.metrics.safety_violations} violations, "
          f"{run.metrics.liveness_stalls} stalls -> {out}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def scaling_row(size: int) -> dict:
    """One honest aggregation and one slash instance for a full committee."""
    depth = size.bit_length() - 1
    params = Params(depth=depth)
    tree = StateTree(depth)
    keys = []
    for i in range(size):
        kp = eddsa.keygen(i.to_bytes(4, "big") * 8)
        tree.set_account(i, Account(i, kp.pk, params.min_stake + i))
        keys.append(kp)

    block_hash = 424242
    request_id = 1
    t = params.threshold
    votes = [make_vote(keys[i].sk, i, request_id, block_hash) for i in range(t)]
    public, witness = circuits.build_aggregation_witness(tree, 0, votes, request_id,
                                                         block_hash)
    agg_report = check_aggregation(public, witness)
    agg_proof = circuits.prove(TRANSPARENT, AGGREGATION, public, witness)

    dissent = make_vote(keys[size - 1].sk, size - 1, request_id,
                        block_hash + 1)
    s_public, s_witness = circuits.build_slash_witness(tree, 0, dissent, request_id,
                                                       block_hash)
    slash_report = check_slash(s_public, s_witness)
    slash_proof = circuits.prove(TRANSPARENT, SLASH, s_public, s_witness)

    if not agg_report.ok or not slash_report.ok:
        raise OracleError(f"scaling instance at size {size} did not satisfy "
                          "its own circuit")
    return {
        "committee": size,
        "depth": depth,
        "threshold": t,
        "aggregation_constraints": agg_report.constraint_count,
        "aggregation_witness_bytes": len(agg_proof.payload),
        "slash_constraints": slash_report.constraint_count,
        "slash_witness_bytes": len(slash_proof.payload),
    }


def cmd_scaling(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        print("error: sizes must be a comma-separated list of integers",
              file=sys.stderr)
        return 2
    for size in sizes:
        if size < 4 or size > 256 or size & (size - 1):
            print(f"error: size {size} is not a power of two in [4, 256]",
                  file=sys.stderr)
            return 2

    lines = [SCALING_HEADER]
    for size in sizes:
        row = scaling_row(size)
        lines.append(",".join(str(row[k]) for k in SCALING_HEADER.split(",")))
        print(f"committee {size}: aggregation {row['aggregation_constraints']} "
              f"constraints, {row['aggregation_witness_bytes']} payload bytes; "
              f"slash {row['slash_constraints']} constraints, "
              f"{row['slash_witness_bytes']} payload bytes")
    _write_atomic(Path(args.out), "\n".join(lines) + "\n")
    return 0


def cmd_replay(args) -> int:
    try:
        text = Path(args.log).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read log: {exc}", file=sys.stderr)
        return 2
    try:
        params, events = parse_log(text)
        contract = replay(events, params)
    except CorruptLog as exc:
        print(f"corrupt log: {exc}", file=sys.stderr)
        return 1

    print(f"events: {len(events)}")
    print(f"final root: {contract.state_root}")
    print(f"escrow: {contract.escrow}")
    print("balances:")
    for index, owner in sorted(contract.owner_of.items()):
        print(f"  index {index}: {contract.account(index).balance} ({owner})")

    problems = conservation_trace(contract)
    if args.snapshot:
        try:
            expected = load_snapshot(Path(args.snapshot).read_text(),
                                     depth=params.depth)
        except (OSError, OracleError, ValueError) as exc:
            print(f"error: cannot load snapshot: {exc}", file=sys.stderr)
            return 2
        if expected.root != contract.state_root:
            problems.append("replayed state does not match the snapshot")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


def bundled_scenarios():
    """Name -> ScenarioConfig for every shipped scenario file."""
    configs = {}
    root = resources.files("zkoracle") / "scenarios"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            config = ScenarioConfig.from_json(entry.read_text())
            configs[config.name] = config
    return configs


def cmd_selftest(args) -> int:
    for flag, value in (("--rounds", args.rounds),
                        ("--conservation-runs", args.conservation_runs)):
        if value is not None and value < 0:
            print(f"error: {flag} must be >= 0, got {value}", file=sys.stderr)
            return 2
    failures = 0

    def report(name: str, problems) -> None:
        nonlocal failures
        if problems:
            failures += 1
            print(f"FAIL {name}")
            for p in problems[:5]:
                print(f"     {p}")
        else:
            print(f"PASS {name}")

    report("circuit brute force (n=4, t=3)", aggregation_brute_force())
    report("conservation suite", conservation_suite(count=args.conservation_runs))

    for name, config in bundled_scenarios().items():
        if args.rounds is not None:
            config.rounds = args.rounds
        run = run_scenario(config)
        problems = verify_run(run)
        if not config.expect_violation and run.metrics.liveness_stalls and \
                config.drop_rate == 0:
            problems.append(f"{run.metrics.liveness_stalls} stalls without drops")
        report(f"scenario {name}", problems)

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zkoracle",
        description="Proof-gated oracle scenario runner and auditor")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_scaling = sub.add_parser("scaling", help="constraint-count sweep")
    p_scaling.add_argument("--sizes", required=True,
                           help="comma-separated powers of two, e.g. 4,8,16")
    p_scaling.add_argument("--out", required=True)
    p_scaling.set_defaults(func=cmd_scaling)

    p_replay = sub.add_parser("replay", help="rebuild state from an event log")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--snapshot", default=None,
                          help="tree snapshot the replayed state must match")
    p_replay.set_defaults(func=cmd_replay)

    p_self = sub.add_parser("selftest", help="run the bundled checks")
    p_self.add_argument("--rounds", type=int, default=None,
                        help="override the round count of bundled scenarios")
    p_self.add_argument("--conservation-runs", type=int, default=50)
    p_self.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
