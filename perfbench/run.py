"""zkoracle benchmark: simnet request cost at two committee sizes, and a
cold-cache audit of recorded proofs.

    python3 perfbench/run.py --workload sim_n16_faults --seed 1 --seconds 15 --trace 0

Workloads (README.md in this directory says why each exists and which layer
metric should move which end-to-end metric):

  sim_n16_faults   run_scenario, committee 16, one node of each adversary kind
  sim_n256_honest  run_scenario, full committee of 256, all honest
  audit_cold       circuits.verify on every proof of a recorded committee-16
                   run, then parse_log -> replay of its event log, in a
                   process that never proved or signed anything

Every run also runs the workload's scenario at the default seed and checks
its output digest against pins.json, and checks the measured run's outputs.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The lines before it show the run's metadata, every
metric with its unit, the failure share and any failed gate.
"""

import argparse
import base64
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from layers import Probe, Tracer
from zkoracle import circuits, contract
from zkoracle.circuits import AGGREGATION, SLASH, AggregationPublic, Proof, SlashPublic
from zkoracle.curve import Point
from zkoracle.merkle import dump_snapshot
from zkoracle.simnet import run_scenario, verify_run

HERE = Path(__file__).resolve().parent

SIMS = {"sim_n16_faults": workloads.n16_faults,
        "sim_n256_honest": workloads.n256_honest}
WORKLOADS = tuple(SIMS) + ("audit_cold",)

# Requests per second of --seconds, so that a run measures about --seconds
# on a 2-core x86 VM while its amount of work depends on nothing but the
# arguments.  A sim run adds one unmeasured warm-up request and measures at
# least MIN_MEASURED; the audit producer makes this many and the audit stops
# verifying when --seconds have passed.
REQUESTS_PER_SECOND = {"sim_n16_faults": 6.0, "sim_n256_honest": 0.3,
                       "audit_cold": 8.0}
MIN_MEASURED = 3
SETUP_REPEATS_AUDIT = 9
PRODUCER_TIMEOUT_S = 150


class Outcome:
    """What a run reports: metric values, operation counts and gate failures."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.gate_failures = []

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.gate_failures.append(message)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def pinned_digest(workload: str) -> str:
    return json.loads((HERE / "pins.json").read_text())[workload]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def src_lines() -> int:
    """Non-blank lines of Python under src/zkoracle."""
    return sum(1 for path in sorted((workloads.SRC / "zkoracle").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


# -- simnet workloads -----------------------------------------------------------


class Drive(NamedTuple):
    run: object            # simnet.ScenarioRun
    wall_s: float
    setup_s: float         # run_scenario entry to its first request
    requests_s: list       # per-request wall time, warm-up request excluded
    verifies: list         # Probe records of the whole run
    measured_from: float   # perf_counter() at the first measured request


def drive(config, probe: Probe) -> Drive:
    """One run_scenario call, timed request by request from request_block
    to the next request_block (or the end of the run)."""
    probe.reset()
    start = time.perf_counter()
    run = run_scenario(config)
    end = time.perf_counter()
    marks = probe.request_starts + [end]
    requests = [b - a for a, b in zip(marks[1:], marks[2:])]
    return Drive(run, end - start, marks[0] - start, requests,
                 list(probe.verifies), marks[1] if len(marks) > 2 else end)


def sim_workload(name: str, args, probe: Probe, tracer, outcome: Outcome) -> None:
    make = SIMS[name]
    reference_config = make(workloads.DEFAULT_SEED, workloads.REFERENCE_ROUNDS[name])
    pinned = pinned_digest(name)
    setups = []

    if tracer is None:
        setups.append(drive(make(args.seed + 1, 0), probe).setup_s)
    else:
        tracer.clear_caches()
    reference = drive(reference_config, probe)
    outcome.gate(verify_run(reference.run) == [], "reference run failed verify_run")
    digest = workloads.output_digest(reference.run)
    outcome.gate(digest == pinned, f"output digest {digest} != pinned {pinned}")
    setups.append(reference.setup_s)

    if tracer is not None:
        # same scenario again, traced, from equally empty caches
        untraced_wall = reference.wall_s
        tracer.install()
        tracer.clear_caches()
        reference = drive(reference_config, probe)
        outcome.gate(workloads.output_digest(reference.run) == digest,
                     "tracing changed the output digest")
        overhead = reference.wall_s / untraced_wall
        tracer.reset()

    rounds = 1 + max(MIN_MEASURED, math.ceil(args.seconds * REQUESTS_PER_SECOND[name]))
    main = drive(make(args.seed, rounds), probe)
    rows = main.run.metrics.rows
    slashes = sum(r.slashes for r in rows)

    if tracer is not None:
        outcome.metrics = tracer.metrics()
        outcome.metrics["trace.overhead_ratio"] = overhead
        submits = tracer.calls("contract.submit_block")
        outcome.gate(submits == main.run.metrics.answered,
                     f"contract.submit_block.calls {submits} != answered "
                     f"{main.run.metrics.answered}")
        slash_calls = tracer.calls("contract.slash")
        outcome.gate(slash_calls == slashes,
                     f"contract.slash.calls {slash_calls} != slashes {slashes}")

    problems = verify_run(main.run)
    for problem in problems:
        print(f"verify_run: {problem}", file=sys.stderr)
    unanswered = sum(1 for r in rows if not r.answered)
    wrong = sum(1 for r in rows if r.answered and not r.correct)
    rejected = sum(1 for v in main.verifies if not v.accepted)
    outcome.attempted = len(rows)
    outcome.failed = unanswered + wrong + rejected + len(problems)

    if tracer is None:
        setups.append(main.setup_s)
        measured_s = sum(main.requests_s)
        window = [v for v in main.verifies if v.start >= main.measured_from]
        request_ms = [s * 1000 for s in main.requests_s]
        agg_ms = [v.seconds * 1000 for v in window if v.circuit_id == AGGREGATION]
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "requests_per_s": len(main.requests_s) / measured_s,
            "request_ms_p50": statistics.median(request_ms),
            "request_ms_p90": p90(request_ms),
            "verify_agg_ms_p50": statistics.median(agg_ms),
            "verify_agg_ms_p90": p90(agg_ms),
            "proofs_per_s": len(window) / measured_s,
        }


# -- cold audit ------------------------------------------------------------------

_PUBLIC_TYPES = {AGGREGATION: AggregationPublic, SLASH: SlashPublic}


class Recording(NamedTuple):
    reference_digest: str
    requests: list   # per request: [(circuit_id, public, proof), ...]
    log: str
    snapshot: str
    root: int


def decode_recording(text: str) -> Recording:
    obj = json.loads(text)
    requests = []
    for triples in obj["requests"]:
        items = []
        for t in triples:
            fields = {k: Point(*v) if isinstance(v, list) else v
                      for k, v in t["public"].items()}
            items.append((t["circuit"], _PUBLIC_TYPES[t["circuit"]](**fields),
                          Proof(t["backend"], t["circuit"],
                                base64.b64decode(t["payload"]))))
        requests.append(items)
    return Recording(obj["reference_digest"], requests, obj["log"],
                     obj["snapshot"], int(obj["root"]))


class AuditPass(NamedTuple):
    request_ms: list     # verification time of each request's proofs
    agg_ms: list
    proofs: int
    rejected: int
    rebuilt: object      # contract.Contract replayed from the log
    wall_s: float


def audit_pass(recording: Recording, seconds=None, limit=None) -> AuditPass:
    """Verify the proofs request by request (until `seconds` have passed or
    `limit` requests are done), then replay the event log."""
    request_ms, agg_ms = [], []
    proofs = rejected = 0
    start = time.perf_counter()
    for items in recording.requests[:limit]:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        begin = time.perf_counter()
        for circuit_id, public, proof in items:
            t = time.perf_counter()
            accepted = circuits.verify(proof.backend_id, circuit_id, public, proof)
            if circuit_id == AGGREGATION:
                agg_ms.append((time.perf_counter() - t) * 1000)
            proofs += 1
            rejected += not accepted
        request_ms.append((time.perf_counter() - begin) * 1000)
    params, events = contract.parse_log(recording.log)
    rebuilt = contract.replay(events, params)
    return AuditPass(request_ms, agg_ms, proofs, rejected, rebuilt,
                     time.perf_counter() - start)


def audit_workload(args, probe: Probe, tracer, outcome: Outcome) -> None:
    requests = math.ceil(args.seconds * REQUESTS_PER_SECOND["audit_cold"])
    producer = subprocess.run(
        [sys.executable, str(HERE / "produce.py"), "--seed", str(args.seed),
         "--requests", str(requests)],
        capture_output=True, text=True, timeout=PRODUCER_TIMEOUT_S, check=False)
    if producer.returncode != 0:
        raise RuntimeError(f"audit producer failed:\n{producer.stderr}")

    setups = []
    for _ in range(SETUP_REPEATS_AUDIT):
        start = time.perf_counter()
        recording = decode_recording(producer.stdout)
        setups.append(time.perf_counter() - start)
    pinned = pinned_digest("audit_cold")
    outcome.gate(recording.reference_digest == pinned,
                 f"output digest {recording.reference_digest} != pinned {pinned}")

    result = audit_pass(recording, seconds=args.seconds)
    if tracer is not None:
        # the same audit again, traced, from equally empty caches
        tracer.install()
        tracer.clear_caches()
        traced = audit_pass(recording, limit=len(result.request_ms))
        outcome.metrics = tracer.metrics()
        outcome.metrics["trace.overhead_ratio"] = traced.wall_s / result.wall_s
        verifies = tracer.calls("circuits.verify")
        outcome.gate(verifies == traced.proofs,
                     f"circuits.verify.calls {verifies} != proofs {traced.proofs}")
        outcome.gate(tracer.calls("contract.replay") == 1,
                     "contract.replay.calls != 1")
        outcome.gate(traced.rejected == 0, "the traced audit rejected a proof")
        outcome.gate(contract.dump_log(traced.rebuilt)
                     == contract.dump_log(result.rebuilt),
                     "tracing changed the replayed log")

    circuit_id, public, proof = next(item for items in recording.requests
                                     for item in items if item[0] == AGGREGATION)
    mutated = dataclasses.replace(public, block_hash=public.block_hash + 1)
    checks = {
        "replayed root equals the recorded root":
            result.rebuilt.state_root == recording.root,
        "replayed log equals the recorded log":
            contract.dump_log(result.rebuilt) == recording.log,
        "replayed snapshot equals the recorded snapshot":
            dump_snapshot(result.rebuilt.tree_snapshot()) == recording.snapshot,
        "a proof with a mutated public input is rejected":
            not circuits.verify(proof.backend_id, circuit_id, mutated, proof),
        "the measuring process made no prove or sign call":
            probe.prove_calls == 0 and probe.sign_calls == 0,
    }
    for name, ok in checks.items():
        if not ok:
            print(f"audit check failed: {name}", file=sys.stderr)
    outcome.attempted = result.proofs + len(checks)
    outcome.failed = result.rejected + sum(1 for ok in checks.values() if not ok)

    if tracer is None:
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "requests_per_s": len(result.request_ms) / result.wall_s,
            "request_ms_p50": statistics.median(result.request_ms),
            "request_ms_p90": p90(result.request_ms),
            "verify_agg_ms_p50": statistics.median(result.agg_ms),
            "verify_agg_ms_p90": p90(result.agg_ms),
            "proofs_per_s": result.proofs / result.wall_s,
        }


# -- entry point -------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    probe = Probe()
    probe.install()
    tracer = Tracer() if args.trace else None
    outcome = Outcome()
    if args.workload == "audit_cold":
        audit_workload(args, probe, tracer, outcome)
    else:
        sim_workload(args.workload, args, probe, tracer, outcome)
    if not args.trace:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()

    outcome.gate(set(outcome.metrics) == set(units),
                 f"metrics {sorted(set(outcome.metrics) ^ set(units))} differ "
                 f"from BENCHMARK.json {section}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# python={platform.python_version()} cpu_count={os.cpu_count()} "
          f"src_lines={src_lines()}")
    for name in units:
        if name in outcome.metrics:
            print(f"{name} = {outcome.metrics[name]} {units[name]}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"ops_failed_share = {share} "
          f"({outcome.failed} failed / {outcome.attempted} attempted)")
    for message in outcome.gate_failures:
        print(f"FAIL {message}", file=sys.stderr)
    correct = not outcome.gate_failures and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": units[name]}
                    for name in units if name in outcome.metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
