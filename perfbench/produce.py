"""Audit producer: the prover side of the ``audit_cold`` workload.

Runs the committee-16-with-dissenters scenario and prints, as one JSON
object on stdout, what an auditor needs: every (circuit_id, public inputs,
proof) triple the contract verified, grouped by request, plus the event log,
the final tree snapshot and root.  It also prints the output digest of the
same scenario at the default seed, for the pin check.

run.py starts this in its own process and waits for it before measuring, so
no cache in the measuring process holds any of the prover's work.

    python3 perfbench/produce.py --seed 1 --requests 120
"""

import argparse
import base64
import dataclasses
import json
import sys

import workloads
from zkoracle.circuits import TransparentBackend
from zkoracle.contract import dump_log
from zkoracle.merkle import dump_snapshot
from zkoracle.simnet import run_scenario, verify_run


def _triple(circuit_id, public, proof) -> dict:
    return {"circuit": circuit_id,
            "public": dataclasses.asdict(public),
            "backend": proof.backend_id,
            "payload": base64.b64encode(proof.payload).decode("ascii")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    args = parser.parse_args()

    reference = run_scenario(workloads.n16_dissenters(
        workloads.DEFAULT_SEED, workloads.REFERENCE_ROUNDS["audit_cold"]))
    problems = verify_run(reference)

    by_request = {}
    original = TransparentBackend.verify

    def recording(backend, circuit_id, public, proof):
        accepted = original(backend, circuit_id, public, proof)
        if not accepted:
            problems.append(f"contract rejected a {circuit_id} proof")
        by_request.setdefault(public.request_id, []).append(
            _triple(circuit_id, public, proof))
        return accepted

    TransparentBackend.verify = recording
    try:
        run = run_scenario(workloads.n16_dissenters(args.seed, args.requests))
    finally:
        TransparentBackend.verify = original
    problems += verify_run(run)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    json.dump({"reference_digest": workloads.output_digest(reference),
               "requests": [by_request[r] for r in sorted(by_request)],
               "log": dump_log(run.contract),
               "snapshot": dump_snapshot(run.contract.tree_snapshot()),
               "root": str(run.contract.state_root),
               "slashes": sum(r.slashes for r in run.metrics.rows)},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
