"""E18 — fleet throughput scaling and mid-batch replica loss (PR 6).

Measures what the hash-sharded daemon fleet buys over a single service on
the E13 128-pair mixed workload:

* **baseline** — one in-process :class:`ContainmentService` pass (no
  sockets, no sharding): the floor every fleet size is compared against,
  and the source of the reference verdicts for parity checks;
* **1/2/4 replicas** — a real fleet per size (child-process replicas with
  per-replica SQLite stores behind the asyncio gateway), timed cold (empty
  caches) and warm (same batch replayed against the plan caches the cold
  pass filled).  Every configuration must match the baseline verdicts
  pair for pair;
* **kill one replica mid-batch** — a 2-replica fleet loses one replica to
  SIGKILL while a cold 128-pair batch is in flight: the gateway must drain
  the dead replica, reroute its unanswered pairs to the survivor, and
  still deliver a complete, correct, in-order batch report.

Writes ``BENCH_6.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import BatchOptions, ContainmentService  # noqa: E402
from repro.service.daemon import DaemonClient  # noqa: E402
from repro.service.fleet import start_fleet, stop_fleet  # noqa: E402
from repro.workloads.generators import mixed_containment_pairs  # noqa: E402

WORKLOAD_SEED = 7  # the E13 seed: fleet scaling is measured on the same traffic
WORKLOAD_SIZE = 128
REPLICA_COUNTS = (1, 2, 4)


def _query_text(query):
    """Serialize a query back into the parser syntax the wire carries."""
    body = ", ".join(str(atom) for atom in query.atoms)
    if query.head:
        return f"({', '.join(query.head)}) :- {body}"
    return body


def workload_texts():
    return [
        (_query_text(q1), _query_text(q2))
        for q1, q2 in mixed_containment_pairs(WORKLOAD_SIZE, seed=WORKLOAD_SEED)
    ]


def baseline_statuses(pairs):
    """One in-process pass: (statuses, seconds)."""
    service = ContainmentService(BatchOptions(on_error="capture"))
    started = time.perf_counter()
    try:
        report = service.run(mixed_containment_pairs(WORKLOAD_SIZE, seed=WORKLOAD_SEED))
    finally:
        service.close()
    seconds = time.perf_counter() - started
    # .value: the wire carries plain strings, the in-process report carries
    # ContainmentStatus enum members.
    return [result.status.value for result in report.results], seconds


def _routed_pairs(client):
    status = client.status()
    return {
        entry["name"]: entry["pairs"] for entry in status.get("replicas", [])
    }


def measure_fleet(replicas, texts, expected, client_timeout):
    """Cold + warm timings for one fleet size, with pair-for-pair parity."""
    scratch = Path(tempfile.mkdtemp(prefix=f"repro-bench-fleet-{replicas}-"))
    gateway_address = str(scratch / "gateway.sock")
    start_fleet(
        directory=str(scratch / "fleet"),
        replicas=replicas,
        gateway_address=gateway_address,
    )
    client = DaemonClient(gateway_address, timeout=client_timeout)
    try:
        started = time.perf_counter()
        cold = client.batch(texts)
        cold_seconds = time.perf_counter() - started
        if not cold.ok or len(cold.verdicts) != len(texts):
            raise RuntimeError(f"cold batch failed at {replicas} replicas: {cold.error}")

        started = time.perf_counter()
        warm = client.batch(texts)
        warm_seconds = time.perf_counter() - started
        if not warm.ok or len(warm.verdicts) != len(texts):
            raise RuntimeError(f"warm batch failed at {replicas} replicas: {warm.error}")

        parity = all(
            verdict.status == expected[verdict.index] for verdict in cold.verdicts
        ) and all(
            verdict.status == expected[verdict.index] for verdict in warm.verdicts
        )
        if not parity:
            raise RuntimeError(
                f"verdict parity broken at {replicas} replicas: the fleet "
                "diverged from the single in-process service"
            )
        routed = _routed_pairs(client)
    finally:
        stop_fleet(str(scratch / "fleet"))
        shutil.rmtree(scratch, ignore_errors=True)

    return {
        "replicas": replicas,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "cold_pairs_per_second": round(len(texts) / cold_seconds, 2),
        "warm_pairs_per_second": round(len(texts) / warm_seconds, 2),
        "parity_with_baseline": True,
        "pairs_routed": routed,
    }


def measure_kill_one(texts, expected, client_timeout, kill_after):
    """SIGKILL a replica mid-batch; the batch must still complete correctly."""
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-fleet-kill-"))
    gateway_address = str(scratch / "gateway.sock")
    manifest = start_fleet(
        directory=str(scratch / "fleet"),
        replicas=2,
        gateway_address=gateway_address,
        probe_interval=0.5,
    )
    victim = manifest["replicas"][0]
    client = DaemonClient(gateway_address, timeout=client_timeout)
    outcome = {}

    def run_batch():
        started = time.perf_counter()
        outcome["response"] = client.batch(texts)
        outcome["seconds"] = time.perf_counter() - started

    try:
        worker = threading.Thread(target=run_batch)
        worker.start()
        time.sleep(kill_after)
        os.kill(victim["pid"], signal.SIGKILL)
        killed_at = kill_after
        worker.join(timeout=client_timeout)
        if worker.is_alive():
            raise RuntimeError("the batch never completed after the replica kill")
        response = outcome["response"]
        if not response.ok or len(response.verdicts) != len(texts):
            raise RuntimeError(
                f"batch failed after the replica kill: {response.error}"
            )
        wrong = [
            verdict.index
            for verdict in response.verdicts
            if verdict.status != expected[verdict.index]
        ]
        if wrong:
            raise RuntimeError(
                f"pairs {wrong} answered incorrectly after the replica kill"
            )
        ordered = [verdict.index for verdict in response.verdicts] == list(
            range(len(texts))
        )
        if not ordered:
            raise RuntimeError("reassembly lost request order after the kill")
        status = client.status()
        drains = sum(entry["drains"] for entry in status.get("replicas", []))
    finally:
        stop_fleet(str(scratch / "fleet"))
        shutil.rmtree(scratch, ignore_errors=True)

    return {
        "replicas": 2,
        "killed_replica": victim["name"],
        "kill_after_seconds": killed_at,
        "batch_seconds": round(outcome["seconds"], 4),
        "complete": True,
        "parity_with_baseline": True,
        "in_request_order": True,
        "degraded_flagged": bool(response.degraded),
        "drain_events": drains,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--client-timeout", type=float, default=600.0)
    parser.add_argument(
        "--kill-after",
        type=float,
        default=0.4,
        help="seconds into the cold batch to SIGKILL the victim replica",
    )
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_6.json"))
    args = parser.parse_args(argv)

    texts = workload_texts()
    print(f"baseline: one in-process pass over {len(texts)} pairs ...")
    expected, baseline_seconds = baseline_statuses(texts)
    print(f"  {baseline_seconds:.2f}s ({len(texts) / baseline_seconds:.1f} pairs/s)")

    scaling = []
    for count in REPLICA_COUNTS:
        print(f"fleet x{count}: cold + warm 128-pair batch through the gateway ...")
        cell = measure_fleet(count, texts, expected, args.client_timeout)
        scaling.append(cell)
        print(
            f"  cold {cell['cold_seconds']}s "
            f"({cell['cold_pairs_per_second']} pairs/s), "
            f"warm {cell['warm_seconds']}s "
            f"({cell['warm_pairs_per_second']} pairs/s), "
            f"routed {cell['pairs_routed']}"
        )

    print(
        f"kill-one: SIGKILL a replica {args.kill_after}s into a cold batch "
        "on a 2-replica fleet ..."
    )
    kill = measure_kill_one(texts, expected, args.client_timeout, args.kill_after)
    print(
        f"  batch completed in {kill['batch_seconds']}s, "
        f"degraded={kill['degraded_flagged']}, drains={kill['drain_events']}"
    )

    report = {
        "experiment": "E18-fleet",
        "description": (
            "Hash-sharded daemon fleet on the E13 128-pair mixed workload: "
            "cold and warm batch throughput through the asyncio gateway at "
            "1/2/4 child-process replicas (pair-for-pair verdict parity with "
            "a single in-process service), plus a mid-batch SIGKILL of one "
            "replica in a 2-replica fleet — the gateway drains the dead "
            "member, reroutes its pairs, and still returns a complete "
            "correct in-order batch report"
        ),
        "workload": f"mixed_containment_pairs({WORKLOAD_SIZE}, seed={WORKLOAD_SEED})",
        "baseline_single_service": {
            "seconds": round(baseline_seconds, 4),
            "pairs_per_second": round(len(texts) / baseline_seconds, 2),
        },
        "scaling": scaling,
        "kill_one_replica": kill,
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report written to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
