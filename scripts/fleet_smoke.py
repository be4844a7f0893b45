#!/usr/bin/env python
"""The fleet-smoke flow: start a 2-replica fleet, replay the corpus twice, stop.

This is what the ``fleet-smoke`` CI job runs (and what a developer can run
locally with ``PYTHONPATH=src python scripts/fleet_smoke.py``):

1. ``repro fleet start --replicas 2``: two daemon replicas on scratch Unix
   sockets, each with its own SQLite verdict store, behind an asyncio
   gateway that dedups each batch by canonical key and shards the
   representatives over a consistent-hash ring;
2. replay the frozen 20-pair known-verdict corpus
   (``tests/regression/containment_corpus.json``) through
   ``repro batch --fleet`` and check every verdict against the corpus;
3. replay it a second time and assert the warm fleet answers **every** pair
   from a cache tier (plan cache, verdict store, batch dedup, or a
   gateway-side fold) — routing is deterministic, so the second replay
   routes each representative to the same replica whose plan cache the
   first replay warmed;
4. replay a **duplicate-salted** corpus (every pair plus a variable-renamed
   isomorphic copy) and assert the gateway folded the copies: the salted
   verdicts still match the corpus, at least one verdict per copy carries
   ``source="gateway-dedup"``, and ``repro_gateway_dedup_folded_total``
   is positive;
5. check the gateway's fleet status: both replicas healthy, and **both**
   actually routed pairs (the corpus must not collapse onto one shard);
6. scrape the gateway's own metrics (``repro fleet status --prom``) and
   assert the exposition parses, every submitted pair is accounted for as
   either routed or folded, and no drain events fired;
7. ``repro fleet stop`` and assert the shutdown is clean: exit code 0, the
   gateway and replica socket files unlinked, pings unanswered.

Any violated expectation exits non-zero with a message, so the CI job fails
loudly and the gateway/replica logs are printed for debugging.
"""

from __future__ import annotations

import io
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.obs.metrics import MetricsError, parse_exposition  # noqa: E402
from repro.service.daemon import daemon_available  # noqa: E402
from repro.service.fleet import manifest_path_for, read_manifest  # noqa: E402

CORPUS = REPO_ROOT / "tests" / "regression" / "containment_corpus.json"
WARM_SOURCES = ("plan-cache", "store", "batch-dedup", "gateway-dedup")


def fail(message: str, log_dir: Path | None = None) -> None:
    print(f"fleet-smoke: FAIL: {message}", file=sys.stderr)
    if log_dir is not None:
        for log_path in sorted(log_dir.glob("*.log")):
            print(f"--- {log_path.name} ---", file=sys.stderr)
            print(log_path.read_text(), file=sys.stderr)
    sys.exit(1)


def corpus_pair_lines() -> tuple[list[str], list[str]]:
    """The corpus as batch-input lines plus the expected statuses."""
    corpus = json.loads(CORPUS.read_text())
    lines, expected = [], []
    for pair in corpus["pairs"]:
        texts = []
        for side in ("q1", "q2"):
            head = pair[side].get("head") or []
            body = pair[side]["body"]
            texts.append(f"({', '.join(head)}) :- {body}" if head else body)
        lines.append(json.dumps({"q1": texts[0], "q2": texts[1]}))
        expected.append(pair["status"])
    return lines, expected


def salted_pair_lines(lines: list[str]) -> list[str]:
    """Each corpus pair followed by a variable-renamed isomorphic copy.

    The copies are exactly what the gateway's dedup pass must fold: a
    different surface text, the same canonical key.
    """
    from repro.cq.parser import parse_query

    def rename_text(text: str) -> str:
        query = parse_query(text, name="Q")
        renamed = query.rename({v: f"{v}_salt" for v in query.variables})
        body = ", ".join(str(atom) for atom in renamed.atoms)
        if renamed.head:
            return f"({', '.join(renamed.head)}) :- {body}"
        return body

    salted = []
    for line in lines:
        record = json.loads(line)
        salted.append(line)
        salted.append(
            json.dumps(
                {"q1": rename_text(record["q1"]), "q2": rename_text(record["q2"])}
            )
        )
    return salted


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = cli_main(argv, out=buffer)
    return code, buffer.getvalue()


def replay(pairs_file: Path, gateway: str, log_dir: Path) -> list[dict]:
    """One ``repro batch --fleet`` replay; returns the verdict records."""
    stderr, sys.stderr = sys.stderr, io.StringIO()
    try:
        code, output = run_cli("batch", str(pairs_file), "--fleet", gateway)
        captured = sys.stderr.getvalue()
    finally:
        sys.stderr = stderr
    if code != 0:
        fail(f"batch --fleet exited {code}:\n{output}\n{captured}", log_dir)
    return [json.loads(line) for line in output.splitlines()]


def fleet_pids(fleet_dir: Path) -> list[int]:
    try:
        manifest = read_manifest(manifest_path_for(str(fleet_dir)))
    except Exception:
        return []
    pids = [manifest.get("gateway", {}).get("pid")]
    pids.extend(entry.get("pid") for entry in manifest.get("replicas", []))
    return [pid for pid in pids if isinstance(pid, int)]


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="repro-fleet-smoke-"))
    fleet_dir = scratch / "fleet"
    gateway_socket = str(scratch / "gateway.sock")
    pairs_file = scratch / "corpus_pairs.jsonl"

    lines, expected = corpus_pair_lines()
    pairs_file.write_text("\n".join(lines) + "\n")
    print(
        f"fleet-smoke: corpus has {len(lines)} pairs; gateway {gateway_socket}"
    )

    code, output = run_cli(
        "fleet",
        "start",
        "--dir",
        str(fleet_dir),
        "--replicas",
        "2",
        "--socket",
        gateway_socket,
    )
    if code != 0:
        fail(f"fleet start exited {code}:\n{output}", fleet_dir)
    print(output.rstrip())
    pids = fleet_pids(fleet_dir)

    try:
        first_records = replay(pairs_file, gateway_socket, fleet_dir)
        statuses = [record["status"] for record in first_records]
        if statuses != expected:
            fail(f"replay 1 statuses diverge from the corpus: {statuses}", fleet_dir)
        if [record["index"] for record in first_records] != list(range(len(lines))):
            fail("replay 1 verdicts are not in request order", fleet_dir)
        print(f"fleet-smoke: replay 1 ok ({len(first_records)} verdicts, in order)")

        second_records = replay(pairs_file, gateway_socket, fleet_dir)
        if [record["status"] for record in second_records] != expected:
            fail("replay 2 statuses diverge from the corpus", fleet_dir)
        cold = [
            record["index"]
            for record in second_records
            if record["source"] not in WARM_SOURCES
        ]
        if cold:
            fail(
                f"replay 2 pairs {cold} were not answered from a cache tier "
                f"(sources must be one of {WARM_SOURCES})",
                fleet_dir,
            )
        print(
            f"fleet-smoke: replay 2 ok — all {len(lines)} pairs from "
            "cache/store tiers (routing affinity held)"
        )

        salted_lines = salted_pair_lines(lines)
        salted_file = scratch / "corpus_pairs_salted.jsonl"
        salted_file.write_text("\n".join(salted_lines) + "\n")
        salted_expected = [status for status in expected for _ in range(2)]
        salted_records = replay(salted_file, gateway_socket, fleet_dir)
        if [record["status"] for record in salted_records] != salted_expected:
            fail("salted replay statuses diverge from the corpus", fleet_dir)
        folded_records = [
            record
            for record in salted_records
            if record["source"] == "gateway-dedup"
        ]
        if len(folded_records) < len(lines):
            fail(
                f"salted replay folded only {len(folded_records)} of "
                f"{len(lines)} duplicate copies at the gateway",
                fleet_dir,
            )
        pairs_sent = 2 * len(lines) + len(salted_lines)
        print(
            f"fleet-smoke: salted replay ok — {len(folded_records)} of "
            f"{len(salted_lines)} pairs folded at the gateway"
        )

        code, output = run_cli("fleet", "status", "--dir", str(fleet_dir))
        if code != 0:
            fail(f"fleet status exited {code}:\n{output}", fleet_dir)
        status = json.loads(output)
        if status.get("role") != "gateway":
            fail(f"status role is {status.get('role')!r}, not 'gateway'", fleet_dir)
        if status.get("healthy_replicas") != 2:
            fail(
                f"expected 2 healthy replicas, got {status.get('healthy_replicas')}",
                fleet_dir,
            )
        idle = [
            entry["name"]
            for entry in status.get("replicas", [])
            if entry.get("pairs", 0) <= 0
        ]
        if idle:
            fail(
                f"replicas {idle} routed zero pairs — the corpus collapsed "
                "onto one shard",
                fleet_dir,
            )
        routed = {entry["name"]: entry["pairs"] for entry in status["replicas"]}
        print(f"fleet-smoke: status ok — pairs routed per replica: {routed}")

        code, exposition = run_cli(
            "fleet", "status", "--dir", str(fleet_dir), "--prom"
        )
        if code != 0:
            fail(f"fleet status --prom exited {code}", fleet_dir)
        try:
            samples = parse_exposition(exposition)
        except MetricsError as error:
            fail(f"gateway exposition does not parse: {error}", fleet_dir)
        routed_total = sum(
            samples.get("repro_gateway_pairs_routed_total", {}).values()
        )
        folded_total = sum(
            samples.get("repro_gateway_dedup_folded_total", {}).values()
        )
        if folded_total <= 0:
            fail(
                "repro_gateway_dedup_folded_total is not positive after the "
                "duplicate-salted replay",
                fleet_dir,
            )
        # Conservation: every pair the client sent was either dispatched to
        # a replica or folded onto a representative at the gateway.
        if routed_total + folded_total != pairs_sent:
            fail(
                f"exposition accounts for {routed_total} routed + "
                f"{folded_total} folded pairs, expected {pairs_sent} total "
                "across the three replays",
                fleet_dir,
            )
        drains = sum(samples.get("repro_gateway_drain_events_total", {}).values())
        if drains != 0:
            fail(f"exposition reports {drains} drain events", fleet_dir)
        healthy = sum(samples.get("repro_gateway_replicas_healthy", {}).values())
        if healthy != 2.0:
            fail(f"exposition reports {healthy} healthy replicas", fleet_dir)
        print(
            f"fleet-smoke: metrics scrape ok — {int(routed_total)} pairs "
            f"routed, {int(folded_total)} folded, 0 drains"
        )

        manifest = read_manifest(manifest_path_for(str(fleet_dir)))
        member_sockets = [gateway_socket] + [
            entry["address"] for entry in manifest["replicas"]
        ]
        code, output = run_cli("fleet", "stop", "--dir", str(fleet_dir))
        if code != 0:
            fail(f"fleet stop exited {code}:\n{output}", fleet_dir)
        for member in member_sockets:
            if daemon_available(member, timeout=1.0):
                fail(f"{member} still answers pings after fleet stop", fleet_dir)
            if os.path.exists(member):
                fail(f"socket file {member} survived the shutdown", fleet_dir)
        print("fleet-smoke: clean shutdown confirmed (all sockets unlinked)")
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass

    print("fleet-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
