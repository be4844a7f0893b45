#!/usr/bin/env python
"""The daemon-smoke flow: start, replay the frozen corpus twice, stop.

This is what the ``daemon-smoke`` CI job runs (and what a developer can run
locally with ``PYTHONPATH=src python scripts/daemon_smoke.py``):

1. start a detached daemon on a scratch Unix socket (``repro daemon start``
   semantics, via :func:`repro.service.daemon.spawn_daemon`);
2. replay the frozen 20-pair known-verdict corpus
   (``tests/regression/containment_corpus.json``) through
   ``repro batch --daemon`` and check every verdict against the corpus;
3. replay it a second time and assert the warm daemon answers **every** pair
   from the plan cache — cache hits grow by exactly the corpus size, and the
   pipeline/LP counters do not move at all (zero new solves for
   structurally-duplicate pairs);
4. scrape the daemon's metrics endpoint (``repro daemon status --prom``) and
   assert the exposition parses cleanly, reports at least the corpus-size
   cache hits, and shows zero deadline misses;
5. ``repro daemon stop`` and assert the shutdown is clean: exit code 0, the
   socket file unlinked, pings unanswered;
6. start a **fresh** daemon on the same ``--store`` and replay the corpus a
   third time: every pair must be answered from the durable verdict store
   (or the plan cache it warms) with zero pipelines and zero LP solves in
   the new process — this is the restart-warm guarantee;
7. audit the store offline: ``repro cache verify`` re-validates every stored
   certificate and witness, and ``repro cache compact`` exits cleanly.

Any violated expectation exits non-zero with a message, so the CI job fails
loudly and the daemon log is printed for debugging.  The scratch directory
(stores, socket and logs) is removed after ``PASS``; on a failure it is
kept, and its path printed.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.obs.metrics import MetricsError, parse_exposition  # noqa: E402
from repro.service.daemon import daemon_available, spawn_daemon  # noqa: E402

CORPUS = REPO_ROOT / "tests" / "regression" / "containment_corpus.json"


def fail(message: str, log_path: Path | None = None) -> None:
    print(f"daemon-smoke: FAIL: {message}", file=sys.stderr)
    if log_path is not None and log_path.exists():
        print("--- daemon log ---", file=sys.stderr)
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


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = cli_main(argv, out=buffer)
    return code, buffer.getvalue()


def replay(pairs_file: Path, socket_path: str, stats_file: Path) -> tuple[list[dict], dict]:
    """One ``repro batch --daemon`` replay; returns (records, stats)."""
    stderr, sys.stderr = sys.stderr, io.StringIO()
    try:
        code, output = run_cli(
            "batch", str(pairs_file), "--daemon", socket_path, "--daemon-only", "--stats"
        )
        captured = sys.stderr.getvalue()
    finally:
        sys.stderr = stderr
    if code != 0:
        fail(f"batch --daemon exited {code}:\n{output}\n{captured}")
    stats_lines = [line for line in captured.splitlines() if line.startswith("{")]
    if not stats_lines:
        fail(f"no stats JSON on stderr:\n{captured}")
    stats = json.loads(stats_lines[-1])["stats"]
    stats_file.write_text(json.dumps(stats, indent=1))
    return [json.loads(line) for line in output.splitlines()], stats


def smoke(scratch: Path) -> None:
    socket_path = str(scratch / "daemon.sock")
    log_path = scratch / "daemon.log"
    pairs_file = scratch / "corpus_pairs.jsonl"

    store_path = str(scratch / "verdicts.sqlite")

    lines, expected = corpus_pair_lines()
    pairs_file.write_text("\n".join(lines) + "\n")
    print(f"daemon-smoke: corpus has {len(lines)} pairs; socket {socket_path}")

    pid = spawn_daemon(
        socket_path,
        extra_args=["--store", store_path],
        log_path=str(log_path),
    )
    print(f"daemon-smoke: daemon pid {pid}")
    try:
        first_records, first_stats = replay(
            pairs_file, socket_path, scratch / "stats1.json"
        )
        statuses = [record["status"] for record in first_records]
        if statuses != expected:
            fail(f"replay 1 statuses diverge from the corpus: {statuses}", log_path)
        print(
            "daemon-smoke: replay 1 ok "
            f"(pipelines_run={first_stats['pipelines_run']}, "
            f"block_solves={first_stats['block_solves']}, "
            f"scalar_solves={first_stats['scalar_solves']})"
        )

        second_records, second_stats = replay(
            pairs_file, socket_path, scratch / "stats2.json"
        )
        if [record["status"] for record in second_records] != expected:
            fail("replay 2 statuses diverge from the corpus", log_path)

        not_cached = [
            record["index"]
            for record in second_records
            if record["source"] != "plan-cache"
        ]
        if not_cached:
            fail(
                f"replay 2 pairs {not_cached} were not answered from the plan cache",
                log_path,
            )
        hits = second_stats["cache_hits"] - first_stats["cache_hits"]
        if hits != len(lines):
            fail(
                f"expected {len(lines)} new cache hits on replay 2, got {hits}",
                log_path,
            )
        if hits <= 0:
            fail("replay 2 produced no cache hits", log_path)
        for counter in ("pipelines_run", "block_solves", "scalar_solves"):
            if second_stats[counter] != first_stats[counter]:
                fail(
                    f"replay 2 moved {counter}: "
                    f"{first_stats[counter]} -> {second_stats[counter]} "
                    "(the warm daemon must not re-solve duplicate hashes)",
                    log_path,
                )
        print(
            f"daemon-smoke: replay 2 ok — all {len(lines)} pairs from the plan "
            "cache, zero new LP solves"
        )

        code, exposition = run_cli("daemon", "status", "--socket", socket_path, "--prom")
        if code != 0:
            fail(f"daemon status --prom exited {code}", log_path)
        try:
            samples = parse_exposition(exposition)
        except MetricsError as error:
            fail(f"metrics exposition does not parse: {error}", log_path)
        cache_hits = sum(samples.get("repro_plan_cache_hits_total", {}).values())
        if cache_hits < len(lines):
            fail(
                f"exposition reports {cache_hits} cache hits, expected at "
                f"least the corpus size ({len(lines)})",
                log_path,
            )
        deadline_misses = sum(
            samples.get("repro_pairs_deadline_exceeded_total", {}).values()
        )
        if deadline_misses != 0:
            fail(f"exposition reports {deadline_misses} deadline misses", log_path)
        for family in (
            "repro_daemon_uptime_seconds",
            "repro_daemon_queue_depth",
            "repro_pair_seconds_count",
            "repro_daemon_requests_total",
        ):
            if family not in samples:
                fail(f"exposition is missing {family}", log_path)
        print(
            f"daemon-smoke: metrics scrape ok — {len(samples)} sample families, "
            f"{int(cache_hits)} cache hits, 0 deadline misses"
        )

        code, output = run_cli("daemon", "stop", "--socket", socket_path)
        if code != 0:
            fail(f"daemon stop exited {code}: {output}", log_path)
        if daemon_available(socket_path, timeout=1.0):
            fail("the daemon still answers pings after stop", log_path)
        if os.path.exists(socket_path):
            fail("the socket file survived the shutdown", log_path)
        print("daemon-smoke: clean shutdown confirmed")
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass

    # --- restart on the same store: the disk tier must warm the new daemon.
    restart_log = scratch / "daemon-restart.log"
    pid = spawn_daemon(
        socket_path,
        extra_args=["--store", store_path],
        log_path=str(restart_log),
    )
    print(f"daemon-smoke: restarted daemon pid {pid} on store {store_path}")
    try:
        third_records, third_stats = replay(
            pairs_file, socket_path, scratch / "stats3.json"
        )
        if [record["status"] for record in third_records] != expected:
            fail("replay 3 statuses diverge from the corpus", restart_log)
        # A store hit promotes its key into the plan cache, so duplicate
        # hashes later in the batch legitimately answer from the memory tier.
        cold = [
            record["index"]
            for record in third_records
            if record["source"] not in ("store", "plan-cache", "batch-dedup")
        ]
        if cold:
            fail(
                f"replay 3 pairs {cold} were not answered from the store or "
                "the cache it warms",
                restart_log,
            )
        if third_stats["store_hits"] <= 0:
            fail("replay 3 recorded no store hits", restart_log)
        if third_stats["pipelines_run"] != 0:
            fail(
                f"replay 3 ran {third_stats['pipelines_run']} pipelines in the "
                "restarted daemon (the store must make the restart free)",
                restart_log,
            )
        if third_stats["block_solves"] != 0 or third_stats["scalar_solves"] != 0:
            fail("replay 3 made new LP solves in the restarted daemon", restart_log)
        print(
            f"daemon-smoke: replay 3 ok — restarted daemon answered all "
            f"{len(lines)} pairs from the store ({third_stats['store_hits']} "
            "disk hits), zero new LP solves"
        )

        code, output = run_cli("daemon", "stop", "--socket", socket_path)
        if code != 0:
            fail(f"daemon stop (restart) exited {code}: {output}", restart_log)
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass

    # --- offline audit of the store the two daemons produced.
    code, output = run_cli("cache", "verify", "--store", store_path)
    if code != 0:
        fail(f"cache verify exited {code}:\n{output}")
    print(f"daemon-smoke: cache verify ok — {output.strip().splitlines()[-1]}")
    code, output = run_cli("cache", "compact", "--store", store_path)
    if code != 0:
        fail(f"cache compact exited {code}:\n{output}")
    print("daemon-smoke: cache compact ok")


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="repro-daemon-smoke-"))
    try:
        smoke(scratch)
    except BaseException:
        print(f"daemon-smoke: scratch directory kept at {scratch}", file=sys.stderr)
        raise
    shutil.rmtree(scratch)
    print("daemon-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
