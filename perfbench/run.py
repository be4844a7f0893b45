"""The repository benchmark: two workloads, every verdict checked.

Run from the repository root::

    python3 perfbench/run.py --workload batch-cold --seed 1 --seconds 32 --trace 0

Workloads (see ``perfbench/workloads.py`` for the generators):

* ``batch-cold`` — cold in-process batches, each on a fresh
  :class:`~repro.service.ContainmentService` with a fresh verdict store.  A
  batch holds the E13 family mix (homomorphism counting and witnesses do
  that work) and 3 distinct CONTAINED pairs over 8 and 9 variables (the
  ``Γn`` block LP and the store's certificates do that work);
* ``serve-warm`` — a 2-replica fleet (started by the program's
  ``start_fleet``) primed during set-up, then requests of freshly renamed
  primed pairs: a closed-loop phase of 8-pair requests (2 clients) for
  capacity, then an open-loop phase of single-pair requests at a fixed
  offered rate for latency.

Metrics per workload (figures taken per batch or per second are summarized
by their better quartile, see :func:`fast_side`):

* ``pairs_per_s`` — batch-cold: the pair rate of the run's batches;
  serve-warm: the per-second pair rate of the closed loop;
* ``latency_p50_ms`` — serve-warm: of the open-loop requests in each
  second, each timed from its due time; batch-cold: of the pairs each batch
  solved, the pipeline wall clock the service records as the pair's
  ``pair_seconds`` store provenance.  The p99 over all these samples is a
  per-layer metric (``--trace 1``): it has no bound, because on a shared
  2-core VM it reads the host (see :data:`OFFERED_RATE`); on batch-cold it
  is the slowest pair's typical time, clique3 ⊑ star1;
* ``slo_met_ratio`` — serve-warm: the share of open-loop requests answered
  correctly within :data:`LATENCY_LIMIT_S`; batch-cold: the share of pairs
  answered correctly (batches have no latency limit);
* ``setup_s`` — the median of several set-ups (``repro batch`` cold starts,
  or fleet starts);
* ``peak_rss_mb`` — of this process (batch-cold) or of the fleet (serve-warm).

The benchmark re-executes itself with a fixed ``PYTHONHASHSEED`` (see
:data:`HASH_SEED`).

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
instead (see ``perfbench/layers.py``), the span list is written to
``.bench_out/`` and each layer's share of the traced wall is printed.  Every
verdict is checked against the sequential
:func:`~repro.core.containment.decide_containment`, computed outside the
timed phases; ``failed`` counts wrong verdicts plus the pairs of refused
or errored requests.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (stores, fleet logs, span files) lives here.
OUT = ROOT / ".bench_out"

WORKLOADS = ("batch-cold", "serve-warm")
#: Python salts str hashes per process, and set iteration orders that follow
#: from them steer the order of Eq. (8) branches, hence the LP vertex and the
#: certificate work.  The benchmark and every process it starts use this
#: fixed salt, so a run's work does not depend on the salt it drew.
HASH_SEED = "0"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: serve-warm: fleet size, client threads, open-loop rate (requests of
#: OPEN_LOOP_PAIRS pairs per second) and latency limit.  Every fleet member
#: pauses 40-90 ms for a full garbage collection after a fixed number of
#: freshly renamed pairs, and each pause reaches every request in flight.
#: With 8-pair requests about 1% of requests met a pause at any rate from
#: 30 to 65 req/s, so the p99 of a run fell either side of the pauses' edge
#: and read 17 to 85 ms from run to run.  Single-pair requests at this rate
#: (about a fifth of their closed-loop capacity on a 2-core x86 VM; at
#: 150 req/s a slow spell of the host overloaded the fleet) meet a
#: pause well under 1% of the time.  Their p99 still moved 3-15x between
#: runs minutes apart with the host's slow spells and CPU steal (8-24% of
#: the time in /proc/stat), so p99 is a per-layer metric, without a bound.
REPLICAS = 2
CLIENTS = 2
OFFERED_RATE = 100.0
OPEN_LOOP_PAIRS = 1
LATENCY_LIMIT_S = 0.050
#: serve-warm: share of ``--seconds`` spent in the closed-loop phase.
CLOSED_LOOP_SHARE = 0.3
#: serve-warm: untimed single-pair closed loop between priming and the
#: open loop (about 1500 requests on a 2-core x86 VM).
WARMUP_SECONDS = 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "slo_met_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in ``[0, 1]``)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fast_side(values: Sequence[float], higher_is_better: bool = False) -> float:
    """The quartile of ``values`` on their better side.

    The host alternates between a fast and a slow state every few seconds
    (a fixed pure-Python loop takes 0.15 or 0.21 s on a 2-core x86 VM, in
    process CPU time as much as in wall time), and the share of slow time
    differs from run to run.  So a run times many short spans and reports
    the better quartile of them: it reads the program at the host's fast
    state whenever a quarter of the run had it, and a slower program moves
    it as it moves every span.
    """
    if len(values) == 1:
        return values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high if higher_is_better else low


def windows(result, count: int) -> List[list]:
    """The phase's samples split into ``count`` equal spans of completion time."""
    width = result.seconds / count
    split: List[list] = [[] for _ in range(count)]
    for sample in result.samples:
        index = int((sample.done - result.started) // width)
        split[min(max(index, 0), count - 1)].append(sample)
    return split


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(str(path) + suffix).unlink(missing_ok=True)


def reference_statuses() -> List[str]:
    """The ``batch-cold`` catalogue's statuses from sequential ``decide_containment``.

    Runs ``perfbench/single.py`` in a fresh process.  The catalogue starts
    with the E13 catalogue that ``serve-warm`` primes.
    """
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "single.py")],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
        timeout=150,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["statuses"]


def solve_seconds(store_path: Path) -> List[float]:
    """Per-pair pipeline wall clock of every pair a batch solved.

    The service records it as ``pair_seconds`` provenance on each store
    record; the store is opened again after the batch to read it.
    """
    from repro.store import VerdictStore

    store = VerdictStore(str(store_path))
    try:
        return [
            float(record["provenance"]["pair_seconds"])
            for _, record in store.records()
            if record["provenance"].get("pair_seconds") is not None
        ]
    finally:
        store.close()


# ---------------------------------------------------------------------- #
# Per-layer report
# ---------------------------------------------------------------------- #
def layer_report(tracer, pairs: int, wall: float, extra: Dict[str, float]) -> Dict:
    """Per-layer metrics, normalized per traced pair; prints the shares."""
    from layers import LAYERS

    totals = tracer.layer_totals()
    named = sum(entry["self_s"] for entry in totals.values())
    per_pair = 1.0 / max(pairs, 1)
    print(f"traced wall {wall:.3f} s over {pairs} pairs; layer self time and share:")
    for layer in LAYERS:
        entry = totals[layer]
        share = entry["self_s"] / wall if wall else 0.0
        print(
            f"  {layer:26s} {entry['self_s']:9.4f} s  {share:7.2%}  "
            f"{entry['calls']:7d} calls"
        )
    print(f"  {'(unnamed)':26s} {wall - named:9.4f} s  {(wall - named) / wall if wall else 0:7.2%}")
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"] * per_pair, "s/pair")
        metrics[f"{layer}.share"] = (totals[layer]["self_s"] / wall if wall else 0.0, "ratio")
    metrics["cq.hom_count.calls"] = (totals["cq.hom_count"]["calls"] * per_pair, "1/pair")
    metrics["lp.block_solve.calls"] = (
        totals["lp.block_solve"]["calls"] * per_pair,
        "1/pair",
    )
    for counter in ("core.inequality_branches", "store.records_written"):
        metrics[counter] = (tracer.counts.get(counter, 0.0) * per_pair, "1/pair")
    for name in ("lp.rowgen_rounds", "lp.rowgen_cuts", "core.pipelines"):
        metrics[name] = (extra.get(name, 0.0) * per_pair, "1/pair")
    for name in ("service.cache_hit_ratio", "service.dedup_ratio", "fleet.dedup_folded_ratio"):
        metrics[name] = (extra.get(name, 0.0), "ratio")
    for name in (
        "fleet.gateway_request_ms.mean",
        "daemon.request_ms.mean",
        "daemon.queue_wait_ms.mean",
        "fleet.hop_ms.mean",
        "fleet.dispatch_ms.mean",
        "loadgen.lateness_ms.p99",
        "latency_p99_ms",
    ):
        metrics[name] = (extra.get(name, 0.0), "ms")
    metrics["loadgen.open_loop_samples"] = (extra.get("loadgen.open_loop_samples", 0.0), "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.named_share"] = (named / wall if wall else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (extra.get("trace.overhead_ratio", 0.0), "ratio")
    return metrics


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #
@dataclass
class BatchRun:
    items: list
    statuses: List[str]
    seconds: float
    stats: Dict[str, object]
    traced: bool
    solve_seconds: List[float]


def cold_start(workdir: Path, index: int) -> float:
    """Seconds for ``repro batch`` to start, open a fresh store, decide, exit."""
    from repro.service.daemon import ContainmentDaemon

    pairs = workdir / "setup-pairs.txt"
    pairs.write_text("".join(f"{q1} | {q2}\n" for q1, q2 in ContainmentDaemon.WARMUP_PAIRS))
    store = workdir / f"setup-{index}.sqlite"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "batch", str(pairs), "--store", str(store)],
        check=True,
        stdout=subprocess.DEVNULL,
        env=env,
        cwd=str(workdir),
        timeout=120,
    )
    seconds = time.perf_counter() - started
    _remove_store(store)
    return seconds


def run_batches(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from layers import LayerTracer, lp_counters
    from repro.cq.parser import parse_query
    from repro.service import BatchOptions, ContainmentService
    from repro.service.canonical import pair_key
    from repro.service.daemon import ContainmentDaemon
    from workloads import LP_ARITIES, cold_batches, rename_pair

    setup = [cold_start(workdir, index) for index in range(SETUP_REPEATS)]

    catalogue, lp_offset, batches = cold_batches(seed, key=lambda pair: pair_key(*pair))
    # Process-wide lazy state (LP backends, lattice contexts) is filled
    # untimed, as in any long-lived process: the daemon's warm-up pairs and
    # one LP pair per arity.
    warmup = [(parse_query(a), parse_query(b)) for a, b in ContainmentDaemon.WARMUP_PAIRS]
    warmup += [
        rename_pair(catalogue[lp_offset + LP_ARITIES.index(arity)], "warm")
        for arity in sorted(set(LP_ARITIES))
    ]
    with ContainmentService(BatchOptions(on_error="capture")) as service:
        service.run(warmup)

    # The reference verdicts, outside the timed phase.  Every batch holds
    # every catalogue pair, so the whole catalogue is decided.
    expected_statuses = reference_statuses()

    tracer = LayerTracer() if trace else None
    lp_delta = {"lp.rowgen_rounds": 0.0, "lp.rowgen_cuts": 0.0}
    runs: List[BatchRun] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < (2 if trace else 1) or time.perf_counter() < deadline:
        items = next(batches)
        traced = trace and len(runs) % 2 == 1
        store = workdir / f"batch-{len(runs)}.sqlite"
        if traced:
            tracer.request_id = len(runs)
            before = lp_counters()
            tracer.install()
        try:
            started = time.perf_counter()
            service = ContainmentService(
                BatchOptions(on_error="capture", store_path=str(store))
            )
            try:
                report = service.run([item.pair for item in items])
            finally:
                service.close()
            elapsed = time.perf_counter() - started
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            after = lp_counters()
            for key in lp_delta:
                lp_delta[key] += after[key] - before[key]
        runs.append(
            BatchRun(
                items=items,
                statuses=[result.status.value for result in report.results],
                seconds=elapsed,
                stats=report.stats,
                traced=traced,
                solve_seconds=solve_seconds(store),
            )
        )
        _remove_store(store)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness, outside the timed phase.
    attempted = failed = 0
    for run in runs:
        for item, status in zip(run.items, run.statuses):
            expected = expected_statuses[item.origin]
            if item.origin >= lp_offset and expected != "contained":
                failed += 1  # the generator promised a CONTAINED pair
            elif status != expected:
                failed += 1
        attempted += len(run.items)

    # Per-batch figures, summarized on the host's fast side (see fast_side).
    untraced = [run for run in runs if not run.traced]
    rate = fast_side([len(run.items) / run.seconds for run in untraced], higher_is_better=True)
    p50 = fast_side(
        [percentile(run.solve_seconds, 0.5) * 1000.0 for run in untraced if run.solve_seconds]
    )
    latencies = [seconds * 1000.0 for run in untraced for seconds in run.solve_seconds]
    p99 = percentile(latencies, 0.99)
    extra = {"latency_p99_ms": p99}
    print(
        f"{name}: {len(untraced)} batches of {len(runs[0].items)} pairs in "
        f"{[round(run.seconds, 2) for run in untraced]} s, "
        f"{rate:.2f} pairs/s; per-pair solve time p50 {p50:.1f} ms (per batch; "
        f"over all {percentile(latencies, 0.5):.1f} ms), "
        f"p99 {p99:.1f} ms (n={len(latencies)} solved pairs); "
        f"setup {[round(s, 3) for s in setup]}"
    )
    if not trace:
        # Batches carry no latency limit, so the objective here is a correct
        # answer.
        metrics = {
            "setup_s": statistics.median(setup),
            "pairs_per_s": rate,
            "latency_p50_ms": p50,
            "slo_met_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        return failed == 0, attempted, failed, {
            key: (value, END_TO_END_UNITS[key]) for key, value in metrics.items()
        }

    traced_runs = [run for run in runs if run.traced]
    traced_pairs = sum(len(run.items) for run in traced_runs)
    traced_wall = sum(run.seconds for run in traced_runs)
    submitted = sum(run.stats["pairs_submitted"] for run in traced_runs) or 1
    extra.update(lp_delta)
    extra["core.pipelines"] = float(sum(run.stats["pipelines_run"] for run in traced_runs))
    extra["service.cache_hit_ratio"] = (
        sum(run.stats["cache_hits"] + run.stats["store_hits"] for run in traced_runs)
        / submitted
    )
    extra["service.dedup_ratio"] = (
        sum(run.stats["batch_duplicates"] for run in traced_runs) / submitted
    )
    traced_rate = fast_side(
        [len(run.items) / run.seconds for run in traced_runs], higher_is_better=True
    )
    extra["trace.overhead_ratio"] = rate / traced_rate - 1.0
    tracer.write_spans(str(OUT / f"spans-{name}-seed{seed}.jsonl"))
    return failed == 0, attempted, failed, layer_report(tracer, traced_pairs, traced_wall, extra)


# ---------------------------------------------------------------------- #
# serve-warm
# ---------------------------------------------------------------------- #
def _histogram_mean_ms(deltas: Dict[str, float], name: str) -> float:
    count = deltas.get(f"{name}_count", 0.0)
    return 1000.0 * deltas.get(f"{name}_sum", 0.0) / count if count else 0.0


def run_serve(seed: int, seconds: float, trace: bool, workdir: Path):
    import fleet
    from layers import LayerTracer, exposition_deltas, lp_counters
    from repro.service import BatchOptions
    from repro.service.daemon import ContainmentDaemon, DaemonClient
    from repro.service.fleet import merge_stores
    from repro.service.protocol import BatchRequest, PairSpec, encode_request
    from workloads import mixed_catalogue, query_text, serve_requests

    setup: List[float] = []
    for index in range(SETUP_REPEATS):
        directory = str(workdir / f"f{index}")
        started = time.perf_counter()
        manifest = fleet.start(directory, REPLICAS)
        setup.append(time.perf_counter() - started)
        if index < SETUP_REPEATS - 1:
            fleet.stop_and_reap(directory, manifest)
    address = manifest["gateway"]["address"]

    catalogue = mixed_catalogue()
    prime_texts = [(query_text(q1), query_text(q2)) for q1, q2 in catalogue]
    closed_stream = serve_requests(catalogue, seed, tag="c")
    open_stream = serve_requests(catalogue, seed + 1, pairs=OPEN_LOOP_PAIRS, tag="o")

    def texts(items):
        return items, [(query_text(item.q1), query_text(item.q2)) for item in items]

    open_count = int(OFFERED_RATE * seconds * (1.0 - CLOSED_LOOP_SHARE))
    try:
        primed = DaemonClient(address, timeout=600.0).batch(prime_texts)
        if not primed.ok:
            raise RuntimeError(f"priming the fleet failed: {primed.error}")
        primed_statuses = [verdict.status for verdict in primed.verdicts]
        open_requests = [texts(next(open_stream)) for _ in range(open_count)]
        # The load generator's own garbage collections would show up as
        # generator lateness: collect once, then keep the collector off
        # while the load runs.
        gc.collect()
        gc.disable()
        # Untimed warm-up with the open loop's traffic, so that the open loop
        # meets members that already serve it.
        warm = fleet.closed_loop(
            address,
            (
                texts(items)
                for items in serve_requests(catalogue, seed + 2, pairs=OPEN_LOOP_PAIRS, tag="w")
            ),
            WARMUP_SECONDS,
            CLIENTS,
        )
        # The open loop follows the warm-up of its own traffic; the closed
        # loop's 8-pair requests come last.
        scrapes_before = fleet.scrape(manifest) if trace else None
        opened = fleet.open_loop(address, open_requests, OFFERED_RATE, CLIENTS)
        scrapes_after = fleet.scrape(manifest) if trace else None
        closed = fleet.closed_loop(
            address,
            (texts(items) for items in closed_stream),
            seconds * CLOSED_LOOP_SHARE,
            CLIENTS,
        )
        scrapes_end = fleet.scrape(manifest) if trace else None
    finally:
        gc.enable()
        fleet.stop_and_reap(directory, manifest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # Correctness, outside the timed phases: the primed verdicts against the
    # sequential decision, then every answer against its original's primed verdict.
    reference = reference_statuses()
    prime_failed = sum(
        1 for origin, status in enumerate(primed_statuses) if status != reference[origin]
    )

    def expected(items):
        return [primed_statuses[item.origin] for item in items]

    warm_attempted, warm_failed, _ = fleet.checked(warm, expected)
    closed_attempted, closed_failed, _ = fleet.checked(closed, expected)
    open_attempted, open_failed, open_correct = fleet.checked(opened, expected)
    attempted = len(catalogue) + warm_attempted + closed_attempted + open_attempted
    failed = prime_failed + warm_failed + closed_failed + open_failed
    latencies = [sample.latency * 1000.0 for sample in opened.samples]
    met = sum(
        1
        for sample, ok in zip(opened.samples, open_correct)
        if ok and sample.latency <= LATENCY_LIMIT_S
    )
    # Per-second spans, summarized on the host's fast side (see fast_side).
    spans = max(1, int(closed.seconds))
    capacity = fast_side(
        [sum(len(sample.request) for sample in span) for span in windows(closed, spans)],
        higher_is_better=True,
    ) / (closed.seconds / spans)
    p50 = fast_side(
        [
            percentile([sample.latency * 1000.0 for sample in span], 0.5)
            for span in windows(opened, max(1, int(opened.seconds)))
            if span
        ]
    )
    p99 = percentile(latencies, 0.99)
    lateness = [sample.lateness * 1000.0 for sample in opened.samples]
    print(
        f"serve-warm: capacity {capacity:.1f} pairs/s closed-loop "
        f"({len(closed.samples)} requests, {CLIENTS} clients); open loop "
        f"{OFFERED_RATE:g} req/s of {OPEN_LOOP_PAIRS} pair: p50 {p50:.2f} ms "
        f"(per-second spans; over all {percentile(latencies, 0.5):.2f} ms), "
        f"p99 {p99:.2f} ms over n={len(latencies)}, "
        f"generator lateness p99 {percentile(lateness, 0.99):.2f} ms, "
        f"setup {[round(s, 3) for s in setup]}"
    )
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "pairs_per_s": capacity,
            "latency_p50_ms": p50,
            "slo_met_ratio": met / len(opened.samples),
            "peak_rss_mb": peak_rss_mb,
        }
        return failed == 0, attempted, failed, {
            key: (value, END_TO_END_UNITS[key]) for key, value in metrics.items()
        }

    # Fleet layers from the metrics verb, over the open-loop phase; gateway
    # folding over the closed loop, whose multi-pair requests can fold.
    gateway = exposition_deltas(scrapes_before[0], scrapes_after[0])
    folded = exposition_deltas(scrapes_after[0], scrapes_end[0]).get(
        "repro_gateway_dedup_folded_total", 0.0
    )
    replica: Dict[str, float] = {}
    for before, after in zip(scrapes_before[1:], scrapes_after[1:]):
        for key, value in exposition_deltas(before, after).items():
            replica[key] = replica.get(key, 0.0) + value
    client_mean = statistics.fmean(
        sample.latency - sample.lateness for sample in opened.samples
    ) * 1000.0
    gateway_mean = _histogram_mean_ms(gateway, "repro_gateway_request_seconds")
    daemon_mean = _histogram_mean_ms(replica, "repro_daemon_request_seconds")
    extra = {
        "fleet.gateway_request_ms.mean": gateway_mean,
        "daemon.request_ms.mean": daemon_mean,
        "daemon.queue_wait_ms.mean": _histogram_mean_ms(
            replica, "repro_daemon_queue_wait_seconds"
        ),
        "fleet.hop_ms.mean": client_mean - gateway_mean,
        "fleet.dispatch_ms.mean": gateway_mean - daemon_mean,
        "fleet.dedup_folded_ratio": folded / max(closed_attempted, 1),
        "latency_p99_ms": p99,
        "loadgen.lateness_ms.p99": percentile(lateness, 0.99),
        "loadgen.open_loop_samples": float(len(opened.samples)),
    }

    # Replica layers: replay the open-loop request lines in-process through
    # one daemon holding both replicas' stores, with the wrappers on.
    replay_store = workdir / "replay.sqlite"
    merge_stores(
        str(replay_store),
        [entry["store"] for entry in manifest["replicas"]],
    )
    daemon = ContainmentDaemon(BatchOptions(store_path=str(replay_store)))
    lines = [
        encode_request(BatchRequest(pairs=tuple(PairSpec(q1, q2) for q1, q2 in texts)))
        for _, texts in open_requests
    ]
    tracer = LayerTracer()
    stats_before = daemon.service.stats.as_dict()
    lp_before = lp_counters()
    replayed: List[str] = []
    wall = 0.0
    try:
        with tracer:
            for index, line in enumerate(lines):
                tracer.request_id = index
                started = time.perf_counter()
                replayed.append(daemon.handle_line(line))
                wall += time.perf_counter() - started
    finally:
        daemon.service.close()
    from repro.service.protocol import parse_batch_response

    for (items, _), line in zip(open_requests, replayed):
        response = parse_batch_response(line)
        statuses = expected(items)
        attempted += len(statuses)
        if not response.ok:
            failed += len(statuses)
            continue
        failed += sum(v.status != s for v, s in zip(response.verdicts, statuses))
    stats = daemon.service.stats.as_dict()
    lp_after = lp_counters()
    submitted = (stats["pairs_submitted"] - stats_before["pairs_submitted"]) or 1
    extra["core.pipelines"] = float(stats["pipelines_run"] - stats_before["pipelines_run"])
    extra["service.cache_hit_ratio"] = (
        stats["cache_hits"] - stats_before["cache_hits"]
        + stats["store_hits"] - stats_before["store_hits"]
    ) / submitted
    extra["service.dedup_ratio"] = (
        stats["batch_duplicates"] - stats_before["batch_duplicates"]
    ) / submitted
    for key in ("lp.rowgen_rounds", "lp.rowgen_cuts"):
        extra[key] = lp_after[key] - lp_before[key]
    tracer.write_spans(str(OUT / f"spans-serve-warm-seed{seed}.jsonl"))
    pairs = sum(len(items) for items, _ in open_requests)
    return failed == 0, attempted, failed, layer_report(tracer, pairs, wall, extra)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            dict(os.environ, PYTHONHASHSEED=HASH_SEED),
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    # Short: the fleet's unix sockets live under it.
    workdir = OUT / str(os.getpid())
    workdir.mkdir()
    # Keep every temporary file of this process and its children in the run
    # directory.
    os.environ["TMPDIR"] = str(workdir)
    try:
        if args.workload == "serve-warm":
            result = run_serve(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            result = run_batches(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(*result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
