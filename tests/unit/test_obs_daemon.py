"""Tests for the daemon-facing telemetry: stats view, metrics verb, soak."""

import json
import threading

import pytest

from repro.obs.metrics import MetricsError, MetricsRegistry, parse_exposition
from repro.obs.soak import SoakOptions, format_report, query_to_text, run_soak
from repro.cq.parser import parse_query
from repro.service import BatchOptions
from repro.service.daemon import ContainmentDaemon
from repro.service.protocol import (
    BatchRequest,
    ControlRequest,
    PairSpec,
    encode_request,
    parse_response,
)
from repro.service.stats import GroupTiming, ServiceStats

TRIANGLE = "R(x,y), R(y,z), R(z,x)"
VEE = "R(a,b), R(a,c)"


def control(daemon: ContainmentDaemon, op: str) -> dict:
    return parse_response(daemon.handle_line(encode_request(ControlRequest(op)).encode()))


def run_batch(daemon: ContainmentDaemon, *pairs, **kwargs) -> dict:
    request = BatchRequest(pairs=tuple(PairSpec(q1, q2) for q1, q2 in pairs), **kwargs)
    return json.loads(daemon.handle_line(encode_request(request).encode()))


class TestServiceStatsView:
    """ServiceStats is now a view over a registry — the old surface survives."""

    EXPECTED_KEYS = [
        "pairs_submitted",
        "pipelines_run",
        "cache_hits",
        "store_hits",
        "batch_duplicates",
        "pair_errors",
        "pairs_over_budget",
        "pairs_deadline_exceeded",
        "requests_rejected",
        "requests_degraded",
        "lp_requests",
        "block_solves",
        "scalar_solves",
        "lp_solves_avoided",
        "wall_seconds",
        "groups",
    ]

    def test_as_dict_key_order_is_the_wire_format(self):
        assert list(ServiceStats().as_dict().keys()) == self.EXPECTED_KEYS

    def test_attribute_mutation_reaches_the_registry(self):
        registry = MetricsRegistry()
        stats = ServiceStats(registry)
        stats.cache_hits += 3
        stats.wall_seconds += 0.5
        assert stats.cache_hits == 3
        assert isinstance(stats.cache_hits, int)
        assert registry.get("repro_plan_cache_hits_total").value() == 3.0
        assert registry.get("repro_batch_wall_seconds_total").value() == 0.5

    def test_counters_refuse_to_run_backwards(self):
        stats = ServiceStats()
        stats.pairs_submitted = 5
        with pytest.raises(MetricsError):
            stats.pairs_submitted = 2

    def test_record_chunk_feeds_counters_and_histogram(self):
        registry = MetricsRegistry()
        stats = ServiceStats(registry)
        stats.record_chunk(
            GroupTiming(cone="gamma", ground_size=3, requests=4, rows=8, seconds=0.01)
        )
        assert stats.block_solves == 1
        assert stats.lp_solves_avoided == 3
        assert stats.per_group() == {
            "gamma:n=3": {"chunks": 1, "requests": 4, "rows": 8, "seconds": 0.01}
        }
        hist = registry.get("repro_chunk_solve_seconds")
        assert hist.count(cone="gamma", ground_size="3") == 1

    def test_group_totals_stay_one_entry_per_cone_and_arity(self):
        # A long-lived daemon records one chunk per block-LP call: the stats
        # keep running totals, not one timing per chunk.
        stats = ServiceStats()
        for index in range(10_000):
            stats.record_chunk(
                GroupTiming(
                    cone="gamma",
                    ground_size=3 + index % 2,
                    requests=2,
                    rows=5,
                    seconds=0.25,
                )
            )
        assert set(stats.group_totals) == {("gamma", 3), ("gamma", 4)}
        totals = {"chunks": 5_000, "requests": 10_000, "rows": 25_000, "seconds": 1_250.0}
        assert stats.per_group() == {"gamma:n=3": totals, "gamma:n=4": totals}
        assert stats.block_solves == 10_000

    def test_observe_pair_seconds_lands_in_the_latency_histogram(self):
        registry = MetricsRegistry()
        stats = ServiceStats(registry)
        stats.observe_pair_seconds(0.002)
        assert registry.get("repro_pair_seconds").count() == 1


class TestDaemonMetricsVerb:
    def test_metrics_response_shape_and_parse(self):
        daemon = ContainmentDaemon()
        response = control(daemon, "metrics")
        assert response["ok"] is True
        assert response["content_type"] == "text/plain; version=0.0.4"
        samples = parse_exposition(response["body"])  # must be parse-clean
        for family in (
            "repro_daemon_uptime_seconds",
            "repro_daemon_queue_depth",
            "repro_daemon_queue_wait_seconds_count",
            "repro_daemon_request_seconds_count",
            "repro_pair_seconds_count",
            "repro_plan_cache_hits_total",
            "repro_pairs_submitted_total",
        ):
            assert family in samples, f"missing {family}"
        assert samples["repro_daemon_uptime_seconds"][()] >= 0.0
        assert "repro_daemon_workers" not in samples

    def test_batch_moves_the_daemon_counters(self):
        daemon = ContainmentDaemon()
        assert run_batch(daemon, (TRIANGLE, VEE), (TRIANGLE, VEE))["ok"]
        samples = parse_exposition(control(daemon, "metrics")["body"])
        assert samples["repro_daemon_requests_total"][(("outcome", "ok"),)] == 1.0
        assert samples["repro_daemon_queue_wait_seconds_count"][()] == 1.0
        assert samples["repro_daemon_request_seconds_count"][()] == 1.0
        assert samples["repro_pairs_submitted_total"][()] == 2.0
        assert samples["repro_pair_seconds_count"][()] == 1.0  # one after dedup

    def test_parse_error_outcome_is_counted(self):
        daemon = ContainmentDaemon()
        response = run_batch(daemon, ("R(x,", VEE))
        assert response["ok"] is False
        samples = parse_exposition(control(daemon, "metrics")["body"])
        assert (
            samples["repro_daemon_requests_total"][(("outcome", "parse-error"),)] == 1.0
        )

    def test_lp_counters_from_the_global_registry_are_exposed(self):
        daemon = ContainmentDaemon()
        assert run_batch(daemon, (TRIANGLE, VEE))["ok"]
        samples = parse_exposition(control(daemon, "metrics")["body"])
        # record_solver_path feeds the process-global registry; the daemon's
        # exposition merges it in.
        assert "repro_lp_decisions_total" in samples
        assert sum(samples["repro_lp_decisions_total"].values()) >= 1.0

    def test_status_reports_the_queue(self):
        daemon = ContainmentDaemon()
        status = control(daemon, "status")
        for key in (
            "uptime_seconds",
            "queue_depth",
            "queue_waiting",
            "requests_served",
        ):
            assert key in status, f"status is missing {key}"
        assert "worker_mode" not in status and "workers" not in status
        assert status["queue_depth"] == 0

    def test_status_and_metrics_answer_while_a_batch_runs(self):
        # A daemon's connection threads read the service stats while a batch
        # is being decided on another thread: hold the batch inside its first
        # chunk's bookkeeping and read both from here.
        daemon = ContainmentDaemon()
        stats = daemon.service.stats
        inside, release = threading.Event(), threading.Event()
        record_chunk = stats.record_chunk

        def held_record_chunk(timing):
            inside.set()
            assert release.wait(timeout=60)
            record_chunk(timing)

        stats.record_chunk = held_record_chunk
        responses = {}

        def decide():
            responses["batch"] = run_batch(daemon, (TRIANGLE, VEE))

        batch = threading.Thread(target=decide)
        batch.start()
        try:
            assert inside.wait(timeout=60)
            status = control(daemon, "status")
            samples = parse_exposition(control(daemon, "metrics")["body"])
        finally:
            release.set()
            batch.join(timeout=60)
        assert status["queue_depth"] == 1
        assert status["stats"]["block_solves"] == 0
        assert samples["repro_daemon_queue_depth"][()] == 1.0
        assert responses["batch"]["ok"]
        assert control(daemon, "status")["stats"]["block_solves"] == 1

    def test_degraded_view_shares_the_service_state(self, tmp_path):
        daemon = ContainmentDaemon(
            options=BatchOptions(store_path=str(tmp_path / "verdicts.sqlite"))
        )
        try:
            view = daemon._degraded_service(0.5)
            assert view.stats is daemon.service.stats
            assert view.cache is daemon.service.cache
            assert view.store is daemon.service.store
            assert view.options.pair_budget == 0.5
            assert daemon.service.options.pair_budget is None
            report = view.run([(parse_query(TRIANGLE), parse_query(VEE))])
            assert report.results[0].status.value == "contained"
            assert len(daemon.service.cache) == 1
            assert len(daemon.service.store) == 1
        finally:
            daemon.service.close()


class TestSoakHarness:
    def test_query_to_text_round_trips(self):
        boolean = parse_query("R(x,y), R(y,z)")
        assert parse_query(query_to_text(boolean)).atoms == boolean.atoms
        headed = parse_query("(x) :- R(x,y), S(y)")
        round_tripped = parse_query(query_to_text(headed))
        assert round_tripped.atoms == headed.atoms
        assert round_tripped.head == headed.head

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SoakOptions(clients=0)
        with pytest.raises(ValueError):
            SoakOptions(qps=0)
        with pytest.raises(ValueError):
            SoakOptions(duration_seconds=0)

    def test_short_soak_against_an_ephemeral_daemon(self):
        report = run_soak(
            SoakOptions(
                clients=2,
                qps=6.0,
                duration_seconds=1.0,
                seed=5,
                scrape_interval_seconds=0.25,
            )
        )
        assert report["config"]["ephemeral_daemon"] is True
        assert report["requests_answered"] == report["config"]["requests"]
        assert report["requests_errored"] == 0
        assert report["latency_seconds"]["p99"] is not None
        assert report["hit_rate_trajectory"], "the scraper never landed a scrape"
        assert report["parity"]["ok"], report["parity"]
        text = format_report(report)
        assert "parity: OK" in text
        assert "latency p50=" in text
