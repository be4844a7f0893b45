"""Unit tests for the CLI fleet surface (parsing, routing, no-fallback).

The socket-backed cases serve real daemon replicas and the gateway from
background threads inside this process; the full child-process path
(``repro fleet start`` spawning real replicas) is exercised end to end by
``scripts/fleet_smoke.py`` in the ``fleet-smoke`` CI job.
"""

import asyncio
import io
import json
import threading

import pytest

import repro.cli as cli_module
from repro.cli import build_parser, main
from repro.service import BatchOptions
from repro.service.daemon import DaemonConnectionBroken, ShedOptions, serve
from repro.service.fleet import FleetGateway, ReplicaSpec
from repro.service.protocol import parse_address
from repro.service.ring import DEFAULT_VNODES

PAIRS_TEXT = (
    "R(x,y), R(y,z), R(z,x) | R(a,b), R(a,c)\n"
    "R(a,b), R(a,c) | R(x,y), R(y,z), R(z,x)\n"
)


def run_cli(*argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


@pytest.fixture
def live_fleet(tmp_path):
    """Two in-thread replicas behind an in-thread gateway."""
    replica_paths = [str(tmp_path / f"replica-{i}.sock") for i in range(2)]
    threads = []
    for path in replica_paths:
        ready = threading.Event()
        thread = threading.Thread(
            target=serve,
            args=(parse_address(path),),
            kwargs={
                "options": BatchOptions(on_error="capture"),
                "shed": ShedOptions(),
                "ready_callback": lambda daemon: ready.set(),
            },
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10)
        threads.append(thread)

    gateway_path = str(tmp_path / "gateway.sock")
    gateway = FleetGateway(
        [
            ReplicaSpec(name=f"replica-{i}", address=path)
            for i, path in enumerate(replica_paths)
        ],
        probe_interval=None,
    )
    gateway_ready = threading.Event()
    gateway_thread = threading.Thread(
        target=lambda: asyncio.run(
            gateway.serve(
                parse_address(gateway_path),
                ready_callback=lambda _gw: gateway_ready.set(),
            )
        ),
        daemon=True,
    )
    gateway_thread.start()
    assert gateway_ready.wait(timeout=10)

    yield gateway_path

    for path in (gateway_path, *replica_paths):
        run_cli("daemon", "stop", "--socket", path)
    gateway_thread.join(timeout=10)
    for thread in threads:
        thread.join(timeout=10)


class TestArgumentParsing:
    def test_fleet_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["fleet", "start", "--dir", "/tmp/fleet", "--replicas", "4"],
            ["fleet", "start", "--socket", "/tmp/gw.sock", "--budget", "8"],
            ["fleet", "stop", "--dir", "/tmp/fleet"],
            ["fleet", "status", "--socket", "/tmp/gw.sock", "--prom"],
            ["fleet", "gateway", "--manifest", "/tmp/fleet/fleet.json"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_batch_fleet_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(["batch", "p.txt", "--fleet", "/tmp/gw.sock"])
        assert args.fleet == "/tmp/gw.sock"
        args = parser.parse_args(["batch", "p.txt"])
        assert args.fleet is None

    def test_gateway_requires_a_manifest(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "gateway"])

    def test_ring_vnodes_flag_parses_with_a_manifest_stable_default(self):
        parser = build_parser()
        args = parser.parse_args(["fleet", "start"])
        assert args.ring_vnodes == DEFAULT_VNODES
        args = parser.parse_args(["fleet", "start", "--ring-vnodes", "16"])
        assert args.ring_vnodes == 16

    def test_dispatch_parallelism_flag_defaults_to_auto(self):
        parser = build_parser()
        args = parser.parse_args(["fleet", "start"])
        assert args.dispatch_parallelism is None  # auto: the host's cores
        args = parser.parse_args(
            ["fleet", "start", "--dispatch-parallelism", "4"]
        )
        assert args.dispatch_parallelism == 4


class TestBatchViaFleet:
    def test_fleet_and_daemon_are_mutually_exclusive(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)
        code, output = run_cli(
            "batch", str(pairs), "--fleet", "/tmp/gw.sock", "--daemon", "/tmp/d.sock"
        )
        assert code == 2
        assert "mutually exclusive" in output

    def test_batch_through_a_live_gateway(self, live_fleet, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)
        code, output = run_cli("batch", str(pairs), "--fleet", live_fleet)
        assert code == 0
        records = [json.loads(line) for line in output.splitlines()]
        assert [r["status"] for r in records] == ["contained", "not_contained"]
        assert [r["index"] for r in records] == [0, 1]

    def test_fleet_status_via_socket(self, live_fleet):
        code, output = run_cli("fleet", "status", "--socket", live_fleet)
        assert code == 0
        status = json.loads(output)
        assert status["role"] == "gateway"
        assert status["fleet_size"] == 2
        assert {r["name"] for r in status["replicas"]} == {
            "replica-0",
            "replica-1",
        }

    def test_fleet_status_prom_exposes_gateway_metrics(self, live_fleet):
        code, output = run_cli("fleet", "status", "--socket", live_fleet, "--prom")
        assert code == 0
        assert "repro_gateway_replicas_healthy" in output

    def test_missing_gateway_is_loud_not_a_silent_fallback(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)
        code, output = run_cli(
            "batch", str(pairs), "--fleet", str(tmp_path / "missing.sock")
        )
        assert code == 1
        assert "error:" in output
        assert "deciding in-process instead" not in capsys.readouterr().err

    def test_connection_broken_never_falls_back_in_process(
        self, tmp_path, monkeypatch, capsys
    ):
        # A mid-batch disconnect means the daemon may already be computing
        # the batch: re-running it in-process would double-execute, so the
        # CLI must surface the error instead of falling back.
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)

        class BrokenClient:
            def __init__(self, *args, **kwargs):
                pass

            def batch(self, *args, **kwargs):
                raise DaemonConnectionBroken("closed mid-response after 7 bytes")

        monkeypatch.setattr(cli_module, "DaemonClient", BrokenClient)
        code, output = run_cli(
            "batch", str(pairs), "--daemon", str(tmp_path / "any.sock")
        )
        assert code == 1
        assert "closed mid-response" in output
        assert "deciding in-process instead" not in capsys.readouterr().err
