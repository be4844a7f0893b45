"""Unit tests for the CLI daemon surface (parsing, fallback, wire path).

The socket-backed cases serve the daemon from a background thread inside
this process — `repro daemon run` itself is exercised end to end (with a
real child process) by ``tests/integration/test_daemon_e2e.py``.
"""

import io
import json
import threading

import pytest

from repro.cli import _daemon_run_args, build_parser, main
from repro.service import BatchOptions
from repro.service.daemon import ShedOptions, serve
from repro.service.protocol import parse_address


def run_cli(*argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


PAIRS_TEXT = (
    "R(x,y), R(y,z), R(z,x) | R(a,b), R(a,c)\n"
    "R(u,v), R(v,w), R(w,u) | R(s,t), R(s,p)\n"
)


@pytest.fixture
def live_daemon(tmp_path):
    socket_path = str(tmp_path / "cli-daemon.sock")
    ready = threading.Event()
    thread = threading.Thread(
        target=serve,
        args=(parse_address(socket_path),),
        kwargs={
            "options": BatchOptions(on_error="capture"),
            "shed": ShedOptions(),
            "ready_callback": lambda daemon: ready.set(),
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10)
    yield socket_path
    code, _ = run_cli("daemon", "stop", "--socket", socket_path)
    assert code == 0
    thread.join(timeout=10)


class TestArgumentParsing:
    def test_daemon_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["daemon", "run", "--socket", "/tmp/x.sock", "--chunk-size", "4"],
            ["daemon", "start", "--max-queue-depth", "8", "--shed-policy", "degrade"],
            ["daemon", "stop"],
            ["daemon", "status", "--socket", "localhost:7411"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_daemon_start_forwards_only_flags_daemon_run_accepts(self):
        # The detached child (and every fleet replica, re-warmed ones from
        # fleet.json included) parses exactly these arguments.
        parser = build_parser()
        start = parser.parse_args(
            [
                "daemon", "start", "--method", "sufficient",
                "--chunk-size", "8", "--budget", "2.5", "--store", "v.sqlite",
                "--max-queue-depth", "4", "--shed-policy", "degrade",
                "--degrade-budget", "0.5", "--default-deadline", "9",
            ]
        )
        run = parser.parse_args(["daemon", "run", *_daemon_run_args(start)])
        for name in (
            "method", "chunk_size", "budget", "store",
            "max_queue_depth", "shed_policy", "degrade_budget", "default_deadline",
        ):
            assert getattr(run, name) == getattr(start, name), name

    def test_warmup_flag_defaults_off(self):
        parser = build_parser()
        args = parser.parse_args(["daemon", "run"])
        assert args.warmup is False
        args = parser.parse_args(["daemon", "run", "--warmup"])
        assert args.warmup is True

    def test_batch_daemon_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["batch", "p.txt", "--daemon", "--deadline", "5", "--priority", "high"]
        )
        assert args.daemon == ""  # empty string = the default socket path
        assert args.deadline == 5.0
        assert args.priority == "high"
        args = parser.parse_args(["batch", "p.txt", "--daemon", "/tmp/x.sock"])
        assert args.daemon == "/tmp/x.sock"
        args = parser.parse_args(["batch", "p.txt"])
        assert args.daemon is None

    @pytest.mark.parametrize(
        "command,flag",
        [
            (["batch", "p.txt"], ["--worker-mode", "thread"]),
            (["daemon", "run"], ["--worker-mode", "thread"]),
            (["daemon", "start"], ["--worker-mode", "thread"]),
            (["fleet", "start"], ["--worker-mode", "thread"]),
            (["contain", "R(x,y)", "R(x,y)"], ["--lp-backend", "scipy"]),
            (["batch", "p.txt"], ["--lp-backend", "scipy"]),
            (["daemon", "run"], ["--lp-backend", "scipy"]),
            (["daemon", "start"], ["--lp-backend", "scipy"]),
            (["fleet", "start"], ["--lp-backend", "scipy"]),
            (["cache", "verify", "--store", "v.sqlite"], ["--lp-backend", "scipy"]),
            (["batch", "p.txt"], ["--jobs", "2"]),
            (["daemon", "run"], ["--jobs", "2"]),
            (["daemon", "start"], ["--jobs", "2"]),
            (["fleet", "start"], ["--jobs", "2"]),
            (["contain", "R(x,y)", "R(x,y)"], ["--lp-method", "rowgen"]),
            (["batch", "p.txt"], ["--lp-method", "rowgen"]),
            (["daemon", "run"], ["--lp-method", "rowgen"]),
            (["daemon", "start"], ["--lp-method", "rowgen"]),
            (["fleet", "start"], ["--lp-method", "rowgen"]),
        ],
        ids=[
            "batch",
            "daemon-run",
            "daemon-start",
            "fleet-start",
            "lp-backend-contain",
            "lp-backend-batch",
            "lp-backend-daemon-run",
            "lp-backend-daemon-start",
            "lp-backend-fleet-start",
            "lp-backend-cache-verify",
            "jobs-batch",
            "jobs-daemon-run",
            "jobs-daemon-start",
            "jobs-fleet-start",
            "lp-method-contain",
            "lp-method-batch",
            "lp-method-daemon-run",
            "lp-method-daemon-start",
            "lp-method-fleet-start",
        ],
    )
    def test_removed_flag_is_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestBatchViaDaemon:
    def test_batch_through_live_daemon(self, live_daemon, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)
        code, output = run_cli(
            "batch", str(pairs), "--daemon", live_daemon, "--daemon-only"
        )
        assert code == 0
        records = [json.loads(line) for line in output.splitlines()]
        assert [r["status"] for r in records] == ["contained", "contained"]
        assert records[1]["source"] == "batch-dedup"
        # Replay: the daemon's plan cache answers without new pipelines.
        code, output = run_cli(
            "batch", str(pairs), "--daemon", live_daemon, "--daemon-only"
        )
        assert code == 0
        records = [json.loads(line) for line in output.splitlines()]
        assert all(r["source"] == "plan-cache" for r in records)

    def test_daemon_status_command(self, live_daemon):
        code, output = run_cli("daemon", "status", "--socket", live_daemon)
        assert code == 0
        status = json.loads(output)
        assert status["queue_depth"] == 0
        assert "stats" in status and "cache_hits" in status["stats"]

    def test_engine_flags_warn_when_daemon_side(self, live_daemon, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)
        code, _ = run_cli(
            "batch", str(pairs), "--daemon", live_daemon, "--daemon-only",
            "--chunk-size", "4", "--method", "sufficient",
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "--chunk-size" in err and "--method" in err and "ignored" in err

    def test_fallback_when_no_daemon(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)
        code, output = run_cli(
            "batch", str(pairs), "--daemon", str(tmp_path / "missing.sock")
        )
        assert code == 0
        records = [json.loads(line) for line in output.splitlines()]
        assert [r["status"] for r in records] == ["contained", "contained"]
        assert "deciding in-process instead" in capsys.readouterr().err

    def test_daemon_only_fails_without_daemon(self, tmp_path):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)
        code, output = run_cli(
            "batch",
            str(pairs),
            "--daemon",
            str(tmp_path / "missing.sock"),
            "--daemon-only",
        )
        assert code == 1
        assert "error:" in output

    def test_stop_without_daemon_reports_error(self, tmp_path):
        code, output = run_cli(
            "daemon", "stop", "--socket", str(tmp_path / "missing.sock")
        )
        assert code == 1
        assert "error:" in output
