"""End-to-end daemon lifecycle: a real child process, the real CLI.

This is the in-repo version of the ``daemon-smoke`` CI job: spawn a
detached daemon with ``repro daemon start``, replay a workload through
``repro batch --daemon`` twice, assert the second replay is answered
entirely from the plan cache with zero new LP solves, and shut the daemon
down cleanly.
"""

import io
import json
import os
import signal

import pytest

from repro.cli import main
from repro.service.daemon import DaemonUnavailable, daemon_available, spawn_daemon


def run_cli(*argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


PAIRS_TEXT = (
    "R(x,y), R(y,z), R(z,x) | R(a,b), R(a,c)\n"
    "R(u,v), R(v,w), R(w,u) | R(s,t), R(s,p)\n"
    "R(a,b) | S(c,d)\n"
)


@pytest.fixture
def spawned_daemon(tmp_path):
    socket_path = str(tmp_path / "e2e.sock")
    log_path = str(tmp_path / "daemon.log")
    pid = spawn_daemon(socket_path, log_path=log_path)
    yield socket_path, pid, log_path
    if daemon_available(socket_path, timeout=1.0):
        try:
            run_cli("daemon", "stop", "--socket", socket_path)
        except DaemonUnavailable:
            pass
    try:
        os.kill(pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        pass


def test_spawn_replay_twice_and_stop(spawned_daemon, tmp_path, capsys):
    socket_path, pid, log_path = spawned_daemon
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(PAIRS_TEXT)

    code, output = run_cli(
        "batch", str(pairs), "--daemon", socket_path, "--daemon-only", "--stats"
    )
    assert code == 0, output
    first_records = [json.loads(line) for line in output.splitlines()]
    first_stats = json.loads(capsys.readouterr().err.splitlines()[-1])["stats"]
    assert [r["status"] for r in first_records] == [
        "contained",
        "contained",
        "not_contained",
    ]

    code, output = run_cli(
        "batch", str(pairs), "--daemon", socket_path, "--daemon-only", "--stats"
    )
    assert code == 0, output
    second_records = [json.loads(line) for line in output.splitlines()]
    second_stats = json.loads(capsys.readouterr().err.splitlines()[-1])["stats"]

    # Every pair of the replay is answered from the warm plan cache …
    assert all(r["source"] == "plan-cache" for r in second_records)
    assert second_stats["cache_hits"] - first_stats["cache_hits"] == len(second_records)
    # … with zero new pipelines and zero new LP solves.
    assert second_stats["pipelines_run"] == first_stats["pipelines_run"]
    assert second_stats["block_solves"] == first_stats["block_solves"]
    assert second_stats["scalar_solves"] == first_stats["scalar_solves"]

    code, _ = run_cli("daemon", "stop", "--socket", socket_path)
    assert code == 0
    assert not daemon_available(socket_path, timeout=1.0)
    assert not os.path.exists(socket_path)


def test_start_refuses_a_second_daemon_on_the_same_socket(spawned_daemon):
    socket_path, _, _ = spawned_daemon
    with pytest.raises(DaemonUnavailable):
        spawn_daemon(socket_path)


def test_restart_over_stale_socket_after_sigkill(spawned_daemon, tmp_path):
    socket_path, pid, _ = spawned_daemon
    # SIGKILL skips the daemon's cleanup: the socket file stays behind.
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    assert os.path.exists(socket_path)
    assert not daemon_available(socket_path, timeout=1.0)

    # A fresh start must clear the dead socket and bind cleanly.
    new_pid = spawn_daemon(socket_path, log_path=str(tmp_path / "restart.log"))
    try:
        assert daemon_available(socket_path, timeout=1.0)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(PAIRS_TEXT)
        code, output = run_cli(
            "batch", str(pairs), "--daemon", socket_path, "--daemon-only"
        )
        assert code == 0, output
    finally:
        try:
            os.kill(new_pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass


def test_refuses_to_replace_a_regular_file(tmp_path):
    from repro.service.daemon import _clear_stale_socket
    from repro.service.protocol import parse_address

    decoy = tmp_path / "not-a-socket"
    decoy.write_text("precious data\n")
    with pytest.raises(DaemonUnavailable, match="not a socket"):
        _clear_stale_socket(parse_address(str(decoy)))
    # The file survives untouched.
    assert decoy.read_text() == "precious data\n"


def test_restarted_daemon_replays_from_store(tmp_path, capsys):
    socket_path = str(tmp_path / "store.sock")
    store_path = str(tmp_path / "verdicts.sqlite")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(PAIRS_TEXT)

    def start():
        return spawn_daemon(
            socket_path,
            extra_args=["--store", store_path],
            log_path=str(tmp_path / "daemon-store.log"),
        )

    pid = start()
    try:
        code, _ = run_cli(
            "batch", str(pairs), "--daemon", socket_path, "--daemon-only"
        )
        assert code == 0
        code, _ = run_cli("daemon", "stop", "--socket", socket_path)
        assert code == 0
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass

    # Restart: the store warms the new process, so the replay makes zero
    # new LP solves.
    pid = start()
    try:
        code, output = run_cli(
            "batch", str(pairs), "--daemon", socket_path, "--daemon-only", "--stats"
        )
        assert code == 0, output
        records = [json.loads(line) for line in output.splitlines()]
        stats = json.loads(capsys.readouterr().err.splitlines()[-1])["stats"]
        assert all(
            r["source"] in ("store", "plan-cache", "batch-dedup") for r in records
        )
        assert stats["store_hits"] > 0
        assert stats["pipelines_run"] == 0
        assert stats["block_solves"] == 0 and stats["scalar_solves"] == 0

        code, output = run_cli("daemon", "status", "--socket", socket_path)
        assert code == 0
        status = json.loads(output)
        assert status["store"]["path"] == store_path
        assert status["store"]["entries"] > 0

        code, _ = run_cli("daemon", "stop", "--socket", socket_path)
        assert code == 0
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass
