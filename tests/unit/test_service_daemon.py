"""Tests for the persistent containment daemon: gate, shedding, sockets.

The daemon brain (:class:`ContainmentDaemon`) is transport-free, so most of
the admission/deadline/priority logic is tested by calling
``handle_batch``/``handle_line`` directly; one fixture then serves a real
daemon over a Unix socket in a background thread to cover the wire path end
to end (client, JSONL framing, stop semantics).
"""

import json
import socket
import threading
import time

import pytest

from repro.core.containment import decide_containment
from repro.cq.parser import parse_query
from repro.service import BatchOptions
from repro.service.daemon import (
    ContainmentDaemon,
    DaemonClient,
    DaemonConnectionBroken,
    DaemonUnavailable,
    ServiceGate,
    ShedOptions,
    daemon_available,
    serve,
)
from repro.service.protocol import (
    BatchRequest,
    BatchResponse,
    PairSpec,
    encode_batch_response,
    parse_address,
)

TRIANGLE_TEXT = "R(x,y), R(y,z), R(z,x)"
VEE_TEXT = "R(a,b), R(a,c)"
#: NOT_CONTAINED pairs refuted by a product witness (8 facts) and by a
#: normal witness (73 facts).
PRODUCT_WITNESS_PAIR = ("R(x,y), R(y,z)", "R(x,y)")
NORMAL_WITNESS_PAIR = ("R(x1,x1), R(x1,x2), R(x0,x1)", "R(y0,y1), R(y0,y2)")


def batch_request(*pairs, **kwargs):
    return BatchRequest(pairs=tuple(PairSpec(q1, q2) for q1, q2 in pairs), **kwargs)


class TestServiceGate:
    def test_depth_counts_running_and_waiting(self):
        gate = ServiceGate()
        assert gate.depth() == 0
        gate.acquire()
        assert gate.depth() == 1
        gate.release()
        assert gate.depth() == 0

    def test_priority_orders_the_wait_line(self):
        gate = ServiceGate()
        gate.acquire("normal")  # hold the gate so the others have to queue
        order = []

        def worker(priority):
            gate.acquire(priority)
            order.append(priority)
            gate.release()

        threads = []
        for priority in ("low", "normal", "high"):
            thread = threading.Thread(target=worker, args=(priority,))
            thread.start()
            threads.append(thread)
            # Ensure deterministic arrival order before starting the next.
            deadline = time.time() + 5
            while gate.waiting() < len(threads) and time.time() < deadline:
                time.sleep(0.005)
            assert gate.waiting() == len(threads)
        gate.release()
        for thread in threads:
            thread.join(timeout=5)
        assert order == ["high", "normal", "low"]


class TestDaemonBatches:
    def test_batch_verdicts_and_plan_cache_across_requests(self):
        daemon = ContainmentDaemon()
        first = daemon.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        assert first.ok
        assert first.verdicts[0].status == "contained"
        assert first.verdicts[0].source == "solved"
        second = daemon.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        assert second.verdicts[0].source == "plan-cache"
        assert second.stats["cache_hits"] == 1
        assert second.stats["pipelines_run"] == first.stats["pipelines_run"]
        assert daemon.requests_served == 2

    def test_witness_rows_count_the_witness_facts(self):
        daemon = ContainmentDaemon()
        response = daemon.handle_batch(batch_request(PRODUCT_WITNESS_PAIR, NORMAL_WITNESS_PAIR))
        assert response.ok
        for verdict, (q1, q2), description in zip(
            response.verdicts, (PRODUCT_WITNESS_PAIR, NORMAL_WITNESS_PAIR), ("product", "normal")
        ):
            witness = decide_containment(parse_query(q1), parse_query(q2)).witness
            assert witness.description.startswith(f"{description} witness")
            assert verdict.status == "not_contained"
            assert verdict.witness_rows == witness.database.total_tuples()
            assert verdict.witness_rows == len(list(witness.database.facts()))

    def test_warmup_pre_solves_so_the_first_request_hits_warm_paths(self):
        daemon = ContainmentDaemon()
        daemon.warmup()
        # The warmup batch went through the real service: replaying a
        # warmup pair must answer from the plan cache, not a fresh solve.
        response = daemon.handle_batch(
            batch_request(ContainmentDaemon.WARMUP_PAIRS[0])
        )
        assert response.ok
        assert response.verdicts[0].source == "plan-cache"
        # Warmup is pre-traffic plumbing, not served traffic.
        assert daemon.requests_served == 1

    def test_warmup_never_raises(self, monkeypatch):
        daemon = ContainmentDaemon()
        monkeypatch.setattr(
            daemon.service, "run", lambda *a, **k: (_ for _ in ()).throw(
                RuntimeError("boom")
            )
        )
        daemon.warmup()  # best-effort: a failed warmup must not kill boot

    def test_unparseable_pair_is_a_request_error(self):
        daemon = ContainmentDaemon()
        response = daemon.handle_batch(batch_request(("R(x,y", VEE_TEXT)))
        assert not response.ok
        assert "unparseable" in response.error

    def test_deadline_zero_returns_deadline_exceeded_verdicts(self):
        daemon = ContainmentDaemon()
        response = daemon.handle_batch(
            batch_request((TRIANGLE_TEXT, VEE_TEXT), deadline_seconds=0.0)
        )
        assert response.ok
        assert response.verdicts[0].status == "unknown"
        assert response.verdicts[0].method == "deadline-exceeded"
        assert response.stats["pairs_deadline_exceeded"] == 1

    def test_default_deadline_applies_when_request_has_none(self):
        daemon = ContainmentDaemon(shed=ShedOptions(default_deadline=0.0))
        response = daemon.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        assert response.verdicts[0].method == "deadline-exceeded"


def _run_while_gate_is_held(daemon, request):
    """Submit ``request`` while the gate is occupied; release once it queues.

    Exercises the real admission path: the daemon's gate is busy (depth 1)
    when the request arrives, and is released as soon as the request has
    joined the wait line (or was shed without joining).
    """
    daemon.gate.acquire()
    box = {}

    def submit():
        box["response"] = daemon.handle_batch(request)

    thread = threading.Thread(target=submit)
    thread.start()
    deadline = time.time() + 10
    while (
        daemon.gate.waiting() == 0 and thread.is_alive() and time.time() < deadline
    ):
        time.sleep(0.005)
    daemon.gate.release()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return box["response"]


class TestAdmissionControl:
    def test_queue_full_rejection(self):
        daemon = ContainmentDaemon(
            shed=ShedOptions(max_queue_depth=1, policy="reject")
        )
        daemon.gate.acquire()  # one request is running: the line is full
        try:
            response = daemon.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        finally:
            daemon.gate.release()
        assert not response.ok
        assert response.error == "queue-full"
        assert response.shed == "rejected"
        assert response.stats["requests_rejected"] == 1
        assert daemon.requests_served == 0
        assert daemon.gate.waiting() == 0  # a shed request never joined the line

    def test_queue_below_bound_admits(self):
        daemon = ContainmentDaemon(
            shed=ShedOptions(max_queue_depth=2, policy="reject")
        )
        response = _run_while_gate_is_held(
            daemon, batch_request((TRIANGLE_TEXT, VEE_TEXT))
        )
        assert response.ok
        assert not response.degraded

    def test_degrade_policy_runs_with_clamped_budget(self):
        daemon = ContainmentDaemon(
            shed=ShedOptions(
                max_queue_depth=1, policy="degrade", degrade_pair_budget=1e-9
            )
        )
        response = _run_while_gate_is_held(
            daemon, batch_request((TRIANGLE_TEXT, VEE_TEXT))
        )
        assert response.ok
        assert response.degraded
        assert response.verdicts[0].method == "budget-exhausted"
        assert response.stats["requests_degraded"] == 1

    def test_degraded_requests_share_the_plan_cache(self):
        daemon = ContainmentDaemon(
            shed=ShedOptions(max_queue_depth=1, policy="degrade", degrade_pair_budget=30.0)
        )
        warm = daemon.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        assert warm.verdicts[0].source == "solved"
        degraded = _run_while_gate_is_held(
            daemon, batch_request((TRIANGLE_TEXT, VEE_TEXT))
        )
        assert degraded.degraded
        assert degraded.verdicts[0].source == "plan-cache"

    def test_burst_admission_respects_the_bound(self):
        # Regression for the check-then-act race: N concurrent arrivals must
        # never exceed max_queue_depth, so with the gate held and depth 1,
        # every one of a burst of 4 must be rejected.
        daemon = ContainmentDaemon(
            shed=ShedOptions(max_queue_depth=1, policy="reject")
        )
        daemon.gate.acquire()
        try:
            responses = []
            threads = [
                threading.Thread(
                    target=lambda: responses.append(
                        daemon.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
                    )
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            daemon.gate.release()
        assert len(responses) == 4
        assert all(response.shed == "rejected" for response in responses)
        assert daemon.service.stats.requests_rejected == 4

    def test_internal_errors_become_error_responses(self):
        daemon = ContainmentDaemon()

        def explode(pairs, **kwargs):
            raise RuntimeError("solver went sideways")

        daemon.service.run = explode
        response = daemon.handle_batch(batch_request((TRIANGLE_TEXT, VEE_TEXT)))
        assert not response.ok
        assert "solver went sideways" in response.error
        # The gate was released: the daemon still serves the next request.
        daemon.service.run = ContainmentDaemon().service.run
        assert daemon.gate.depth() == 0

    def test_real_contention_rejects_while_a_request_runs(self):
        daemon = ContainmentDaemon(
            shed=ShedOptions(max_queue_depth=1, policy="reject")
        )
        release = threading.Event()
        started = threading.Event()
        original_run = daemon.service.run

        def slow_run(pairs, **kwargs):
            started.set()
            assert release.wait(timeout=10)
            return original_run(pairs, **kwargs)

        daemon.service.run = slow_run
        results = {}

        def first():
            results["first"] = daemon.handle_batch(
                batch_request((TRIANGLE_TEXT, VEE_TEXT))
            )

        thread = threading.Thread(target=first)
        thread.start()
        assert started.wait(timeout=10)
        # The first request is running (depth 1 = the bound): shed this one.
        results["second"] = daemon.handle_batch(
            batch_request((VEE_TEXT, TRIANGLE_TEXT))
        )
        release.set()
        thread.join(timeout=30)
        assert results["second"].shed == "rejected"
        assert results["first"].ok

    def test_shed_options_validation(self):
        with pytest.raises(ValueError):
            ShedOptions(max_queue_depth=0)
        with pytest.raises(ValueError):
            ShedOptions(policy="drop")
        with pytest.raises(ValueError):
            ShedOptions(degrade_pair_budget=0.0)


@pytest.fixture
def live_daemon(tmp_path):
    """A real daemon served over a Unix socket in a background thread."""
    socket_path = str(tmp_path / "daemon.sock")
    ready = threading.Event()
    holder = {}

    def on_ready(daemon):
        holder["daemon"] = daemon
        ready.set()

    thread = threading.Thread(
        target=serve,
        args=(parse_address(socket_path),),
        kwargs={
            "options": BatchOptions(on_error="capture"),
            "shed": ShedOptions(),
            "ready_callback": on_ready,
        },
        daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10)
    client = DaemonClient(socket_path, timeout=60.0)
    yield client, holder["daemon"], socket_path
    try:
        client.stop()
    except DaemonUnavailable:
        pass
    thread.join(timeout=10)


class TestDaemonOverTheWire:
    def test_ping_status_and_batch(self, live_daemon):
        client, daemon, socket_path = live_daemon
        assert client.ping()["ok"]
        status = client.status()
        assert status["queue_depth"] == 0
        assert status["address"] == socket_path
        response = client.batch([(TRIANGLE_TEXT, VEE_TEXT), (VEE_TEXT, TRIANGLE_TEXT)])
        assert response.ok
        assert [v.status for v in response.verdicts] == ["contained", "not_contained"]
        replay = client.batch([(TRIANGLE_TEXT, VEE_TEXT)])
        assert replay.verdicts[0].source == "plan-cache"
        assert client.status()["requests_served"] == 2

    def test_malformed_line_gets_an_error_response_and_connection_survives(
        self, live_daemon
    ):
        client, daemon, _ = live_daemon
        response = json.loads(client._roundtrip("this is not json"))
        assert response["ok"] is False
        assert "JSON" in response["error"]
        assert client.ping()["ok"]  # the daemon is still healthy

    def test_stop_shuts_down_and_unlinks_the_socket(self, live_daemon):
        client, daemon, socket_path = live_daemon
        client.stop()
        deadline = time.time() + 10
        while daemon_available(socket_path, timeout=0.3) and time.time() < deadline:
            time.sleep(0.05)
        assert not daemon_available(socket_path, timeout=0.3)
        with pytest.raises(DaemonUnavailable):
            DaemonClient(socket_path, timeout=1.0).ping()


class TestClientErrors:
    def test_unreachable_socket_raises_daemon_unavailable(self, tmp_path):
        with pytest.raises(DaemonUnavailable):
            DaemonClient(str(tmp_path / "nope.sock"), timeout=1.0).ping()

    def test_unreachable_tcp_raises_daemon_unavailable(self):
        # A port from the TEST-NET-reserved range nobody listens on locally.
        with pytest.raises(DaemonUnavailable):
            DaemonClient("127.0.0.1:1", timeout=1.0).ping()

    def test_daemon_available_is_false_without_a_daemon(self, tmp_path):
        assert not daemon_available(str(tmp_path / "ghost.sock"), timeout=0.3)

    def test_batch_read_timeout_follows_the_deadline(self, tmp_path):
        # A deadline-free batch must wait indefinitely (the daemon may
        # legitimately take longer than any control-op timeout); a deadline
        # bounds the wait at deadline + margin.
        client = DaemonClient(str(tmp_path / "x.sock"), timeout=5.0)
        captured = {}

        def fake_roundtrip(line, timeout="unset"):
            captured["timeout"] = timeout
            return encode_batch_response(BatchResponse(ok=True))

        client._roundtrip = fake_roundtrip
        client.batch([(TRIANGLE_TEXT, VEE_TEXT)])
        assert captured["timeout"] is None
        client.batch([(TRIANGLE_TEXT, VEE_TEXT)], deadline_seconds=10.0)
        assert captured["timeout"] == 10.0 + DaemonClient.DEADLINE_MARGIN


class _FakeSocket:
    """A scripted socket: each recv() pops the next chunk (or raises it)."""

    def __init__(self, chunks=()):
        self.chunks = list(chunks)
        self.sent = b""
        self.closed = False

    def sendall(self, data):
        self.sent += data

    def recv(self, _size):
        if not self.chunks:
            return b""  # EOF
        item = self.chunks.pop(0)
        if isinstance(item, BaseException):
            raise item
        return item

    def close(self):
        self.closed = True


class TestClientReadPath:
    """The mid-batch truncation bugfix: connect failures fall back
    (:class:`DaemonUnavailable`), but once the request is on the wire every
    failure is :class:`DaemonConnectionBroken` with partial-read context —
    re-running the batch elsewhere could double-execute it."""

    def _client(self, monkeypatch, fake):
        import repro.service.daemon as daemon_module

        monkeypatch.setattr(daemon_module, "_connect", lambda *a, **k: fake)
        return DaemonClient("/tmp/fake.sock", timeout=5.0)

    def test_broken_is_not_a_fallback_signal(self):
        # The CLI falls back in-process on DaemonUnavailable only; a broken
        # connection must never be mistaken for "no daemon there".
        assert not issubclass(DaemonConnectionBroken, DaemonUnavailable)

    def test_complete_response_roundtrips(self, monkeypatch):
        fake = _FakeSocket([b'{"ok": true}\n'])
        client = self._client(monkeypatch, fake)
        assert client._roundtrip('{"op": "ping"}') == '{"ok": true}\n'
        assert fake.sent == b'{"op": "ping"}\n'
        assert fake.closed

    def test_chunked_response_is_reassembled(self, monkeypatch):
        fake = _FakeSocket([b'{"ok": ', b"tr", b"ue}\n"])
        client = self._client(monkeypatch, fake)
        assert client._roundtrip("x") == '{"ok": true}\n'

    def test_eof_before_any_byte_is_connection_broken(self, monkeypatch):
        client = self._client(monkeypatch, _FakeSocket([]))
        with pytest.raises(DaemonConnectionBroken, match="before sending any"):
            client._roundtrip("x")

    def test_eof_mid_response_carries_partial_read_context(self, monkeypatch):
        fake = _FakeSocket([b'{"ok": tru'])  # EOF mid-line
        client = self._client(monkeypatch, fake)
        with pytest.raises(DaemonConnectionBroken) as excinfo:
            client._roundtrip("x")
        message = str(excinfo.value)
        assert "10 bytes" in message
        assert '{"ok": tru' in message

    def test_read_timeout_is_connection_broken_not_unavailable(self, monkeypatch):
        fake = _FakeSocket([socket.timeout("timed out")])
        client = self._client(monkeypatch, fake)
        with pytest.raises(DaemonConnectionBroken, match="no complete response"):
            client._roundtrip("x")

    def test_reset_mid_read_is_connection_broken(self, monkeypatch):
        fake = _FakeSocket([b'{"ok"', ConnectionResetError("peer reset")])
        client = self._client(monkeypatch, fake)
        with pytest.raises(DaemonConnectionBroken, match="after 5 bytes"):
            client._roundtrip("x")

    def test_send_failure_is_still_unavailable(self, monkeypatch):
        # The request never left: falling back in-process is safe.
        fake = _FakeSocket()
        fake.sendall = lambda data: (_ for _ in ()).throw(BrokenPipeError("gone"))
        client = self._client(monkeypatch, fake)
        with pytest.raises(DaemonUnavailable, match="could not send"):
            client._roundtrip("x")
