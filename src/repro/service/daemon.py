"""The persistent containment daemon: one warm service, many CLI clients.

A single CLI invocation builds its :class:`~repro.service.service.ContainmentService`
from scratch: empty plan cache, cold ``lru_cache``\\ d provers, cold lattice
contexts.  The daemon keeps one service alive in a long-lived process and
serves batch requests over the JSONL protocol of
:mod:`repro.service.protocol`, so *everything* that warms up stays warm
across client invocations — the structural-hash plan cache answers repeats
without any pipeline work, and repeated arities reuse the cached provers and
lattice contexts.

Transport is a Unix domain socket by default (filesystem permissions are the
access control), with a localhost TCP fallback for platforms or containers
without ``AF_UNIX``.  Each client connection is handled on its own thread;
batch execution itself is serialized through a priority-aware gate (the
service's caches and counters are not designed for concurrent mutation), so
the gate's wait line *is* the daemon's queue:

* ``max_queue_depth`` bounds that line.  An over-limit request is either
  turned away immediately (``shed_policy="reject"``: the client gets a
  ``queue-full`` response and decides itself whether to fall back in
  process) or run with a clamped per-pair budget
  (``shed_policy="degrade"``: every pair still gets an answer, but slow
  pairs come back UNKNOWN ``"budget-exhausted"`` instead of holding the
  line up).
* A request's ``deadline_seconds`` covers its *total* daemon wall clock,
  queue wait included: whatever remains when the gate admits it becomes the
  batch deadline, and pairs the engine cannot decide in time are reported
  as UNKNOWN ``"deadline-exceeded"`` verdicts, never an error.
* ``priority`` (``high``/``normal``/``low``) orders the wait line.

The module also provides the client side (:class:`DaemonClient`) and the
process-management helpers the CLI uses (:func:`spawn_daemon`,
:func:`stop_daemon`).

Operator documentation — lifecycle, warmup, shedding, deadlines, exit
codes, the metric catalog — lives in ``docs/operations.md``.
"""

from __future__ import annotations

import copy
import errno
import heapq
import os
import socket
import socketserver
import stat
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cq.parser import parse_query
from repro.exceptions import ReproError
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    global_registry,
    render_registries,
)
from repro.service.protocol import (
    PRIORITIES,
    SHED_POLICIES,
    Address,
    BatchRequest,
    BatchResponse,
    ControlRequest,
    PairSpec,
    PairVerdict,
    ProtocolError,
    encode_batch_response,
    encode_request,
    encode_response,
    parse_address,
    parse_batch_response,
    parse_request,
    parse_response,
)
from repro.service.service import BatchOptions, ContainmentService


class DaemonUnavailable(ReproError):
    """No daemon is reachable at the requested address.

    Raised only when the request never made it onto the wire (connect
    refused, missing socket, send failure): callers such as the CLI fall
    back to in-process execution on this, which is safe precisely because
    the daemon cannot have started the work.
    """


class DaemonConnectionBroken(ReproError):
    """The connection died *after* the request was sent.

    Deliberately not a :class:`DaemonUnavailable`: the daemon may have
    executed (or still be executing) the request, so falling back to an
    in-process run would double-execute the batch.  The message carries the
    partial-read context so a truncated response is diagnosable.
    """


#: Sentinel distinguishing "use the client's default timeout" from None.
_USE_DEFAULT = object()


def default_socket_path() -> str:
    """The per-user default Unix socket path."""
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"repro-daemon-{uid}.sock")


@dataclass(frozen=True)
class ShedOptions:
    """Admission-control knobs of a daemon.

    ``max_queue_depth`` bounds the number of batch requests in the daemon at
    once (running + waiting); ``None`` means unbounded.  ``policy`` picks
    what happens to a request that arrives over the bound, and
    ``degrade_pair_budget`` is the per-pair budget (seconds) the
    ``"degrade"`` policy clamps to.  ``default_deadline`` applies to batch
    requests that do not carry their own ``deadline_seconds``.
    """

    max_queue_depth: Optional[int] = None
    policy: str = "reject"
    degrade_pair_budget: float = 1.0
    default_deadline: Optional[float] = None

    def __post_init__(self):
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive (or None)")
        if self.policy not in SHED_POLICIES:
            raise ValueError(f"policy must be one of {SHED_POLICIES}")
        if self.degrade_pair_budget <= 0:
            raise ValueError("degrade_pair_budget must be positive")


class ServiceGate:
    """Serializes batch execution, draining waiters by (priority, arrival).

    The gate is the daemon's queue: one request runs at a time, the rest
    wait here.  Admission control happens *inside* :meth:`acquire`, under
    the same lock that owns the wait line — checking the depth first and
    joining afterwards would let a burst of concurrent arrivals all pass
    the check and blow through ``max_queue_depth``, which is exactly the
    load the bound exists for.
    """

    def __init__(self):
        self._condition = threading.Condition()
        self._running = False
        self._waiting: List[Tuple[int, int]] = []  # heap of (priority_rank, seq)
        self._sequence = 0

    def depth(self) -> int:
        with self._condition:
            return len(self._waiting) + (1 if self._running else 0)

    def waiting(self) -> int:
        with self._condition:
            return len(self._waiting)

    def acquire(
        self,
        priority: str = "normal",
        max_depth: Optional[int] = None,
        overflow: str = "join",
    ) -> str:
        """Join the line (depth permitting) and wait for the gate.

        Atomically checks the line against ``max_depth`` and joins it in one
        critical section.  Returns ``"acquired"`` when admitted under the
        bound; ``"acquired-over"`` when the line was full but
        ``overflow="join"`` admitted the request anyway (the degrade
        policy); ``"rejected"`` — without joining or waiting — when the
        line was full and ``overflow="reject"``.
        """
        rank = PRIORITIES.index(priority)
        with self._condition:
            over = (
                max_depth is not None
                and len(self._waiting) + (1 if self._running else 0) >= max_depth
            )
            if over and overflow == "reject":
                return "rejected"
            self._sequence += 1
            ticket = (rank, self._sequence)
            heapq.heappush(self._waiting, ticket)
            while self._running or self._waiting[0] != ticket:
                self._condition.wait()
            heapq.heappop(self._waiting)
            self._running = True
            return "acquired-over" if over else "acquired"

    def release(self) -> None:
        with self._condition:
            self._running = False
            self._condition.notify_all()


class ContainmentDaemon:
    """The daemon's request brain: one persistent service plus admission.

    Deliberately transport-free — :meth:`handle_line` maps one request line
    to one response line, so tests can drive the full shedding/deadline
    logic without opening a socket; :func:`serve` plugs it into
    ``socketserver``.
    """

    def __init__(
        self,
        options: Optional[BatchOptions] = None,
        shed: Optional[ShedOptions] = None,
    ):
        # The daemon owns the metrics registry and lends it to the service,
        # so service counters and daemon-level gauges come out of one scrape.
        self.registry = MetricsRegistry()
        self.service = ContainmentService(options, registry=self.registry)
        self.shed = shed if shed is not None else ShedOptions()
        self.gate = ServiceGate()
        self.started_at = time.time()
        self.requests_served = 0
        self.stopping = threading.Event()
        self.address: Optional[Address] = None  # set by serve()
        self.registry.gauge(
            "repro_daemon_uptime_seconds",
            "Seconds since this daemon process started.",
            callback=lambda: time.time() - self.started_at,
        )
        self.registry.gauge(
            "repro_daemon_queue_depth",
            "Batch requests in the daemon right now (running + waiting).",
            callback=self.gate.depth,
        )
        self._queue_wait = self.registry.histogram(
            "repro_daemon_queue_wait_seconds",
            "Seconds an admitted batch request waited for the service gate.",
            buckets=LATENCY_BUCKETS,
        )
        self._request_seconds = self.registry.histogram(
            "repro_daemon_request_seconds",
            "Total daemon wall clock of a batch request, queue wait included.",
            buckets=LATENCY_BUCKETS,
        )
        self._requests_total = self.registry.counter(
            "repro_daemon_requests_total",
            "Batch requests by outcome (ok, degraded, rejected, error, parse-error).",
            labelnames=("outcome",),
        )

    #: A contained pair and its refuted reverse: together they walk the
    #: positive path, the witness/refutation path, one LP solve, and (when
    #: a store is attached) the first store transaction.
    WARMUP_PAIRS = (
        ("R(x,y), R(y,z), R(z,x)", "R(a,b), R(a,c)"),
        ("R(a,b), R(a,c)", "R(x,y), R(y,z), R(z,x)"),
    )

    def warmup(self) -> None:
        """Pre-solve a tiny built-in batch before the first real request.

        A fresh daemon process pays lazy one-time costs on its first solve
        — allocator and solver first-call setup, parser tables, lattice
        caches, the store's first transaction.  Fleets spawn one process
        per replica, so without warmup a cold batch pays that bill once
        *per shard*; with it, spawn time absorbs the bill (``spawn_daemon``
        only reports ready once pings answer, which is after warmup).
        Never raises: an unsolvable warmup pair must not block serving.
        """
        from repro.cq.parser import parse_query

        try:
            self.service.run(
                [
                    (parse_query(a, name="Q1"), parse_query(b, name="Q2"))
                    for a, b in self.WARMUP_PAIRS
                ]
            )
        except Exception:  # pragma: no cover - warmup is best-effort
            pass

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def handle_line(self, line: bytes) -> str:
        """Answer one request line with one response line (never raises)."""
        try:
            request = parse_request(line)
        except ProtocolError as error:
            return encode_response({"ok": False, "error": str(error)})
        if isinstance(request, ControlRequest):
            if request.op == "ping":
                return encode_response({"ok": True, "op": "ping", "pid": os.getpid()})
            if request.op == "status":
                return encode_response({"ok": True, **self.status()})
            if request.op == "metrics":
                return encode_response(
                    {
                        "ok": True,
                        "content_type": "text/plain; version=0.0.4",
                        "body": self.render_metrics(),
                    }
                )
            self.stopping.set()
            return encode_response({"ok": True, "stopping": True})
        return encode_batch_response(self.handle_batch(request))

    def render_metrics(self) -> str:
        """The daemon's full Prometheus exposition document.

        Merges the daemon-owned registry (service counters, gate gauges,
        latency histograms) with the process-global one (LP solver-path and
        row-generation counters, which live below the service layer).
        """
        return render_registries(self.registry, global_registry())

    def status(self) -> Dict[str, object]:
        return {
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_at,
            "address": str(self.address) if self.address is not None else None,
            "queue_depth": self.gate.depth(),
            "queue_waiting": self.gate.waiting(),
            "requests_served": self.requests_served,
            "shed": {
                "max_queue_depth": self.shed.max_queue_depth,
                "policy": self.shed.policy,
                "degrade_pair_budget": self.shed.degrade_pair_budget,
                "default_deadline": self.shed.default_deadline,
            },
            "plan_cache_entries": len(self.service.cache),
            "store": self._store_status(),
            "stats": self.service.stats.as_dict(),
        }

    def _store_status(self) -> Optional[Dict[str, object]]:
        store = self.service.store
        if store is None:
            return None
        return {
            "path": store.path,
            "entries": len(store),
            "recovered": store.recovered,
            "dropped": store.dropped,
            "appended": store.appended,
        }

    def handle_batch(self, request: BatchRequest) -> BatchResponse:
        """Run one batch request through admission, the gate and the service."""
        received = time.perf_counter()
        try:
            pairs = [
                (parse_query(spec.q1, name=f"Q1#{i}"), parse_query(spec.q2, name=f"Q2#{i}"))
                for i, spec in enumerate(request.pairs)
            ]
        except ReproError as error:
            self._requests_total.inc(outcome="parse-error")
            return BatchResponse(ok=False, error=f"unparseable pair: {error}")

        deadline = request.deadline_seconds
        if deadline is None:
            deadline = self.shed.default_deadline
        submitted = time.perf_counter()
        admission = self.gate.acquire(
            request.priority,
            max_depth=self.shed.max_queue_depth,
            overflow="reject" if self.shed.policy == "reject" else "join",
        )
        if admission == "rejected":
            self.service.stats.count_request_rejected()
            self._requests_total.inc(outcome="rejected")
            return BatchResponse(
                ok=False,
                error="queue-full",
                shed="rejected",
                stats=self.service.stats.as_dict(),
            )
        self._queue_wait.observe(time.perf_counter() - submitted)
        degraded = admission == "acquired-over"
        try:
            service = self.service
            if degraded:
                self.service.stats.count_request_degraded()
                budget = service.options.pair_budget
                budget = (
                    self.shed.degrade_pair_budget
                    if budget is None
                    else min(budget, self.shed.degrade_pair_budget)
                )
                service = self._degraded_service(budget)
            if deadline is not None:
                # The deadline covers queue wait too: only the remainder is
                # left for the engine.
                remaining = max(0.0, deadline - (time.perf_counter() - submitted))
                report = service.run(pairs, deadline=remaining)
            else:
                report = service.run(pairs)
            self.requests_served += 1
        except Exception as error:  # noqa: BLE001 - the daemon must answer
            # on_error="capture" absorbs per-pair ReproErrors, but a daemon
            # cannot afford *any* escaping exception: it would kill the
            # handler thread mid-request, the client would read EOF, and a
            # poisoned pair could defeat the daemon on every retry.  Answer
            # ok=false instead and stay alive.
            self._requests_total.inc(outcome="error")
            return BatchResponse(
                ok=False,
                error=f"internal error deciding the batch: {error!r}",
                stats=self.service.stats.as_dict(),
            )
        finally:
            self.gate.release()
            self._request_seconds.observe(time.perf_counter() - received)
        self._requests_total.inc(outcome="degraded" if degraded else "ok")
        verdicts = []
        for outcome in report.outcomes:
            witness_rows = None
            if outcome.result.witness is not None:
                witness_rows = outcome.result.witness.database.total_tuples()
            verdicts.append(
                PairVerdict(
                    index=outcome.index,
                    status=outcome.result.status.value,
                    method=outcome.result.method,
                    source=outcome.source,
                    witness_rows=witness_rows,
                )
            )
        return BatchResponse(
            ok=True, verdicts=tuple(verdicts), stats=report.stats, degraded=degraded
        )

    def _degraded_service(self, pair_budget: float) -> ContainmentService:
        """A view of the persistent service with the degrade budget applied.

        A shallow copy: it shares the stats, plan cache and durable store
        (or None), so degraded requests still warm (and profit from) the
        same plan cache and persist their verdicts.  It is never closed.
        """
        view = copy.copy(self.service)
        view.options = replace(self.service.options, pair_budget=pair_budget)
        return view


# ---------------------------------------------------------------------- #
# The socket server
# ---------------------------------------------------------------------- #
class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        daemon: ContainmentDaemon = self.server.containment_daemon
        for line in self.rfile:
            if not line.strip():
                continue
            response = daemon.handle_line(line)
            stopping = daemon.stopping.is_set()
            if stopping:
                # Unlink the socket path *before* the ack goes out, so a
                # client that saw the stop reply never finds a lingering
                # socket file (the established connection is unaffected).
                _unlink_bound_socket(self.server)
            try:
                self.wfile.write(response.encode("utf-8") + b"\n")
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return
            if stopping:
                # Acknowledge first, then bring the server down from a side
                # thread (shutdown() deadlocks when called from a handler).
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return


def _unlink_bound_socket(server) -> None:
    """Remove the Unix socket file ``server`` bound, and only that one.

    Inode-guarded: a newer daemon may have already replaced a stale file
    with its own socket, and its socket must survive our cleanup.  A path
    someone else already removed is fine too.
    """
    daemon = getattr(server, "containment_daemon", None)
    address = getattr(daemon, "address", None)
    inode = getattr(server, "bound_inode", None)
    if address is None or address.kind != "unix" or inode is None:
        return
    try:
        if os.lstat(address.path).st_ino == inode:
            os.unlink(address.path)
    except OSError:
        pass


class _ThreadingMixIn(socketserver.ThreadingMixIn):
    daemon_threads = True


if hasattr(socketserver, "UnixStreamServer"):

    class _UnixServer(_ThreadingMixIn, socketserver.UnixStreamServer):
        allow_reuse_address = True

else:  # pragma: no cover - non-POSIX platforms
    _UnixServer = None


class _TCPServer(_ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True


def _clear_stale_socket(address: Address) -> None:
    """Remove a dead leftover socket file at ``address.path``, if any.

    A SIGKILLed daemon leaves its socket file behind; binding over it fails
    with EADDRINUSE even though nothing is listening.  Refuse to touch a
    path that is not a socket (a config typo must not delete a real file),
    refuse to steal a *live* socket, and tolerate another starter winning
    the unlink race.
    """
    try:
        mode = os.lstat(address.path).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise DaemonUnavailable(
            f"refusing to replace {address.path}: it exists but is not a socket"
        )
    if _probe(address, timeout=1.0):
        raise DaemonUnavailable(f"a daemon is already serving {address.path}")
    try:
        os.unlink(address.path)
    except FileNotFoundError:
        pass  # a concurrent starter removed it first


def make_server(daemon: ContainmentDaemon, address: Address):
    """Bind a threading socketserver for ``daemon`` at ``address``."""
    if address.kind == "unix":
        if _UnixServer is None or not hasattr(socket, "AF_UNIX"):  # pragma: no cover
            raise DaemonUnavailable(
                "this platform has no AF_UNIX; use a host:port TCP address"
            )
        _clear_stale_socket(address)
        try:
            server = _UnixServer(address.path, _Handler)
        except OSError as error:
            if error.errno != errno.EADDRINUSE:
                raise
            # Lost a race: someone created the path between our unlink and
            # bind.  Re-run the liveness check once — if that occupant is
            # dead too, clear it and bind; if it is live, this raises.
            _clear_stale_socket(address)
            server = _UnixServer(address.path, _Handler)
    else:
        server = _TCPServer((address.host, address.port), _Handler)
    server.containment_daemon = daemon
    daemon.address = address
    return server


def serve(
    address: Address,
    options: Optional[BatchOptions] = None,
    shed: Optional[ShedOptions] = None,
    ready_callback=None,
    warmup: bool = False,
) -> None:
    """Run a daemon at ``address`` until a ``stop`` request arrives.

    Blocks the calling thread; ``ready_callback`` (if given) fires with the
    daemon once the socket is bound — tests use it to serve from a thread.
    With ``warmup`` the daemon pre-solves a tiny built-in batch *before*
    binding, so the socket only answers once the heavy code paths are warm.
    """
    daemon = ContainmentDaemon(options=options, shed=shed)
    if warmup:
        daemon.warmup()
    server = make_server(daemon, address)
    server.bound_inode = None
    if address.kind == "unix":
        try:
            server.bound_inode = os.lstat(address.path).st_ino
        except OSError:  # pragma: no cover - bind just created it
            pass
    try:
        if ready_callback is not None:
            ready_callback(daemon)
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        # Normally already gone (the stop handler unlinks before its ack);
        # this covers exits that never saw a stop request.
        _unlink_bound_socket(server)
        daemon.service.close()


# ---------------------------------------------------------------------- #
# The client
# ---------------------------------------------------------------------- #
class DaemonClient:
    """A line-oriented client for the daemon protocol.

    One connection per request/response round trip: the daemon protocol is
    stateless between lines, and short-lived connections keep the client
    trivially robust against daemon restarts.
    """

    #: Slack added to a deadline-carrying batch's client-side timeout: the
    #: daemon needs a moment beyond the deadline to assemble and ship the
    #: (deadline-exceeded) response.
    DEADLINE_MARGIN = 30.0

    def __init__(self, address: Optional[str] = None, timeout: Optional[float] = 300.0):
        text = address if address else default_socket_path()
        self.address = parse_address(text) if isinstance(text, str) else text
        self.timeout = timeout

    def _roundtrip(self, line: str, timeout: object = _USE_DEFAULT) -> str:
        timeout = self.timeout if timeout is _USE_DEFAULT else timeout
        try:
            sock = _connect(self.address, timeout)
        except (OSError, ValueError) as error:
            raise DaemonUnavailable(
                f"no containment daemon reachable at {self.address}: {error}"
            ) from None
        try:
            try:
                sock.sendall(line.encode("utf-8") + b"\n")
            except socket.timeout:
                raise DaemonUnavailable(
                    f"the daemon at {self.address} did not accept the request "
                    f"within {timeout}s"
                ) from None
            except OSError as error:
                # The request never made it onto the wire: the daemon cannot
                # have started the work, so falling back is safe.
                raise DaemonUnavailable(
                    f"could not send the request to the daemon at "
                    f"{self.address}: {error}"
                ) from None
            return self._read_response_line(sock, timeout)
        finally:
            sock.close()

    def _read_response_line(self, sock: socket.socket, timeout: object) -> str:
        """Read one response line; failures here are *not* retriable.

        The request is already on the wire, so every error past this point is
        a :class:`DaemonConnectionBroken` — never a :class:`DaemonUnavailable`
        — and carries how much of the response was read when the connection
        died.
        """
        chunks: List[bytes] = []
        received = 0
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                raise DaemonConnectionBroken(
                    f"the daemon at {self.address} accepted the request but "
                    f"sent no complete response within {timeout}s "
                    f"({received} bytes read); the request may still be "
                    "executing server-side"
                ) from None
            except OSError as error:
                raise DaemonConnectionBroken(
                    f"lost the connection to the daemon at {self.address} "
                    f"after {received} bytes of the response: {error}"
                ) from None
            if not chunk:
                if received == 0:
                    raise DaemonConnectionBroken(
                        f"the daemon at {self.address} closed the connection "
                        "before sending any response; the request may still "
                        "have executed server-side"
                    )
                prefix = b"".join(chunks)[:80]
                raise DaemonConnectionBroken(
                    f"the daemon at {self.address} closed the connection "
                    f"mid-response after {received} bytes "
                    f"(partial read starts {prefix!r})"
                )
            chunks.append(chunk)
            received += len(chunk)
            if chunk.endswith(b"\n") or b"\n" in chunk:
                break
        return b"".join(chunks).decode("utf-8")

    def ping(self) -> Dict[str, object]:
        return self._control("ping")

    def status(self) -> Dict[str, object]:
        return self._control("status")

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition document."""
        return str(self._control("metrics")["body"])

    def stop(self) -> Dict[str, object]:
        return self._control("stop")

    def _control(self, op: str) -> Dict[str, object]:
        response = parse_response(self._roundtrip(encode_request(ControlRequest(op))))
        if not response.get("ok"):
            raise DaemonUnavailable(
                f"daemon {op} failed: {response.get('error', 'unknown error')}"
            )
        return response

    def batch(
        self,
        pairs: Sequence[Tuple[str, str]],
        deadline_seconds: Optional[float] = None,
        priority: str = "normal",
    ) -> BatchResponse:
        """Decide textual query pairs through the daemon.

        The read timeout follows the request's deadline (plus a margin)
        rather than the client's control-op timeout: a batch without a
        deadline may legitimately take arbitrarily long, and timing out
        client-side would abandon a request the daemon is still computing
        (and, via the CLI fallback, recompute it locally on top).
        """
        request = BatchRequest(
            pairs=tuple(PairSpec(q1=q1, q2=q2) for q1, q2 in pairs),
            deadline_seconds=deadline_seconds,
            priority=priority,
        )
        timeout = (
            None
            if deadline_seconds is None
            else deadline_seconds + self.DEADLINE_MARGIN
        )
        return parse_batch_response(
            self._roundtrip(encode_request(request), timeout=timeout)
        )


def _connect(address: Address, timeout: Optional[float]) -> socket.socket:
    if address.kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        if address.kind == "unix":
            sock.connect(address.path)
        else:
            sock.connect((address.host, address.port))
    except OSError:
        sock.close()
        raise
    return sock


def _probe(address: Address, timeout: float = 1.0) -> bool:
    """True when something at ``address`` answers a ping."""
    try:
        response = DaemonClient(str(address), timeout=timeout).ping()
    except (DaemonUnavailable, DaemonConnectionBroken, ProtocolError):
        return False
    return bool(response.get("ok"))


def daemon_available(address: Optional[str] = None, timeout: float = 2.0) -> bool:
    """True when a live daemon answers a ping at ``address``."""
    text = address if address else default_socket_path()
    return _probe(parse_address(text), timeout=timeout)


# ---------------------------------------------------------------------- #
# Process management (used by the CLI)
# ---------------------------------------------------------------------- #
def spawn_daemon(
    address: Optional[str] = None,
    extra_args: Sequence[str] = (),
    wait_seconds: float = 15.0,
    log_path: Optional[str] = None,
) -> int:
    """Start a detached daemon process and wait until it answers pings.

    Returns the child pid.  ``extra_args`` are forwarded to
    ``repro daemon run`` verbatim (engine and shedding flags).
    """
    text = address if address else default_socket_path()
    if daemon_available(text, timeout=1.0):
        raise DaemonUnavailable(f"a daemon is already running at {text}")
    if log_path is None:
        log_path = os.path.join(
            tempfile.gettempdir(), f"repro-daemon-{os.getpid()}.log"
        )
    command = [
        sys.executable,
        "-m",
        "repro",
        "daemon",
        "run",
        "--socket",
        text,
        *extra_args,
    ]
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src_root
    )
    with open(log_path, "ab") as log:
        child = subprocess.Popen(
            command,
            stdout=log,
            stderr=log,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
            env=env,
        )
    waited = 0.0
    while waited < wait_seconds:
        if daemon_available(text, timeout=1.0):
            return child.pid
        if child.poll() is not None:
            raise DaemonUnavailable(
                f"the daemon process exited with code {child.returncode} before "
                f"binding {text} (log: {log_path})"
            )
        time.sleep(0.1)
        waited += 0.1
    child.terminate()
    raise DaemonUnavailable(
        f"the daemon did not answer pings at {text} within {wait_seconds}s "
        f"(log: {log_path})"
    )


def stop_daemon(
    address: Optional[str] = None, wait_seconds: float = 10.0
) -> Dict[str, object]:
    """Send ``stop`` and wait for the endpoint to go quiet."""
    text = address if address else default_socket_path()
    client = DaemonClient(text, timeout=10.0)
    response = client.stop()
    waited = 0.0
    while waited < wait_seconds:
        if not daemon_available(text, timeout=0.5):
            return response
        time.sleep(0.1)
        waited += 0.1
    raise DaemonUnavailable(
        f"the daemon at {text} acknowledged stop but is still answering after "
        f"{wait_seconds}s"
    )
