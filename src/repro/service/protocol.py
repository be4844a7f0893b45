"""The daemon wire protocol: JSONL request/response messages.

The containment daemon (:mod:`repro.service.daemon`) speaks a line-oriented
protocol: every message — request or response — is one JSON object on one
``\\n``-terminated line, so any client that can write a line and read a line
can drive the daemon (``socat``, a shell script, the bundled
:class:`~repro.service.daemon.DaemonClient`).  This module is the shared
vocabulary of both sides: typed message dataclasses, the ``parse_*`` /
``encode`` functions that move them across the wire, and the address
grammar (Unix socket path vs. ``host:port`` TCP fallback).

Requests
--------
``{"op": "ping"}``
    Liveness probe; answered immediately, never queued.
``{"op": "status"}``
    Daemon metadata (pid, uptime, address, queue depth, shedding) plus a
    full :class:`~repro.service.stats.ServiceStats` snapshot.  When the
    daemon runs with a durable verdict store (``--store``), the reply also
    carries a ``store`` block (path, entries, recovered/dropped counts from
    the open-time replay, rows appended this process); without one,
    ``store`` is ``null``.
``{"op": "metrics"}``
    The daemon's metrics in the Prometheus text exposition format: the
    response carries ``content_type`` (``text/plain; version=0.0.4``) and
    the document itself in ``body``.  This is the scrape endpoint of the
    soak harness and ``repro daemon status --prom``.
``{"op": "stop"}``
    Acknowledge, then shut the server down cleanly.
``{"op": "batch", "pairs": [{"q1": "R(x,y)", "q2": "R(a,b)"}, ...],
"deadline_seconds": 30.0, "priority": "high"}``
    Decide the pairs through the daemon's persistent
    :class:`~repro.service.service.ContainmentService`.  ``deadline_seconds``
    (optional) bounds the request's total wall clock *including queue wait*;
    pairs still undecided when it expires come back as UNKNOWN
    ``"deadline-exceeded"`` verdicts rather than an error.  ``priority``
    (``"high" | "normal" | "low"``, default normal) orders waiting requests.

Responses always carry ``"ok"``; batch responses add one verdict record per
input pair (in submission order) and the post-request stats snapshot.  A
request shed by the admission policy answers ``ok=false`` with
``error="queue-full"`` and ``shed="rejected"``.

The gateway speaks this exact protocol on both sides, so every wire
invariant here (one line per message, verdicts in submission order) holds
for fleets too — see ``docs/operations.md`` for the operator view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ReproError

#: Bumped on incompatible wire changes; echoed in every response.
PROTOCOL_VERSION = 1

#: Request priorities, highest first (the order the daemon's gate drains them).
PRIORITIES = ("high", "normal", "low")

#: Admission policies when the queue is at ``max_queue_depth``.
SHED_POLICIES = ("reject", "degrade")


class ProtocolError(ReproError):
    """A malformed or unsupported protocol message."""


# ---------------------------------------------------------------------- #
# Requests
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PairSpec:
    """One query pair on the wire (query bodies in the parser syntax)."""

    q1: str
    q2: str


@dataclass(frozen=True)
class BatchRequest:
    """A ``batch`` request: decide ``pairs`` under the shedding knobs."""

    pairs: Tuple[PairSpec, ...]
    deadline_seconds: Optional[float] = None
    priority: str = "normal"


@dataclass(frozen=True)
class ControlRequest:
    """A parameterless control request (``ping``, ``status``, ``metrics`` or
    ``stop``)."""

    op: str


Request = Union[BatchRequest, ControlRequest]

_CONTROL_OPS = ("ping", "status", "metrics", "stop")


def parse_request(line: Union[str, bytes]) -> Request:
    """Parse one request line into its typed message (raises ProtocolError)."""
    message = _load_object(line, "request")
    op = message.get("op")
    if op in _CONTROL_OPS:
        return ControlRequest(op=op)
    if op != "batch":
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {('batch',) + _CONTROL_OPS}"
        )
    raw_pairs = message.get("pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise ProtocolError("a batch request needs a non-empty 'pairs' list")
    pairs = []
    for index, entry in enumerate(raw_pairs):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("q1"), str)
            or not isinstance(entry.get("q2"), str)
        ):
            raise ProtocolError(
                f"pairs[{index}] must be an object with string 'q1' and 'q2'"
            )
        pairs.append(PairSpec(q1=entry["q1"], q2=entry["q2"]))
    deadline = message.get("deadline_seconds")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            raise ProtocolError("'deadline_seconds' must be a number")
        if deadline < 0:
            raise ProtocolError("'deadline_seconds' must be non-negative")
        deadline = float(deadline)
    priority = message.get("priority", "normal")
    if priority not in PRIORITIES:
        raise ProtocolError(f"'priority' must be one of {PRIORITIES}")
    return BatchRequest(
        pairs=tuple(pairs), deadline_seconds=deadline, priority=priority
    )


def encode_request(request: Request) -> str:
    """Serialize a request message to its wire line (no trailing newline)."""
    if isinstance(request, ControlRequest):
        return json.dumps({"op": request.op})
    message: Dict[str, object] = {
        "op": "batch",
        "pairs": [{"q1": pair.q1, "q2": pair.q2} for pair in request.pairs],
    }
    if request.deadline_seconds is not None:
        message["deadline_seconds"] = request.deadline_seconds
    if request.priority != "normal":
        message["priority"] = request.priority
    return json.dumps(message)


# ---------------------------------------------------------------------- #
# Responses
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PairVerdict:
    """One pair's outcome on the wire (mirrors a service PairOutcome).

    ``source`` is the service's provenance tag: ``"solved"``,
    ``"batch-dedup"``, ``"plan-cache"`` or ``"store"`` (answered from the
    durable verdict store on disk).
    """

    index: int
    status: str
    method: str
    source: str
    witness_rows: Optional[int] = None


@dataclass(frozen=True)
class BatchResponse:
    """Response to a ``batch`` request (also used for shed rejections)."""

    ok: bool
    verdicts: Tuple[PairVerdict, ...] = ()
    stats: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    shed: Optional[str] = None
    degraded: bool = False


def encode_response(payload: Dict[str, object]) -> str:
    """Serialize a response payload, stamping the protocol version."""
    message = {"protocol": PROTOCOL_VERSION}
    message.update(payload)
    return json.dumps(message)


def encode_batch_response(response: BatchResponse) -> str:
    payload: Dict[str, object] = {"ok": response.ok}
    if response.ok:
        payload["verdicts"] = [
            _verdict_record(verdict) for verdict in response.verdicts
        ]
        payload["stats"] = response.stats
        if response.degraded:
            payload["degraded"] = True
    else:
        payload["error"] = response.error or "request failed"
        if response.shed is not None:
            payload["shed"] = response.shed
        if response.stats:
            payload["stats"] = response.stats
    return encode_response(payload)


def parse_response(line: Union[str, bytes]) -> Dict[str, object]:
    """Parse one response line; raises ProtocolError on malformed input."""
    message = _load_object(line, "response")
    if "ok" not in message:
        raise ProtocolError("a response must carry an 'ok' field")
    return message


def parse_batch_response(line: Union[str, bytes]) -> BatchResponse:
    """Parse a ``batch`` response line into its typed message."""
    message = parse_response(line)
    if not message["ok"]:
        return BatchResponse(
            ok=False,
            error=str(message.get("error", "request failed")),
            shed=message.get("shed"),
            stats=message.get("stats", {}) or {},
        )
    raw_verdicts = message.get("verdicts")
    if not isinstance(raw_verdicts, list):
        raise ProtocolError("a successful batch response needs a 'verdicts' list")
    verdicts: List[PairVerdict] = []
    for entry in raw_verdicts:
        if not isinstance(entry, dict):
            raise ProtocolError("each verdict must be a JSON object")
        try:
            verdicts.append(
                PairVerdict(
                    index=int(entry["index"]),
                    status=str(entry["status"]),
                    method=str(entry["method"]),
                    source=str(entry["source"]),
                    witness_rows=entry.get("witness_rows"),
                )
            )
        except KeyError as missing:
            raise ProtocolError(f"verdict record is missing {missing}") from None
    return BatchResponse(
        ok=True,
        verdicts=tuple(verdicts),
        stats=message.get("stats", {}) or {},
        degraded=bool(message.get("degraded", False)),
    )


def _verdict_record(verdict: PairVerdict) -> Dict[str, object]:
    record: Dict[str, object] = {
        "index": verdict.index,
        "status": verdict.status,
        "method": verdict.method,
        "source": verdict.source,
    }
    if verdict.witness_rows is not None:
        record["witness_rows"] = verdict.witness_rows
    return record


def _load_object(line: Union[str, bytes], kind: str) -> Dict[str, object]:
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"{kind} line is not valid UTF-8: {error}") from None
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"{kind} line is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"a {kind} must be a JSON object, got {type(message).__name__}")
    return message


# ---------------------------------------------------------------------- #
# Addresses
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Address:
    """A daemon endpoint: a Unix socket path or a localhost TCP port."""

    kind: str  # "unix" | "tcp"
    path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "unix":
            return self.path
        return f"{self.host}:{self.port}"


def parse_address(text: str) -> Address:
    """Parse an endpoint string.

    ``host:port`` (the last colon-separated field all digits) selects the TCP
    fallback; anything else is a Unix socket path.  An explicit ``tcp:`` or
    ``unix:`` prefix overrides the heuristic.

    Two shapes are close enough to a TCP endpoint to be typos rather than
    socket paths, and are rejected outright instead of surfacing later as a
    confusing ``socket`` error: a bare integer (``"8080"`` — is it a port or
    a relative path?) and a colon-bearing name with the port missing
    (``"localhost:"``, ``":8080"``).  A path with a directory separator
    (``"/tmp/odd:name"``) is never mistaken for TCP.
    """
    if not text:
        raise ProtocolError("the daemon address must be non-empty")
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ProtocolError("empty Unix socket path")
        return Address(kind="unix", path=path)
    if text.startswith("tcp:"):
        text = text[len("tcp:"):]
        return _parse_tcp(text)
    if text.isdigit():
        raise ProtocolError(
            f"ambiguous address {text!r}: a bare integer is neither a socket "
            f"path nor a TCP endpoint — use host:port (e.g. 'localhost:{text}') "
            "or an explicit unix:PATH"
        )
    host, colon, port = text.rpartition(":")
    if colon and port.isdigit():
        return _parse_tcp(text)
    if colon and not port and "/" not in text:
        raise ProtocolError(
            f"TCP address {text!r} is missing its port — use host:port, "
            "or unix:PATH for a socket path that happens to end in a colon"
        )
    return Address(kind="unix", path=text)


def _parse_tcp(text: str) -> Address:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ProtocolError(f"TCP address must look like host:port, got {text!r}")
    number = int(port)
    if not 0 < number < 65536:
        raise ProtocolError(f"TCP port out of range: {number}")
    return Address(kind="tcp", host=host, port=number)
