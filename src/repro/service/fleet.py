"""A ring-sharded, deduping fleet of containment daemons behind one gateway.

One warm daemon is a ceiling: a single process, one plan cache, one socket.
The fleet removes it without touching the wire protocol.  N ordinary daemon
replicas (each a normal ``repro daemon run`` process on its own durable
store) sit behind a front-end **gateway** built on :mod:`asyncio` streams
that speaks the same JSONL protocol on both sides — any existing client
(``DaemonClient``, ``repro batch --daemon``, ``socat``) can point at the
gateway and see a single, faster daemon.

The gateway **dedups before it shards**: every pair in the incoming batch
is parsed and canonicalized through :func:`repro.service.canonical.pair_key`,
exact-duplicate *and* isomorphic pairs fold onto one representative per
canonical key, and only representatives are dispatched.  The
representative's verdict then fans back out to every folded requester
(``source="gateway-dedup"``).  This is sound for the same reason the
single-service dedup is: the paper's reduction makes bag containment a
property of the canonical pair alone (containment ⇔ a max-information
inequality over the canonicalized queries), and the wire verdict — status,
method, provenance, witness row count — is invariant under variable
renaming.

The gateway **forwards canonical forms**: each representative travels to
its replica as the text of its canonical key
(:func:`repro.service.canonical.canonical_text` — variables ``c0, c1, ...``,
atoms in key order, head kept), not as the client sent it.  Every isomorph
of a pair thus reaches its replica as one text, and the replica's own
canonicalization of that text is a hit in its labeling memo.  The
gateway's text cache (LRU on the raw pair texts) holds each pair's routing
hash together with its canonical pair.  The wire protocol is unchanged: a
replica still computes its own key, so an older gateway or a direct client
only misses the memo.  A replica solves the canonical form, so the evidence
a fleet keeps depends only on the pair's isomorphism class; it lives
replica-side in canonical variables, and since the wire verdict carries
none of it, nothing renames evidence on the way to a client.

Routing is by **consistent-hash ring** (:mod:`repro.service.ring`): the
canonical key's structural hash is looked up on a ring with a configurable
number of virtual nodes per replica, deterministic from the manifest.
Structurally isomorphic pairs always land on the same replica, so every
replica's plan cache and verdict store concentrate on a stable shard of
the key space; and because drain/re-admit is a ring membership filter, a
replica leaving or rejoining moves only ~1/n of the keys instead of
remapping the whole space the way ``hash % n`` did — a re-warmed replica
comes back to a mostly-warm shard.  The gateway hashes the *canonical key*
rather than the raw pair text so the UCQ frontier can extend the pair
shape without touching the router.

A batch request is split into per-replica sub-batches, fanned out
concurrently — but with at most ``dispatch_parallelism`` sub-batches in
flight (default: the gateway host's CPU count).  Replicas started by
:func:`start_fleet` share the gateway host's cores, and dispatching more
concurrent CPU-bound solves than cores only interleaves them and thrashes
their working sets; operators running replicas on other hosts set the cap
to the fleet size.  Verdicts are stitched back together in the original
request order.  Failure handling:

* a replica whose connection drops mid-batch is **drained** (marked
  unhealthy, counted in ``repro_gateway_drain_events_total``) and its pairs
  are re-routed to the surviving replicas within the same request — a killed
  replica still yields a complete, correct batch report;
* a drained replica is **re-warmed**: the gateway's re-warmer merges the
  peers' stores into the replica's store (``repro cache export | import``
  semantics — first-wins records make the merge idempotent and order-free),
  respawns the daemon process, and re-admits it once it answers pings;
* a periodic health probe pings every replica (optionally auditing its
  store with :func:`repro.store.verify_store` every ``verify_every`` sweeps)
  and drains any replica that stops answering.

Deadlines propagate: the remaining budget (original deadline minus time
already spent in the gateway) is forwarded to each sub-batch, and pairs
whose budget is exhausted before a replica answers come back as UNKNOWN
``deadline-exceeded`` verdicts synthesized by the gateway — reassembly
never hangs on a late replica.

Process management mirrors the single daemon: :func:`start_fleet` spawns N
replicas (per-replica sockets and stores under one directory) plus a
detached gateway process, recording everything in a ``fleet.json``
manifest (including ``ring_vnodes``, so every gateway built from the same
manifest owns the identical ring); :func:`stop_fleet` tears the fleet down
gateway-first (so the probe loop cannot resurrect a replica mid-shutdown).

Consistency invariants (see ``docs/architecture.md`` for the layer map and
``docs/operations.md`` for the operator runbook):

* **request-order reassembly** — verdicts are returned indexed exactly as
  the pairs arrived, whatever replica answered them and however many
  re-route rounds it took;
* **first-wins appends** — re-warm merges peer stores with
  ``export | import`` semantics, so merging is idempotent and order-free;
* **renaming-invariant verdicts** — gateway folding and canonical
  forwarding rely on wire verdicts being renaming-invariant; in-process
  callers that read evidence get it renamed onto their own variables by
  :mod:`repro.service.evidence`.

The fleet's place in the stack is diagrammed in ``docs/architecture.md``;
the operator runbook (lifecycle, drain/re-warm, failure modes, gateway
metric catalog) is ``docs/operations.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cq.parser import parse_query
from repro.exceptions import ReproError
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.service.canonical import canonical_text, pair_key
from repro.service.daemon import (
    DaemonClient,
    _clear_stale_socket,
    daemon_available,
    spawn_daemon,
    stop_daemon,
)
from repro.service.ring import DEFAULT_VNODES, HashRing
from repro.service.protocol import (
    PROTOCOL_VERSION,
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
from repro.store import VerdictStore, structural_hash, verify_store


class FleetError(ReproError):
    """A fleet-level operational failure (manifest, spawn, or teardown)."""


#: Byte limit for one protocol line on the gateway's streams.  A 4096-pair
#: batch response with stats runs to a few hundred KB; asyncio's default
#: 64 KiB readline limit would truncate it.
_STREAM_LIMIT = 16 * 1024 * 1024

#: Name of the manifest file a running fleet keeps in its directory.
MANIFEST_NAME = "fleet.json"

#: Distinct pair texts whose route the gateway remembers (least recently
#: used first out).
ROUTE_CACHE_SIZE = 4096


def _canonical_route(q1_text: str, q2_text: str) -> Tuple[int, PairSpec]:
    """A pair's routing integer and the texts of its canonical form.

    Parses both queries, so it raises on unparseable text.
    """
    key = pair_key(parse_query(q1_text, name="Q1"), parse_query(q2_text, name="Q2"))
    return (
        int(structural_hash(key), 16),
        PairSpec(canonical_text(key[0]), canonical_text(key[1])),
    )


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica endpoint: its name, address, and (optional) store path."""

    name: str
    address: str
    store_path: Optional[str] = None


class _ReplicaState:
    """The gateway's mutable view of one replica."""

    def __init__(self, spec: ReplicaSpec):
        self.spec = spec
        self.healthy = True
        self.recovering = False
        self.requests = 0
        self.pairs = 0
        self.drains = 0

    def snapshot(self) -> Dict[str, object]:
        return {
            "name": self.spec.name,
            "address": self.spec.address,
            "store": self.spec.store_path,
            "healthy": self.healthy,
            "recovering": self.recovering,
            "requests": self.requests,
            "pairs": self.pairs,
            "drains": self.drains,
        }


#: A re-warmer: bring ``spec`` back to life, warming its store from
#: ``peers``.  Runs in an executor thread (it may block on subprocesses).
Rewarmer = Callable[[ReplicaSpec, Sequence[ReplicaSpec]], None]


class FleetGateway:
    """Route batches across daemon replicas by structural hash.

    The gateway is transport-complete on its own: :meth:`handle_batch` (and
    :meth:`handle_line`) can be driven directly under ``asyncio.run`` in
    tests, and :meth:`serve` binds the asyncio-streams front door.
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaSpec],
        *,
        probe_interval: Optional[float] = 2.0,
        probe_timeout: float = 2.0,
        verify_every: int = 0,
        replica_timeout: Optional[float] = None,
        reply_margin: float = 5.0,
        rewarmer: Optional[Rewarmer] = None,
        registry: Optional[MetricsRegistry] = None,
        ring_vnodes: int = DEFAULT_VNODES,
        dispatch_parallelism: Optional[int] = None,
    ):
        if not replicas:
            raise FleetError("a fleet gateway needs at least one replica")
        names = [spec.name for spec in replicas]
        if len(set(names)) != len(names):
            raise FleetError(f"replica names must be unique, got {names}")
        if dispatch_parallelism is None:
            # Replicas started by ``start_fleet`` share this host's cores:
            # dispatching more concurrent CPU-bound sub-batches than cores
            # only interleaves the solves and thrashes their working sets.
            # Operators running replicas on *other* hosts should pass the
            # fleet size explicitly.
            dispatch_parallelism = max(1, os.cpu_count() or 1)
        if dispatch_parallelism < 1:
            raise FleetError("dispatch_parallelism must be positive (or None)")
        self._states = [_ReplicaState(spec) for spec in replicas]
        try:
            self._ring = HashRing(names, vnodes=ring_vnodes)
        except ValueError as error:
            raise FleetError(str(error)) from error
        self._replica_index = {spec.name: i for i, spec in enumerate(replicas)}
        self.dispatch_parallelism = dispatch_parallelism
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.verify_every = verify_every
        self.replica_timeout = replica_timeout
        self.reply_margin = reply_margin
        self._rewarmer = rewarmer
        self.address: Optional[Address] = None
        self.started_at = time.monotonic()
        self.requests_served = 0
        self._stop_requested = False
        self._stopping: Optional[asyncio.Event] = None
        self._bound_inode: Optional[int] = None
        # Keyed by the pair's raw texts.  Routing runs in executor threads,
        # and ``lru_cache`` keeps its bookkeeping consistent across them.
        self._route_cache = functools.lru_cache(maxsize=ROUTE_CACHE_SIZE)(
            _canonical_route
        )

        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests_total = self.registry.counter(
            "repro_gateway_requests_total",
            "Batch requests handled by the gateway, by outcome.",
            labelnames=("outcome",),
        )
        self._replica_requests = self.registry.counter(
            "repro_gateway_replica_requests_total",
            "Sub-batches dispatched to each replica.",
            labelnames=("replica",),
        )
        self._pairs_routed = self.registry.counter(
            "repro_gateway_pairs_routed_total",
            "Pairs routed to each replica.",
            labelnames=("replica",),
        )
        self._drain_events = self.registry.counter(
            "repro_gateway_drain_events_total",
            "Times each replica was drained (probe failure or mid-batch loss).",
            labelnames=("replica",),
        )
        self._readmit_events = self.registry.counter(
            "repro_gateway_readmit_total",
            "Times each replica was re-admitted after a drain.",
            labelnames=("replica",),
        )
        self._deadline_pairs = self.registry.counter(
            "repro_gateway_deadline_pairs_total",
            "Pairs answered with gateway-synthesized deadline-exceeded verdicts.",
        )
        self._dedup_folded = self.registry.counter(
            "repro_gateway_dedup_folded_total",
            "Pairs folded onto a canonical-key representative before dispatch.",
        )
        self._ring_reroutes = self.registry.counter(
            "repro_gateway_ring_reroutes_total",
            "Pairs routed past a drained primary owner to a ring fallback.",
            labelnames=("replica",),
        )
        self.registry.gauge(
            "repro_gateway_ring_points",
            "Virtual nodes on the routing ring (replicas x vnodes).",
            callback=lambda: float(len(self._ring)),
        )
        self.registry.gauge(
            "repro_gateway_dispatch_parallelism",
            "Cap on concurrently in-flight sub-batch dispatches.",
            callback=lambda: float(self.dispatch_parallelism),
        )
        self._subbatch_pairs = self.registry.histogram(
            "repro_gateway_subbatch_pairs",
            "Pairs per dispatched sub-batch (the routing histogram).",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
        )
        self._request_seconds = self.registry.histogram(
            "repro_gateway_request_seconds",
            "Wall-clock seconds per gateway batch request.",
            buckets=LATENCY_BUCKETS,
        )
        self.registry.gauge(
            "repro_gateway_replicas_healthy",
            "Replicas currently admitted for routing.",
            callback=lambda: float(
                sum(1 for state in self._states if state.healthy)
            ),
        )
        self.registry.gauge(
            "repro_gateway_uptime_seconds",
            "Seconds since the gateway started.",
            callback=lambda: time.monotonic() - self.started_at,
        )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route_hashes(self, pairs: Sequence[PairSpec]) -> List[Tuple[int, PairSpec]]:
        """Every pair's structural-hash routing integer and the canonical
        form it is forwarded as (parses; cached on the raw texts)."""
        return [self._route_cache(spec.q1, spec.q2) for spec in pairs]

    def _replica_for(self, hash_int: int, candidates: Sequence[int]) -> int:
        """The ring owner among the admitted candidates.

        When every replica is admitted this is the key's primary owner;
        while some are drained the ring walks clockwise past their points,
        so only the drained members' keys move (~1/n of the space each)
        and they snap back on re-admit.  Fallback routing is counted in
        ``repro_gateway_ring_reroutes_total``.
        """
        eligible = [self._states[i].spec.name for i in candidates]
        owner = self._ring.owner(hash_int, eligible)
        if len(candidates) != len(self._states) and owner != self._ring.owner(hash_int):
            self._ring_reroutes.inc(replica=owner)
        return self._replica_index[owner]

    # ------------------------------------------------------------------ #
    # The batch path
    # ------------------------------------------------------------------ #
    async def handle_batch(self, request: BatchRequest) -> BatchResponse:
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            routes = await loop.run_in_executor(
                None, self._route_hashes, request.pairs
            )
        except ReproError as error:
            self._requests_total.inc(outcome="parse-error")
            return BatchResponse(ok=False, error=f"unparseable pair: {error}")

        deadline = request.deadline_seconds
        verdicts: List[Optional[PairVerdict]] = [None] * len(request.pairs)
        stats_parts: List[Dict[str, object]] = []
        degraded = False
        synthesized = 0

        # Fold duplicates before sharding: one representative per canonical
        # key is dispatched; every later occurrence (exact duplicate or a
        # variable-renamed isomorph — same key either way) is answered by
        # fanning the representative's verdict back out.  The wire verdict
        # is renaming-invariant, so the fan-out is a pure re-index; see the
        # module docstring for why this is sound.
        first_seen: Dict[int, int] = {}
        folds: Dict[int, List[int]] = {}
        pending: "OrderedDict[int, int]" = OrderedDict()
        forwarded = [spec for _, spec in routes]
        for index, (hash_int, _) in enumerate(routes):
            representative = first_seen.setdefault(hash_int, index)
            if representative == index:
                pending[index] = hash_int
            else:
                folds.setdefault(representative, []).append(index)
        folded = len(request.pairs) - len(pending)
        if folded:
            self._dedup_folded.inc(folded)

        def settle(original: int, verdict: PairVerdict) -> None:
            verdicts[original] = replace(verdict, index=original)
            for duplicate in folds.get(original, ()):
                verdicts[duplicate] = replace(
                    verdict, index=duplicate, source="gateway-dedup"
                )

        def settle_deadline(original: int) -> int:
            verdicts[original] = _deadline_verdict(original)
            count = 1
            for duplicate in folds.get(original, ()):
                verdicts[duplicate] = _deadline_verdict(duplicate)
                count += 1
            return count

        while pending:
            candidates = [
                index
                for index, state in enumerate(self._states)
                if state.healthy
            ]
            if not candidates:
                self._requests_total.inc(outcome="no-replicas")
                return BatchResponse(
                    ok=False,
                    error="no healthy replicas available",
                    stats=_merge_stats(stats_parts),
                )
            remaining = None
            if deadline is not None:
                remaining = deadline - (time.monotonic() - started)
                if remaining <= 0:
                    for index in pending:
                        synthesized += settle_deadline(index)
                    pending.clear()
                    break
            groups: "OrderedDict[int, List[int]]" = OrderedDict()
            for index, hash_int in pending.items():
                replica = self._replica_for(hash_int, candidates)
                groups.setdefault(replica, []).append(index)
            # Bound in-flight dispatches at the host's effective parallelism
            # (the semaphore is per-round so the gateway can be driven from
            # any event loop).  A queued dispatch re-computes its deadline
            # budget when its slot opens — the time spent waiting behind
            # other shards is part of the request's budget, not a bonus.
            slots = asyncio.Semaphore(self.dispatch_parallelism)

            async def bounded(
                replica: int, indices: List[int]
            ) -> Tuple[str, int, List[int], object]:
                async with slots:
                    budget = remaining
                    if deadline is not None:
                        budget = deadline - (time.monotonic() - started)
                        if budget <= 0:
                            return ("deadline", replica, indices, None)
                    return await self._dispatch(
                        replica, indices, forwarded, request, budget
                    )

            results = await asyncio.gather(
                *(bounded(replica, indices) for replica, indices in groups.items())
            )
            pending_before = len(pending)
            drained_this_round = False
            for tag, replica, indices, payload in results:
                if tag == "ok":
                    sub: BatchResponse = payload
                    if not sub.ok:
                        # An explicit refusal (queue-full shed, internal
                        # error) applies to the whole request: forward it.
                        outcome = "shed" if sub.shed else "replica-error"
                        self._requests_total.inc(outcome=outcome)
                        return BatchResponse(
                            ok=False,
                            error=sub.error,
                            shed=sub.shed,
                            stats=_merge_stats(stats_parts + [sub.stats]),
                        )
                    degraded = degraded or sub.degraded
                    stats_parts.append(sub.stats)
                    for verdict in sub.verdicts:
                        original = indices[verdict.index]
                        settle(original, verdict)
                        pending.pop(original, None)
                    # A conforming daemon answers every pair; tolerate a
                    # short response by re-routing whatever it skipped.
                elif tag == "deadline":
                    for index in indices:
                        synthesized += settle_deadline(index)
                        pending.pop(index, None)
                else:  # "failed": transport loss — drain and re-route.
                    self._drain(replica, str(payload))
                    drained_this_round = True
                    degraded = True
            if len(pending) == pending_before and not drained_this_round:
                # A replica answered "ok" without resolving anything; the
                # shard map cannot change, so looping again would spin.
                self._requests_total.inc(outcome="replica-error")
                return BatchResponse(
                    ok=False,
                    error="replicas answered without resolving any pairs",
                    stats=_merge_stats(stats_parts),
                )

        if synthesized:
            self._deadline_pairs.inc(synthesized)
        self.requests_served += 1
        self._requests_total.inc(outcome="degraded" if degraded else "ok")
        self._request_seconds.observe(time.monotonic() - started)
        stats = _merge_stats(stats_parts)
        # Replicas only saw representatives, and their snapshots are summed
        # numerically, so the merged pair total must be restated at the
        # gateway: the authoritative count for this request is the number of
        # pairs the client sent, with the fold accounted separately.
        stats["pairs_submitted"] = len(request.pairs)
        stats["gateway"] = {
            "pairs_received": len(request.pairs),
            "dedup_folded": folded,
            "representatives_dispatched": len(request.pairs) - folded,
            "deadline_synthesized": synthesized,
        }
        return BatchResponse(
            ok=True,
            verdicts=tuple(verdicts),
            stats=stats,
            degraded=degraded,
        )

    async def _dispatch(
        self,
        replica: int,
        indices: List[int],
        forwarded: Sequence[PairSpec],
        request: BatchRequest,
        remaining: Optional[float],
    ) -> Tuple[str, int, List[int], object]:
        """Send one sub-batch; returns ``(tag, replica, indices, payload)``.

        The sub-batch carries ``forwarded[i]``, the canonical form of pair
        ``i``, for every index in ``indices``.

        ``tag`` is ``"ok"`` (payload: the :class:`BatchResponse`),
        ``"deadline"`` (the budget ran out waiting) or ``"failed"``
        (payload: the transport error message — the caller drains and
        re-routes).
        """
        state = self._states[replica]
        sub = BatchRequest(
            pairs=tuple(forwarded[i] for i in indices),
            deadline_seconds=remaining,
            priority=request.priority,
        )
        timeout = self.replica_timeout
        if remaining is not None:
            budget = remaining + self.reply_margin
            timeout = budget if timeout is None else min(timeout, budget)
        state.requests += 1
        state.pairs += len(indices)
        self._replica_requests.inc(replica=state.spec.name)
        self._pairs_routed.inc(len(indices), replica=state.spec.name)
        self._subbatch_pairs.observe(len(indices))
        try:
            line = await asyncio.wait_for(
                self._replica_roundtrip(state.spec, encode_request(sub)),
                timeout,
            )
            return ("ok", replica, indices, parse_batch_response(line))
        except asyncio.TimeoutError:
            if remaining is not None:
                # The request's own deadline expired: these pairs are
                # answered by the gateway, not re-routed.
                return ("deadline", replica, indices, None)
            return ("failed", replica, indices, f"timed out after {timeout}s")
        except (OSError, ConnectionError, ProtocolError, ValueError) as error:
            return ("failed", replica, indices, f"{type(error).__name__}: {error}")

    async def _replica_roundtrip(self, spec: ReplicaSpec, line: str) -> bytes:
        """One request/response line against a replica (fresh connection)."""
        address = parse_address(spec.address)
        if address.kind == "unix":
            reader, writer = await asyncio.open_unix_connection(
                address.path, limit=_STREAM_LIMIT
            )
        else:
            reader, writer = await asyncio.open_connection(
                address.host, address.port, limit=_STREAM_LIMIT
            )
        try:
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()
            data = await reader.readline()
            if not data:
                raise ConnectionError(
                    f"replica {spec.name} closed the connection mid-request"
                )
            return data
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # ------------------------------------------------------------------ #
    # Health: drain / re-warm / re-admit
    # ------------------------------------------------------------------ #
    def _drain(self, replica: int, reason: str) -> None:
        state = self._states[replica]
        if not state.healthy:
            return
        state.healthy = False
        state.drains += 1
        self._drain_events.inc(replica=state.spec.name)
        self._log(f"drained replica {state.spec.name}: {reason}")
        if self._rewarmer is not None and not state.recovering:
            state.recovering = True
            asyncio.get_running_loop().create_task(self._recover(replica))

    def _readmit(self, state: _ReplicaState) -> None:
        if state.healthy:
            return
        state.healthy = True
        self._readmit_events.inc(replica=state.spec.name)
        self._log(f"re-admitted replica {state.spec.name}")

    async def _recover(self, replica: int) -> None:
        """Re-warm a drained replica and re-admit it once it answers."""
        state = self._states[replica]
        loop = asyncio.get_running_loop()
        try:
            peers = [
                other.spec
                for index, other in enumerate(self._states)
                if index != replica
            ]
            try:
                await loop.run_in_executor(
                    None, self._rewarmer, state.spec, peers
                )
            except Exception as error:  # the probe loop will retry later
                self._log(
                    f"re-warm of replica {state.spec.name} failed: {error!r}"
                )
                return
            if await self._ping_replica(state):
                self._readmit(state)
        finally:
            state.recovering = False

    async def _ping_replica(self, state: _ReplicaState) -> bool:
        try:
            line = await asyncio.wait_for(
                self._replica_roundtrip(
                    state.spec, encode_request(ControlRequest("ping"))
                ),
                self.probe_timeout,
            )
            return bool(parse_response(line).get("ok"))
        except Exception:
            return False

    def _store_passes_audit(self, spec: ReplicaSpec) -> bool:
        try:
            with VerdictStore(spec.store_path) as store:
                return verify_store(store).ok
        except Exception:
            return False

    async def _probe_loop(self) -> None:
        sweeps = 0
        while True:
            await asyncio.sleep(self.probe_interval)
            sweeps += 1
            audit = self.verify_every > 0 and sweeps % self.verify_every == 0
            loop = asyncio.get_running_loop()
            for index, state in enumerate(self._states):
                if state.recovering:
                    continue
                alive = await self._ping_replica(state)
                if alive and audit and state.spec.store_path:
                    alive = await loop.run_in_executor(
                        None, self._store_passes_audit, state.spec
                    )
                    if not alive and state.healthy:
                        self._drain(index, "store failed its verify sweep")
                        continue
                if state.healthy and not alive:
                    self._drain(index, "health probe went unanswered")
                elif not state.healthy and alive:
                    # An operator (or the re-warmer in a prior loop) brought
                    # it back: readmit without waiting for a recover task.
                    self._readmit(state)

    # ------------------------------------------------------------------ #
    # The front door
    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, object]:
        return {
            "role": "gateway",
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "address": str(self.address) if self.address else None,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "requests_served": self.requests_served,
            "fleet_size": len(self._states),
            "healthy_replicas": sum(1 for s in self._states if s.healthy),
            "replicas": [state.snapshot() for state in self._states],
        }

    async def handle_line(self, line: bytes) -> str:
        try:
            request = parse_request(line)
        except ProtocolError as error:
            return encode_response({"ok": False, "error": str(error)})
        if isinstance(request, ControlRequest):
            if request.op == "ping":
                return encode_response(
                    {"ok": True, "op": "ping", "pid": os.getpid(), "role": "gateway"}
                )
            if request.op == "status":
                return encode_response({"ok": True, **self.status()})
            if request.op == "metrics":
                return encode_response(
                    {
                        "ok": True,
                        "content_type": "text/plain; version=0.0.4",
                        "body": self.registry.render(),
                    }
                )
            # "stop": ack now; the connection loop unlinks and shuts down.
            self._stop_requested = True
            return encode_response({"ok": True, "stopping": True})
        try:
            return encode_batch_response(await self.handle_batch(request))
        except Exception as error:  # never leave a client hanging
            return encode_batch_response(
                BatchResponse(ok=False, error=f"gateway internal error: {error!r}")
            )

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = await self.handle_line(line)
                stopping = self._stop_requested
                if stopping:
                    # Mirror the daemon: unlink before the ack so a starter
                    # polling the path cannot race a half-dead gateway.
                    self._unlink_socket()
                try:
                    writer.write(response.encode("utf-8") + b"\n")
                    await writer.drain()
                except (ConnectionError, BrokenPipeError):
                    break
                if stopping:
                    if self._stopping is not None:
                        self._stopping.set()
                    break
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def serve(self, address: Address, ready_callback=None) -> None:
        """Bind the gateway at ``address`` and serve until ``stop``."""
        self.address = address
        self._stopping = asyncio.Event()
        self._bound_inode = None
        if address.kind == "unix":
            _clear_stale_socket(address)
            server = await asyncio.start_unix_server(
                self._on_client, path=address.path, limit=_STREAM_LIMIT
            )
            with contextlib.suppress(OSError):
                self._bound_inode = os.lstat(address.path).st_ino
        else:
            server = await asyncio.start_server(
                self._on_client,
                host=address.host,
                port=address.port,
                limit=_STREAM_LIMIT,
            )
        probe_task = (
            asyncio.ensure_future(self._probe_loop())
            if self.probe_interval
            else None
        )
        try:
            if ready_callback is not None:
                ready_callback(self)
            async with server:
                await self._stopping.wait()
        finally:
            if probe_task is not None:
                probe_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await probe_task
            server.close()
            await server.wait_closed()
            self._unlink_socket()

    def _unlink_socket(self) -> None:
        """Unlink our bound socket path (inode-guarded, idempotent)."""
        address = self.address
        if address is None or address.kind != "unix":
            return
        try:
            if (
                self._bound_inode is not None
                and os.lstat(address.path).st_ino != self._bound_inode
            ):
                return  # someone else owns the path now
            os.unlink(address.path)
        except OSError:
            pass

    @staticmethod
    def _log(message: str) -> None:
        print(f"[gateway] {message}", file=sys.stderr, flush=True)


def _deadline_verdict(index: int) -> PairVerdict:
    return PairVerdict(
        index=index,
        status="unknown",
        method="deadline-exceeded",
        source="gateway",
    )


def _merge_stats(parts: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Sum the replicas' numeric stats snapshots (nested dicts included)."""
    merged: Dict[str, object] = {}
    for stats in parts:
        if not isinstance(stats, dict):
            continue
        _merge_into(merged, stats)
    return merged


def _merge_into(target: Dict[str, object], source: Dict[str, object]) -> None:
    for key, value in source.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            current = target.get(key, 0)
            if isinstance(current, (int, float)) and not isinstance(current, bool):
                target[key] = current + value
            else:
                target[key] = value
        elif isinstance(value, dict):
            bucket = target.setdefault(key, {})
            if isinstance(bucket, dict):
                _merge_into(bucket, value)
        elif key not in target:
            target[key] = value


# ---------------------------------------------------------------------- #
# Store-merge warm-up
# ---------------------------------------------------------------------- #
def merge_stores(target_path: str, peer_paths: Sequence[str]) -> Tuple[int, int]:
    """Import every peer store into ``target_path`` (export | import).

    First-wins record semantics make this idempotent and order-free: a
    record already present in the target is skipped, so merging the same
    peers twice — or in any order — converges to the same store.  Returns
    ``(imported, skipped)`` totals.
    """
    imported = skipped = 0
    with VerdictStore(target_path) as target:
        for path in peer_paths:
            if not path or not os.path.exists(path):
                continue
            buffer = io.StringIO()
            with VerdictStore(path) as peer:
                peer.export_jsonl(buffer)
            buffer.seek(0)
            new, dup = target.import_jsonl(buffer)
            imported += new
            skipped += dup
    return imported, skipped


def manifest_rewarmer(manifest_path: str) -> Rewarmer:
    """The production re-warmer for a manifest-managed fleet.

    Stops (or kills) the drained replica's process, merges its peers'
    stores into its store, respawns ``repro daemon run`` with the fleet's
    engine arguments, and records the new pid in the manifest.
    """

    def rewarm(spec: ReplicaSpec, peers: Sequence[ReplicaSpec]) -> None:
        manifest = read_manifest(manifest_path)
        entry = next(
            (r for r in manifest["replicas"] if r["name"] == spec.name), None
        )
        with contextlib.suppress(ReproError):
            stop_daemon(spec.address, wait_seconds=3.0)
        if entry and entry.get("pid"):
            with contextlib.suppress(OSError):
                os.kill(int(entry["pid"]), signal.SIGKILL)
        if spec.store_path:
            merge_stores(
                spec.store_path,
                [peer.store_path for peer in peers if peer.store_path],
            )
        extra = list(manifest.get("engine_args", []))
        if spec.store_path:
            extra += ["--store", spec.store_path]
        # A re-warmed replica is a fresh process: warm it at spawn like
        # start_fleet does, so re-admission does not serve cold.
        extra += ["--warmup"]
        log_path = os.path.join(manifest["directory"], f"{spec.name}.log")
        pid = spawn_daemon(spec.address, extra_args=extra, log_path=log_path)
        if entry is not None:
            entry["pid"] = pid
            write_manifest(manifest_path, manifest)

    return rewarm


# ---------------------------------------------------------------------- #
# Fleet process management (used by the CLI)
# ---------------------------------------------------------------------- #
def default_fleet_dir() -> str:
    return os.path.join(tempfile.gettempdir(), f"repro-fleet-{os.getuid()}")


def manifest_path_for(directory: str) -> str:
    return os.path.join(directory, MANIFEST_NAME)


def read_manifest(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise FleetError(
            f"no fleet manifest at {path}; is a fleet running there?"
        ) from None
    except (OSError, ValueError) as error:
        raise FleetError(f"unreadable fleet manifest at {path}: {error}") from error


def write_manifest(path: str, manifest: Dict[str, object]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")
    os.replace(tmp, path)


def replica_specs_for(directory: str, count: int) -> List[ReplicaSpec]:
    return [
        ReplicaSpec(
            name=f"replica-{index}",
            address=os.path.join(directory, f"replica-{index}.sock"),
            store_path=os.path.join(directory, f"replica-{index}.sqlite"),
        )
        for index in range(count)
    ]


def specs_from_manifest(manifest: Dict[str, object]) -> List[ReplicaSpec]:
    return [
        ReplicaSpec(
            name=entry["name"],
            address=entry["address"],
            store_path=entry.get("store"),
        )
        for entry in manifest["replicas"]
    ]


def start_fleet(
    directory: Optional[str] = None,
    replicas: int = 2,
    gateway_address: Optional[str] = None,
    engine_args: Sequence[str] = (),
    probe_interval: float = 2.0,
    verify_every: int = 0,
    ring_vnodes: int = DEFAULT_VNODES,
    dispatch_parallelism: Optional[int] = None,
    wait_seconds: float = 30.0,
) -> Dict[str, object]:
    """Spawn N replicas + the gateway; returns the written manifest."""
    if replicas < 1:
        raise FleetError("a fleet needs at least one replica")
    directory = os.path.abspath(directory or default_fleet_dir())
    os.makedirs(directory, exist_ok=True)
    manifest_path = manifest_path_for(directory)
    if os.path.exists(manifest_path):
        raise FleetError(
            f"a fleet manifest already exists at {manifest_path}; "
            "run 'repro fleet stop' first"
        )
    specs = replica_specs_for(directory, replicas)
    gateway_address = gateway_address or os.path.join(directory, "gateway.sock")
    manifest: Dict[str, object] = {
        "directory": directory,
        "gateway": {"address": gateway_address, "pid": None},
        "replicas": [],
        "engine_args": list(engine_args),
        "probe_interval": probe_interval,
        "verify_every": verify_every,
        "ring_vnodes": ring_vnodes,
        # null = auto-size to the gateway host's cores at gateway start.
        "dispatch_parallelism": dispatch_parallelism,
    }
    spawned_pids: List[int] = []
    try:
        for spec in specs:
            # Replicas always warm up at spawn: each is a fresh process, and
            # a cold fleet batch would otherwise pay first-solve lazy init
            # once per shard instead of never.
            pid = spawn_daemon(
                spec.address,
                extra_args=list(engine_args)
                + ["--store", spec.store_path, "--warmup"],
                wait_seconds=wait_seconds,
                log_path=os.path.join(directory, f"{spec.name}.log"),
            )
            spawned_pids.append(pid)
            manifest["replicas"].append(
                {
                    "name": spec.name,
                    "address": spec.address,
                    "store": spec.store_path,
                    "pid": pid,
                }
            )
        write_manifest(manifest_path, manifest)
        gateway_pid = spawn_gateway(
            manifest_path,
            gateway_address,
            wait_seconds=wait_seconds,
            log_path=os.path.join(directory, "gateway.log"),
        )
        manifest["gateway"]["pid"] = gateway_pid
        write_manifest(manifest_path, manifest)
        return manifest
    except BaseException:
        # Half-started fleets are worse than none: tear down best-effort.
        for pid in spawned_pids:
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
        for spec in specs:
            with contextlib.suppress(OSError):
                os.unlink(spec.address)
        with contextlib.suppress(OSError):
            os.unlink(manifest_path)
        raise


def spawn_gateway(
    manifest_path: str,
    address: str,
    wait_seconds: float = 30.0,
    log_path: Optional[str] = None,
) -> int:
    """Start a detached gateway process and wait until it answers pings."""
    if daemon_available(address, timeout=1.0):
        raise FleetError(f"something is already answering pings at {address}")
    if log_path is None:
        log_path = os.path.join(
            tempfile.gettempdir(), f"repro-gateway-{os.getpid()}.log"
        )
    command = [
        sys.executable,
        "-m",
        "repro",
        "fleet",
        "gateway",
        "--manifest",
        manifest_path,
        "--socket",
        address,
    ]
    env = dict(os.environ)
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = (
        src_root + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src_root
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
        if daemon_available(address, timeout=1.0):
            return child.pid
        if child.poll() is not None:
            raise FleetError(
                f"the gateway exited with code {child.returncode} before "
                f"binding {address} (log: {log_path})"
            )
        time.sleep(0.1)
        waited += 0.1
    child.terminate()
    raise FleetError(
        f"the gateway did not answer pings at {address} within "
        f"{wait_seconds}s (log: {log_path})"
    )


def serve_gateway(
    manifest_path: str,
    address: Optional[str] = None,
    ready_callback=None,
) -> None:
    """Run a gateway (foreground) for the fleet described by a manifest."""
    manifest = read_manifest(manifest_path)
    specs = specs_from_manifest(manifest)
    text = address or manifest["gateway"]["address"]
    parallelism = manifest.get("dispatch_parallelism")
    gateway = FleetGateway(
        specs,
        probe_interval=float(manifest.get("probe_interval", 2.0)) or None,
        verify_every=int(manifest.get("verify_every", 0)),
        ring_vnodes=int(manifest.get("ring_vnodes", DEFAULT_VNODES)),
        dispatch_parallelism=int(parallelism) if parallelism else None,
        rewarmer=manifest_rewarmer(manifest_path),
    )
    asyncio.run(gateway.serve(parse_address(text), ready_callback=ready_callback))


def stop_fleet(
    directory: Optional[str] = None, wait_seconds: float = 10.0
) -> Dict[str, object]:
    """Tear a fleet down: gateway first (so it cannot resurrect replicas).

    Best-effort per process — an already-dead member is not an error —
    and removes the manifest so the directory can host a fresh fleet.
    """
    directory = os.path.abspath(directory or default_fleet_dir())
    manifest_path = manifest_path_for(directory)
    manifest = read_manifest(manifest_path)
    summary: Dict[str, object] = {"gateway": None, "replicas": []}

    gateway = manifest.get("gateway") or {}
    summary["gateway"] = _stop_member(
        gateway.get("address"), gateway.get("pid"), wait_seconds
    )
    for entry in manifest.get("replicas", []):
        result = _stop_member(entry.get("address"), entry.get("pid"), wait_seconds)
        result["name"] = entry.get("name")
        summary["replicas"].append(result)
    with contextlib.suppress(OSError):
        os.unlink(manifest_path)
    return summary


def _stop_member(
    address: Optional[str], pid: Optional[int], wait_seconds: float
) -> Dict[str, object]:
    stopped_via = None
    if address:
        try:
            stop_daemon(address, wait_seconds=wait_seconds)
            stopped_via = "stop"
        except ReproError:
            pass
    if stopped_via is None and pid:
        with contextlib.suppress(OSError):
            os.kill(int(pid), signal.SIGKILL)
            stopped_via = "kill"
    if address:
        path = parse_address(address)
        if path.kind == "unix":
            with contextlib.suppress(OSError):
                os.unlink(path.path)
    return {"address": address, "pid": pid, "stopped_via": stopped_via or "dead"}


def fleet_status(
    address: Optional[str] = None,
    directory: Optional[str] = None,
    timeout: float = 10.0,
) -> Dict[str, object]:
    """The gateway's status block (resolved from the manifest if needed)."""
    if address is None:
        directory = os.path.abspath(directory or default_fleet_dir())
        manifest = read_manifest(manifest_path_for(directory))
        address = manifest["gateway"]["address"]
    return DaemonClient(address, timeout=timeout).status()


def fleet_metrics(
    address: Optional[str] = None,
    directory: Optional[str] = None,
    timeout: float = 10.0,
) -> str:
    """The gateway's Prometheus exposition document."""
    if address is None:
        directory = os.path.abspath(directory or default_fleet_dir())
        manifest = read_manifest(manifest_path_for(directory))
        address = manifest["gateway"]["address"]
    return DaemonClient(address, timeout=timeout).metrics()
