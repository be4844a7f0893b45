"""Batch containment service: high-volume serving of containment checks.

The :mod:`repro.core` layer decides one query pair at a time.  This package
turns the library into a serving system that absorbs *workloads* of pairs:

* :mod:`repro.service.canonical` — canonical labeling of conjunctive queries
  and structural hash keys, so duplicate and isomorphic pairs are recognized;
* :mod:`repro.service.cache` — the plan cache mapping structural keys to
  previously computed :class:`~repro.core.containment.ContainmentResult`\\ s;
* :mod:`repro.service.engine` — the batch engine: drives many per-pair
  containment pipelines side by side, groups their Shannon-cone LP requests
  by ground arity, and answers each group from chunked block-LP calls (one
  stacked HiGHS invocation per chunk on the dense path, one warm-started
  model per pair on the row-generation path);
* :mod:`repro.service.service` — the user-facing :class:`ContainmentService`
  and the :func:`decide_containment_many` convenience entry point;
* :mod:`repro.service.stats` — service-level statistics (cache hits, LP
  solves avoided, shed/deadline counters, per-group timings);
* :mod:`repro.service.protocol` — the JSONL wire protocol spoken between
  the daemon and its clients;
* :mod:`repro.service.daemon` — the persistent daemon: a long-lived server
  process that keeps one warm service (plan cache, cached provers, lattice
  contexts) alive across CLI invocations, with admission control
  (queue-depth shedding, per-request deadlines, priorities);
* :mod:`repro.service.fleet` — N daemon replicas behind one asyncio
  gateway that shards pairs by structural hash (per-replica cache
  affinity), re-routes around dead replicas mid-batch, and re-warms
  drained replicas from their peers' verdict stores.

Quickstart
----------
>>> from repro import parse_query
>>> from repro.service import decide_containment_many
>>> pairs = [
...     (parse_query("R(x,y), R(y,z), R(z,x)"), parse_query("R(a,b), R(a,c)")),
...     (parse_query("R(u,v), R(v,w), R(w,u)"), parse_query("R(s,t), R(s,r)")),
... ]
>>> [r.status.value for r in decide_containment_many(pairs)]
['contained', 'contained']

The layer map and the life of one pair through this stack are documented in
``docs/architecture.md``; the operator runbook (lifecycle, failure modes,
metric catalogs) is ``docs/operations.md``.
"""

from repro.service.canonical import canonical_query, canonical_query_key, pair_key
from repro.service.cache import PlanCache
from repro.service.daemon import (
    ContainmentDaemon,
    DaemonClient,
    DaemonConnectionBroken,
    DaemonUnavailable,
    ShedOptions,
    daemon_available,
    default_socket_path,
    spawn_daemon,
    stop_daemon,
)
from repro.service.engine import BatchEngine, PipelineSpec
from repro.service.fleet import (
    FleetError,
    FleetGateway,
    ReplicaSpec,
    fleet_status,
    merge_stores,
    spawn_gateway,
    start_fleet,
    stop_fleet,
)
from repro.service.service import (
    BatchOptions,
    BatchReport,
    ContainmentService,
    PairOutcome,
    decide_containment_many,
)
from repro.service.stats import GroupTiming, ServiceStats

__all__ = [
    "BatchEngine",
    "BatchOptions",
    "BatchReport",
    "ContainmentDaemon",
    "ContainmentService",
    "DaemonClient",
    "DaemonConnectionBroken",
    "DaemonUnavailable",
    "FleetError",
    "FleetGateway",
    "GroupTiming",
    "PairOutcome",
    "PipelineSpec",
    "PlanCache",
    "ReplicaSpec",
    "ServiceStats",
    "ShedOptions",
    "canonical_query",
    "canonical_query_key",
    "daemon_available",
    "decide_containment_many",
    "default_socket_path",
    "fleet_status",
    "merge_stores",
    "pair_key",
    "spawn_daemon",
    "spawn_gateway",
    "start_fleet",
    "stop_daemon",
    "stop_fleet",
]
