"""Service-level statistics for the batch containment engine.

Since the telemetry layer landed, :class:`ServiceStats` is a thin view over
a :class:`~repro.obs.metrics.MetricsRegistry`: every counter attribute is a
descriptor reading and writing a registered Prometheus counter, so the
historical mutation style (``stats.cache_hits += 1``) and the ``as_dict()``
wire format both keep working while the same numbers flow out of the
daemon's ``metrics`` verb and ``repro daemon status --prom``.

The full metric catalog (names, types, labels, meanings) is maintained in
``docs/operations.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry


@dataclass(frozen=True)
class GroupTiming:
    """Timing of one block-LP chunk solve.

    Attributes
    ----------
    cone:
        Cone the chunk was decided over (``"gamma"`` for grouped solves).
    ground_size:
        Number of ground variables ``n`` shared by the chunk's requests.
    requests:
        How many per-pair LP decisions the chunk folded into one block-LP call.
    rows:
        Stacked per-pair objective (branch) rows of the block program — the
        shared cone-description rows each block also carries are not counted.
    seconds:
        Wall-clock time of the solve.
    """

    cone: str
    ground_size: int
    requests: int
    rows: int
    seconds: float


class _CounterField:
    """One ServiceStats attribute backed by a registry counter.

    Reads return the counter total (as ``int`` for the count-style fields);
    assignment forwards to :meth:`~repro.obs.metrics.Counter.set_total`, so
    ``stats.cache_hits += 1`` still works and still refuses to run a
    monotone total backwards.
    """

    def __init__(self, metric_name: str, help: str, integral: bool = True):
        self.metric_name = metric_name
        self.help = help
        self.integral = integral
        self.attr = ""

    def __set_name__(self, owner, name: str) -> None:
        self.attr = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj._counters[self.attr].value()
        return int(value) if self.integral else value

    def __set__(self, obj, value) -> None:
        obj._counters[self.attr].set_total(float(value))


class ServiceStats:
    """Counters accumulated by a :class:`~repro.service.service.ContainmentService`.

    ``block_solves`` counts chunk calls of the block LP
    (:func:`~repro.infotheory.maxiip.decide_max_ii_many`), and
    ``lp_solves_avoided`` the engine LP requests folded into them: a chunk
    that folds ``k`` cone decisions into one call saves ``k - 1`` calls
    relative to the sequential path.  On the dense path one call is one
    stacked HiGHS invocation; on the row-generation path every block of the
    call still runs its own model, so there the count is of calls, not of
    HiGHS solves.  Cache hits and batch duplicates additionally avoid their
    pairs' *entire* pipelines (homomorphism enumeration, inequality
    construction and all LP work).

    The shedding counters cover the service-protection knobs:
    ``pairs_deadline_exceeded`` counts pairs closed out by a batch deadline,
    ``requests_rejected`` whole requests turned away by a full admission
    queue, and ``requests_degraded`` requests the ``"degrade"`` policy ran
    with a clamped per-pair budget instead of rejecting.

    Every attribute below is backed by a counter in ``registry`` (a private
    registry when none is given), and :meth:`observe_pair_seconds` feeds the
    ``repro_pair_seconds`` latency histogram the daemon exposes.
    """

    pairs_submitted = _CounterField(
        "repro_pairs_submitted_total", "Query pairs submitted to the service."
    )
    pipelines_run = _CounterField(
        "repro_pipelines_run_total",
        "Containment pipelines actually executed (cache misses, one per unique pair).",
    )
    cache_hits = _CounterField(
        "repro_plan_cache_hits_total",
        "Pairs answered from the canonical-form plan cache.",
    )
    store_hits = _CounterField(
        "repro_store_hits_total",
        "Pairs answered from the durable verdict store (disk tier).",
    )
    batch_duplicates = _CounterField(
        "repro_batch_duplicates_total",
        "Pairs deduplicated against an identical pair in the same batch.",
    )
    pair_errors = _CounterField(
        "repro_pair_errors_total", "Pairs whose pipeline raised an error."
    )
    pairs_over_budget = _CounterField(
        "repro_pairs_over_budget_total",
        "Pairs stopped by the per-pair time budget.",
    )
    pairs_deadline_exceeded = _CounterField(
        "repro_pairs_deadline_exceeded_total",
        "Pairs closed out unresolved by a batch deadline.",
    )
    requests_rejected = _CounterField(
        "repro_requests_rejected_total",
        "Whole requests turned away by a full admission queue.",
    )
    requests_degraded = _CounterField(
        "repro_requests_degraded_total",
        "Requests the degrade shedding policy ran with a clamped pair budget.",
    )
    lp_requests = _CounterField(
        "repro_lp_requests_total", "Cone-membership LP decisions requested."
    )
    block_solves = _CounterField(
        "repro_lp_block_solves_total",
        "Grouped block-LP calls, one per chunk of same-arity cone decisions.",
    )
    scalar_solves = _CounterField(
        "repro_lp_scalar_solves_total",
        "Single-request LP solves outside the grouped path.",
    )
    lp_solves_avoided = _CounterField(
        "repro_lp_solves_avoided_total",
        "Cone-decision LP requests folded into another request's block-LP call.",
    )
    wall_seconds = _CounterField(
        "repro_batch_wall_seconds_total",
        "Wall-clock seconds spent inside ContainmentService.run.",
        integral=False,
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            field.attr: self.registry.counter(field.metric_name, field.help)
            for field in vars(type(self)).values()
            if isinstance(field, _CounterField)
        }
        self.pair_seconds = self.registry.histogram(
            "repro_pair_seconds",
            "Per-pair end-to-end decision latency in seconds.",
            buckets=LATENCY_BUCKETS,
        )
        self.chunk_solve_seconds = self.registry.histogram(
            "repro_chunk_solve_seconds",
            "Wall time of one grouped block-LP chunk solve.",
            buckets=LATENCY_BUCKETS,
            labelnames=("cone", "ground_size"),
        )
        # Running totals per (cone, n): a snapshot costs one entry per
        # arity, however many chunks the service has solved.
        self.group_totals: Dict[Tuple[str, int], Dict[str, float]] = {}
        # A daemon's connection threads read these stats (``status``,
        # ``metrics``) while a batch runs on another thread; the lock keeps
        # group_totals updates and snapshots consistent (the counters carry
        # their own registry lock).
        self._lock = threading.Lock()

    def record_chunk(self, timing: GroupTiming) -> None:
        with self._lock:
            totals = self.group_totals.setdefault(
                (timing.cone, timing.ground_size),
                {"chunks": 0, "requests": 0, "rows": 0, "seconds": 0.0},
            )
            totals["chunks"] += 1
            totals["requests"] += timing.requests
            totals["rows"] += timing.rows
            totals["seconds"] += timing.seconds
        self._counters["block_solves"].inc()
        saved = max(0, timing.requests - 1)
        if saved:
            self._counters["lp_solves_avoided"].inc(saved)
        self.chunk_solve_seconds.observe(
            timing.seconds, cone=timing.cone, ground_size=str(timing.ground_size)
        )

    def observe_pair_seconds(self, seconds: float) -> None:
        """File one pair's end-to-end latency into the exposed histogram."""
        self.pair_seconds.observe(seconds)

    def count_scalar_solve(self) -> None:
        self._counters["scalar_solves"].inc()

    def count_over_budget(self) -> None:
        self._counters["pairs_over_budget"].inc()

    def count_deadline_exceeded(self) -> None:
        self._counters["pairs_deadline_exceeded"].inc()

    def count_request_rejected(self) -> None:
        self._counters["requests_rejected"].inc()

    def count_request_degraded(self) -> None:
        self._counters["requests_degraded"].inc()

    def per_group(self) -> Dict[str, Dict[str, float]]:
        """Group timings aggregated per ``cone:n=<arity>`` key."""
        with self._lock:
            return {
                f"{cone}:n={size}": dict(totals)
                for (cone, size), totals in self.group_totals.items()
            }

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot (group timings aggregated per arity)."""
        return {
            "pairs_submitted": self.pairs_submitted,
            "pipelines_run": self.pipelines_run,
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
            "batch_duplicates": self.batch_duplicates,
            "pair_errors": self.pair_errors,
            "pairs_over_budget": self.pairs_over_budget,
            "pairs_deadline_exceeded": self.pairs_deadline_exceeded,
            "requests_rejected": self.requests_rejected,
            "requests_degraded": self.requests_degraded,
            "lp_requests": self.lp_requests,
            "block_solves": self.block_solves,
            "scalar_solves": self.scalar_solves,
            "lp_solves_avoided": self.lp_solves_avoided,
            "wall_seconds": self.wall_seconds,
            "groups": self.per_group(),
        }
