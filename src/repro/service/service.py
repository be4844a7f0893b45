"""The user-facing batch containment service.

:class:`ContainmentService` is the serving layer over the batch engine: it
canonicalizes and deduplicates incoming pairs behind the structural-hash
plan cache, routes the unique survivors through the grouped block-LP engine,
and keeps service-level statistics across calls.  The module-level
:func:`decide_containment_many` wraps a one-shot service for the common
"decide this list of pairs" use.

With :attr:`BatchOptions.store_path` set, the service also runs a durable
second tier behind the in-memory plan cache: a pair that misses the cache is
probed against the :class:`~repro.store.VerdictStore` (counted separately as
``store_hits``), a store hit is promoted back into the cache, and every
cacheable solved verdict is recorded to the store with provenance — so a
restarted service replays previously decided pairs without a single LP
solve.  Evidence from either tier is renamed onto the requesting pair's own
variable names (see :mod:`repro.service.evidence`).

The cache→store→solve tiering is diagrammed in ``docs/architecture.md``;
store operations are documented in ``docs/operations.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.containment import ContainmentResult
from repro.cq.query import ConjunctiveQuery
from repro.exceptions import QueryError
from repro.obs import tracer as obs_tracer
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import PlanCache
from repro.service.canonical import PairLabelings, pair_key_with_labelings
from repro.service.engine import BatchEngine, PipelineSpec
from repro.service.evidence import rename_result, requester_mappings
from repro.service.stats import ServiceStats

QueryPair = Tuple[ConjunctiveQuery, ConjunctiveQuery]

#: Methods whose results are not worth caching (no verdict was established
#: for reasons specific to this run, not to the pair).
_UNCACHEABLE_METHODS = frozenset({"budget-exhausted", "deadline-exceeded", "error"})

#: Sentinel distinguishing "no per-call deadline override" from None.
_USE_OPTIONS_DEADLINE = object()


@dataclass(frozen=True)
class BatchOptions:
    """Execution knobs of a :class:`ContainmentService`.

    ``method``, ``max_witness_rows`` and ``refutation_effort`` are forwarded
    to every pair's pipeline (same meaning as in
    :func:`repro.core.containment.decide_containment`).  ``chunk_size``,
    ``pair_budget`` and ``on_error`` configure the engine (see
    :class:`repro.service.engine.BatchEngine`).  ``cache_size`` bounds the
    plan cache (``None`` = unbounded).

    ``deadline`` is an optional wall-clock bound in seconds for each
    :meth:`ContainmentService.run` call: pairs still undecided when it
    expires are reported as UNKNOWN ``"deadline-exceeded"`` results in the
    batch report, never raised.

    ``store_path`` points the service at a durable
    :class:`~repro.store.VerdictStore` behind the plan cache (``None`` = no
    persistence), keyed by the same canonical pair keys.
    """

    method: str = "auto"
    max_witness_rows: int = 1024
    refutation_effort: int = 1
    chunk_size: int = 32
    pair_budget: Optional[float] = None
    on_error: str = "raise"
    cache_size: Optional[int] = 4096
    deadline: Optional[float] = None
    store_path: Optional[str] = None


@dataclass(frozen=True)
class PairOutcome:
    """Provenance of one submitted pair's result.

    ``source`` is ``"solved"`` (the pair ran its own pipeline),
    ``"batch-dedup"`` (folded into an equivalent pair of the same batch),
    ``"plan-cache"`` (answered from a previous call of the same service) or
    ``"store"`` (answered from the durable verdict store on disk).
    """

    index: int
    result: ContainmentResult
    source: str


@dataclass(frozen=True)
class BatchReport:
    """Everything :meth:`ContainmentService.run` knows about one batch."""

    results: Tuple[ContainmentResult, ...]
    outcomes: Tuple[PairOutcome, ...]
    stats: Dict[str, object] = field(default_factory=dict)


class ContainmentService:
    """A long-lived batch containment checker with a plan cache.

    >>> from repro import parse_query
    >>> from repro.service import ContainmentService
    >>> service = ContainmentService()
    >>> triangle = parse_query("R(x,y), R(y,z), R(z,x)")
    >>> vee = parse_query("R(a,b), R(a,c)")
    >>> report = service.run([(triangle, vee), (triangle, vee)])
    >>> [r.status.value for r in report.results]
    ['contained', 'contained']
    >>> report.outcomes[1].source
    'batch-dedup'
    """

    def __init__(
        self,
        options: Optional[BatchOptions] = None,
        registry: Optional[MetricsRegistry] = None,
        **overrides,
    ):
        if options is None:
            options = BatchOptions(**overrides)
        elif overrides:
            options = replace(options, **overrides)
        self.options = options
        # ``registry`` lets an owner (the daemon) expose this service's
        # counters on its own metrics registry; by default the stats carry a
        # private one.
        self.stats = ServiceStats(registry)
        self.cache = PlanCache(maxsize=options.cache_size)
        self.store = None
        if options.store_path is not None:
            from repro.store import VerdictStore

            self.store = VerdictStore(options.store_path)
            store = self.store
            self.stats.registry.gauge(
                "repro_store_entries",
                "Distinct verdicts held by the durable store.",
                callback=lambda: float(len(store)),
            )

    def close(self) -> None:
        """Release the verdict store (idempotent)."""
        if self.store is not None:
            self.store.close()
            self.store = None

    def __enter__(self) -> "ContainmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _spec(self, q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> PipelineSpec:
        return PipelineSpec(
            q1=q1,
            q2=q2,
            method=self.options.method,
            max_witness_rows=self.options.max_witness_rows,
            refutation_effort=self.options.refutation_effort,
        )

    def run(
        self,
        pairs: Sequence[QueryPair],
        *,
        deadline: object = _USE_OPTIONS_DEADLINE,
    ) -> BatchReport:
        """Decide a batch of pairs; full provenance and a stats snapshot.

        ``deadline`` overrides :attr:`BatchOptions.deadline` for this call
        only (the daemon passes each request's remaining wall clock here).
        """
        started = time.perf_counter()
        options = self.options
        if deadline is _USE_OPTIONS_DEADLINE:
            deadline = options.deadline
        engine = BatchEngine(
            chunk_size=options.chunk_size,
            pair_budget=options.pair_budget,
            on_error=options.on_error,
            stats=self.stats,
            deadline=deadline,
        )
        self.stats.pairs_submitted += len(pairs)
        # One root span per service call: canonicalization, the plan-cache
        # pass and the engine's batch span all nest under it, so a traced run
        # is a single tree.
        with obs_tracer.span("request", pairs=len(pairs)):
            return self._run_with_engine(engine, pairs, started)

    def _run_with_engine(
        self, engine: BatchEngine, pairs: Sequence[QueryPair], started: float
    ) -> BatchReport:
        for q1, q2 in pairs:
            if not isinstance(q1, ConjunctiveQuery) or not isinstance(q2, ConjunctiveQuery):
                raise QueryError("pairs must be (ConjunctiveQuery, ConjunctiveQuery) tuples")

        # Canonical-labeling keys, with the per-side labelings that rename
        # cached evidence onto each requester's variables.
        with obs_tracer.span("canonicalize", pairs=len(pairs)):
            keyed = [pair_key_with_labelings(q1, q2) for q1, q2 in pairs]

        jobs: List[Tuple[QueryPair, Hashable, PairLabelings]] = []
        # Per input pair: ("hit", result, source) | ("job", job_index, source,
        # labelings) — hits resolve immediately, jobs after the engine run.
        placements: List[Tuple] = []
        first_seen: Dict[Hashable, int] = {}
        with obs_tracer.span("plan-cache", pairs=len(pairs)) as cache_span:
            hits = store_hits = duplicates = 0
            for (q1, q2), (key, labelings) in zip(pairs, keyed):
                cached = self.cache.get(key, labelings)
                if cached is not None:
                    self.stats.cache_hits += 1
                    hits += 1
                    placements.append(("hit", cached, "plan-cache"))
                    continue
                if self.store is not None:
                    stored = self.store.get(key)
                    if stored is not None:
                        self.stats.store_hits += 1
                        store_hits += 1
                        # Promote the canonical entry into the memory tier,
                        # then rename onto this requester's variables.
                        self.cache.put(key, stored)
                        mapping1, mapping2 = requester_mappings(labelings)
                        placements.append(
                            ("hit", rename_result(stored, mapping1, mapping2), "store")
                        )
                        continue
                if key in first_seen:
                    self.stats.batch_duplicates += 1
                    duplicates += 1
                    placements.append(("job", first_seen[key], "batch-dedup", labelings))
                    continue
                first_seen[key] = len(jobs)
                placements.append(("job", len(jobs), "solved", labelings))
                jobs.append(((q1, q2), key, labelings))
            cache_span.set(hits=hits, store_hits=store_hits, duplicates=duplicates)

        solved = engine.run_specs([self._spec(q1, q2) for (q1, q2), _, _ in jobs])
        canonical_by_job: Dict[int, ContainmentResult] = {}
        for job_index, (((_, _), key, labelings), result) in enumerate(
            zip(jobs, solved)
        ):
            if result.method in _UNCACHEABLE_METHODS:
                continue
            canonical = self.cache.put(key, result, labelings)
            canonical_by_job[job_index] = canonical
            if self.store is not None:
                pair_seconds = None
                if job_index < len(engine.last_pair_seconds):
                    pair_seconds = engine.last_pair_seconds[job_index]
                self.store.record(
                    key,
                    canonical,
                    provenance={
                        "origin": "containment-service",
                        "created_at": time.time(),
                        "pair_seconds": pair_seconds,
                    },
                )
        if self.store is not None:
            self.store.flush()

        outcomes: List[PairOutcome] = []
        for index, placement in enumerate(placements):
            if placement[0] == "hit":
                _, result, source = placement
            else:
                _, job_index, source, labelings = placement
                result = solved[job_index]
                if source == "batch-dedup":
                    # The duplicate's evidence must be in *its* variables, not
                    # the variables of the batch-mate that ran the pipeline.
                    canonical = canonical_by_job.get(job_index)
                    if canonical is not None:
                        mapping1, mapping2 = requester_mappings(labelings)
                        result = rename_result(canonical, mapping1, mapping2)
            outcomes.append(PairOutcome(index=index, result=result, source=source))
        self.stats.wall_seconds += time.perf_counter() - started
        return BatchReport(
            results=tuple(outcome.result for outcome in outcomes),
            outcomes=tuple(outcomes),
            stats=self.stats.as_dict(),
        )

    def decide_many(self, pairs: Sequence[QueryPair]) -> List[ContainmentResult]:
        """Results only, in submission order (the batch counterpart of
        :func:`repro.core.containment.decide_containment`)."""
        return list(self.run(pairs).results)

    def decide(self, q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> ContainmentResult:
        """Single-pair convenience going through the same cache and engine."""
        return self.decide_many([(q1, q2)])[0]

    def clear_cache(self) -> None:
        self.cache.clear()


def decide_containment_many(
    pairs: Sequence[QueryPair],
    options: Optional[BatchOptions] = None,
    **overrides,
) -> List[ContainmentResult]:
    """Decide many ``Q1 ⊑ Q2`` pairs with dedup, plan caching and grouped LPs.

    Returns one :class:`ContainmentResult` per pair, in order, with statuses
    identical to a per-pair :func:`~repro.core.containment.decide_containment`
    loop.  Keyword overrides are :class:`BatchOptions` fields, e.g.
    ``decide_containment_many(pairs, chunk_size=64, pair_budget=2.0)``.
    """
    return ContainmentService(options, **overrides).decide_many(pairs)
