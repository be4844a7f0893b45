"""The batch engine: many containment pipelines, few LP solves.

The engine drives a set of per-pair containment pipelines
(:func:`repro.core.containment.containment_pipeline`) in *rounds*.  In every
round each still-active pipeline has exactly one pending
:class:`~repro.core.containment.ConeDecisionRequest`; the engine answers all
of them at once:

* **Shannon-cone requests** (``over="gamma"`` — every pair's Theorem 3.1 /
  Theorem 4.2 check issues one, unless a homomorphism onto ``vars(Q1)``
  lets the pipeline prove the pair in closed form and issue none) are
  grouped by ground arity (and seed hint).  Each group's inequalities are
  renamed onto a shared canonical ground tuple — an order-preserving
  positional rename, so the LP matrices are bit-for-bit the ones the
  sequential path would build — and decided in chunks of at most
  :data:`CHUNK_SIZE` through
  :func:`repro.infotheory.maxiip.decide_max_ii_many`, one call per chunk.
  The arity picks how each block carries the ``Γn``
  description: up to ``n = 7`` the dense path stacks one full
  elemental-matrix copy per pair into one block-diagonal HiGHS solve, and
  from ``n = 8`` row generation gives every block a small lazily-grown
  active row set on its own warm-started model — so chunks of large-arity
  pairs never multiply the ~``C(n,2)·2^(n-2)``-row matrix by the chunk
  size, and a rowgen block's verdict and certificate do not depend on its
  chunk-mates.
* **Refutation requests** (``over`` in ``{"normal", "modular"}`` — the rare
  tail after a failed Γn check) are answered by individual
  :func:`decide_max_ii` calls, exactly as the sequential driver would: the
  violating generator coefficients feed the Theorem 3.4 witness
  constructions, and answering them from a joint solve could select a
  different vertex of the same polyhedron than the sequential path.

The engine runs every round inline on the calling thread.  Parallelism
across cores comes from fleet replicas, one process each
(:mod:`repro.service.fleet`).

Where the engine sits between the decision core and the serving layers is
diagrammed in ``docs/architecture.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.containment import (
    ConeDecisionRequest,
    ContainmentPipeline,
    ContainmentResult,
    ContainmentStatus,
    containment_pipeline,
)
from repro.cq.query import ConjunctiveQuery
from repro.exceptions import ReproError
from repro.infotheory.expressions import MaxInformationInequality
from repro.infotheory.maxiip import MaxIIVerdict, decide_max_ii, decide_max_ii_many
from repro.infotheory.setfunction import SetFunction
from repro.obs import tracer as obs_tracer
from repro.service.evidence import rename_certificate
from repro.service.stats import GroupTiming, ServiceStats

#: Most same-arity ``Γn`` requests folded into one block-LP call, read at
#: call time.  It does not bind on the benchmark's cold batches: their
#: largest same-arity group is 17 pairs.
CHUNK_SIZE = 32


def _canonical_ground(size: int) -> Tuple[str, ...]:
    """The shared ground tuple all size-``n`` grouped requests are renamed onto."""
    return tuple(f"v{i}" for i in range(size))


def _rename_max_ii(
    max_ii: MaxInformationInequality,
    mapping: Dict[str, str],
    ground: Tuple[str, ...],
) -> MaxInformationInequality:
    return MaxInformationInequality(
        branches=tuple(branch.substitute(mapping, ground) for branch in max_ii.branches)
    )


def _verdict_to_original(
    verdict: MaxIIVerdict, original_ground: Tuple[str, ...]
) -> MaxIIVerdict:
    """Translate a verdict over the canonical ground back to the pair's names.

    The rename is positional and order-preserving, so the dense value vector
    of a violating function carries over unchanged, and so do the branch
    order of ``λ`` and the proof's multipliers.
    """
    if verdict.violating_function is None:
        mapping = dict(zip(_canonical_ground(len(original_ground)), original_ground))
        return replace(
            verdict, certificate=rename_certificate(verdict.certificate, mapping)
        )
    function = SetFunction.from_vector(
        original_ground, verdict.violating_function.to_vector()
    )
    return MaxIIVerdict(
        valid=verdict.valid,
        cone=verdict.cone,
        violating_function=function,
        violating_coefficients=None,
    )


@dataclass(frozen=True)
class PipelineSpec:
    """One pair's containment pipeline parameters.

    The service hands the engine these instead of live generators;
    :meth:`build` makes the pipeline generator the engine drives.
    """

    q1: ConjunctiveQuery
    q2: ConjunctiveQuery
    method: str = "auto"

    def build(self) -> ContainmentPipeline:
        return containment_pipeline(self.q1, self.q2, method=self.method)


class _PairRun:
    """Bookkeeping for one pipeline the engine drives."""

    __slots__ = (
        "pipeline",
        "request",
        "result",
        "error",
        "elapsed",
        "index",
        "span",
        "started_at",
        "finalized",
    )

    def __init__(self, pipeline: ContainmentPipeline, index: int):
        self.pipeline = pipeline
        self.request: Optional[ConeDecisionRequest] = None
        self.result: Optional[ContainmentResult] = None
        self.error: Optional[Exception] = None
        self.elapsed = 0.0
        self.index = index
        self.span = obs_tracer.NULL_SPAN
        self.started_at = time.perf_counter()
        self.finalized = False

    @property
    def active(self) -> bool:
        return self.result is None and self.error is None


class BatchEngine:
    """Round-based driver for a batch of containment pipelines.

    Parameters
    ----------
    pair_budget:
        Optional per-pair wall-clock budget in seconds, measured over the
        pair's pipeline stages.  A pair that exceeds it is closed out with an
        UNKNOWN ``"budget-exhausted"`` result instead of blocking the batch.
    deadline:
        Optional wall-clock deadline in seconds for the *whole* run.  Checked
        at round boundaries; pairs still unresolved when it expires are
        closed out with UNKNOWN ``"deadline-exceeded"`` results (never an
        exception — shed work is an answer, not a failure).  A deadline of 0
        sheds everything before any pipeline work.
    on_error:
        ``"raise"`` propagates a pair's exception (mirroring the sequential
        loop); ``"capture"`` converts it into an UNKNOWN ``"error"`` result
        so one malformed pair cannot fail a whole batch.
    """

    def __init__(
        self,
        pair_budget: Optional[float] = None,
        on_error: str = "raise",
        stats: Optional[ServiceStats] = None,
        deadline: Optional[float] = None,
    ):
        if on_error not in ("raise", "capture"):
            raise ValueError("on_error must be 'raise' or 'capture'")
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be non-negative (or None)")
        self.pair_budget = pair_budget
        self.deadline = deadline
        self.on_error = on_error
        self.stats = stats if stats is not None else ServiceStats()
        # Per-pair pipeline seconds of the most recent run (see _collect).
        self.last_pair_seconds: List[float] = []

    # ------------------------------------------------------------------ #
    # Pipeline advancement
    # ------------------------------------------------------------------ #
    def _budget_result(self, elapsed: float) -> ContainmentResult:
        return ContainmentResult(
            status=ContainmentStatus.UNKNOWN,
            method="budget-exhausted",
            details={
                "note": "per-pair budget exceeded inside the batch engine",
                "budget_seconds": self.pair_budget,
                "elapsed_seconds": elapsed,
            },
        )

    def _deadline_result(self) -> ContainmentResult:
        return ContainmentResult(
            status=ContainmentStatus.UNKNOWN,
            method="deadline-exceeded",
            details={
                "note": "the batch deadline expired before this pair was decided",
                "deadline_seconds": self.deadline,
            },
        )

    def _finalize_run(self, run: _PairRun) -> None:
        """Close out a finished run's telemetry (idempotent).

        Observes the pair's end-to-end latency — creation to completion,
        LP rounds included — and finishes its span with the outcome.
        """
        if run.active or run.finalized:
            return
        run.finalized = True
        self.stats.observe_pair_seconds(time.perf_counter() - run.started_at)
        if run.error is not None:
            run.span.finish(outcome="error")
        else:
            run.span.finish(
                outcome=run.result.status.value, method=run.result.method
            )

    def _shed_expired(
        self, runs: Sequence[_PairRun], deadline_at: Optional[float]
    ) -> bool:
        """Close every still-active run once the batch deadline has passed."""
        if deadline_at is None or time.perf_counter() < deadline_at:
            return False
        for run in runs:
            if run.active:
                run.pipeline.close()
                run.request = None
                run.result = self._deadline_result()
                self.stats.count_deadline_exceeded()
                self._finalize_run(run)
        return True

    def _advance(self, run: _PairRun, verdict: Optional[MaxIIVerdict]) -> None:
        """Step one pipeline to its next request (or completion)."""
        started = time.perf_counter()
        try:
            if verdict is None:
                run.request = next(run.pipeline)
            else:
                run.request = run.pipeline.send(verdict)
        except StopIteration as stop:
            run.request = None
            run.result = stop.value
        except ReproError as error:
            run.request = None
            run.error = error
        elapsed = time.perf_counter() - started
        run.elapsed += elapsed
        obs_tracer.record_span(
            "advance", started, elapsed, parent=run.span.id, index=run.index
        )
        self._enforce_budget(run)
        self._finalize_run(run)

    def _enforce_budget(self, run: _PairRun) -> None:
        if (
            run.active
            and self.pair_budget is not None
            and run.elapsed > self.pair_budget
        ):
            run.pipeline.close()
            run.request = None
            run.result = self._budget_result(run.elapsed)
            self.stats.count_over_budget()

    # ------------------------------------------------------------------ #
    # Request answering
    # ------------------------------------------------------------------ #
    def _solve_gamma_chunk(
        self, chunk: List[_PairRun]
    ) -> List[Tuple[_PairRun, MaxIIVerdict]]:
        """Decide one chunk of same-arity Γn requests in one block-LP call."""
        size = len(chunk[0].request.ground)
        canonical = _canonical_ground(size)
        renamed: List[MaxInformationInequality] = []
        for run in chunk:
            mapping = dict(zip(run.request.ground, canonical))
            renamed.append(_rename_max_ii(run.request.max_ii, mapping, canonical))
        rows = sum(len(max_ii.branches) for max_ii in renamed)
        # The span is pushed on the thread's span stack: it nests under the
        # batch span, and the rowgen round spans recorded inside the solve
        # nest under it.
        with obs_tracer.span(
            "lp-chunk",
            cone="gamma",
            ground_size=size,
            requests=len(chunk),
            rows=rows,
        ):
            started = time.perf_counter()
            verdicts = decide_max_ii_many(
                renamed,
                over="gamma",
                ground=canonical,
                seed=chunk[0].request.seed,
            )
        self.stats.record_chunk(
            GroupTiming(
                cone="gamma",
                ground_size=size,
                requests=len(chunk),
                rows=rows,
                seconds=time.perf_counter() - started,
            )
        )
        return [
            (run, _verdict_to_original(verdict, run.request.ground))
            for run, verdict in zip(chunk, verdicts)
        ]

    def _solve_scalar(self, run: _PairRun) -> Tuple[_PairRun, MaxIIVerdict]:
        request = run.request
        self.stats.count_scalar_solve()
        with obs_tracer.span(
            "lp-scalar",
            parent=run.span.id,
            over=request.over,
            ground_size=len(request.ground),
        ):
            verdict = decide_max_ii(
                request.max_ii,
                over=request.over,
                ground=request.ground,
                seed=request.seed,
            )
        return run, verdict

    def _answer_round(self, pending: List[_PairRun]) -> List[Tuple[_PairRun, MaxIIVerdict]]:
        self.stats.lp_requests += len(pending)
        # Group by (arity, seed): all of a chunk's requests share one block
        # LP call, so they must agree on the ``Γn`` seed row set too (in
        # practice every pipeline's gamma request carries seed="containment").
        grouped: Dict[Tuple[int, str], List[_PairRun]] = {}
        scalar: List[_PairRun] = []
        for run in pending:
            if run.request.over == "gamma":
                key = (len(run.request.ground), run.request.seed)
                grouped.setdefault(key, []).append(run)
            else:
                scalar.append(run)
        answers: List[Tuple[_PairRun, MaxIIVerdict]] = []
        for key in sorted(grouped):
            group = grouped[key]
            for start in range(0, len(group), CHUNK_SIZE):
                answers.extend(self._solve_gamma_chunk(group[start : start + CHUNK_SIZE]))
        answers.extend(self._solve_scalar(run) for run in scalar)
        return answers

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run_specs(self, specs: Sequence[PipelineSpec]) -> List[ContainmentResult]:
        """Drive every pair's pipeline to completion; results in submission order."""
        runs = [_PairRun(spec.build(), index) for index, spec in enumerate(specs)]
        self.stats.pipelines_run += len(runs)
        deadline_at = (
            None if self.deadline is None else time.perf_counter() + self.deadline
        )
        # Pair and LP-chunk spans nest under the batch span through the
        # thread's span stack.
        with obs_tracer.span("batch", pairs=len(runs)):
            for run in runs:
                run.span = obs_tracer.start_span("pair", index=run.index)
            if not self._shed_expired(runs, deadline_at):
                for run in runs:
                    self._advance(run, None)
            while True:
                self._shed_expired(runs, deadline_at)
                pending = [run for run in runs if run.active and run.request is not None]
                if not pending:
                    break
                for run, verdict in self._answer_round(pending):
                    self._advance(run, verdict)
        return self._collect(runs)

    def _collect(self, runs: Sequence[_PairRun]) -> List[ContainmentResult]:
        # Per-pair pipeline wall clock, index-aligned with the returned
        # results; the service records it as store provenance.
        self.last_pair_seconds = [run.elapsed for run in runs]
        results: List[ContainmentResult] = []
        for run in runs:
            if run.error is not None:
                if self.on_error == "raise":
                    raise run.error
                self.stats.pair_errors += 1
                results.append(
                    ContainmentResult(
                        status=ContainmentStatus.UNKNOWN,
                        method="error",
                        details={"error": str(run.error)},
                    )
                )
            else:
                results.append(run.result)
        return results
