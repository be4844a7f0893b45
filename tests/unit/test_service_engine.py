"""Tests for the batch engine's in-process driver, ``BatchEngine.run_specs``.

Every pipeline meets the same grouped LP answers whatever the thread-pool
width, so results must match the sequential decision pair for pair — with
their evidence — and come back in submission order.
"""

import pickle
import threading

import pytest

from repro.core.containment import ContainmentStatus, decide_containment
from repro.cq.parser import parse_query
from repro.exceptions import QueryError
from repro.service import BatchOptions, ContainmentService, PipelineSpec
from repro.service.engine import BatchEngine
from repro.workloads.generators import mixed_containment_pairs

TRIANGLE = parse_query("R(x,y), R(y,z), R(z,x)")
VEE = parse_query("R(a,b), R(a,c)")
BAD = parse_query("(x) :- R(x, y)")
GOOD = parse_query("R(a,b)")


def evidence(result):
    """Everything a pair's verdict rests on, in comparable form."""
    verdict = result.verdict
    return (
        result.status,
        result.method,
        None if result.inequality is None else result.inequality.branch_expressions(),
        None if verdict is None else verdict.lambdas,
        None
        if verdict is None or verdict.certificate is None
        else verdict.certificate.multipliers,
    )


class TestRunSpecs:
    @pytest.mark.parametrize("max_workers", [1, 2], ids=["inline", "thread-pool"])
    def test_results_match_sequential_in_submission_order(self, max_workers):
        pairs = mixed_containment_pairs(12, seed=5)
        engine = BatchEngine(max_workers=max_workers, chunk_size=4)
        results = engine.run_specs([PipelineSpec(q1=q1, q2=q2) for q1, q2 in pairs])
        sequential = [decide_containment(q1, q2) for q1, q2 in pairs]
        assert [(r.status, r.method) for r in results] == [
            (r.status, r.method) for r in sequential
        ]
        assert engine.stats.pipelines_run == len(pairs)

    def test_empty_spec_list_returns_no_results(self):
        engine = BatchEngine(max_workers=2)
        assert engine.run_specs([]) == []
        assert engine.last_pair_seconds == []
        assert engine.stats.lp_requests == 0

    def test_last_pair_seconds_align_with_results(self):
        engine = BatchEngine()
        specs = [PipelineSpec(q1=TRIANGLE, q2=VEE), PipelineSpec(q1=VEE, q2=TRIANGLE)]
        results = engine.run_specs(specs)
        assert len(engine.last_pair_seconds) == len(results) == 2
        assert all(seconds > 0.0 for seconds in engine.last_pair_seconds)

    def test_spec_round_trips_through_pickle(self):
        spec = PipelineSpec(q1=TRIANGLE, q2=VEE, method="auto", refutation_effort=2)
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.q1.atoms == TRIANGLE.atoms
        [result] = BatchEngine().run_specs([restored])
        assert result.status == ContainmentStatus.CONTAINED

    @pytest.mark.parametrize(
        "knob",
        [
            {"chunk_size": 0},
            {"max_workers": 0},
            {"on_error": "ignore"},
            {"lp_method": "simplex"},
        ],
        ids=["chunk_size", "max_workers", "on_error", "lp_method"],
    )
    def test_rejects_invalid_knob(self, knob):
        with pytest.raises(ValueError):
            BatchEngine(**knob)


class TestThreadPool:
    def test_pair_errors_are_captured(self):
        engine = BatchEngine(max_workers=2, on_error="capture")
        results = engine.run_specs(
            [PipelineSpec(q1=BAD, q2=GOOD), PipelineSpec(q1=TRIANGLE, q2=VEE)]
        )
        assert results[0].status == ContainmentStatus.UNKNOWN
        assert results[0].method == "error"
        assert results[1].status == ContainmentStatus.CONTAINED
        assert engine.stats.pair_errors == 1

    def test_pair_error_raises_by_default_and_releases_the_pool(self):
        before = set(threading.enumerate())
        engine = BatchEngine(max_workers=3)
        with pytest.raises(QueryError):
            engine.run_specs(
                [PipelineSpec(q1=TRIANGLE, q2=VEE), PipelineSpec(q1=BAD, q2=GOOD)]
            )
        assert set(threading.enumerate()) <= before

    def test_pool_threads_do_not_outlive_a_run(self):
        before = set(threading.enumerate())
        engine = BatchEngine(max_workers=3)
        pairs = mixed_containment_pairs(6, seed=4)
        engine.run_specs([PipelineSpec(q1=q1, q2=q2) for q1, q2 in pairs])
        assert set(threading.enumerate()) <= before

    def test_zero_pair_budget_closes_pairs_awaiting_an_lp(self):
        # TRIANGLE ⊑ VEE needs a Γn decision; VEE ⊑ TRIANGLE is settled on
        # its first step, before any budget check can close it.
        engine = BatchEngine(max_workers=2, pair_budget=0.0)
        results = engine.run_specs(
            [
                PipelineSpec(q1=TRIANGLE, q2=VEE),
                PipelineSpec(q1=TRIANGLE, q2=VEE),
                PipelineSpec(q1=VEE, q2=TRIANGLE),
            ]
        )
        assert [r.method for r in results[:2]] == ["budget-exhausted"] * 2
        assert results[2].status == decide_containment(VEE, TRIANGLE).status
        assert engine.stats.pairs_over_budget == 2

    def test_single_pair_and_dedup(self):
        service = ContainmentService(BatchOptions(max_workers=2))
        report = service.run([(TRIANGLE, VEE), (TRIANGLE, VEE)])
        assert [r.status for r in report.results] == [
            ContainmentStatus.CONTAINED,
            ContainmentStatus.CONTAINED,
        ]
        assert report.outcomes[1].source == "batch-dedup"
        again = service.run([(TRIANGLE, VEE)])
        assert again.outcomes[0].source == "plan-cache"

    def test_pool_width_leaves_verdicts_and_evidence_unchanged(self):
        # 32 mixed pairs: Theorem 3.1 routes, general routes, no-homomorphism
        # refutations, head variables, duplicates and isomorphic copies.
        pairs = mixed_containment_pairs(32, seed=11)
        inline = ContainmentService(
            BatchOptions(max_workers=1, on_error="capture")
        ).run(pairs)
        pooled = ContainmentService(
            BatchOptions(max_workers=4, on_error="capture")
        ).run(pairs)
        assert [o.source for o in inline.outcomes] == [o.source for o in pooled.outcomes]
        assert [evidence(r) for r in inline.results] == [
            evidence(r) for r in pooled.results
        ]
