"""Tests for the batch engine's entry point, ``BatchEngine.run_specs``.

The engine runs every round inline; its results must match the sequential
decision pair for pair and come back in submission order.
"""

import pickle
from unittest import mock

import pytest

from repro.core.containment import ContainmentStatus, decide_containment
from repro.cq.parser import parse_query
from repro.exceptions import QueryError
from repro.service import ContainmentService, PipelineSpec
from repro.service import engine as engine_module
from repro.service.engine import BatchEngine
from repro.workloads.generators import mixed_containment_pairs

TRIANGLE = parse_query("R(x,y), R(y,z), R(z,x)")
VEE = parse_query("R(a,b), R(a,c)")
BAD = parse_query("(x) :- R(x, y)")
GOOD = parse_query("R(a,b)")


class TestRunSpecs:
    def test_results_match_sequential_in_submission_order(self):
        pairs = mixed_containment_pairs(12, seed=5)
        engine = BatchEngine()
        with mock.patch.object(engine_module, "CHUNK_SIZE", 4):
            results = engine.run_specs([PipelineSpec(q1=q1, q2=q2) for q1, q2 in pairs])
        sequential = [decide_containment(q1, q2) for q1, q2 in pairs]
        assert [(r.status, r.method) for r in results] == [
            (r.status, r.method) for r in sequential
        ]
        assert engine.stats.pipelines_run == len(pairs)

    def test_empty_spec_list_returns_no_results(self):
        engine = BatchEngine()
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
        spec = PipelineSpec(q1=TRIANGLE, q2=VEE, method="sufficient")
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.q1.atoms == TRIANGLE.atoms
        [result] = BatchEngine().run_specs([restored])
        assert result.status == ContainmentStatus.CONTAINED

    def test_rejects_invalid_on_error(self):
        with pytest.raises(ValueError):
            BatchEngine(on_error="ignore")


class TestBatchBehaviour:
    def test_pair_errors_are_captured(self):
        engine = BatchEngine(on_error="capture")
        results = engine.run_specs(
            [PipelineSpec(q1=BAD, q2=GOOD), PipelineSpec(q1=TRIANGLE, q2=VEE)]
        )
        assert results[0].status == ContainmentStatus.UNKNOWN
        assert results[0].method == "error"
        assert results[1].status == ContainmentStatus.CONTAINED
        assert engine.stats.pair_errors == 1

    def test_pair_error_raises_by_default(self):
        engine = BatchEngine()
        with pytest.raises(QueryError):
            engine.run_specs(
                [PipelineSpec(q1=TRIANGLE, q2=VEE), PipelineSpec(q1=BAD, q2=GOOD)]
            )

    def test_zero_pair_budget_closes_pairs_awaiting_an_lp(self):
        # TRIANGLE ⊑ VEE needs a Γn decision; VEE ⊑ TRIANGLE is settled on
        # its first step, before any budget check can close it.
        engine = BatchEngine(pair_budget=0.0)
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
        service = ContainmentService()
        report = service.run([(TRIANGLE, VEE), (TRIANGLE, VEE)])
        assert [r.status for r in report.results] == [
            ContainmentStatus.CONTAINED,
            ContainmentStatus.CONTAINED,
        ]
        assert report.outcomes[1].source == "batch-dedup"
        again = service.run([(TRIANGLE, VEE)])
        assert again.outcomes[0].source == "plan-cache"
