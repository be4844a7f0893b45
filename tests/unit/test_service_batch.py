"""Tests for the batch containment service, engine and plan cache."""

from unittest import mock

import pytest

from repro.core.containment import ContainmentStatus, decide_containment
from repro.cq.parser import parse_query
from repro.exceptions import QueryError
from repro.infotheory.maxiip import decide_max_ii, decide_max_ii_many
from repro.service import (
    BatchOptions,
    ContainmentService,
    PlanCache,
    decide_containment_many,
)
from repro.service import engine
from repro.workloads.generators import (
    cycle_query,
    mixed_containment_pairs,
    path_query,
    random_max_ii,
)


TRIANGLE = parse_query("R(x,y), R(y,z), R(z,x)")
VEE = parse_query("R(a,b), R(a,c)")
TRIANGLE_ISO = parse_query("R(u,v), R(v,w), R(w,u)")
PATH3 = parse_query("R(a,b), R(b,c), R(c,d)")


class TestDecideMaxIIMany:
    def test_matches_sequential_over_each_cone(self):
        ground = tuple(f"X{i}" for i in range(1, 5))
        inequalities = [random_max_ii(4, 1 + seed % 3, seed=seed) for seed in range(8)]
        for over in ("gamma", "normal", "modular"):
            single = [
                decide_max_ii(iq, over=over, ground=ground).valid for iq in inequalities
            ]
            many = [
                v.valid
                for v in decide_max_ii_many(inequalities, over=over, ground=ground)
            ]
            assert many == single

    def test_violating_points_actually_violate(self):
        ground = tuple(f"X{i}" for i in range(1, 4))
        inequalities = [random_max_ii(3, 2, seed=seed) for seed in range(10)]
        for verdict, inequality in zip(
            decide_max_ii_many(inequalities, over="gamma", ground=ground), inequalities
        ):
            if not verdict.valid:
                worst = max(
                    branch.with_ground(ground).evaluate(verdict.violating_function)
                    for branch in inequality.branches
                )
                assert worst < 0

    def test_empty_input(self):
        assert decide_max_ii_many([], over="gamma", ground=("A",)) == []

    def test_mixed_grounds_need_explicit_ground(self):
        with pytest.raises(ValueError):
            decide_max_ii_many(
                [random_max_ii(2, 1, seed=0), random_max_ii(3, 1, seed=0)]
            )


class TestContainmentService:
    def test_statuses_match_sequential(self):
        pairs = [
            (TRIANGLE, VEE),
            (PATH3, VEE),
            (cycle_query(4), PATH3),
            (path_query(2), path_query(4)),
        ]
        batch = decide_containment_many(pairs)
        for (q1, q2), result in zip(pairs, batch):
            assert result.status == decide_containment(q1, q2).status

    def test_batch_dedup_of_exact_and_isomorphic_pairs(self):
        service = ContainmentService()
        report = service.run(
            [(TRIANGLE, VEE), (TRIANGLE, VEE), (TRIANGLE_ISO, VEE)]
        )
        assert [o.source for o in report.outcomes] == [
            "solved",
            "batch-dedup",
            "batch-dedup",
        ]
        assert service.stats.pipelines_run == 1
        assert service.stats.batch_duplicates == 2
        statuses = {r.status for r in report.results}
        assert statuses == {ContainmentStatus.CONTAINED}

    def test_plan_cache_across_calls(self):
        service = ContainmentService()
        first = service.run([(TRIANGLE, VEE)])
        second = service.run([(TRIANGLE_ISO, VEE)])
        assert first.outcomes[0].source == "solved"
        assert second.outcomes[0].source == "plan-cache"
        assert service.stats.cache_hits == 1
        assert second.results[0].status == ContainmentStatus.CONTAINED

    def test_chunk_size_one_still_correct(self):
        pairs = mixed_containment_pairs(12, seed=3)
        with mock.patch.object(engine, "CHUNK_SIZE", 1):
            batch = decide_containment_many(pairs)
        for (q1, q2), result in zip(pairs, batch):
            assert result.status == decide_containment(q1, q2).status

    def test_head_arity_mismatch_raises_by_default(self):
        q_headed = parse_query("(x) :- R(x, y)")
        with pytest.raises(QueryError):
            decide_containment_many([(q_headed, VEE)])

    def test_on_error_capture_reports_unknown(self):
        q_headed = parse_query("(x) :- R(x, y)")
        results = decide_containment_many(
            [(q_headed, VEE), (TRIANGLE, VEE)], on_error="capture"
        )
        assert results[0].status == ContainmentStatus.UNKNOWN
        assert results[0].method == "error"
        assert results[1].status == ContainmentStatus.CONTAINED

    def test_pair_budget_zero_reports_budget_exhausted(self):
        results = decide_containment_many(
            [(TRIANGLE, VEE)], pair_budget=0.0, on_error="capture"
        )
        assert results[0].status == ContainmentStatus.UNKNOWN
        assert results[0].method == "budget-exhausted"

    def test_budget_exhausted_results_are_not_cached(self):
        service = ContainmentService(pair_budget=0.0)
        service.run([(TRIANGLE, VEE)])
        assert len(service.cache) == 0

    def test_stats_snapshot_counts_grouped_solves(self):
        service = ContainmentService()
        service.run(mixed_containment_pairs(20, seed=9))
        stats = service.stats.as_dict()
        assert stats["pairs_submitted"] == 20
        assert stats["block_solves"] >= 1
        assert stats["lp_solves_avoided"] >= 1
        assert stats["groups"]

    def test_single_pair_convenience(self):
        service = ContainmentService()
        result = service.decide(TRIANGLE, VEE)
        assert result.status == ContainmentStatus.CONTAINED

    def test_invalid_pair_type_rejected(self):
        with pytest.raises(QueryError):
            decide_containment_many([("not a query", VEE)])

    def test_options_object_with_overrides(self):
        options = BatchOptions(method="sufficient")
        service = ContainmentService(options, pair_budget=2.0)
        assert service.options.method == "sufficient"
        assert service.options.pair_budget == 2.0

    @pytest.mark.parametrize(
        "option",
        [
            {"worker_mode": "thread"},
            {"max_workers": 2},
            {"canonicalize": False},
            {"lp_method": "rowgen"},
            {"chunk_size": 8},
            {"cache_size": 16},
            {"max_witness_rows": 64},
            {"refutation_effort": 2},
        ],
        ids=[
            "worker_mode",
            "max_workers",
            "canonicalize",
            "lp_method",
            "chunk_size",
            "cache_size",
            "max_witness_rows",
            "refutation_effort",
        ],
    )
    def test_removed_option_is_rejected(self, option):
        # The engine runs every round inline, every pair is canonicalized,
        # the row count picks each Γn LP path, and the chunk cap, the plan
        # cache's size and the witness and refutation budgets are constants.
        with pytest.raises(TypeError):
            BatchOptions(**option)


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        sentinel = decide_containment(TRIANGLE, VEE)
        cache.put("a", sentinel)
        cache.put("b", sentinel)
        assert cache.get("a") is sentinel  # refresh "a"
        cache.put("c", sentinel)  # evicts "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_hit_miss_counters(self):
        cache = PlanCache()
        sentinel = decide_containment(TRIANGLE, VEE)
        assert cache.get("missing") is None
        cache.put("k", sentinel)
        assert cache.get("k") is sentinel
        assert cache.hits == 1
        assert cache.misses == 1

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)
