"""Tests for batch deadlines: shed pairs are UNKNOWN answers, never errors."""

import pytest

from repro.core.containment import ContainmentStatus
from repro.cq.parser import parse_query
from repro.service import BatchOptions, ContainmentService
from repro.service.engine import BatchEngine
from repro.workloads.generators import mixed_containment_pairs

TRIANGLE = parse_query("R(x,y), R(y,z), R(z,x)")
VEE = parse_query("R(a,b), R(a,c)")


class TestDeadline:
    def test_rejects_negative_deadline(self):
        with pytest.raises(ValueError):
            BatchEngine(deadline=-1.0)

    def test_zero_deadline_sheds_every_pair_without_raising(self):
        report = ContainmentService(BatchOptions(deadline=0.0)).run(
            [(TRIANGLE, VEE), (VEE, TRIANGLE)]
        )
        for result in report.results:
            assert result.status == ContainmentStatus.UNKNOWN
            assert result.method == "deadline-exceeded"
        assert report.stats["pairs_deadline_exceeded"] == 2

    def test_per_call_deadline_overrides_options(self):
        service = ContainmentService()
        shed = service.run([(TRIANGLE, VEE)], deadline=0.0)
        assert shed.results[0].method == "deadline-exceeded"
        solved = service.run([(TRIANGLE, VEE)])
        assert solved.results[0].status == ContainmentStatus.CONTAINED

    def test_deadline_exceeded_results_are_not_cached(self):
        service = ContainmentService()
        service.run([(TRIANGLE, VEE)], deadline=0.0)
        report = service.run([(TRIANGLE, VEE)])
        assert report.outcomes[0].source == "solved"
        assert report.results[0].status == ContainmentStatus.CONTAINED

    def test_generous_deadline_changes_nothing(self):
        pairs = mixed_containment_pairs(6, seed=2)
        unbounded = ContainmentService(BatchOptions(on_error="capture")).run(pairs)
        bounded = ContainmentService(
            BatchOptions(on_error="capture", deadline=600.0)
        ).run(pairs)
        assert [r.status for r in unbounded.results] == [
            r.status for r in bounded.results
        ]
