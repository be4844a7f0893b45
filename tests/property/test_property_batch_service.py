"""Batch-vs-sequential equivalence over generated mixed workloads.

The acceptance property of the batch service: for any workload emitted by
:func:`repro.workloads.generators.mixed_containment_pairs` — including exact
duplicates and isomorphic renamed copies that hit the plan cache —
``decide_containment_many`` returns statuses identical, pair for pair, to a
sequential ``decide_containment`` loop.
"""

import pytest

from repro.core.containment import decide_containment
from repro.service import ContainmentService, decide_containment_many
from repro.workloads.generators import mixed_containment_pairs


def _sequential_statuses(pairs):
    return [decide_containment(q1, q2).status for q1, q2 in pairs]


@pytest.mark.parametrize("seed", range(6))
def test_batch_statuses_equal_sequential(seed):
    pairs = mixed_containment_pairs(24, seed=seed)
    batch = decide_containment_many(pairs)
    assert [r.status for r in batch] == _sequential_statuses(pairs)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("chunk_size", [1, 4, 64])
def test_equivalence_independent_of_chunking(seed, chunk_size):
    pairs = mixed_containment_pairs(16, seed=seed)
    batch = decide_containment_many(pairs, chunk_size=chunk_size)
    assert [r.status for r in batch] == _sequential_statuses(pairs)


def test_cache_hits_preserve_equivalence_across_calls():
    service = ContainmentService()
    pairs = mixed_containment_pairs(18, seed=23)
    first = service.run(pairs)
    second = service.run(pairs)
    sequential = _sequential_statuses(pairs)
    assert [r.status for r in first.results] == sequential
    assert [r.status for r in second.results] == sequential
    # The second pass must be answered entirely without running pipelines.
    assert all(o.source == "plan-cache" for o in second.outcomes)


def test_duplicates_and_isomorphic_pairs_fold_into_one_pipeline():
    service = ContainmentService()
    pairs = mixed_containment_pairs(
        30, seed=29, duplicate_fraction=0.4, isomorphic_fraction=0.4
    )
    report = service.run(pairs)
    folded = sum(1 for o in report.outcomes if o.source == "batch-dedup")
    assert folded == service.stats.batch_duplicates
    assert folded > 0
    assert service.stats.pipelines_run + folded == len(pairs)
    assert [r.status for r in report.results] == _sequential_statuses(pairs)
