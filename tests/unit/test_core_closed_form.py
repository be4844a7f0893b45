"""Closed-form Shannon proofs for pairs with an onto homomorphism.

When some ``φ ∈ hom(Q2, Q1)`` is onto ``vars(Q1)``, the pipeline proves the
pair with ``λ = e_ℓ`` and an integer proof of ``E_ℓ − h(V)``
(:func:`repro.core.containment.closed_form_verdict`) and asks the ``Γn`` LP
nothing.  Checked on the ``batch-cold`` benchmark catalogue, E13 and the
corpus, sequential and batched, with the store audited; pairs that need
several branches must still reach the block LP and record its duals.  The
proof is built from the rows it uses, so no arity's subset lattice is built.
"""

from __future__ import annotations

import pytest
from multi_branch_pairs import MULTI_BRANCH_PAIRS
from pair_sets import PAIR_SETS

from repro.core.containment import (
    ContainmentStatus,
    closed_form_verdict,
    containment_pipeline,
    decide_containment,
)
from repro.cq.query import Atom, ConjunctiveQuery
from repro.service import BatchOptions, ContainmentService
from repro.service.canonical import pair_key
from repro.store import VerdictStore, verify_store
from repro.utils import lattice
from repro.workloads.generators import path_query


def onto_branches(inequality):
    ground = set(inequality.ground)
    return [
        index
        for index, branch in enumerate(inequality.branches)
        if set(branch.homomorphism.values()) == ground
    ]


def assert_closed_form(result):
    """``λ`` is ``e_ℓ`` for the first onto branch, and the proof of
    ``E_ℓ − h(V)`` has positive integer multipliers and sums exactly."""
    inequality, verdict = result.inequality, result.verdict
    onto = onto_branches(inequality)[0]
    assert verdict.lambdas == tuple(
        float(index == onto) for index in range(len(inequality.branches))
    )
    assert all(
        multiplier >= 1 and multiplier == int(multiplier)
        for _, multiplier in verdict.certificate.multipliers
    )
    target = inequality.as_max_ii().branches[onto]
    assert verdict.certificate.verify(target, tolerance=0.0)


@pytest.mark.parametrize("name", sorted(PAIR_SETS))
def test_contained_pairs_with_an_onto_branch_carry_exact_closed_form_proofs(name, tmp_path):
    pairs = PAIR_SETS[name]()
    sequential = [decide_containment(q1, q2) for q1, q2 in pairs]
    store_path = str(tmp_path / "closed-form.sqlite")
    with ContainmentService(BatchOptions(store_path=store_path)) as service:
        batched = service.run(pairs).results
    closed = 0
    for alone, in_batch in zip(sequential, batched):
        assert (alone.status, alone.method) == (in_batch.status, in_batch.method)
        if alone.status is ContainmentStatus.CONTAINED and onto_branches(alone.inequality):
            assert_closed_form(alone)
            assert_closed_form(in_batch)
            closed += 1
    assert closed == {"batch-cold": 20, "e13": 49, "corpus": 6}[name]
    contained = {
        pair_key(*pair)
        for pair, result in zip(pairs, sequential)
        if result.status is ContainmentStatus.CONTAINED
    }
    with VerdictStore(store_path) as store:
        report = verify_store(store)
    assert report.ok and report.certificates == len(contained)


@pytest.mark.parametrize("name", sorted(MULTI_BRANCH_PAIRS))
def test_pairs_without_an_onto_branch_still_reach_the_block_lp(name, tmp_path):
    q1, q2 = MULTI_BRANCH_PAIRS[name]
    request = next(containment_pipeline(q1, q2))
    assert request.over == "gamma" and request.seed == "containment"
    store_path = str(tmp_path / "lp.sqlite")
    with ContainmentService(BatchOptions(store_path=store_path)) as service:
        (result,) = service.run([(q1, q2)]).results
        block_solves = service.stats.as_dict()["block_solves"]
    assert result.status is ContainmentStatus.CONTAINED
    assert not onto_branches(result.inequality)
    assert closed_form_verdict(result.inequality) is None
    assert block_solves >= 1
    # λ and the proof are the block LP's duals: several branches weigh in.
    assert sum(weight > 0 for weight in result.verdict.lambdas) >= 2
    with VerdictStore(store_path) as store:
        ((_, record),) = list(store.records())
        report = verify_store(store)
    assert record["evidence"]["certificate"]["lambdas"] == list(result.verdict.lambdas)
    assert report.ok and report.certificates == 1


def test_a_closed_form_proof_builds_no_subset_lattice(monkeypatch):
    # path_15 plus the chord R(x0, x15) ⊑ path_15: 16 variables, onto.  A
    # lattice of the arity would hold 2^16 subsets and C(16,2)·2^14 rows.
    def no_lattice(ground):
        raise AssertionError(f"a subset lattice of {len(ground)} variables was built")

    # Every lattice_context miss builds a SubsetLattice; start with none.
    lattice.lattice_context.cache_clear()
    monkeypatch.setattr(lattice, "SubsetLattice", no_lattice)
    path = path_query(15)
    chord = Atom("R", ("x0", "x15"))
    result = decide_containment(ConjunctiveQuery(atoms=path.atoms + (chord,), head=()), path)
    assert result.status is ContainmentStatus.CONTAINED
    assert_closed_form(result)
    assert len(result.verdict.certificate.ground) == 16
