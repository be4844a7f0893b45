"""Renaming-equivalence of cached and stored evidence.

The headline bugfix: a plan-cache or store hit must return its witness and
inequality in the *requesting* pair's variable names, not in the names of
whichever isomorphic representative was solved first.  These tests lock
that contract for both tiers, plus the provenance tags and the semantics of
``PlanCache.__contains__`` / ``peek``.  Hits must also carry the same
evidence as a fresh solve: every CONTAINED result, solved or replayed,
carries a Theorem 6.1 proof in the requester's variables.
"""

from dataclasses import replace

import pytest
from pair_sets import PAIR_SETS

from repro.core.containment import ContainmentStatus, decide_containment
from repro.core.witness import verify_witness
from repro.cq.parser import parse_query
from repro.cq.reductions import to_boolean_pair
from repro.infotheory.expressions import LinearExpression
from repro.service import BatchOptions, ContainmentService
from repro.service import cache as cache_module
from repro.service import service as service_module
from repro.service.cache import PlanCache
from repro.service.canonical import pair_key_with_labelings
from repro.service.daemon import ContainmentDaemon
from repro.service.evidence import rename_result, requester_mappings
from repro.service.protocol import (
    BatchRequest,
    PairSpec,
    encode_request,
    parse_batch_response,
)

# Two isomorphic copies of each pair with disjoint variable vocabularies, so
# any evidence leaking the representative's names is unmistakable.
TRIANGLE_A = parse_query("R(x,y), R(y,z), R(z,x)")
VEE_A = parse_query("R(a,b), R(a,c)")
TRIANGLE_B = parse_query("R(p,q), R(q,r), R(r,p)")
VEE_B = parse_query("R(m,n), R(m,o)")

PATH_A = parse_query("R(x,y), R(y,z)")
EDGE_A = parse_query("R(a,b)")
PATH_B = parse_query("R(u,v), R(v,w)")
EDGE_B = parse_query("R(s,t)")


def _variables(query):
    return set(query.variables)


def assert_evidence_in_requester_variables(result, q1, q2):
    """Every piece of evidence mentions only the requester's variables."""
    boolean_q1, boolean_q2 = to_boolean_pair(q1, q2)
    allowed_q1 = _variables(boolean_q1)
    allowed_q2 = _variables(boolean_q2)
    if result.inequality is not None:
        inequality = result.inequality
        assert set(inequality.ground) <= allowed_q1
        assert _variables(inequality.q1) <= allowed_q1
        assert _variables(inequality.q2) <= allowed_q2
        for branch in inequality.branches:
            for bag in branch.decomposition.bags:
                assert set(bag) <= allowed_q2
            assert set(branch.homomorphism) <= allowed_q2
            assert set(branch.homomorphism.values()) <= allowed_q1
    if result.witness is not None and result.witness.relation is not None:
        assert set(result.witness.relation.attributes) <= allowed_q1
    if result.verdict is not None and result.verdict.certificate is not None:
        assert set(result.verdict.certificate.ground) <= allowed_q1
        assert_proof_certifies_own_inequality(result, q1, q2)
    if result.status is ContainmentStatus.CONTAINED:
        assert result.verdict is not None and result.verdict.certificate is not None


def assert_proof_certifies_own_inequality(result, q1, q2):
    """The carried proof sums to ``Σλ_ℓ (E_ℓ − h(V))`` in the result's variables.

    A store hit does not persist its inequality; the requester's own
    sequential solve rebuilds it (the Eq. (8) branches of isomorphic pairs
    come out in the same order).
    """
    verdict = result.verdict
    inequality = result.inequality
    if inequality is None:
        inequality = decide_containment(q1, q2).inequality
    branches = inequality.as_max_ii().branches
    assert verdict.lambdas is not None and len(verdict.lambdas) == len(branches)
    combined = LinearExpression.zero(inequality.ground)
    for weight, branch in zip(verdict.lambdas, branches):
        combined = combined + weight * branch
    assert verdict.certificate.verify(combined)


class TestCacheHitRenaming:
    def test_contained_hit_is_renamed_and_tagged(self):
        service = ContainmentService(BatchOptions())
        try:
            (solved,) = service.run([(TRIANGLE_A, VEE_A)]).outcomes
            (hit,) = service.run([(TRIANGLE_B, VEE_B)]).outcomes
        finally:
            service.close()
        assert solved.source == "solved" and solved.result.provenance == "solved"
        assert hit.source == "plan-cache"
        assert hit.result.provenance == "cache-hit"
        assert hit.result.status is ContainmentStatus.CONTAINED
        assert_evidence_in_requester_variables(solved.result, TRIANGLE_A, VEE_A)
        assert_evidence_in_requester_variables(hit.result, TRIANGLE_B, VEE_B)

    def test_refuted_hit_witness_still_verifies_for_the_requester(self):
        service = ContainmentService(BatchOptions())
        try:
            service.run([(PATH_A, EDGE_A)])
            (hit,) = service.run([(PATH_B, EDGE_B)]).outcomes
        finally:
            service.close()
        assert hit.result.status is ContainmentStatus.NOT_CONTAINED
        assert hit.result.provenance == "cache-hit"
        assert_evidence_in_requester_variables(hit.result, PATH_B, EDGE_B)
        # The witness database separates the requester's own Boolean pair
        # with exactly the stored counts.
        witness = hit.result.witness
        boolean_q1, boolean_q2 = to_boolean_pair(PATH_B, EDGE_B)
        recounted = verify_witness(boolean_q1, boolean_q2, witness.database)
        assert recounted is not None
        assert (recounted.hom_q1, recounted.hom_q2) == (
            witness.hom_q1,
            witness.hom_q2,
        )

    def test_contained_batch_dedup_carries_a_renamed_proof(self):
        service = ContainmentService(BatchOptions())
        try:
            solved, duplicate = service.run(
                [(TRIANGLE_A, VEE_A), (TRIANGLE_B, VEE_B)]
            ).outcomes
        finally:
            service.close()
        assert (solved.source, duplicate.source) == ("solved", "batch-dedup")
        assert_evidence_in_requester_variables(solved.result, TRIANGLE_A, VEE_A)
        assert_evidence_in_requester_variables(duplicate.result, TRIANGLE_B, VEE_B)

    def test_batch_dedup_result_is_renamed_too(self):
        # Isomorphic pairs in the same batch: the second folds into the first.
        service = ContainmentService(BatchOptions())
        try:
            report = service.run([(PATH_A, EDGE_A), (PATH_B, EDGE_B)])
            duplicate = None
            for outcome in report.outcomes:
                if outcome.source == "batch-dedup":
                    duplicate = outcome
            assert duplicate is not None
            assert_evidence_in_requester_variables(duplicate.result, PATH_B, EDGE_B)
        finally:
            service.close()


class TestStoreHitRenaming:
    def test_store_hit_is_renamed_and_tagged(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        service = ContainmentService(BatchOptions(store_path=path))
        try:
            service.run([(TRIANGLE_A, VEE_A), (PATH_A, EDGE_A)])
        finally:
            service.close()

        restarted = ContainmentService(BatchOptions(store_path=path))
        try:
            report = restarted.run([(TRIANGLE_B, VEE_B), (PATH_B, EDGE_B)])
            contained, refuted = report.outcomes
            assert contained.source == "store"
            assert contained.result.provenance == "store-hit"
            assert contained.result.status is ContainmentStatus.CONTAINED
            assert_evidence_in_requester_variables(
                contained.result, TRIANGLE_B, VEE_B
            )
            assert refuted.source == "store"
            assert refuted.result.status is ContainmentStatus.NOT_CONTAINED
            assert_evidence_in_requester_variables(refuted.result, PATH_B, EDGE_B)
            witness = refuted.result.witness
            boolean_q1, boolean_q2 = to_boolean_pair(PATH_B, EDGE_B)
            assert verify_witness(boolean_q1, boolean_q2, witness.database) is not None
            assert restarted.stats.pipelines_run == 0
            assert restarted.stats.store_hits == 2
        finally:
            restarted.close()


class TestContainsAndPeekSemantics:
    def test_contains_counts_and_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", object())
        cache.put("b", object())
        # A membership probe is a first-class read: it counts …
        assert "a" in cache
        assert "missing" not in cache
        assert cache.hits == 1 and cache.misses == 1
        # … and refreshes recency: "a" was just probed, so "b" evicts first.
        cache.put("c", object())
        assert cache.peek("a") is not None
        assert cache.peek("b") is None

    def test_peek_is_side_effect_free(self):
        cache = PlanCache(maxsize=2)
        first = object()
        cache.put("a", first)
        cache.put("b", object())
        assert cache.peek("a") is first
        assert cache.peek("missing") is None
        assert cache.hits == 0 and cache.misses == 0
        # peek must not refresh recency: "a" is still the eviction candidate.
        cache.put("c", object())
        assert cache.peek("a") is None


def _renamed(pair, tag):
    q1, q2 = pair
    return (
        q1.rename({v: f"{v}_{tag}" for v in q1.variables}),
        q2.rename({v: f"{v}_{tag}" for v in q2.variables}),
    )


def _query_text(query):
    body = ", ".join(str(atom) for atom in query.atoms)
    return f"({', '.join(query.head)}) :- {body}" if query.head else body


def _count_renames(monkeypatch):
    """Count ``rename_result`` calls where the service and the cache make them."""
    calls = []

    def counting(original):
        def rename(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        return rename

    monkeypatch.setattr(service_module, "rename_result", counting(rename_result))
    monkeypatch.setattr(cache_module, "rename_result", counting(rename_result))
    return calls


class TestLazyRenaming:
    """Outcomes keep their entry and rename evidence only when read."""

    PROVENANCE = {"plan-cache": "cache-hit", "store": "store-hit", "batch-dedup": "solved"}

    def assert_equals_eager_renaming(self, service, pairs, report):
        """Each replayed outcome's result is its canonical entry renamed onto
        the requester's variables, as the plan cache used to hand it out."""
        replayed = 0
        for (q1, q2), outcome in zip(pairs, report.outcomes):
            if outcome.source == "solved" or outcome.labelings is None:
                assert outcome.result is outcome.entry
                continue
            key, labelings = pair_key_with_labelings(q1, q2)
            assert outcome.labelings == labelings
            entry = service.cache.peek(key)
            assert outcome.entry is entry
            mapping1, mapping2 = requester_mappings(labelings)
            eager = replace(
                rename_result(entry, mapping1, mapping2),
                provenance=self.PROVENANCE[outcome.source],
            )
            result = outcome.result
            assert result == eager
            assert (result.status, result.method) == (entry.status, entry.method)
            assert result.provenance == self.PROVENANCE[outcome.source]
            if result.inequality is not None:
                assert_evidence_in_requester_variables(result, q1, q2)
            elif result.verdict is not None:
                # A store entry keeps no inequality to check the proof by.
                ground = set(to_boolean_pair(q1, q2)[0].variables)
                assert set(result.verdict.certificate.ground) <= ground
            replayed += 1
        return replayed

    @pytest.mark.parametrize("name", ["batch-cold", "e13"])
    def test_replayed_results_equal_eager_renaming(self, name, tmp_path):
        pairs = PAIR_SETS[name]()
        store_path = str(tmp_path / "lazy.sqlite")
        copies = [_renamed(pair, "r") for pair in pairs]
        with ContainmentService(BatchOptions(store_path=store_path)) as service:
            first = service.run(pairs)
            warm = service.run(copies)
            dedups = self.assert_equals_eager_renaming(service, pairs, first)
            hits = self.assert_equals_eager_renaming(service, copies, warm)
        with ContainmentService(BatchOptions(store_path=store_path)) as restarted:
            stored = restarted.run(copies)
            stores = self.assert_equals_eager_renaming(restarted, copies, stored)
        assert {outcome.source for outcome in warm.outcomes} == {"plan-cache"}
        assert {outcome.source for outcome in stored.outcomes} <= {"store", "plan-cache"}
        assert "store" in {outcome.source for outcome in stored.outcomes}
        assert hits == stores == len(pairs)
        if name == "e13":
            assert dedups > 0

    def test_batch_report_results_are_the_outcomes_results(self):
        pairs = PAIR_SETS["e13"]()[:40]
        with ContainmentService(BatchOptions()) as service:
            service.run(pairs[:20])
            report = service.run(pairs)
        sources = {outcome.source for outcome in report.outcomes}
        assert {"solved", "plan-cache"} <= sources
        assert report.results == tuple(outcome.result for outcome in report.outcomes)
        assert all(
            result is outcome.result
            for result, outcome in zip(report.results, report.outcomes)
        )

    def test_unread_outcomes_rename_nothing(self, monkeypatch):
        with ContainmentService(BatchOptions()) as service:
            service.run([(TRIANGLE_A, VEE_A), (PATH_A, EDGE_A)])
            calls = _count_renames(monkeypatch)
            report = service.run([(TRIANGLE_B, VEE_B), (PATH_B, EDGE_B)])
            assert calls == []
            assert [outcome.entry.status for outcome in report.outcomes] == [
                ContainmentStatus.CONTAINED,
                ContainmentStatus.NOT_CONTAINED,
            ]
            report.outcomes[0].result
            assert len(calls) == 1
            report.results
            assert len(calls) == 2

    def test_a_daemon_answering_a_warm_batch_renames_nothing(self, monkeypatch):
        pairs = PAIR_SETS["e13"]()[:24]
        daemon = ContainmentDaemon(BatchOptions(on_error="capture"))

        def line(batch):
            specs = tuple(PairSpec(_query_text(q1), _query_text(q2)) for q1, q2 in batch)
            return encode_request(BatchRequest(pairs=specs)).encode("utf-8")

        try:
            primed = parse_batch_response(daemon.handle_line(line(pairs)))
            calls = _count_renames(monkeypatch)
            warm = parse_batch_response(
                daemon.handle_line(line([_renamed(pair, "w") for pair in pairs]))
            )
        finally:
            daemon.service.close()
        assert primed.ok and warm.ok
        assert calls == []
        assert {verdict.source for verdict in warm.verdicts} == {"plan-cache"}
        assert [(v.status, v.method, v.witness_rows) for v in warm.verdicts] == [
            (v.status, v.method, v.witness_rows) for v in primed.verdicts
        ]
