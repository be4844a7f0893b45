"""Renaming-equivalence of cached and stored evidence.

The headline bugfix: a plan-cache or store hit must return its witness and
inequality in the *requesting* pair's variable names, not in the names of
whichever isomorphic representative was solved first.  These tests lock
that contract for both tiers, plus the provenance tags and the semantics of
``PlanCache.__contains__`` / ``peek``.  Hits must also carry the same
evidence as a fresh solve: every CONTAINED result, solved or replayed,
carries a Theorem 6.1 proof in the requester's variables.
"""

from repro.core.containment import ContainmentStatus, decide_containment
from repro.core.witness import verify_witness
from repro.cq.parser import parse_query
from repro.cq.reductions import to_boolean_pair
from repro.infotheory.expressions import LinearExpression
from repro.service import BatchOptions, ContainmentService
from repro.service.cache import PlanCache

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
