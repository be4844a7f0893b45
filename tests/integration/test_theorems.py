"""Integration tests of the paper's theorems on generated instances."""

import pytest

from repro.core.brute_force import containment_holds_on_small_databases
from repro.core.containment import ContainmentStatus, decide_containment
from repro.core.containment_inequality import build_containment_inequality
from repro.core.convex_certificate import find_convex_certificate
from repro.core.reduction import reduce_max_iip_to_containment, uniformize
from repro.cq.decompositions import has_simple_junction_tree, is_acyclic, junction_tree
from repro.cq.homomorphism import count_query_homomorphisms
from repro.infotheory.expressions import LinearExpression, MaxInformationInequality
from repro.infotheory.maxiip import decide_max_ii
from repro.infotheory.normalization import normal_lower_bound
from repro.infotheory.shannon import ShannonProver
from repro.workloads.generators import (
    path_query,
    random_chordal_simple_query,
    random_database,
    random_max_ii,
    random_query,
    star_query,
)


class TestTheorem42Soundness:
    """Theorem 4.2: a Γn-valid Eq. (8) inequality implies containment on real databases."""

    @pytest.mark.parametrize("seed", range(6))
    def test_contained_verdicts_hold_on_random_databases(self, seed):
        q1 = random_query(3, 4, seed=seed)
        q2 = path_query(2)
        result = decide_containment(q1, q2)
        if result.status != ContainmentStatus.CONTAINED:
            pytest.skip("pair not contained; covered by the refutation tests")
        for db_seed in range(4):
            database = random_database(
                {"R": 2, "S": 2}, domain_size=3, tuples_per_relation=4, seed=db_seed
            )
            assert count_query_homomorphisms(q1, database) <= count_query_homomorphisms(
                q2, database
            )


class TestTheorem31Completeness:
    """Theorem 3.1: the decision procedure agrees with brute-force ground truth."""

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_with_small_database_enumeration(self, seed):
        q1 = random_query(3, 3, relations=(("R", 2),), seed=seed)
        q2 = random_chordal_simple_query(2, clique_size=2, seed=seed)
        assert has_simple_junction_tree(q2)
        result = decide_containment(q1, q2)
        assert result.status in (
            ContainmentStatus.CONTAINED,
            ContainmentStatus.NOT_CONTAINED,
        )
        if result.status == ContainmentStatus.NOT_CONTAINED:
            assert result.witness is not None
            assert result.witness.hom_q1 > result.witness.hom_q2
        else:
            assert containment_holds_on_small_databases(
                q1, q2, domain_size=2, max_tuples_per_relation=2
            )

    def test_star_into_path(self):
        # Stars and paths are both in the decidable fragment.
        result = decide_containment(star_query(3), path_query(1))
        assert result.status in (
            ContainmentStatus.CONTAINED,
            ContainmentStatus.NOT_CONTAINED,
        )
        assert result.method == "theorem-3.1"


class TestTheorem36EssentiallyShannon:
    """Theorem 3.6: simple containment inequalities agree over Γn and Nn."""

    @pytest.mark.parametrize("seed", range(4))
    def test_gamma_normal_agreement_on_simple_inequalities(self, seed):
        q1 = random_query(3, 4, relations=(("R", 2),), seed=seed)
        q2 = random_chordal_simple_query(2, clique_size=2, seed=seed + 100)
        inequality = build_containment_inequality(q1, q2, [junction_tree(q2)])
        if inequality.is_trivially_false:
            pytest.skip("no homomorphism; nothing to compare")
        assert inequality.all_branches_simple
        max_ii = inequality.as_max_ii()
        gamma = decide_max_ii(max_ii, over="gamma", ground=inequality.ground).valid
        normal = decide_max_ii(max_ii, over="normal", ground=inequality.ground).valid
        assert gamma == normal

    def test_normalization_preserves_simple_branch_values(self):
        # The engine of Theorem 3.6(ii): for every polymatroid h, the normal
        # lower bound h' has E(h') <= E(h) for simple conditional expressions
        # while h'(V) = h(V).
        from repro.infotheory.functions import uniform_function

        ground = ("A", "B", "C", "D")
        h = uniform_function(ground, rank=2)
        h_prime = normal_lower_bound(h)
        expression = LinearExpression.entropy_term(
            ground, {"A", "B"}
        ) + LinearExpression.conditional_term(ground, {"C"}, {"A"})
        assert expression.evaluate(h_prime) <= expression.evaluate(h) + 1e-9
        assert h_prime.total() == pytest.approx(h.total())


class TestTheorem51Reduction:
    """Theorem 5.1: the reduction preserves Γn-validity through the query pair."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduction_on_random_inequalities(self, seed):
        inequality = random_max_ii(2, 1, terms_per_branch=2, seed=seed)
        uniform = uniformize(inequality)
        original = decide_max_ii(inequality, over="gamma").valid
        lifted = decide_max_ii(uniform.as_max_ii(), over="gamma").valid
        assert original == lifted

    def test_reduction_output_is_bagcqc_a_instance(self):
        inequality = random_max_ii(2, 2, terms_per_branch=2, seed=5)
        result = reduce_max_iip_to_containment(inequality)
        assert is_acyclic(result.q2)
        assert result.q1.is_boolean and result.q2.is_boolean


class TestTheorem61:
    """Theorem 6.1: convex certificates exist exactly for Γn-valid Max-IIs."""

    @staticmethod
    def check_certificate(inequality):
        """Assert a certificate exists iff the Max-II is Γn-valid; return it."""
        branches = list(inequality.branches)
        ground = inequality.ground
        valid = decide_max_ii(inequality, over="gamma").valid
        certificate = find_convex_certificate(branches, ground=ground, with_shannon_proof=True)
        assert (certificate is not None) == valid
        if certificate is not None:
            # λ comes off the probe's duals, with λ_1 = 1 - Σ_{ℓ≥2} λ_ℓ.
            assert all(value >= 0.0 for value in certificate.lambdas)
            assert abs(sum(certificate.lambdas) - 1.0) <= 1e-9
            combined = LinearExpression.zero(ground)
            for value, branch in zip(certificate.lambdas, branches):
                combined = combined + value * branch
            assert certificate.shannon_certificate.verify(combined)
            assert certificate.verify(branches, ShannonProver(tuple(ground)))
        return certificate

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("num_branches", [1, 2, 3, 4])
    @pytest.mark.parametrize("num_variables", [3, 4, 5])
    def test_certificate_existence_matches_validity(
        self, num_variables, num_branches, seed
    ):
        self.check_certificate(
            random_max_ii(num_variables, num_branches, terms_per_branch=2, seed=seed)
        )

    def test_certificate_beyond_the_seed_rows(self):
        # I(X1;X2|X3X4) ≥ 0 is one elemental row with a two-variable context:
        # no combination of the seed rows (monotonicity and I(Xi;Xj) ≥ 0)
        # proves it, so the loop must add cuts before the probe reaches 0.
        ground = ("X1", "X2", "X3", "X4")
        cmi = LinearExpression(
            ground=ground,
            coefficients={
                frozenset({"X1", "X3", "X4"}): 1.0,
                frozenset({"X2", "X3", "X4"}): 1.0,
                frozenset(ground): -1.0,
                frozenset({"X3", "X4"}): -1.0,
            },
        )
        invalid = -1.0 * LinearExpression.entropy_term(ground, {"X1"})
        certificate = self.check_certificate(
            MaxInformationInequality(branches=(invalid, cmi))
        )
        assert certificate is not None
        assert certificate.lambdas == (pytest.approx(0.0), pytest.approx(1.0))
        contexts = [
            min(len(subset) for subset, _ in elemental.coefficients)
            for elemental, _ in certificate.shannon_certificate.multipliers
        ]
        assert max(contexts) >= 2
