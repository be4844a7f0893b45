"""Unit tests for witness construction and the brute-force refutation baselines."""

import re

import pytest

from repro.cq.decompositions import junction_tree
from repro.cq.homomorphism import count_query_to_query_homomorphisms
from repro.cq.parser import parse_query
from repro.core.brute_force import (
    brute_force_refute,
    containment_holds_on_small_databases,
    search_normal_witness,
    search_product_witness,
    search_random_relation_witness,
    search_small_database_witness,
)
from repro.core.containment_inequality import build_containment_inequality
from repro.core.witness import (
    DEFAULT_MAX_ROWS,
    _required_scaling,
    normal_witness_relation,
    product_witness_relation,
    verify_witness,
    witness_from_modular_weights,
    witness_from_normal_coefficients,
    witness_from_relation,
)
from repro.exceptions import WitnessError
from repro.infotheory.entropy import relation_entropy
from repro.infotheory.functions import normal_function
from repro.workloads.paper_examples import example_3_5, example_3_5_normal_witness


def test_normal_witness_relation_entropy():
    ground = ("a", "b", "c")
    multiplicities = {frozenset({"a"}): 2, frozenset({"b", "c"}): 1}
    relation = normal_witness_relation(ground, multiplicities)
    assert len(relation) == 2**3
    entropy = relation_entropy(relation)
    # The entropy is exactly 2·h_{a} + 1·h_{bc}:
    #   h({a}) = 2·0 + 1·1 = 1,  h({b}) = 2·1 + 1·0 = 2,  h(V) = 2 + 1 = 3.
    assert entropy({"a"}) == pytest.approx(1.0)
    assert entropy({"b"}) == pytest.approx(2.0)
    assert entropy.total() == pytest.approx(3.0)
    assert relation.is_totally_uniform()


def test_normal_witness_relation_size_guard():
    with pytest.raises(WitnessError):
        normal_witness_relation(("a", "b"), {frozenset({"a"}): 20}, max_rows=100)
    with pytest.raises(WitnessError):
        normal_witness_relation(("a", "b"), {})


def test_product_witness_relation():
    relation = product_witness_relation(("a", "b"), {"a": 2, "b": 3})
    assert len(relation) == 6
    with pytest.raises(WitnessError):
        product_witness_relation(("a", "b"), {"a": 100, "b": 100}, max_rows=10)


def test_verify_witness_positive_and_negative(example_35_pair):
    witness_relation = example_3_5_normal_witness(n=2)
    witness = witness_from_relation(
        example_35_pair.q1, example_35_pair.q2, witness_relation
    )
    assert witness is not None
    assert witness.hom_q1 > witness.hom_q2
    assert witness.gap > 0
    # n = 1 gives |P| = 1 which is not a witness in the Fact 3.2 sense.
    from repro.core.witness import is_fact_32_witness

    too_small = example_3_5_normal_witness(n=1)
    assert not is_fact_32_witness(example_35_pair.q1, example_35_pair.q2, too_small)
    assert is_fact_32_witness(
        example_35_pair.q1, example_35_pair.q2, example_3_5_normal_witness(n=2)
    )


def theorem_3_1_inequality(q1, q2):
    return build_containment_inequality(q1, q2, [junction_tree(q2)])


def lemma_e1_bound(inequality, steps, hom_count):
    """The last rung of the climb: Lemma E.1's power for the normal function ``steps``."""
    candidate = normal_function(inequality.ground, steps)
    gap = candidate.total() - inequality.right_hand_side(candidate)
    return _required_scaling(gap, hom_count)


def normal_rungs(inequality, coefficients):
    """``m ↦`` the normal relation of the integer ``coefficients`` at power ``m``."""
    return lambda m: normal_witness_relation(
        inequality.ground, {key: int(value) * m for key, value in coefficients.items()}
    )


def assert_smallest_separating_power(inequality, witness, bound, relation_at):
    """``witness`` is the first rung ``m ≤ bound`` that separates; returns ``m``.

    ``relation_at(m)`` rebuilds the candidate relation at power ``m``.
    """
    power = int(re.search(r"scaled ×(\d+)", witness.description).group(1))
    assert 1 <= power <= bound
    if power > 1:
        below = witness_from_relation(inequality.q1, inequality.q2, relation_at(power - 1))
        assert below is None
    return power


def test_witness_from_normal_coefficients_example_35(example_35_pair):
    q1, q2 = example_35_pair.q1, example_35_pair.q2
    inequality = theorem_3_1_inequality(q1, q2)
    hom_count = count_query_to_query_homomorphisms(q2, q1)
    coefficients = {
        frozenset({"x1", "x2"}): 1.0,
        frozenset({"xp1", "xp2"}): 1.0,
    }
    witness = witness_from_normal_coefficients(inequality, coefficients, hom_count)
    assert witness.hom_q1 > witness.hom_q2
    assert "normal witness" in witness.description
    # Lemma E.1 asks for m = 2 (gap 1, |hom(Q2, Q1)| = 2), but the paper's
    # {(u,u,v,v)} over two values, the power 1, already separates.
    bound = lemma_e1_bound(inequality, coefficients, hom_count)
    power = assert_smallest_separating_power(
        inequality,
        witness,
        bound,
        normal_rungs(inequality, coefficients),
    )
    assert (power, bound) == (1, 2)


def test_witness_from_normal_coefficients_climbs_past_a_rung_that_fails():
    # path3 ⊑ path2: the power-1 normal relation does not separate, power 2 does.
    q1 = parse_query("R(x0,x1), R(x1,x2), R(x2,x3)")
    q2 = parse_query("R(y0,y1), R(y1,y2)")
    inequality = theorem_3_1_inequality(q1, q2)
    hom_count = count_query_to_query_homomorphisms(q2, q1)
    coefficients = {frozenset({"x0", "x1", "x2"}): 1.0, frozenset({"x1", "x2", "x3"}): 1.0}
    witness = witness_from_normal_coefficients(inequality, coefficients, hom_count)
    power = assert_smallest_separating_power(
        inequality,
        witness,
        lemma_e1_bound(inequality, coefficients, hom_count),
        normal_rungs(inequality, coefficients),
    )
    assert power == 2


def test_witness_from_modular_weights_stops_at_the_first_separating_power():
    # A directed triangle is not contained in one edge; |hom(Q2, Q1)| = 3, so
    # Lemma E.1 asks for 4 values per column, while 2 already separate.
    q1 = parse_query("R(x,y), R(y,z), R(z,x)")
    q2 = parse_query("R(u,v)")
    inequality = theorem_3_1_inequality(q1, q2)
    hom_count = count_query_to_query_homomorphisms(q2, q1)
    weights = {"x": 1.0, "y": 1.0, "z": 1.0}
    witness = witness_from_modular_weights(inequality, weights, hom_count)
    assert witness.hom_q1 > witness.hom_q2
    assert "product witness" in witness.description
    ground = inequality.ground
    bound = lemma_e1_bound(
        inequality,
        {frozenset(ground) - {variable}: weight for variable, weight in weights.items()},
        hom_count,
    )
    power = assert_smallest_separating_power(
        inequality,
        witness,
        bound,
        lambda m: product_witness_relation(
            ground, {variable: 2 ** (int(weight) * m) for variable, weight in weights.items()}
        ),
    )
    assert (power, bound) == (1, 2)


def test_witness_climb_ends_when_its_first_rung_exceeds_the_row_limit():
    # The violating normal point the Nn LP returns for this Theorem 3.1 pair:
    # its integer step multiplicities sum to 13, so even the power 1 is a
    # 2^13-row relation, over DEFAULT_MAX_ROWS, and the climb stops there.
    q1 = parse_query("R(x2,x0), R(x0,x3), R(x1,x1), R(x1,x2), R(x1,x0)")
    q2 = parse_query("R(y0,y1), R(y1,y2), R(y1,y3)")
    inequality = theorem_3_1_inequality(q1, q2)
    hom_count = count_query_to_query_homomorphisms(q2, q1)
    coefficients = {
        frozenset({"x1", "x2"}): 2.0,
        frozenset({"x0", "x2", "x3"}): 4.0,
        frozenset({"x0", "x1", "x2"}): 3.0,
        frozenset({"x0", "x1", "x3"}): 4.0,
    }
    assert 2**13 > DEFAULT_MAX_ROWS
    assert lemma_e1_bound(inequality, coefficients, hom_count) > 1
    with pytest.raises(WitnessError, match=r"2\^13 rows"):
        witness_from_normal_coefficients(inequality, coefficients, hom_count)


def test_witness_from_normal_coefficients_rejects_non_violating(vee_pair):
    # The Vee pair IS contained, so no coefficients can violate the inequality.
    inequality = build_containment_inequality(vee_pair.q1, vee_pair.q2)
    with pytest.raises(WitnessError):
        witness_from_normal_coefficients(
            inequality, {frozenset({"X1"}): 1.0}, hom_count=3
        )


def test_search_product_witness_example():
    # R(x,y) vs R(x,y),R(x,z): counts n^2 vs n^3-ish -> product witness exists
    # already on a product relation with 2 values per column.
    q1 = parse_query("R(x, y), R(z, w)")
    q2 = parse_query("R(u, v)")
    witness = search_product_witness(q1, q2)
    assert witness is not None
    assert witness.hom_q1 > witness.hom_q2


def test_search_normal_witness_example_35(example_35_pair):
    witness = search_normal_witness(example_35_pair.q1, example_35_pair.q2)
    assert witness is not None


def test_search_product_witness_fails_for_example_35(example_35_pair):
    # Example 3.5's point: no product witness exists (we check small ones).
    assert (
        search_product_witness(example_35_pair.q1, example_35_pair.q2, max_column_size=3)
        is None
    )


def test_random_relation_search_finds_easy_witness():
    q1 = parse_query("R(x, y), R(z, w)")
    q2 = parse_query("R(u, v)")
    witness = search_random_relation_witness(q1, q2, samples=50)
    assert witness is not None


def test_brute_force_refute_contained_pair(vee_pair):
    assert brute_force_refute(vee_pair.q1, vee_pair.q2, random_samples=30) is None


def test_brute_force_refute_uncontained_pair(example_35_pair):
    witness = brute_force_refute(example_35_pair.q1, example_35_pair.q2)
    assert witness is not None
    assert witness.hom_q1 > witness.hom_q2


def test_small_database_exhaustive_search():
    q1 = parse_query("R(x, y), R(z, w)")
    q2 = parse_query("R(u, v)")
    witness = search_small_database_witness(q1, q2, domain_size=2, max_tuples_per_relation=2)
    assert witness is not None


def test_containment_holds_on_small_databases(vee_pair):
    assert containment_holds_on_small_databases(
        vee_pair.q1, vee_pair.q2, domain_size=2, max_tuples_per_relation=3
    )
    q1 = parse_query("R(x, y), R(z, w)")
    q2 = parse_query("R(u, v)")
    assert not containment_holds_on_small_databases(
        q1, q2, domain_size=2, max_tuples_per_relation=3
    )
