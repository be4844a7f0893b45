"""Unit tests for the containment decision procedures."""

import pytest

from repro.core.containment import (
    ContainmentStatus,
    decide_containment,
    sufficient_containment_check,
    theorem_3_1_decision,
)
from repro.cq.parser import parse_query
from repro.exceptions import QueryError
from repro.service import ContainmentService
from repro.workloads.generators import clique_query, cycle_query, path_query


def test_vee_example_is_contained(vee_pair):
    result = decide_containment(vee_pair.q1, vee_pair.q2)
    assert result.status == ContainmentStatus.CONTAINED
    assert result.method == "theorem-3.1"
    assert result.inequality is not None
    assert result.verdict.valid


def test_example_35_not_contained_with_witness(example_35_pair):
    result = decide_containment(example_35_pair.q1, example_35_pair.q2)
    assert result.status == ContainmentStatus.NOT_CONTAINED
    assert result.witness is not None
    assert result.witness.hom_q1 > result.witness.hom_q2
    assert "normal" in result.witness.description


def test_identical_queries_contained():
    query = parse_query("R(x, y), S(y, z)")
    result = decide_containment(query, query)
    assert result.status == ContainmentStatus.CONTAINED


def test_adding_atoms_over_same_variables_is_contained():
    # When Q2's atoms are a subset of Q1's and both use the same variables,
    # every homomorphism of Q1 is one of Q2, so Q1 ⊑ Q2.
    q1 = parse_query("R(x, y), S(x, y)")
    q2 = parse_query("R(x, y)")
    result = decide_containment(q1, q2)
    assert result.status == ContainmentStatus.CONTAINED


def test_existential_projection_is_not_contained():
    # Q1 = R(x,y) ∧ S(y,z) is NOT bag-contained in Q2 = R(x,y): a database
    # with one R-tuple and many S-tuples separates them.
    q1 = parse_query("R(x, y), S(y, z)")
    q2 = parse_query("R(x, y)")
    result = decide_containment(q1, q2)
    assert result.status == ContainmentStatus.NOT_CONTAINED


def test_projection_direction_not_contained():
    # R(x,y) has n^2-style counts while R(x,y),R(x,z) counts out-degree pairs:
    # the first is NOT bounded by the second on databases with low out-degree,
    # and vice versa the second is not bounded by the first either; check one
    # direction which must be refuted by a witness.
    q1 = parse_query("R(x, y), R(x, z)")
    q2 = parse_query("R(u, v)")
    result = decide_containment(q1, q2)
    assert result.status == ContainmentStatus.NOT_CONTAINED
    assert result.witness is not None


def test_no_homomorphism_means_not_contained():
    q1 = parse_query("R(x, y)")
    q2 = parse_query("S(u, v)")
    result = decide_containment(q1, q2)
    assert result.status == ContainmentStatus.NOT_CONTAINED
    assert result.witness is not None
    assert result.witness.hom_q2 == 0


def test_theorem_31_requires_simple_junction_tree():
    q1 = parse_query("R(x, y)")
    q2_not_simple = parse_query("R(a,b), R(b,c), R(c,a), R(b,d), R(c,d)")
    with pytest.raises(QueryError):
        theorem_3_1_decision(q1, q2_not_simple)


def test_theorem_31_on_path_queries():
    # Path counts are NOT monotone in the length: on the complete digraph with
    # self-loops, hom(path_k) = n^(k+1), so neither direction is contained.
    # Both directions are inside the decidable fragment and must be refuted
    # with verified witnesses.
    longer_vs_shorter = theorem_3_1_decision(path_query(3), path_query(2))
    assert longer_vs_shorter.status == ContainmentStatus.NOT_CONTAINED
    assert longer_vs_shorter.witness is not None
    shorter_vs_longer = theorem_3_1_decision(path_query(2), path_query(3))
    assert shorter_vs_longer.status == ContainmentStatus.NOT_CONTAINED
    # A path is trivially contained in itself.
    same = theorem_3_1_decision(path_query(3), path_query(3))
    assert same.status == ContainmentStatus.CONTAINED


def test_cycle_in_clique_contained():
    # The 4-cycle maps into the triangle pattern; triangle (clique) is chordal
    # with a single bag, hence a simple junction tree.
    q1 = cycle_query(4)
    q2 = clique_query(3)
    result = decide_containment(q1, q2)
    assert result.method == "theorem-3.1"
    assert result.status in (
        ContainmentStatus.CONTAINED,
        ContainmentStatus.NOT_CONTAINED,
    )


def test_sufficient_check_only():
    result = decide_containment(
        parse_query("R(x1,x2), R(x2,x3), R(x3,x1)"),
        parse_query("R(y1,y2), R(y1,y3)"),
        method="sufficient",
    )
    assert result.status == ContainmentStatus.CONTAINED
    assert result.method == "sufficient-gamma"


def test_sufficient_check_unknown_when_invalid(example_35_pair):
    result = sufficient_containment_check(example_35_pair.q1, example_35_pair.q2)
    assert result.status == ContainmentStatus.UNKNOWN
    assert result.verdict is not None and not result.verdict.valid


def test_brute_force_method(example_35_pair):
    result = decide_containment(
        example_35_pair.q1, example_35_pair.q2, method="brute-force"
    )
    assert result.status == ContainmentStatus.NOT_CONTAINED


def test_brute_force_method_inconclusive(vee_pair):
    result = decide_containment(vee_pair.q1, vee_pair.q2, method="brute-force")
    assert result.status == ContainmentStatus.UNKNOWN


def test_unknown_method_rejected(vee_pair):
    with pytest.raises(QueryError):
        decide_containment(vee_pair.q1, vee_pair.q2, method="magic")


def test_head_queries_supported():
    # Same variables, Q2's atoms a subset of Q1's: contained per head tuple.
    q1 = parse_query("(x) :- R(x, y), S(x, y)")
    q2 = parse_query("(x) :- R(x, y)")
    result = decide_containment(q1, q2)
    assert result.status == ContainmentStatus.CONTAINED
    # Fanning out over an existential variable breaks containment.
    fanned = parse_query("(x) :- R(x, y), S(y, z)")
    assert (
        decide_containment(fanned, q2).status == ContainmentStatus.NOT_CONTAINED
    )
    with pytest.raises(QueryError):
        decide_containment(q1, parse_query("R(x, y)"))


def test_non_chordal_containing_query_falls_back():
    # Q2 is a 4-cycle (not chordal): the complete procedure does not apply,
    # but identical queries are trivially contained and the sufficient check
    # finds the identity-homomorphism branch h(V) <= h(V).
    q = cycle_query(4)
    result = decide_containment(q, q)
    assert result.status == ContainmentStatus.CONTAINED
    assert result.method == "sufficient-gamma"


def solved_pairs():
    """Fresh Boolean pairs: Theorem 3.1 (contained and not) and the general route."""
    return [
        (parse_query("R(x,y), R(y,z), R(z,x)"), parse_query("R(a,b), R(a,c)")),
        (path_query(3), path_query(2)),
        (cycle_query(4), cycle_query(4)),
        (clique_query(4), cycle_query(4)),
    ]


@pytest.mark.parametrize(
    "solve",
    [
        lambda pairs: [decide_containment(q1, q2) for q1, q2 in pairs],
        lambda pairs: [sufficient_containment_check(q1, q2) for q1, q2 in pairs],
        lambda pairs: [theorem_3_1_decision(q1, q2) for q1, q2 in pairs[:2]],
        lambda pairs: ContainmentService().run(pairs).results,
    ],
    ids=["decide_containment", "sufficient", "theorem-3.1", "service"],
)
def test_solving_leaves_no_decompositions_on_the_callers_queries(solve):
    # The pipeline caches cliques, junction trees and validated
    # decompositions on the Boolean queries it works on; a Boolean input must
    # not be one of them, or a caller that keeps its queries keeps all that.
    pairs = solved_pairs()
    results = solve(pairs)
    assert {result.status for result in results} != {ContainmentStatus.UNKNOWN}
    for q1, q2 in pairs:
        assert "decompositions" not in vars(q1) and "decompositions" not in vars(q2)
