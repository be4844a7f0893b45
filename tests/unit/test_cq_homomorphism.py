"""Unit tests for homomorphism enumeration and counting."""

import pytest

from repro.cq.decompositions import heuristic_tree_decomposition, join_tree
from repro.cq.homomorphism import (
    count_homomorphisms,
    count_homomorphisms_via_decomposition,
    count_query_homomorphisms,
    count_query_to_query_homomorphisms,
    exists_homomorphism,
    exists_query_homomorphism,
    homomorphisms,
    query_homomorphisms,
    query_to_query_homomorphisms,
)
from repro.cq.parser import parse_query
from repro.cq.structures import Structure, canonical_structure
from repro.workloads.generators import path_query, cycle_query


def test_count_on_full_binary_relation(triangle_query, path2_query, small_database):
    # Full relation on {0,1}: every map is a homomorphism.
    assert count_query_homomorphisms(triangle_query, small_database) == 8
    assert count_query_homomorphisms(path2_query, small_database) == 8


def test_count_on_directed_triangle(triangle_query, path2_query, triangle_database):
    assert count_query_homomorphisms(triangle_query, triangle_database) == 3
    assert count_query_homomorphisms(path2_query, triangle_database) == 3


def test_enumeration_matches_count(path2_query, small_database):
    listed = list(query_homomorphisms(path2_query, small_database))
    assert len(listed) == count_query_homomorphisms(
        path2_query, small_database, method="backtracking"
    )
    for assignment in listed:
        assert set(assignment) == {"Y1", "Y2", "Y3"}


def test_fixed_variables_restrict_enumeration(path2_query, small_database):
    fixed = {"Y1": 0}
    count = count_query_homomorphisms(path2_query, small_database, fixed=fixed)
    assert count == 4
    missing = {"Y1": 7}
    assert count_query_homomorphisms(path2_query, small_database, fixed=missing) == 0


def test_exists_query_homomorphism(triangle_query, triangle_database):
    assert exists_query_homomorphism(triangle_query, triangle_database)
    acyclic_db = Structure.from_facts([("R", (0, 1)), ("R", (1, 2))])
    assert not exists_query_homomorphism(triangle_query, acyclic_db)


def test_query_to_query_homomorphisms_vee(path2_query, triangle_query):
    # hom(Q2, Q1) of Example 4.3 has exactly 3 elements.
    homs = query_to_query_homomorphisms(path2_query, triangle_query)
    assert len(homs) == 3
    assert count_query_to_query_homomorphisms(path2_query, triangle_query) == 3
    for hom in homs:
        assert hom["Y2"] == hom["Y3"]


def test_structure_homomorphisms_count(triangle_database, small_database):
    # From the directed triangle into the full binary relation on {0,1}: 2^3 maps.
    assert count_homomorphisms(triangle_database, small_database) == 8
    assert exists_homomorphism(triangle_database, small_database)
    listed = list(homomorphisms(triangle_database, small_database))
    assert len(listed) == 8


def test_structure_homomorphisms_isolated_elements(small_database):
    source = Structure.from_facts([("R", (0, 1))], domain=[0, 1, 2])
    # Element 2 is isolated: it can map anywhere in the 2-element target domain.
    assert count_homomorphisms(source, small_database) == 4 * 2


@pytest.mark.parametrize(
    "source",
    [
        Structure(domain={0, 1}, relations={}),
        Structure(domain={0, 1}, relations={"R": frozenset()}),
    ],
)
def test_structure_without_facts_maps_anywhere(source):
    # With no facts to preserve, every map of the domain is a homomorphism.
    target = Structure.from_facts([("R", (0, 1))], domain=["a", 0, 1])
    assert count_homomorphisms(source, target) == 3**2
    assert exists_homomorphism(source, target)
    listed = list(homomorphisms(source, target))
    assert len(listed) == 9
    assert {tuple(sorted(m.items(), key=str)) for m in listed} == {
        ((0, a), (1, b)) for a in target.domain for b in target.domain
    }


def test_structure_without_facts_into_empty_target():
    empty = Structure(domain=(), relations={})
    two = Structure(domain={0, 1}, relations={})
    assert count_homomorphisms(two, empty) == 0
    assert not exists_homomorphism(two, empty)
    assert list(homomorphisms(two, empty)) == []
    # The empty map is the one homomorphism from the empty structure.
    assert count_homomorphisms(empty, empty) == 1
    assert exists_homomorphism(empty, two)
    assert list(homomorphisms(empty, two)) == [{}]


def test_decomposition_counting_matches_backtracking(small_database, triangle_database):
    for length in (1, 2, 3):
        query = path_query(length)
        for database in (small_database, triangle_database):
            expected = count_query_homomorphisms(query, database, method="backtracking")
            tree = join_tree(query)
            assert (
                count_homomorphisms_via_decomposition(query, database, tree) == expected
            )


def test_decomposition_counting_cyclic_query(triangle_database):
    query = cycle_query(3)
    expected = count_query_homomorphisms(query, triangle_database, method="backtracking")
    decomposition = heuristic_tree_decomposition(query)
    assert (
        count_homomorphisms_via_decomposition(query, triangle_database, decomposition)
        == expected
    )


def test_auto_method_agrees_with_backtracking(small_database):
    query = parse_query("R(a,b), R(b,c), S(c,d)")
    database = Structure.from_facts(
        [("R", (0, 1)), ("R", (1, 0)), ("R", (1, 1)), ("S", (1, 0)), ("S", (0, 0))]
    )
    assert count_query_homomorphisms(query, database) == count_query_homomorphisms(
        query, database, method="backtracking"
    )


def test_disjoint_copies_multiplicativity(triangle_query, small_database):
    # |hom(nQ, D)| = |hom(Q, D)|^n  (the Kopparty–Rossman power trick).
    doubled = triangle_query.disjoint_copies(2)
    single = count_query_homomorphisms(triangle_query, small_database)
    assert count_query_homomorphisms(doubled, small_database) == single**2


def test_unknown_method_rejected(triangle_query, small_database):
    with pytest.raises(Exception):
        count_query_homomorphisms(triangle_query, small_database, method="nope")
