"""Lee's entropic characterizations of dependencies, checked against the rows.

Under the uniform distribution on the rows of a relation ``R`` (the entropy
:func:`repro.infotheory.entropy.relation_entropy`, Section 6 of the paper):

* ``X → A`` holds iff ``h(A | X) = 0``
  (:func:`repro.infotheory.polymatroid.functional_dependency_holds`);
* ``X ↠ Y`` holds iff ``I(Y ; Z | X) = 0``, ``Z`` the remaining attributes
  (:func:`repro.infotheory.polymatroid.conditional_independence_holds`);
* the join of ``R``'s projections on the bags of a tree decomposition ``T``
  is ``R`` iff ``E_T(h) = h(V)`` (:func:`repro.core.et_expression.et_expression`).

Each criterion is compared, on every candidate, with the dependency read off
the rows directly.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest

from repro.core.et_expression import et_expression
from repro.cq.decompositions import TreeDecomposition
from repro.cq.structures import Relation
from repro.infotheory.entropy import relation_entropy
from repro.infotheory.polymatroid import (
    conditional_independence_holds,
    functional_dependency_holds,
)

RELATIONS = {
    # employee → department → building.
    "fd-chain": Relation(
        attributes=("employee", "department", "building"),
        rows={
            ("alice", "sales", "hq"),
            ("bob", "sales", "hq"),
            ("carol", "research", "lab"),
            ("dave", "research", "lab"),
        },
    ),
    # course ↠ teacher and course ↠ book, independently.
    "mvd": Relation(
        attributes=("course", "teacher", "book"),
        rows={("db", t, b) for t in ("ann", "bea") for b in ("ramakrishnan", "ullman")}
        | {("os", "cid", "tanenbaum")},
    ),
    # Independent attributes: no dependency but the trivial ones.
    "product": Relation.product_relation({"x": [1, 2], "y": ["a", "b", "c"], "z": [0, 1]}),
    # A constant column is determined by the empty set.
    "constant-column": Relation(
        attributes=("a", "b", "c"), rows={(1, "x", 0), (2, "x", 1), (3, "x", 1)}
    ),
    # One teacher, two courses with different books: joining (course, teacher)
    # and (teacher, book) adds the spurious rows (db, ann, bishop) and
    # (ml, ann, ramakrishnan).
    "lossy": Relation(
        attributes=("course", "teacher", "book"),
        rows={("db", "ann", "ramakrishnan"), ("ml", "ann", "bishop")},
    ),
    # The join of three binary relations along w - x - y - z: lossless on
    # that path, lossy on others.
    "path-join": Relation(
        attributes=("w", "x", "y", "z"),
        rows={
            (w, x, y, z)
            for w, x in ((0, 0), (1, 0), (1, 1))
            for y in (0, 1)
            if (x, y) != (1, 1)
            for z in ((0,) if y == 0 else (0, 1))
        },
    ),
}


def project(relation, attributes):
    """The rows of ``relation`` restricted to ``attributes``, as tuples."""
    index = [relation.column_index(a) for a in attributes]
    return {tuple(row[i] for i in index) for row in relation.rows}


def fd_holds_on_rows(relation, determinant, dependent):
    """Whether each value of ``determinant`` meets one value of ``dependent``."""
    images = {}
    for row in project(relation, list(determinant) + [dependent]):
        images.setdefault(row[:-1], set()).add(row[-1])
    return all(len(values) == 1 for values in images.values())


def join_of_projections(relation, bags):
    """The natural join of ``relation``'s projections on ``bags``, as rows."""
    joined = [{}]
    for bag in bags:
        bag = sorted(bag)
        rows = project(relation, bag)
        joined = [
            {**partial, **dict(zip(bag, row))}
            for partial in joined
            for row in rows
            if all(partial.get(a, value) == value for a, value in zip(bag, row))
        ]
    return {tuple(m[a] for a in relation.attributes) for m in joined}


def proper_nonempty_subsets(attributes):
    for size in range(1, len(attributes)):
        yield from combinations(attributes, size)


def two_bag_decompositions(attributes):
    """Every pair of bags ``(X ∪ S, Y ∪ S)``, neither inside the other, covering
    the attributes."""
    bags = [frozenset(subset) for subset in proper_nonempty_subsets(attributes)]
    for first, second in combinations(bags, 2):
        if first | second == frozenset(attributes) and not (
            first <= second or second <= first
        ):
            yield (first, second)


def path_decompositions(attributes):
    """Bags of consecutive pairs along every order of the attributes."""
    for order in permutations(attributes):
        yield tuple(frozenset(order[i : i + 2]) for i in range(len(order) - 1))


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_functional_dependencies_are_the_zero_conditional_entropies(name):
    relation = RELATIONS[name]
    entropy = relation_entropy(relation)
    attributes = relation.attributes
    for size in range(len(attributes)):
        for determinant in combinations(attributes, size):
            for dependent in attributes:
                if dependent in determinant:
                    continue
                assert functional_dependency_holds(
                    entropy, determinant, [dependent]
                ) == fd_holds_on_rows(relation, determinant, dependent), (
                    determinant,
                    dependent,
                )


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_multivalued_dependencies_are_the_conditional_independences(name):
    relation = RELATIONS[name]
    entropy = relation_entropy(relation)
    attributes = relation.attributes
    for size in range(len(attributes) - 1):
        for determinant in combinations(attributes, size):
            rest = [a for a in attributes if a not in determinant]
            for dependents in proper_nonempty_subsets(rest):
                others = [a for a in rest if a not in dependents]
                # X ↠ Y holds iff R = π_XY(R) ⋈ π_XZ(R).
                on_rows = join_of_projections(
                    relation, [determinant + dependents, determinant + tuple(others)]
                ) == set(relation.rows)
                assert conditional_independence_holds(
                    entropy, dependents, others, determinant
                ) == on_rows, (determinant, dependents)


@pytest.mark.parametrize("name", sorted(RELATIONS))
def test_lossless_joins_are_the_decompositions_with_et_equal_to_h_of_v(name):
    relation = RELATIONS[name]
    entropy = relation_entropy(relation)
    decompositions = list(two_bag_decompositions(relation.attributes)) + list(
        path_decompositions(relation.attributes)
    )
    for bags in decompositions:
        tree = TreeDecomposition(
            bags=bags, edges=tuple((i, i + 1) for i in range(len(bags) - 1))
        )
        et_value = et_expression(tree, ground=relation.attributes).evaluate(entropy)
        gap = et_value - entropy.total()
        assert gap >= -1e-9, bags
        lossless = join_of_projections(relation, bags) == set(relation.rows)
        assert (abs(gap) <= 1e-7) == lossless, (bags, gap)
