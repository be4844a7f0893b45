"""Unit tests for Lemma 3.7 normalization and group-characterizable entropies."""

import random
from itertools import product

import pytest

from repro.cq.structures import Relation
from repro.infotheory.entropy import relation_entropy
from repro.infotheory.functions import (
    modular_function,
    normal_function,
    parity_function,
    uniform_function,
)
from repro.infotheory.group_entropy import (
    entropy_from_subspaces,
    group_characterizable_relation,
    parity_subspaces,
    span,
    subspace_dimension,
)
from repro.infotheory.imeasure import is_normal_function
from repro.infotheory.normalization import (
    modular_lower_bound,
    normal_lower_bound,
    normalization_gap,
)
from repro.infotheory.polymatroid import is_modular, is_polymatroid

GROUND = ("X1", "X2", "X3")


def check_lemma_3_7_item2(function):
    lower = normal_lower_bound(function)
    assert is_normal_function(lower), "the bound must be a normal function"
    assert function.dominates(lower), "the bound must be below the input"
    assert lower.total() == pytest.approx(function.total())
    for variable in function.ground:
        assert lower([variable]) == pytest.approx(function([variable]))
    return lower


def test_modular_lower_bound_properties(parity):
    lower = modular_lower_bound(parity)
    assert is_modular(lower)
    assert parity.dominates(lower)
    assert lower.total() == pytest.approx(parity.total())


def test_modular_lower_bound_respects_order(parity):
    lower = modular_lower_bound(parity, order=("X3", "X2", "X1"))
    assert is_modular(lower)
    assert parity.dominates(lower)
    assert lower.total() == pytest.approx(parity.total())
    with pytest.raises(Exception):
        modular_lower_bound(parity, order=("X1", "X2"))


def test_normal_lower_bound_on_parity(parity):
    # Example C.4 of the paper: the resulting function is normal, dominated
    # by the parity function, and agrees on singletons and on the full set.
    lower = check_lemma_3_7_item2(parity)
    # From Figure 1: h'(X1 X2) = 1 while parity has 2 there (some pair drops).
    pair_values = sorted(
        lower({a, b}) for a, b in (("X1", "X2"), ("X1", "X3"), ("X2", "X3"))
    )
    assert pair_values[0] <= 1.0 + 1e-9


def test_normal_lower_bound_fixed_point_on_normal_functions():
    normal = normal_function(
        GROUND, {frozenset({"X1"}): 1.0, frozenset({"X2", "X3"}): 2.0}
    )
    lower = check_lemma_3_7_item2(normal)
    assert is_polymatroid(lower)


def test_normal_lower_bound_on_modular_function():
    modular = modular_function({"X1": 1.0, "X2": 2.0, "X3": 3.0})
    lower = check_lemma_3_7_item2(modular)
    assert lower.is_close_to(modular)


def test_normal_lower_bound_on_matroid_ranks():
    for rank in (1, 2, 3):
        check_lemma_3_7_item2(uniform_function(GROUND, rank=rank))
    for size in (4, 5, 6):
        ground = tuple(f"X{i}" for i in range(size))
        check_lemma_3_7_item2(uniform_function(ground, rank=size // 2))


def test_normal_lower_bound_single_variable():
    single = modular_function({"X1": 2.5})
    lower = normal_lower_bound(single)
    assert lower.is_close_to(single)


def test_normalization_gap_zero_on_top(parity):
    gap = normalization_gap(parity)
    assert gap[frozenset(GROUND)] == pytest.approx(0.0)
    assert all(value >= -1e-9 for value in gap.values())


def test_span_and_dimension():
    vectors = span([(1, 0, 0), (0, 1, 0)], dimension=3)
    assert len(vectors) == 4
    assert subspace_dimension(vectors) == 2
    assert subspace_dimension(span([], dimension=3)) == 0
    with pytest.raises(Exception):
        span([(1, 0)], dimension=3)


def test_parity_subspaces_realize_parity(parity):
    dimension, generators = parity_subspaces(GROUND)
    assert entropy_from_subspaces(GROUND, dimension, generators).is_close_to(parity)


def test_group_relation_matches_subspace_entropy(parity):
    dimension, generators = parity_subspaces(GROUND)
    relation = group_characterizable_relation(GROUND, dimension, generators)
    assert relation.is_totally_uniform()
    assert relation_entropy(relation).is_close_to(parity)


def test_group_entropy_general_subspaces():
    generators = {
        "X1": [(1, 0, 0)],
        "X2": [(1, 0, 0), (0, 1, 0)],
        "X3": [],
    }
    entropy = entropy_from_subspaces(("X1", "X2", "X3"), 3, generators)
    assert is_polymatroid(entropy)
    assert entropy({"X1"}) == pytest.approx(2.0)
    assert entropy({"X2"}) == pytest.approx(1.0)
    assert entropy({"X3"}) == pytest.approx(3.0)
    assert entropy({"X1", "X2"}) == pytest.approx(2.0)
    relation = group_characterizable_relation(("X1", "X2", "X3"), 3, generators)
    assert relation_entropy(relation).is_close_to(entropy)


def test_random_group_entropies_are_relation_entropies_of_polymatroids():
    # Random subgroups of (F_2)^3 for four variables: the entropy is a
    # polymatroid, and the coset relation is totally uniform with that
    # entropy (Lemma 4.8).
    ground = ("X1", "X2", "X3", "X4")
    rng = random.Random(0)
    vectors = list(product((0, 1), repeat=3))[1:]
    for _ in range(20):
        generators = {v: rng.sample(vectors, rng.randint(0, 3)) for v in ground}
        entropy = entropy_from_subspaces(ground, 3, generators)
        assert is_polymatroid(entropy, tolerance=1e-9)
        relation = group_characterizable_relation(ground, 3, generators)
        assert relation.is_totally_uniform()
        assert relation_entropy(relation).is_close_to(entropy)


def test_group_entropy_requires_all_variables():
    with pytest.raises(Exception):
        entropy_from_subspaces(("X1", "X2"), 2, {"X1": [(1, 0)]})
