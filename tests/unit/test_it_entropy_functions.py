"""Unit tests for entropy computations and the special function families."""

import math
import random

import pytest

from repro.cq.structures import Relation
from repro.exceptions import EntropyError
from repro.infotheory.entropy import (
    distribution_entropy,
    entropy_of_counts,
    entropy_of_distribution,
    projection_log_sizes,
    relation_entropy,
)
from repro.infotheory.functions import (
    modular_function,
    normal_function,
    parity_function,
    step_function,
    uniform_function,
    zero_function,
)
from repro.infotheory.polymatroid import is_modular, is_polymatroid


def test_entropy_of_counts_uniform():
    assert entropy_of_counts([1, 1, 1, 1]) == pytest.approx(2.0)
    assert entropy_of_counts([2, 2]) == pytest.approx(1.0)
    assert entropy_of_counts([5]) == pytest.approx(0.0)


def test_entropy_of_counts_empty_rejected():
    with pytest.raises(EntropyError):
        entropy_of_counts([])


def test_entropy_of_distribution():
    assert entropy_of_distribution([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy_of_distribution([0.25] * 4) == pytest.approx(2.0)
    with pytest.raises(EntropyError):
        entropy_of_distribution([0.7, 0.7])
    with pytest.raises(EntropyError):
        entropy_of_distribution([-0.5, 1.5])


def test_relation_entropy_product():
    relation = Relation.product_relation({"a": range(2), "b": range(4)})
    entropy = relation_entropy(relation)
    assert entropy({"a"}) == pytest.approx(1.0)
    assert entropy({"b"}) == pytest.approx(2.0)
    assert entropy({"a", "b"}) == pytest.approx(3.0)
    assert is_modular(entropy)


def test_relation_entropy_parity(parity):
    relation = Relation(
        attributes=("X1", "X2", "X3"),
        rows={(x, y, (x + y) % 2) for x in range(2) for y in range(2)},
    )
    assert relation_entropy(relation).is_close_to(parity)


def test_random_relation_entropies_are_polymatroids():
    # Shannon's inequalities hold for every entropic function.
    rng = random.Random(0)
    attributes = ("a", "b", "c", "d")
    for _ in range(30):
        rows = {
            tuple(rng.randrange(3) for _ in attributes)
            for _ in range(rng.randint(1, 12))
        }
        entropy = relation_entropy(Relation(attributes=attributes, rows=rows))
        assert is_polymatroid(entropy, tolerance=1e-9)


def test_relation_entropy_empty_rejected():
    with pytest.raises(EntropyError):
        relation_entropy(Relation(attributes=("a",), rows=frozenset()))


def test_relation_entropy_matches_log_sizes_when_uniform(diagonal_relation):
    entropy = relation_entropy(diagonal_relation)
    log_sizes = projection_log_sizes(diagonal_relation)
    assert entropy.is_close_to(log_sizes)


def test_distribution_entropy_nonuniform():
    entropy = distribution_entropy(("a",), {(0,): 0.5, (1,): 0.25, (2,): 0.25})
    assert entropy({"a"}) == pytest.approx(1.5)
    with pytest.raises(EntropyError):
        distribution_entropy(("a",), {(0,): 0.5})
    with pytest.raises(EntropyError):
        distribution_entropy(("a",), {(0, 1): 1.0})


def test_step_function_values():
    step = step_function(("a", "b", "c"), low_part=("a", "b"))
    assert step({"a"}) == 0.0
    assert step({"a", "b"}) == 0.0
    assert step({"c"}) == 1.0
    assert step({"a", "c"}) == 1.0
    assert is_polymatroid(step)


def test_step_function_entropy_of_step_relation():
    relation = Relation.step_relation(("a", "b", "c"), low_part=("a",))
    assert relation_entropy(relation).is_close_to(
        step_function(("a", "b", "c"), low_part=("a",))
    )


def test_step_function_requires_proper_subset():
    with pytest.raises(EntropyError):
        step_function(("a", "b"), low_part=("a", "b"))
    with pytest.raises(EntropyError):
        step_function(("a",), low_part=("z",))


def test_modular_function_values():
    modular = modular_function({"a": 1.0, "b": 2.0})
    assert modular({"a", "b"}) == 3.0
    assert is_modular(modular)
    with pytest.raises(EntropyError):
        modular_function({"a": -1.0})


def test_normal_function_combination():
    ground = ("a", "b", "c")
    normal = normal_function(
        ground, {frozenset({"a"}): 2.0, frozenset(): 1.0}
    )
    assert normal({"a"}) == pytest.approx(1.0)
    assert normal({"b"}) == pytest.approx(3.0)
    assert is_polymatroid(normal)
    with pytest.raises(EntropyError):
        normal_function(ground, {frozenset({"a"}): -1.0})
    with pytest.raises(EntropyError):
        normal_function(ground, {frozenset(ground): 1.0})


def test_parity_function_values(parity):
    assert parity({"X1"}) == 1.0
    assert parity({"X1", "X2"}) == 2.0
    assert parity({"X1", "X2", "X3"}) == 2.0
    with pytest.raises(EntropyError):
        parity_function(("a", "b"))


def test_uniform_function_and_zero():
    uniform = uniform_function(("a", "b", "c"), rank=2, scale=math.log2(3))
    assert uniform({"a"}) == pytest.approx(math.log2(3))
    assert uniform({"a", "b", "c"}) == pytest.approx(2 * math.log2(3))
    assert is_polymatroid(uniform)
    zero = zero_function(("a", "b"))
    assert zero.total() == 0.0
