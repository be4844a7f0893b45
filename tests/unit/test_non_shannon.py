"""Unit tests for the Zhang–Yeung non-Shannon inequality extension."""

import random
from itertools import product

import pytest

from repro.infotheory.functions import step_function
from repro.infotheory.group_entropy import entropy_from_subspaces
from repro.infotheory.non_shannon import (
    is_shannon_provable,
    zhang_yeung_inequality,
    zhang_yeung_violating_polymatroid,
)
from repro.infotheory.polymatroid import is_polymatroid
from repro.utils.subsets import proper_subsets

GROUND = ("A", "B", "C", "D")


def test_zhang_yeung_is_not_shannon_provable():
    inequality = zhang_yeung_inequality(GROUND)
    assert not is_shannon_provable(inequality)


def test_zhang_yeung_violating_polymatroid_is_a_gap_witness():
    inequality = zhang_yeung_inequality(GROUND)
    witness = zhang_yeung_violating_polymatroid(GROUND)
    assert is_polymatroid(witness, tolerance=1e-7)
    assert inequality.expression.evaluate(witness) < -1e-7


def test_zhang_yeung_holds_on_entropic_families():
    # The inequality is valid for entropic functions.  It holds at the 15
    # step functions h_W, W ⊊ V, which generate the normal cone Nn; the
    # modular functions lie in Nn, so by linearity it holds at every normal
    # and every modular function.
    inequality = zhang_yeung_inequality(GROUND)
    for low in proper_subsets(GROUND):
        assert inequality.expression.evaluate(step_function(GROUND, low)) >= 0.0
    # And at group-characterizable entropies of (F_2)^3, whose subgroups
    # are random subspaces of dimension at most 2.
    rng = random.Random(0)
    vectors = list(product((0, 1), repeat=3))[1:]
    for _ in range(50):
        generators = {v: rng.sample(vectors, rng.randint(0, 2)) for v in GROUND}
        entropy = entropy_from_subspaces(GROUND, 3, generators)
        assert inequality.holds_for(entropy, tolerance=1e-9)


def test_zhang_yeung_holds_on_parity_like_functions(parity):
    # Extend the 3-variable parity function with an independent 4th variable.
    from repro.cq.structures import Relation
    from repro.infotheory.entropy import relation_entropy

    rows = {
        (x, y, (x + y) % 2, z) for x in range(2) for y in range(2) for z in range(2)
    }
    entropy = relation_entropy(Relation(attributes=GROUND, rows=rows))
    inequality = zhang_yeung_inequality(GROUND)
    assert inequality.holds_for(entropy, tolerance=1e-7)


def test_zhang_yeung_requires_four_distinct_variables():
    with pytest.raises(Exception):
        zhang_yeung_inequality(("A", "B", "C", "C"))


def test_shannon_inequalities_remain_provable_on_four_variables():
    # Sanity: ordinary submodularity on 4 variables is still Shannon-provable,
    # so the negative answer above is specific to Zhang–Yeung.
    from repro.infotheory.expressions import InformationInequality, LinearExpression

    expression = (
        LinearExpression.entropy_term(GROUND, {"A"})
        + LinearExpression.entropy_term(GROUND, {"B"})
        - LinearExpression.entropy_term(GROUND, {"A", "B"})
    )
    assert is_shannon_provable(InformationInequality(expression), GROUND)
