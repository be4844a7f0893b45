"""One-pass expression rewrites against the term-by-term reference.

``ConditionalExpression.substitute`` (the Eq. (8) branch ``E_T ∘ φ`` and the
evidence renaming of a cache or store hit) and
``MaxInformationInequality.containment_form`` (the Max-II the ``Γn`` LP
decides) build their results in one pass.  The references below are the
term-by-term constructions they replaced: every term through the
validating constructors, and each branch shifted by ``- q·h(V)`` through
``LinearExpression`` arithmetic.  The results must be equal down to the
coefficient dicts' key order and float values, since LP rows and proofs
are built from them in that order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ExpressionError
from repro.infotheory.expressions import (
    ConditionalExpression,
    ConditionalTerm,
    LinearExpression,
    MaxInformationInequality,
)

SOURCE = ("a", "b", "c", "d", "e")
TARGET = ("x", "y", "z", "w")


def reference_substitute(expression, mapping, ground):
    """Rename every term through ``ConditionalTerm`` and re-check the ground."""
    return ConditionalExpression(
        ground=tuple(ground),
        terms=tuple(
            ConditionalTerm(
                targets=frozenset(mapping.get(v, v) for v in term.targets),
                given=frozenset(mapping.get(v, v) for v in term.given),
                coefficient=term.coefficient,
            )
            for term in expression.terms
        ),
    )


def reference_containment_form(total_coefficient, ground, branches):
    """Each branch as ``branch.with_ground(ground) - q·h(V)``."""
    ground = tuple(ground)
    total_term = LinearExpression.entropy_term(ground, ground, total_coefficient)
    return MaxInformationInequality(
        branches=tuple(branch.with_ground(ground) - total_term for branch in branches)
    )


def subsets_of(variables, min_size=0):
    return st.lists(st.sampled_from(variables), min_size=min_size, max_size=3).map(
        frozenset
    )


# Small dyadic coefficients, so that terms cancel exactly as often as they do
# in Eq. (8) (integer coefficients, repeated images).
coefficients = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0])


@st.composite
def conditional_expressions(draw):
    terms = draw(
        st.lists(
            st.builds(
                ConditionalTerm,
                targets=subsets_of(SOURCE, min_size=1),
                # Empty contexts are drawn often: they are the h(Y) terms.
                given=st.one_of(st.just(frozenset()), subsets_of(SOURCE)),
                coefficient=coefficients,
            ),
            max_size=6,
        )
    )
    return ConditionalExpression(ground=SOURCE, terms=tuple(terms))


# Few images for many sources: repeated images are the common case.
mappings = st.fixed_dictionaries({v: st.sampled_from(TARGET) for v in SOURCE})


def assert_same_linear(actual, expected):
    assert actual.ground == expected.ground
    assert list(actual.coefficients.items()) == list(expected.coefficients.items())


@settings(max_examples=300, deadline=None)
@given(conditional_expressions(), mappings)
def test_substitute_matches_term_by_term_reference(expression, mapping):
    actual = expression.substitute(mapping, TARGET)
    expected = reference_substitute(expression, mapping, TARGET)
    assert actual == expected
    assert [vars(term) for term in actual.terms] == [vars(term) for term in expected.terms]
    assert_same_linear(actual.to_linear(), expected.to_linear())


@settings(max_examples=100, deadline=None)
@given(conditional_expressions(), mappings, st.sampled_from(TARGET))
def test_substitute_rejects_an_image_outside_the_ground(expression, mapping, dropped):
    ground = tuple(v for v in TARGET if v != dropped)
    images = {
        mapping[v] for term in expression.terms for v in term.targets | term.given
    }
    if dropped in images:
        with pytest.raises(ExpressionError):
            reference_substitute(expression, mapping, ground)
        with pytest.raises(ExpressionError):
            expression.substitute(mapping, ground)
    else:
        assert expression.substitute(mapping, ground) == reference_substitute(
            expression, mapping, ground
        )


@st.composite
def branch_lists(draw):
    """Branches over ``TARGET``, often holding ``q·h(V)`` itself (so it cancels)."""
    total = draw(st.sampled_from([0.0, 1.0, 1.0, 2.0, 0.5]))
    full = frozenset(TARGET)
    branches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        expression = draw(conditional_expressions()).substitute(
            draw(mappings), TARGET
        ).to_linear()
        if draw(st.booleans()):
            # Put h(V) in at a drawn position, at exactly q or at another value.
            coefficients = list(expression.coefficients.items())
            value = draw(st.sampled_from([total, total, 1.0, -1.0]))
            coefficients.insert(draw(st.integers(0, len(coefficients))), (full, value))
            expression = LinearExpression(TARGET, dict(coefficients))
        branches.append(expression)
    return total, branches


@settings(max_examples=300, deadline=None)
@given(branch_lists())
def test_containment_form_matches_arithmetic_reference(drawn):
    total, branches = drawn
    actual = MaxInformationInequality.containment_form(total, TARGET, branches)
    expected = reference_containment_form(total, TARGET, branches)
    assert len(actual.branches) == len(expected.branches)
    for shifted, reference in zip(actual.branches, expected.branches):
        assert_same_linear(shifted, reference)


def test_containment_form_rejects_a_branch_outside_the_ground():
    branch = LinearExpression(("x", "q"), {frozenset({"q"}): 1.0})
    with pytest.raises(ExpressionError):
        reference_containment_form(1.0, ("x",), [branch])
    with pytest.raises(ExpressionError):
        MaxInformationInequality.containment_form(1.0, ("x",), [branch])
